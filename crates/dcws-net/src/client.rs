//! A small blocking HTTP client for inter-server transfers and examples,
//! and [`walk`], the blocking driver of the Algorithm-2 [`Walker`] that
//! `dcws-walk` runs one of per client thread.

use crate::conn::{read_response, read_response_buf, write_request, MsgBuf, READ_TIMEOUT};
use crate::transport::is_conn_death;
use crate::walker::{Heard, Links, Next, Walker};
use dcws_graph::ServerId;
use dcws_http::{Request, Response, Url, Version};
use std::hash::BuildHasher;
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Send `req` to `server` (connect, one request, one response, close).
pub fn fetch_from(server: &ServerId, req: &Request) -> io::Result<Response> {
    fetch_from_timeout(server, req, READ_TIMEOUT)
}

/// [`fetch_from`] with an explicit timeout (connect and read).
pub fn fetch_from_timeout(
    server: &ServerId,
    req: &Request,
    timeout: Duration,
) -> io::Result<Response> {
    let (host, port) = server.host_port();
    let mut stream = TcpStream::connect((host, port))?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    stream.write_all(&req.to_bytes())?;
    read_response(&mut stream, req.method)
}

/// GET an absolute URL, following up to `max_redirects` `301`s — the
/// client-side behaviour DCWS relies on for stale pre-migration links
/// (§4.4). Returns the final response and the URL it came from.
///
/// When a redirect targets the same `host:port` it was served from —
/// the common §4.4 case of a renamed path on an unmoved document — the
/// next hop reuses the live connection instead of reconnecting,
/// provided the response allowed keep-alive. A reused connection the
/// peer closed in the meantime is transparently redialed once.
pub fn fetch(url: &Url, max_redirects: usize) -> io::Result<(Response, Url)> {
    let mut current = url.clone();
    // A connection (plus its parse buffer) kept alive across
    // same-server redirect hops.
    let mut held: Option<(ServerId, TcpStream, MsgBuf)> = None;
    for _ in 0..=max_redirects {
        let host = current.host().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "fetch requires an absolute URL",
            )
        })?;
        let server = ServerId::new(format!("{host}:{}", current.port()));
        let req = Request::get(current.path()).with_header("Host", server.to_string());
        let (mut stream, mut mb, reused) = match held.take() {
            Some((held_id, s, mb)) if held_id == server => (s, mb, true),
            _ => {
                let (s, mb) = dial(&server, READ_TIMEOUT)?;
                (s, mb, false)
            }
        };
        let resp = match exchange(&mut stream, &mut mb, &req) {
            Ok(resp) => resp,
            // The hop reused a stream the server had since closed: one
            // fresh dial, same request (nothing was received, so the
            // retry is safe).
            Err(e) if reused && mb.buffered() == 0 && is_conn_death(&e) => {
                let fresh = dial(&server, READ_TIMEOUT)?;
                (stream, mb) = fresh;
                exchange(&mut stream, &mut mb, &req)?
            }
            Err(e) => return Err(e),
        };
        let keep_alive = resp.version == Version::Http11
            && !resp
                .headers
                .get("Connection")
                .is_some_and(|c| c.eq_ignore_ascii_case("close"));
        if resp.status.is_redirect() {
            if let Some(loc) = resp.location() {
                current = if loc.is_absolute() {
                    loc
                } else {
                    current
                        .join(&loc.to_string())
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
                };
                if keep_alive {
                    held = Some((server, stream, mb));
                }
                continue;
            }
        }
        return Ok((resp, current));
    }
    Err(io::Error::other(format!(
        "redirect limit exceeded fetching {url}"
    )))
}

/// Connect to `server` with a fresh parse buffer.
fn dial(server: &ServerId, timeout: Duration) -> io::Result<(TcpStream, MsgBuf)> {
    let (host, port) = server.host_port();
    let stream = TcpStream::connect((host, port))?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    Ok((stream, MsgBuf::new()))
}

/// One request/response round trip over an established connection.
fn exchange(stream: &mut TcpStream, mb: &mut MsgBuf, req: &Request) -> io::Result<Response> {
    write_request(stream, req)?;
    read_response_buf(stream, req.method, mb)
}

/// What [`walk`] drivers count, shared by every client thread.
#[derive(Debug, Default)]
pub struct WalkTally {
    /// `200`s: completed transfers.
    pub completed: AtomicU64,
    /// Entity bytes of the completed transfers.
    pub bytes: AtomicU64,
    /// Sum of their response times (redirect hops included), µs.
    pub latency_us: AtomicU64,
    /// `503`s.
    pub drops: AtomicU64,
    /// `301`s.
    pub redirects: AtomicU64,
    /// Refused connections and other statuses.
    pub failures: AtomicU64,
    /// Sessions walked to their end.
    pub sessions: AtomicU64,
}

impl WalkTally {
    fn count(&self, heard: Heard, now: u64, bytes: usize) {
        let counter = match heard {
            Heard::Stale => return,
            Heard::Completed { issued_at } => {
                self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
                self.latency_us
                    .fetch_add(now - issued_at, Ordering::Relaxed);
                &self.completed
            }
            Heard::Dropped => &self.drops,
            Heard::Redirected => &self.redirects,
            Heard::Failed => &self.failures,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// How often a waiting driver looks at its stop flag.
const STOP_POLL: Duration = Duration::from_millis(20);

/// Drive `walker` over blocking TCP until `stop` is set: sessions start at
/// `entries`, each fetch is a [`fetch_from`] on a scoped helper thread of
/// its own (the walker keeps at most `helpers` in flight), wakes are
/// sleeps, and the client's own processing time is what it really takes.
/// `on_fetch` sees each URL as it is sent, in the walker's order.
pub fn walk<S: BuildHasher + Default>(
    walker: &mut Walker<S>,
    entries: &[Arc<Url>],
    tally: &WalkTally,
    stop: &AtomicBool,
    mut on_fetch: impl FnMut(&Url),
) {
    let clock = Instant::now();
    let now = || clock.elapsed().as_micros() as u64;
    let (done_tx, done) = mpsc::channel();
    std::thread::scope(|scope| {
        while !stop.load(Ordering::Relaxed) {
            if walker.between_sessions() {
                walker.begin_session(now(), entries, None);
            } else {
                walker.wake(now());
            }
            let pause_us = loop {
                match walker.poll() {
                    Some(Next::Fetch { token, url }) => {
                        on_fetch(&url);
                        let done_tx = done_tx.clone();
                        scope.spawn(move || done_tx.send((token, get(&url))));
                    }
                    Some(Next::SessionEnd) => {
                        tally.sessions.fetch_add(1, Ordering::Relaxed);
                    }
                    Some(Next::Wake { think_us }) => break think_us,
                    Some(Next::Backoff { delay_us }) => break delay_us,
                    // Nothing to do until a fetch in flight comes back.
                    None => match done.recv_timeout(STOP_POLL) {
                        _ if stop.load(Ordering::Relaxed) => return,
                        Ok((token, Ok(resp))) => {
                            let heard = walker.on_reply(now(), token, &resp, |base, body| {
                                Arc::new(Links::parse(base, body))
                            });
                            tally.count(heard, now(), resp.body.len());
                        }
                        Ok((token, Err(_))) => {
                            tally.count(walker.on_failed(now(), token), now(), 0)
                        }
                        Err(_) => {}
                    },
                }
            };
            let until = Instant::now() + Duration::from_micros(pause_us);
            while !stop.load(Ordering::Relaxed) && Instant::now() < until {
                std::thread::sleep(STOP_POLL.min(until - Instant::now()));
            }
        }
    });
}

/// One `GET` of an absolute URL: connect, request, response, close.
fn get(url: &Url) -> io::Result<Response> {
    let host = url.host().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "a walk fetches absolute URLs")
    })?;
    let server = ServerId::new(format!("{host}:{}", url.port()));
    fetch_from(&server, &Request::get(url.path()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcws_http::{Method, StatusCode};
    use std::net::TcpListener;

    fn one_shot_server(resp: Response) -> ServerId {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let req = crate::conn::read_request(&mut s).unwrap().unwrap();
            crate::conn::write_response(&mut s, &resp, req.method).unwrap();
        });
        ServerId::new(format!("127.0.0.1:{}", addr.port()))
    }

    #[test]
    fn fetch_from_round_trips() {
        let server = one_shot_server(Response::ok(b"payload".to_vec(), "text/plain"));
        let resp = fetch_from(&server, &Request::get("/any")).unwrap();
        assert_eq!(resp.status, StatusCode::Ok);
        assert_eq!(resp.body, b"payload");
    }

    #[test]
    fn fetch_follows_redirect() {
        let final_server = one_shot_server(Response::ok(b"end".to_vec(), "text/plain"));
        let (h, p) = final_server.host_port();
        let target = Url::absolute(h, p, "/final.html").unwrap();
        let first = one_shot_server(Response::moved_permanently(&target));
        let (fh, fp) = first.host_port();
        let start = Url::absolute(fh, fp, "/old.html").unwrap();
        let (resp, from) = fetch(&start, 3).unwrap();
        assert_eq!(resp.body, b"end");
        assert_eq!(from, target);
    }

    #[test]
    fn fetch_redirect_limit() {
        // A server that redirects to itself forever.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let self_url = Url::absolute("127.0.0.1", addr.port(), "/loop.html").unwrap();
        let self_url2 = self_url.clone();
        std::thread::spawn(move || {
            for _ in 0..10 {
                let Ok((mut s, _)) = listener.accept() else {
                    return;
                };
                if let Ok(Some(req)) = crate::conn::read_request(&mut s) {
                    let _ = crate::conn::write_response(
                        &mut s,
                        &Response::moved_permanently(&self_url2),
                        req.method,
                    );
                }
            }
        });
        assert!(fetch(&self_url, 3).is_err());
    }

    #[test]
    fn fetch_reuses_connection_for_same_host_redirect() {
        // One accept only: the redirect hop and the final fetch must
        // both arrive on the same connection.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let target = Url::absolute("127.0.0.1", addr.port(), "/new.html").unwrap();
        let target2 = target.clone();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut mb = MsgBuf::new();
            let req = crate::conn::read_request_buf(&mut s, &mut mb)
                .unwrap()
                .unwrap();
            crate::conn::write_response(&mut s, &Response::moved_permanently(&target2), req.method)
                .unwrap();
            let req = crate::conn::read_request_buf(&mut s, &mut mb)
                .unwrap()
                .unwrap();
            crate::conn::write_response(
                &mut s,
                &Response::ok(b"moved here".to_vec(), "text/plain"),
                req.method,
            )
            .unwrap();
        });
        let start = Url::absolute("127.0.0.1", addr.port(), "/old.html").unwrap();
        let (resp, from) = fetch(&start, 3).unwrap();
        assert_eq!(resp.body, b"moved here");
        assert_eq!(from, target);
        server.join().unwrap();
    }

    #[test]
    fn fetch_redials_when_reused_connection_went_stale() {
        // The server closes the connection right after the 301 without
        // announcing `Connection: close`; the client's reuse attempt
        // hits a dead stream and must transparently redial.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let target = Url::absolute("127.0.0.1", addr.port(), "/new.html").unwrap();
        let target2 = target.clone();
        let server = std::thread::spawn(move || {
            {
                let (mut s, _) = listener.accept().unwrap();
                if let Ok(Some(req)) = crate::conn::read_request(&mut s) {
                    let _ = crate::conn::write_response(
                        &mut s,
                        &Response::moved_permanently(&target2),
                        req.method,
                    );
                }
                // Dropped here: the client's parked connection dies.
            }
            let (mut s, _) = listener.accept().unwrap();
            let req = crate::conn::read_request(&mut s).unwrap().unwrap();
            crate::conn::write_response(
                &mut s,
                &Response::ok(b"found anyway".to_vec(), "text/plain"),
                req.method,
            )
            .unwrap();
        });
        let start = Url::absolute("127.0.0.1", addr.port(), "/old.html").unwrap();
        let (resp, from) = fetch(&start, 3).unwrap();
        assert_eq!(resp.body, b"found anyway");
        assert_eq!(from, target);
        server.join().unwrap();
    }

    #[test]
    fn fetch_requires_absolute_url() {
        let u = Url::relative("/x.html").unwrap();
        assert!(fetch(&u, 1).is_err());
    }

    #[test]
    fn head_request_over_client() {
        let server = one_shot_server(Response::ok(b"0123".to_vec(), "text/plain"));
        let resp = fetch_from(&server, &Request::head("/any")).unwrap();
        assert!(resp.body.is_empty());
        assert_eq!(resp.headers.get("Content-Length"), Some("4"));
        let _ = Method::Head;
    }
}
