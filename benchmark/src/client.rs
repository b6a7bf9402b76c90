//! The load generator's HTTP client: one keep-alive connection per
//! server, one request in flight, no pipelining.
//!
//! It parses responses with its own few lines of code rather than with
//! `dcws-http`: the generator shares cores with the servers, and a change
//! to the crate under test must move the servers' numbers only.

use crate::sched::Clock;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One op may follow this many `301`s after its first request.
pub const MAX_REDIRECTS: usize = 4;
/// An op that has not finished after this long has failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(1);
/// Receive buffer of every connection of the generator, and both buffers
/// of its reference.
pub const SOCKET_BUFFER: i32 = 1 << 20;
/// Algorithm 2 backs off 1 s, 2 s, 4 s ... after a `503`; like the
/// Table-1 timers, the benchmark divides that by 100.
const BACKOFF_BASE: Duration = Duration::from_millis(10);

/// Where to send a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Target {
    pub server: usize,
    /// Request path as sent, `~migrate` prefix included.
    pub path: String,
    /// Inclusive byte range, sent as `Range: bytes=a-b`.
    pub range: Option<(u64, u64)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    Io,
    Timeout,
    RedirectChain,
    Status(u16),
    UnknownHost,
    Malformed,
}

/// Timestamps of one HTTP exchange (ns since the run epoch).
#[derive(Debug, Clone, Copy, Default)]
pub struct Hop {
    pub server: usize,
    pub status: u16,
    pub start_ns: u64,
    pub written_ns: u64,
    pub first_byte_ns: u64,
    pub done_ns: u64,
}

/// A finished op. The entity body is [`Client::body`].
#[derive(Debug, Clone)]
pub struct Fetched {
    pub status: u16,
    pub server: usize,
    pub path: String,
    pub is_html: bool,
    /// `Content-Range: bytes a-b/total`, when present.
    pub content_range: Option<(u64, u64, u64)>,
    pub hops: Vec<Hop>,
    pub backoffs: u32,
}

impl Fetched {
    /// First byte of the final response.
    pub fn first_byte_ns(&self) -> u64 {
        self.hops.last().map_or(0, |h| h.first_byte_ns)
    }
}

struct Conn {
    stream: TcpStream,
    /// Has answered at least one request: a failure on a fresh
    /// connection is the server's, on a used one it may be an idle close.
    used: bool,
}

struct Head {
    status: u16,
    content_length: usize,
    is_html: bool,
    location: Option<String>,
    content_range: Option<(u64, u64, u64)>,
}

pub struct Client {
    addrs: Vec<SocketAddr>,
    conns: Vec<Option<Conn>>,
    req: Vec<u8>,
    head: Vec<u8>,
    /// Grows to the largest body seen and is never shrunk or re-zeroed:
    /// clearing 2 MB per op would cost the generator more than parsing.
    body: Vec<u8>,
    body_len: usize,
    /// Connections dialled, placement redials included.
    pub dials: u64,
}

impl Client {
    pub fn new(addrs: Vec<SocketAddr>) -> Client {
        Client {
            conns: addrs.iter().map(|_| None).collect(),
            addrs,
            req: Vec::with_capacity(256),
            head: Vec::with_capacity(4096),
            body: Vec::new(),
            body_len: 0,
            dials: 0,
        }
    }

    /// Entity body of the last response read.
    pub fn body(&self) -> &[u8] {
        &self.body[..self.body_len]
    }

    /// (Re)dial the connection to `server`, closing any existing one.
    pub fn dial(&mut self, server: usize) -> io::Result<()> {
        self.conns[server] = None;
        let stream = TcpStream::connect_timeout(&self.addrs[server], OP_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(OP_TIMEOUT))?;
        stream.set_write_timeout(Some(OP_TIMEOUT))?;
        crate::sched::fix_socket_buffer(&stream, false, SOCKET_BUFFER);
        self.dials += 1;
        self.conns[server] = Some(Conn {
            stream,
            used: false,
        });
        Ok(())
    }

    /// One op: GET, follow up to [`MAX_REDIRECTS`] `301`s, retry `503`
    /// with exponential back-off, all within [`OP_TIMEOUT`] of `start_ns`.
    pub fn fetch(
        &mut self,
        clock: &impl Clock,
        start_ns: u64,
        target: &Target,
    ) -> Result<Fetched, Failure> {
        let deadline_ns = start_ns + OP_TIMEOUT.as_nanos() as u64;
        let mut server = target.server;
        let mut path = target.path.clone();
        let mut hops = Vec::with_capacity(2);
        let mut backoffs = 0u32;
        let mut redirects = 0;
        loop {
            let (head, hop) = self.exchange(clock, server, &path, target.range, deadline_ns)?;
            hops.push(hop);
            match head.status {
                200..=299 => {
                    return Ok(Fetched {
                        status: head.status,
                        server,
                        path,
                        is_html: head.is_html,
                        content_range: head.content_range,
                        hops,
                        backoffs,
                    })
                }
                301 => {
                    redirects += 1;
                    if redirects > MAX_REDIRECTS {
                        return Err(Failure::RedirectChain);
                    }
                    let loc = head.location.ok_or(Failure::Malformed)?;
                    let (host, port, p) = split_url(&loc).ok_or(Failure::Malformed)?;
                    server = server_index(&self.addrs, host, port).ok_or(Failure::UnknownHost)?;
                    path = p.to_string();
                }
                503 => {
                    let wait = BACKOFF_BASE * 2u32.pow(backoffs.min(6));
                    backoffs += 1;
                    let resume = clock.now_ns() + wait.as_nanos() as u64;
                    if resume >= deadline_ns {
                        return Err(Failure::Timeout);
                    }
                    clock.wait_until(resume);
                }
                other => return Err(Failure::Status(other)),
            }
        }
    }

    /// One request/response on the kept-alive connection to `server`. A
    /// used connection that dies before the first response byte is
    /// redialled once (the server may have closed it while idle).
    fn exchange(
        &mut self,
        clock: &impl Clock,
        server: usize,
        path: &str,
        range: Option<(u64, u64)>,
        deadline_ns: u64,
    ) -> Result<(Head, Hop), Failure> {
        self.req.clear();
        write!(
            self.req,
            "GET {path} HTTP/1.1\r\nHost: {}\r\n",
            self.addrs[server]
        )
        .expect("write to Vec");
        if let Some((a, b)) = range {
            write!(self.req, "Range: bytes={a}-{b}\r\n").expect("write to Vec");
        }
        self.req.extend_from_slice(b"\r\n");

        for attempt in 0..2 {
            if self.conns[server].is_none() {
                self.dial(server).map_err(|_| Failure::Io)?;
            }
            let mut hop = Hop {
                server,
                start_ns: clock.now_ns(),
                ..Hop::default()
            };
            let conn = self.conns[server].as_mut().expect("dialled above");
            let was_used = conn.used;
            let sent = conn.stream.write_all(&self.req).is_ok();
            hop.written_ns = clock.now_ns();
            let first = if sent {
                self.head.clear();
                self.head.resize(4096, 0);
                conn.stream.read(&mut self.head).unwrap_or(0)
            } else {
                0
            };
            if first == 0 {
                self.conns[server] = None;
                if was_used && attempt == 0 && clock.now_ns() < deadline_ns {
                    continue;
                }
                return Err(Failure::Io);
            }
            hop.first_byte_ns = clock.now_ns();
            let head = match self.finish_response(clock, server, first, deadline_ns) {
                Ok(h) => h,
                Err(f) => {
                    self.conns[server] = None;
                    return Err(f);
                }
            };
            hop.done_ns = clock.now_ns();
            hop.status = head.status;
            if let Some(c) = self.conns[server].as_mut() {
                c.used = true;
            }
            return Ok((head, hop));
        }
        Err(Failure::Io)
    }

    /// `self.head[..filled]` holds the first bytes of a response: read
    /// the rest of the head, then the whole body into `self.body`.
    fn finish_response(
        &mut self,
        clock: &impl Clock,
        server: usize,
        mut filled: usize,
        deadline_ns: u64,
    ) -> Result<Head, Failure> {
        let conn = self.conns[server].as_mut().expect("connection in use");
        let head_end = loop {
            if let Some(i) = find(&self.head[..filled], b"\r\n\r\n") {
                break i + 4;
            }
            if filled == self.head.len() {
                if filled >= 64 * 1024 {
                    return Err(Failure::Malformed);
                }
                self.head.resize(filled * 2, 0);
            }
            filled += read_some(
                &mut conn.stream,
                &mut self.head[filled..],
                clock,
                deadline_ns,
            )?;
        };
        let head = parse_head(&self.head[..head_end]).ok_or(Failure::Malformed)?;
        let have = filled - head_end;
        if have > head.content_length {
            return Err(Failure::Malformed);
        }
        if self.body.len() < head.content_length {
            self.body.resize(head.content_length, 0);
        }
        self.body_len = head.content_length;
        self.body[..have].copy_from_slice(&self.head[head_end..filled]);
        let mut got = have;
        while got < head.content_length {
            got += read_some(
                &mut conn.stream,
                &mut self.body[got..head.content_length],
                clock,
                deadline_ns,
            )?;
        }
        Ok(head)
    }
}

fn read_some(
    stream: &mut TcpStream,
    buf: &mut [u8],
    clock: &impl Clock,
    deadline_ns: u64,
) -> Result<usize, Failure> {
    if clock.now_ns() >= deadline_ns {
        return Err(Failure::Timeout);
    }
    match stream.read(buf) {
        Ok(0) => Err(Failure::Io),
        Ok(n) => Ok(n),
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            Err(Failure::Timeout)
        }
        Err(_) => Err(Failure::Io),
    }
}

/// Which of `addrs` is `host:port`?
pub fn server_index(addrs: &[SocketAddr], host: &str, port: u16) -> Option<usize> {
    addrs
        .iter()
        .position(|a| a.port() == port && a.ip().to_string() == host)
}

/// First occurrence of `needle`: scan for its first byte, then compare.
pub fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    let first = *needle.first()?;
    let mut from = 0;
    while let Some(i) = hay[from..].iter().position(|&c| c == first) {
        if hay[from + i..].starts_with(needle) {
            return Some(from + i);
        }
        from += i + 1;
    }
    None
}

fn parse_head(head: &[u8]) -> Option<Head> {
    let text = std::str::from_utf8(head).ok()?;
    let mut lines = text.split("\r\n");
    let status: u16 = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let mut out = Head {
        status,
        content_length: 0,
        is_html: false,
        location: None,
        content_range: None,
    };
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            out.content_length = value.parse().ok()?;
        } else if name.eq_ignore_ascii_case("content-type") {
            out.is_html = value.starts_with("text/html");
        } else if name.eq_ignore_ascii_case("location") {
            out.location = Some(value.to_string());
        } else if name.eq_ignore_ascii_case("content-range") {
            out.content_range = parse_content_range(value);
        }
    }
    // 304/204 and friends carry no body whatever Content-Length says.
    if status == 304 || status == 204 || status < 200 {
        out.content_length = 0;
    }
    Some(out)
}

/// `bytes a-b/total`
fn parse_content_range(v: &str) -> Option<(u64, u64, u64)> {
    let (range, total) = v.strip_prefix("bytes ")?.split_once('/')?;
    let (a, b) = range.split_once('-')?;
    Some((a.parse().ok()?, b.parse().ok()?, total.parse().ok()?))
}

/// Split `http://host[:port]/path` into its parts.
pub fn split_url(url: &str) -> Option<(&str, u16, &str)> {
    let rest = url.strip_prefix("http://")?;
    let slash = rest.find('/')?;
    let (authority, path) = rest.split_at(slash);
    match authority.split_once(':') {
        Some((h, p)) => Some((h, p.parse().ok()?, path)),
        None => Some((authority, 80, path)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_partial_content_head() {
        let h = parse_head(
            b"HTTP/1.1 206 Partial Content\r\nContent-Type: image/gif\r\n\
              content-length: 10\r\nContent-Range: bytes 5-14/100\r\n\r\n",
        )
        .unwrap();
        assert_eq!((h.status, h.content_length, h.is_html), (206, 10, false));
        assert_eq!(h.content_range, Some((5, 14, 100)));
    }

    #[test]
    fn parses_a_redirect_head() {
        let h = parse_head(
            b"HTTP/1.1 301 Moved Permanently\r\nLocation: http://127.0.0.1:9/~migrate/127.0.0.1/8/a.gif\r\nContent-Length: 0\r\n\r\n",
        )
        .unwrap();
        assert_eq!(h.status, 301);
        let loc = h.location.unwrap();
        assert_eq!(
            split_url(&loc),
            Some(("127.0.0.1", 9, "/~migrate/127.0.0.1/8/a.gif"))
        );
    }

    #[test]
    fn url_without_port_or_path_is_handled() {
        assert_eq!(split_url("http://h/x"), Some(("h", 80, "/x")));
        assert_eq!(split_url("http://h"), None);
        assert_eq!(split_url("ftp://h/x"), None);
    }
}
