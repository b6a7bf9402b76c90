//! The inline warm-GET path serves the plain request from a prebuilt
//! head; every other request variant must still take its own branch.
//! Each test drives a real one-shard reactor over TCP, on the epoll and
//! on the `poll(2)` backend, and checks that the variants were answered
//! inline (no spill to the worker pool).

use dcws_core::{MemStore, ServerConfig, ServerEngine};
use dcws_graph::{DocKind, ServerId};
use dcws_http::LoadReport;
use dcws_net::{DcwsServer, NetConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

const HELLO: &[u8] = b"<p>hello, reactor</p>";

/// A one-shard reactor with `/hello.html` and `/a/b` published and
/// primed, so every later GET of them is a read-path hit.
fn primed_server(force_poll: bool) -> DcwsServer {
    let mut engine = ServerEngine::new(
        ServerId::new("placeholder:0"),
        ServerConfig::paper_defaults(),
        Box::new(MemStore::new()),
    );
    engine.publish("/hello.html", HELLO.to_vec(), DocKind::Html, true);
    engine.publish("/a/b", b"nested".to_vec(), DocKind::Image, false);
    let mut net = NetConfig::new(Duration::from_millis(50));
    net.reactor_shards = 1;
    net.reactor_force_poll = force_poll;
    let server = DcwsServer::spawn_with(engine, "127.0.0.1:0", net).unwrap();
    let mut c = Client::connect(&server);
    for path in ["/hello.html", "/a/b"] {
        let r = c.get(&format!("GET {path} HTTP/1.1\r\n\r\n"));
        assert_eq!(r.status, 200, "priming {path}");
    }
    server
}

/// Run `test` against both poller backends.
fn on_both_backends(test: impl Fn(&DcwsServer)) {
    for force_poll in [false, true] {
        let server = primed_server(force_poll);
        test(&server);
        server.shutdown();
    }
}

fn inline_served(server: &DcwsServer) -> u64 {
    server.reactor_stats().inline_served.load(Ordering::Relaxed)
}

struct Reply {
    status: u16,
    head: String,
    body: Vec<u8>,
}

impl Reply {
    fn header<'a>(&'a self, name: &'a str) -> Option<&'a str> {
        self.headers(name).next()
    }

    fn headers<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.head.lines().skip(1).filter_map(move |l| {
            let (n, v) = l.split_once(':')?;
            n.eq_ignore_ascii_case(name).then(|| v.trim())
        })
    }
}

/// A keep-alive client that frames responses itself.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(server: &DcwsServer) -> Client {
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        Client {
            stream,
            buf: Vec::new(),
        }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).unwrap();
    }

    /// Read one response; `bodyless` for answers to `HEAD` and 304s,
    /// whose `Content-Length` frames no bytes.
    fn read_reply(&mut self, bodyless: bool) -> Reply {
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            self.fill();
        };
        let head = String::from_utf8(self.buf[..head_end].to_vec()).unwrap();
        let status: u16 = head[9..12].parse().unwrap();
        let mut reply = Reply {
            status,
            head,
            body: Vec::new(),
        };
        let len: usize = match reply.header("Content-Length") {
            Some(v) if !bodyless && status != 304 => v.parse().unwrap(),
            _ => 0,
        };
        while self.buf.len() < head_end + len {
            self.fill();
        }
        reply.body = self.buf[head_end..head_end + len].to_vec();
        self.buf.drain(..head_end + len);
        reply
    }

    fn fill(&mut self) {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk).expect("response bytes");
        assert!(n > 0, "server closed mid-response");
        self.buf.extend_from_slice(&chunk[..n]);
    }

    fn get(&mut self, request: &str) -> Reply {
        self.send(request.as_bytes());
        self.read_reply(request.starts_with("HEAD "))
    }

    /// True once the server has closed its end with nothing left unread.
    fn closed_by_server(&mut self) -> bool {
        let mut byte = [0u8; 1];
        self.buf.is_empty() && matches!(self.stream.read(&mut byte), Ok(0))
    }
}

#[test]
fn if_modified_since_gets_304_with_last_modified() {
    on_both_backends(|server| {
        let before = inline_served(server);
        let mut c = Client::connect(server);
        let first = c.get("GET /hello.html HTTP/1.1\r\n\r\n");
        assert_eq!((first.status, &first.body[..]), (200, HELLO));
        let lm = first
            .header("Last-Modified")
            .expect("200 carries Last-Modified");
        let cond = c.get(&format!(
            "GET /hello.html HTTP/1.1\r\nIf-Modified-Since: {lm}\r\n\r\n"
        ));
        assert_eq!(cond.status, 304, "{}", cond.head);
        assert_eq!(cond.header("Last-Modified"), Some(lm));
        // A date that does not parse is no condition at all.
        let odd = c.get("GET /hello.html HTTP/1.1\r\nIf-Modified-Since: yesterday\r\n\r\n");
        assert_eq!((odd.status, &odd.body[..]), (200, HELLO));
        assert_eq!(inline_served(server) - before, 3);
    });
}

#[test]
fn range_gets_206_or_416() {
    on_both_backends(|server| {
        let before = inline_served(server);
        let mut c = Client::connect(server);
        let part = c.get("GET /hello.html HTTP/1.1\r\nRange: bytes=3-7\r\n\r\n");
        assert_eq!(part.status, 206, "{}", part.head);
        assert_eq!(part.body, &HELLO[3..8]);
        let total = HELLO.len();
        assert_eq!(
            part.header("Content-Range"),
            Some(format!("bytes 3-7/{total}").as_str())
        );
        let beyond = c.get("GET /hello.html HTTP/1.1\r\nRange: bytes=500-\r\n\r\n");
        assert_eq!(beyond.status, 416, "{}", beyond.head);
        assert_eq!(
            beyond.header("Content-Range"),
            Some(format!("bytes */{total}").as_str())
        );
        assert!(beyond.body.is_empty());
        // A multi-range is ignored: the full entity.
        let multi = c.get("GET /hello.html HTTP/1.1\r\nRange: bytes=0-1,3-4\r\n\r\n");
        assert_eq!((multi.status, &multi.body[..]), (200, HELLO));
        assert_eq!(inline_served(server) - before, 3);
    });
}

#[test]
fn head_gets_the_head_alone_with_entity_length() {
    on_both_backends(|server| {
        let before = inline_served(server);
        let mut c = Client::connect(server);
        let head = c.get("HEAD /hello.html HTTP/1.1\r\n\r\n");
        assert_eq!(head.status, 200);
        assert_eq!(
            head.header("Content-Length"),
            Some(HELLO.len().to_string().as_str())
        );
        // Had entity bytes followed the head, this reply would not frame.
        let get = c.get("GET /hello.html HTTP/1.1\r\n\r\n");
        assert_eq!((get.status, &get.body[..]), (200, HELLO));
        assert_eq!(inline_served(server) - before, 2);
    });
}

#[test]
fn http10_and_connection_close_close_after_flush() {
    on_both_backends(|server| {
        for request in [
            "GET /hello.html HTTP/1.0\r\n\r\n",
            "GET /hello.html HTTP/1.1\r\nConnection: close\r\n\r\n",
            "GET /hello.html HTTP/1.1\r\nconnection: CLOSE\r\n\r\n",
        ] {
            let mut c = Client::connect(server);
            let r = c.get(request);
            assert_eq!((r.status, &r.body[..]), (200, HELLO), "{request}");
            assert!(c.closed_by_server(), "still open after {request}");
        }
        // And without either, the connection stays.
        let mut c = Client::connect(server);
        for _ in 0..3 {
            assert_eq!(c.get("GET /hello.html HTTP/1.1\r\n\r\n").status, 200);
        }
    });
}

#[test]
fn piggybacked_load_report_is_deferred_and_answered() {
    on_both_backends(|server| {
        // The engine publishes its own report at the first tick.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.read_path().published_reports().is_empty() {
            assert!(Instant::now() < deadline, "no load report published");
            std::thread::sleep(Duration::from_millis(10));
        }
        let before = inline_served(server);
        let report = LoadReport {
            server: "peer:9090".into(),
            cps: 41.5,
            bps: 20_000.0,
            ts_ms: 5,
        };
        let mut c = Client::connect(server);
        let r = c.get(&format!(
            "GET /hello.html HTTP/1.1\r\nX-DCWS-Load: {}\r\n\r\n",
            report.encode()
        ));
        assert_eq!((r.status, &r.body[..]), (200, HELLO));
        let attached: Vec<_> = r
            .headers("X-DCWS-Load")
            .map(|v| LoadReport::decode(v).expect("decodable report"))
            .collect();
        assert!(!attached.is_empty(), "no reports attached: {}", r.head);
        let published: Vec<_> = server
            .read_path()
            .published_reports()
            .iter()
            .map(|v| LoadReport::decode(v).expect("decodable report"))
            .collect();
        assert_eq!(attached, published);
        assert_eq!(inline_served(server) - before, 1);
        assert_eq!(server.read_path().snapshot().reports_deferred, 1);
        // The deferred report reaches the GLT at the next tick.
        let deadline = Instant::now() + Duration::from_secs(5);
        while !server
            .engine()
            .lock()
            .peer_summaries()
            .iter()
            .any(|p| p.id.as_str() == "peer:9090")
        {
            assert!(Instant::now() < deadline, "report never merged");
            std::thread::sleep(Duration::from_millis(10));
        }
        // Any other inter-server header sends the request to the engine.
        let spilled = server
            .reactor_stats()
            .spillover_jobs
            .load(Ordering::Relaxed);
        let r = c.get("GET /hello.html HTTP/1.1\r\nX-DCWS-Coop: peer:9090\r\n\r\n");
        assert_eq!(r.status, 200);
        assert_eq!(
            server
                .reactor_stats()
                .spillover_jobs
                .load(Ordering::Relaxed),
            spilled + 1
        );
    });
}

#[test]
fn dotted_and_absolute_targets_still_normalise() {
    on_both_backends(|server| {
        let before = inline_served(server);
        let mut c = Client::connect(server);
        for target in ["/a/./b", "/a/x/../b", "http://somewhere:81/a/b"] {
            let r = c.get(&format!("GET {target} HTTP/1.1\r\n\r\n"));
            assert_eq!((r.status, &r.body[..]), (200, &b"nested"[..]), "{target}");
        }
        assert_eq!(inline_served(server) - before, 3);
    });
}

/// A short read ends the read loop, so a burst larger than the read
/// buffer must be picked up over several full reads, and a head arriving
/// in pieces over several readiness events.
#[test]
fn bursts_beyond_the_read_buffer_and_dribbled_heads_are_answered() {
    on_both_backends(|server| {
        const N: usize = 800;
        let one = b"GET /hello.html HTTP/1.1\r\nHost: burst\r\n\r\n";
        assert!(N * one.len() > 16 * 1024);
        let mut c = Client::connect(server);
        c.send(&one.repeat(N));
        for i in 0..N {
            let r = c.read_reply(false);
            assert_eq!((r.status, &r.body[..]), (200, HELLO), "reply {i}");
        }
        // Same connection, now a head in three segments, twice.
        for _ in 0..2 {
            for piece in [
                &b"GET /hel"[..],
                b"lo.html HTTP/1.1\r\nHo",
                b"st: x\r\n\r\n",
            ] {
                c.send(piece);
                std::thread::sleep(Duration::from_millis(15));
            }
            let r = c.read_reply(false);
            assert_eq!((r.status, &r.body[..]), (200, HELLO));
        }
        // A body split from its head, then a request behind it.
        c.send(b"POST /hello.html HTTP/1.1\r\nContent-Length: 4\r\n\r\nab");
        std::thread::sleep(Duration::from_millis(15));
        c.send(b"cdGET /hello.html HTTP/1.1\r\n\r\n");
        let post = c.read_reply(false);
        assert_ne!(post.status, 400, "{}", post.head);
        let r = c.read_reply(false);
        assert_eq!((r.status, &r.body[..]), (200, HELLO));
    });
}
