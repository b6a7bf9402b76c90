//! Edge-case tests for the event-driven front end: slow-loris heads
//! resumed across many wakeups, pipelined requests inside one readiness
//! batch, shutdown with a thousand idle registered connections, and the
//! spillover-full 503 rung of the backpressure ladder — each run against
//! a real server over real sockets. The in-loop engine-lock regression
//! test lives next to the loop itself (`reactor/tests.rs`), where
//! `poll_once` can be driven directly on the locked thread.

use dcws_core::{MemStore, ServerConfig, ServerEngine};
use dcws_graph::{DocKind, ServerId};
use dcws_net::{DcwsServer, NetConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

fn engine_with_doc(cfg: ServerConfig) -> ServerEngine {
    let id = ServerId::new("placeholder:0");
    let mut e = ServerEngine::new(id, cfg, Box::new(MemStore::new()));
    e.publish(
        "/hello.html",
        b"<p>reactor</p>".to_vec(),
        DocKind::Html,
        true,
    );
    e
}

fn spawn_reactor(cfg: ServerConfig, tune: impl FnOnce(&mut NetConfig)) -> DcwsServer {
    spawn_reactor_with(cfg, tune, |_| {})
}

fn spawn_reactor_with(
    cfg: ServerConfig,
    tune: impl FnOnce(&mut NetConfig),
    prep: impl FnOnce(&mut ServerEngine),
) -> DcwsServer {
    let mut net = NetConfig::new(Duration::from_millis(50));
    tune(&mut net);
    let mut engine = engine_with_doc(cfg);
    prep(&mut engine);
    DcwsServer::spawn_with(engine, "127.0.0.1:0", net).unwrap()
}

/// Wait until `pred` holds or the timeout elapses.
fn wait_for(timeout: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < timeout {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

/// Read everything until EOF (the request carried `Connection: close`).
fn read_all(s: &mut TcpStream) -> String {
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = Vec::new();
    let _ = s.read_to_end(&mut buf);
    String::from_utf8_lossy(&buf).into_owned()
}

/// A request head is parsed incrementally across however many readiness
/// wakeups the bytes arrive in: a client trickling one byte at a time —
/// the classic slow loris — must still get a correct response, and must
/// not block other clients while trickling.
#[test]
fn slow_loris_head_resumed_across_wakeups() {
    let server = spawn_reactor(ServerConfig::paper_defaults(), |_| {});
    let addr = server.addr();

    // While the loris trickles, a normal client on another connection
    // must be served promptly — the whole point of readiness-based
    // multiplexing (a blocking worker would be parked on the trickle).
    let mut slow = TcpStream::connect(addr).unwrap();
    let head = b"GET /hello.html HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
    let (first, rest) = head.split_at(10);
    slow.write_all(first).unwrap();

    let fast_start = Instant::now();
    let mut fast = TcpStream::connect(addr).unwrap();
    fast.write_all(b"GET /hello.html HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let fast_resp = read_all(&mut fast);
    assert!(fast_resp.starts_with("HTTP/1.1 200"), "{fast_resp}");
    let fast_elapsed = fast_start.elapsed();

    // Trickle the rest of the head a byte per write, with real delays so
    // each byte is (at least) one readiness event.
    for b in rest {
        slow.write_all(std::slice::from_ref(b)).unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    let slow_resp = read_all(&mut slow);
    assert!(slow_resp.starts_with("HTTP/1.1 200"), "{slow_resp}");
    assert!(slow_resp.contains("reactor"));
    assert!(
        fast_elapsed < Duration::from_secs(2),
        "fast client stalled {fast_elapsed:?} behind a slow-loris peer"
    );
    server.shutdown();
}

/// Pipelined requests arriving in one readiness batch are answered
/// in order on one connection — including the mixed case where the
/// first request spills to the worker pool (cold serve table) and the
/// rest are served inline once the read path is primed. Run on both
/// poller backends so the portable `poll(2)` path stays honest.
#[test]
fn pipelined_requests_in_one_batch() {
    for force_poll in [false, true] {
        // Single-loop premise: in-order inline/spill interleaving on one
        // connection is reasoned about against one event loop.
        let server = spawn_reactor(ServerConfig::paper_defaults(), |net| {
            net.reactor_force_poll = force_poll;
            net.reactor_shards = 1;
        });
        let addr = server.addr();

        let mut s = TcpStream::connect(addr).unwrap();
        let mut batch = Vec::new();
        batch.extend_from_slice(b"GET /hello.html HTTP/1.1\r\nHost: x\r\n\r\n");
        batch.extend_from_slice(b"GET /hello.html HTTP/1.1\r\nHost: x\r\n\r\n");
        batch.extend_from_slice(b"GET /missing.html HTTP/1.1\r\nHost: x\r\n\r\n");
        batch.extend_from_slice(b"GET /hello.html HTTP/1.1\r\nConnection: close\r\n\r\n");
        s.write_all(&batch).unwrap();
        let all = read_all(&mut s);

        // Status lines can begin right after a body byte (bodies carry
        // no trailing newline), so scan by marker, not by line.
        let statuses: Vec<&str> = all
            .match_indices("HTTP/1.1 ")
            .map(|(i, _)| &all[i + 9..i + 12])
            .collect();
        assert_eq!(
            statuses,
            vec!["200", "200", "404", "200"],
            "pipelined responses out of order on force_poll={force_poll}: {all}"
        );
        server.shutdown();
    }
}

/// A thousand idle keep-alive connections must register (far beyond the
/// 12-worker ceiling of the paper's §5.1 model) and must not delay
/// shutdown: idle connections are closed at the request boundary
/// immediately, not waited out.
#[test]
fn shutdown_with_1k_idle_registered_conns() {
    let server = spawn_reactor(ServerConfig::paper_defaults(), |_| {});
    let addr = server.addr();

    let mut held = Vec::with_capacity(1000);
    for _ in 0..1000 {
        held.push(TcpStream::connect(addr).unwrap());
    }
    assert!(
        wait_for(Duration::from_secs(10), || {
            server.reactor_stats().registered.load(Ordering::Relaxed) >= 1000
        }),
        "only {} of 1000 idle conns registered",
        server.reactor_stats().registered.load(Ordering::Relaxed)
    );
    let n_workers = ServerConfig::paper_defaults().n_workers as u64;
    assert!(
        server.reactor_stats().peak.load(Ordering::Relaxed) > n_workers,
        "reactor concurrency should exceed the worker count"
    );

    let start = Instant::now();
    server.shutdown();
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "shutdown with idle conns took {elapsed:?}; idle drain must be immediate"
    );
    // Every held connection observes EOF (drained at the boundary).
    for mut s in held {
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 64];
        assert_eq!(s.read(&mut buf).unwrap_or(0), 0, "conn not closed by drain");
    }
}

/// The spillover-full rung: with one worker wedged behind the engine
/// lock and the one-slot queue occupied, the next engine-bound request
/// is answered inline with `503` + `Retry-After` — and the connection
/// survives to be served once the engine frees up.
#[test]
fn spillover_queue_full_yields_503_retry_after() {
    let mut cfg = ServerConfig::paper_defaults();
    cfg.n_workers = 1;
    cfg.socket_queue_len = 1;
    // Single-loop premise: the wedge/fill/overflow sequencing assumes
    // all three connections share one reactor's view of the queue.
    let server = spawn_reactor(cfg, |net| net.reactor_shards = 1);
    let addr = server.addr();

    // Wedge the single worker: hold the engine lock, then send an
    // engine-bound request (a miss; the serve table has never seen the
    // path) that the worker will pop and block on.
    let guard = server.engine().lock();
    let mut c1 = TcpStream::connect(addr).unwrap();
    c1.write_all(b"GET /m1.html HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    assert!(
        wait_for(Duration::from_secs(5), || {
            server
                .reactor_stats()
                .spillover_jobs
                .load(Ordering::Relaxed)
                >= 1
                && server.metrics().queue_wait.snapshot().count >= 1
        }),
        "worker never picked up the wedge request"
    );

    // Fill the single queue slot.
    let mut c2 = TcpStream::connect(addr).unwrap();
    c2.write_all(b"GET /m2.html HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    assert!(
        wait_for(Duration::from_secs(5), || {
            server
                .reactor_stats()
                .spillover_jobs
                .load(Ordering::Relaxed)
                >= 2
        }),
        "second request never spilled"
    );

    // Overflow: answered inline, 503 + Retry-After, connection kept.
    let mut c3 = TcpStream::connect(addr).unwrap();
    c3.write_all(b"GET /m3.html HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    c3.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 1024];
    let n = c3.read(&mut buf).unwrap();
    let resp = String::from_utf8_lossy(&buf[..n]).into_owned();
    assert!(resp.starts_with("HTTP/1.1 503"), "{resp}");
    assert!(resp.contains("Retry-After: 1"), "{resp}");
    assert_eq!(
        server
            .reactor_stats()
            .spillover_rejected
            .load(Ordering::Relaxed),
        1
    );
    assert!(server.dropped_connections() >= 1);

    // Release the engine: the wedged and queued requests complete (404
    // for never-published paths), and the 503'd connection is still
    // usable for a retry.
    drop(guard);
    assert!(read_all(&mut c1).starts_with("HTTP/1.1 404"));
    assert!(read_all(&mut c2).starts_with("HTTP/1.1 404"));
    c3.write_all(b"GET /m3.html HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    assert!(
        read_all(&mut c3).starts_with("HTTP/1.1 404"),
        "503'd connection must stay alive for the retry"
    );
    server.shutdown();
}

/// `/dcws/status` exposes the reactor section with live counters, and
/// the reserved namespace itself goes through spillover (the reactor
/// thread never takes the engine lock).
#[test]
fn status_exposes_reactor_section() {
    // Single-loop premise: inline_served/spillover counts are reasoned
    // about for one loop serving all three connections.
    let server = spawn_reactor(ServerConfig::paper_defaults(), |net| net.reactor_shards = 1);
    let addr = server.addr();

    // Prime the read path, then serve a hit inline.
    for _ in 0..2 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /hello.html HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        assert!(read_all(&mut s).starts_with("HTTP/1.1 200"));
    }
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET /dcws/status HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let status = read_all(&mut s);
    // The reactor is the only front end: no `enabled` switch to report.
    let body = &status[status.find("\r\n\r\n").expect("head end") + 4..];
    let doc = dcws_core::Json::parse(body).expect("valid status JSON");
    let reactor = doc.get("reactor").expect("reactor section");
    assert!(reactor.get("enabled").is_none(), "{status}");
    for needle in [
        "\"reactor\"",
        "\"backend\":\"epoll\"",
        "\"registered_conns\"",
        "\"inline_served\"",
        "\"ready_batches\"",
        "\"accept_pauses\"",
    ] {
        assert!(status.contains(needle), "missing {needle} in {status}");
    }
    assert!(
        server.reactor_stats().inline_served.load(Ordering::Relaxed) >= 1,
        "warm GET should have been served inline on the reactor thread"
    );
    assert!(
        server
            .reactor_stats()
            .spillover_jobs
            .load(Ordering::Relaxed)
            >= 1,
        "/dcws/status and the cold first GET must spill to the workers"
    );
    server.shutdown();
}

/// A warm GET whose body exceeds what the kernel will buffer in one
/// send (`tcp_wmem` caps sndbuf well below it): the response leaves in
/// several `writev`s, each resumed mid-segment after `WouldBlock` — and
/// the body never gets memcpy'd into the connection (the `Arc` is
/// shared with the cache until the last byte leaves).
#[test]
fn writev_partial_write_resumption_is_zero_copy() {
    const BODY: usize = 8 << 20;
    let mut cfg = ServerConfig::paper_defaults();
    // Keep the body on the buffered zero-copy path, not streaming.
    cfg.stream_threshold_bytes = 64 * 1024 * 1024;
    let server = spawn_reactor_with(
        cfg,
        |net| net.reactor_shards = 1,
        |e| {
            e.publish("/big.bin", vec![0xA5u8; BODY], DocKind::Image, false);
        },
    );
    let addr = server.addr();

    // First serve is cold (spills to prime the serve table)…
    let mut prime = TcpStream::connect(addr).unwrap();
    prime
        .write_all(b"GET /big.bin HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    assert!(read_all(&mut prime).starts_with("HTTP/1.1 200"));

    // …then the warm serve goes out through the vectored path.
    let before_writev = server.reactor_stats().writev_calls.load(Ordering::Relaxed);
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET /big.bin HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut resp = Vec::new();
    s.read_to_end(&mut resp).unwrap();
    let head_end = resp
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("complete head")
        + 4;
    assert!(resp.starts_with(b"HTTP/1.1 200"));
    assert_eq!(resp.len() - head_end, BODY, "body truncated or padded");
    assert!(
        resp[head_end..].iter().all(|&b| b == 0xA5),
        "body corrupted across partial-write resumption"
    );

    let stats = server.reactor_stats();
    assert!(
        stats.writev_calls.load(Ordering::Relaxed) - before_writev >= 2,
        "an 8 MiB body exceeds sndbuf and must take several writevs"
    );
    assert!(
        stats.bodies_zero_copy.load(Ordering::Relaxed) >= 1,
        "warm serve must take the shared-segment path"
    );
    assert_eq!(
        stats.body_copies.load(Ordering::Relaxed),
        0,
        "no serve may memcpy its body"
    );
    server.shutdown();
}

/// With four reactor shards, connections land on every shard (kernel
/// `SO_REUSEPORT` balancing on Linux, round-robin hand-off elsewhere),
/// `/dcws/status` breaks the counters down per shard, and a graceful
/// shutdown drains all shards at the request boundary within the
/// deadline — every held connection observes EOF.
#[test]
fn multi_shard_spread_breakdown_and_drain() {
    use dcws_core::Json;
    const CONNS: usize = 160;
    let server = spawn_reactor(ServerConfig::paper_defaults(), |net| net.reactor_shards = 4);
    let addr = server.addr();

    let mut held = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        held.push(TcpStream::connect(addr).unwrap());
    }
    assert!(
        wait_for(Duration::from_secs(10), || {
            server.reactor_stats().registered.load(Ordering::Relaxed) >= CONNS as u64
        }),
        "only {} of {CONNS} conns registered across 4 shards",
        server.reactor_stats().registered.load(Ordering::Relaxed)
    );

    // Per-shard breakdown in /dcws/status: 4 entries, every shard has
    // accepted at least one connection (160 conns make an empty shard
    // astronomically unlikely under kernel hashing, impossible under
    // round-robin hand-off).
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET /dcws/status HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let status = read_all(&mut s);
    let body = &status[status.find("\r\n\r\n").expect("head end") + 4..];
    let doc = Json::parse(body).expect("valid status JSON");
    let shards = doc
        .get("reactor")
        .and_then(|r| r.get("shards"))
        .and_then(|s| s.as_arr())
        .expect("reactor.shards array");
    assert_eq!(shards.len(), 4, "one breakdown entry per shard");
    let mut total_accepted = 0u64;
    for (i, entry) in shards.iter().enumerate() {
        let accepted = entry
            .get("accepted")
            .and_then(|v| v.as_u64())
            .expect("shard accepted counter");
        assert!(accepted >= 1, "shard {i} accepted no connections");
        total_accepted += accepted;
    }
    assert!(total_accepted >= CONNS as u64);

    // Boundary drain across all four shards, inside the force deadline.
    let start = Instant::now();
    server.shutdown();
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "4-shard drain took {elapsed:?}"
    );
    for mut c in held {
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 32];
        assert_eq!(c.read(&mut buf).unwrap_or(0), 0, "conn survived the drain");
    }
}

/// A cold pull parks one worker, never the event loop. With a single
/// worker and a home that holds a pull open, the cold `~migrate` GET
/// waits on its pull while warm GETs on a second connection are answered
/// inline, without a worker — and both `assert_engine_unlocked`
/// checkpoints (loop turn, transport call) stay quiet, or the panicked
/// thread would leave one of these reads without a response.
#[test]
fn warm_gets_served_inline_while_cold_pull_is_parked() {
    use std::net::TcpListener;
    use std::sync::mpsc;

    // Stub home: answers `/warm.html` at once; for `/cold.html` it
    // reports the pull's arrival and holds the response until released.
    let home = TcpListener::bind("127.0.0.1:0").unwrap();
    let home_addr = home.local_addr().unwrap();
    let (arrived_tx, arrived_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let stub = std::thread::spawn(move || {
        // One pooled connection carries both pulls.
        let (mut s, _) = home.accept().unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut mb = dcws_net::MsgBuf::new();
        while let Ok(Some(req)) = dcws_net::conn::read_request_buf(&mut s, &mut mb) {
            if req.target.contains("/cold.html") {
                arrived_tx.send(()).unwrap();
                release_rx
                    .recv_timeout(Duration::from_secs(10))
                    .expect("test never released the cold pull");
            }
            let resp = dcws_http::Response::ok(b"<p>pulled</p>".to_vec(), "text/html")
                .with_header("X-DCWS-Version", "1");
            dcws_net::conn::write_response(&mut s, &resp, req.method).unwrap();
        }
    });

    let mut cfg = ServerConfig::paper_defaults();
    cfg.n_workers = 1;
    let server = spawn_reactor(cfg, |net| net.reactor_shards = 1);
    let migrate = |doc: &str| {
        format!(
            "GET /~migrate/{}/{}{doc} HTTP/1.1\r\nHost: x\r\n\r\n",
            home_addr.ip(),
            home_addr.port()
        )
    };
    let exchange = |s: &mut TcpStream, req: &str| {
        s.write_all(req.as_bytes()).unwrap();
        dcws_net::conn::read_response(s, dcws_http::Method::Get).unwrap()
    };

    // Warm the co-op copy: the first touch pulls, the second is inline.
    let mut warm = TcpStream::connect(server.addr()).unwrap();
    warm.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    for _ in 0..2 {
        let resp = exchange(&mut warm, &migrate("/warm.html"));
        assert_eq!(resp.status, dcws_http::StatusCode::Ok);
    }

    // Park the only worker on the cold pull.
    let stats = server.reactor_stats();
    let spilled_warm = stats.spillover_jobs.load(Ordering::Relaxed);
    let mut cold = TcpStream::connect(server.addr()).unwrap();
    cold.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    cold.write_all(migrate("/cold.html").as_bytes()).unwrap();
    arrived_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("cold pull never reached the home");

    // The worker can reach the home before the loop has counted the
    // spill it handed over; let the counter settle before pinning it.
    assert!(wait_for(Duration::from_secs(5), || {
        stats.spillover_jobs.load(Ordering::Relaxed) == spilled_warm + 1
    }));
    let inline_before = stats.inline_served.load(Ordering::Relaxed);
    for _ in 0..20 {
        let resp = exchange(&mut warm, &migrate("/warm.html"));
        assert_eq!(resp.status, dcws_http::StatusCode::Ok);
        assert_eq!(resp.body, b"<p>pulled</p>");
    }
    assert_eq!(
        stats.inline_served.load(Ordering::Relaxed) - inline_before,
        20,
        "warm GETs must be answered on the event loop"
    );
    assert_eq!(
        stats.spillover_jobs.load(Ordering::Relaxed),
        spilled_warm + 1,
        "a warm GET must not queue behind the parked worker"
    );

    release_tx.send(()).unwrap();
    let resp = dcws_net::conn::read_response(&mut cold, dcws_http::Method::Get).unwrap();
    assert_eq!(resp.status, dcws_http::StatusCode::Ok);
    assert_eq!(resp.body, b"<p>pulled</p>");
    server.shutdown();
    stub.join().unwrap();
}

/// A request the reactor cannot serve inline is looked up twice — by the
/// reactor, then by the spill worker before it takes the engine lock —
/// and is one fallback: N spilled requests, N fallbacks.
#[test]
fn a_spilled_request_is_one_read_path_fallback() {
    const N: u64 = 24;
    let server = spawn_reactor(ServerConfig::paper_defaults(), |net| net.reactor_shards = 1);
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let stats = server.reactor_stats();
    let spilled0 = stats.spillover_jobs.load(Ordering::Relaxed);
    let fallbacks0 = server.read_path().snapshot().fallbacks;
    for i in 0..N {
        let req = match i % 3 {
            0 => format!("GET /missing-{i}.html HTTP/1.1\r\n\r\n"),
            1 => "GET /hello.html HTTP/1.1\r\nX-DCWS-Coop: peer:1\r\n\r\n".to_string(),
            _ => "POST /hello.html HTTP/1.1\r\nContent-Length: 0\r\n\r\n".to_string(),
        };
        s.write_all(req.as_bytes()).unwrap();
        dcws_net::conn::read_response(&mut s, dcws_http::Method::Get).unwrap();
    }
    assert_eq!(stats.spillover_jobs.load(Ordering::Relaxed) - spilled0, N);
    assert_eq!(server.read_path().snapshot().fallbacks - fallbacks0, N);
    server.shutdown();
}
