//! Unit tests that drive a `Reactor` turn by turn.

use super::*;
use crate::server::NetConfig;
use dcws_core::{MemStore, ServerConfig, ServerEngine};
use dcws_graph::ServerId;

fn test_engine() -> ServerEngine {
    ServerEngine::new(
        ServerId::new("127.0.0.1:1"),
        ServerConfig::paper_defaults(),
        Box::new(MemStore::new()),
    )
}

fn shard_cfg(shard: usize, n_shards: usize) -> ShardConfig {
    ShardConfig {
        shard,
        n_shards,
        max_conns: 1024,
        keepalive_idle: Duration::from_secs(60),
        force_poll_backend: false,
    }
}

fn test_reactor() -> (Arc<Shared>, Reactor) {
    test_reactor_on(false)
}

fn test_reactor_on(force_poll_backend: bool) -> (Arc<Shared>, Reactor) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut net = NetConfig::new(Duration::from_millis(1000));
    net.reactor_shards = 1;
    let shared = Shared::build(test_engine(), &net, addr);
    let (bridge, waker_rx) = spill_bridge().unwrap();
    let shutdown = Arc::new(AtomicBool::new(false));
    let reactor = Reactor::new(
        shared.clone(),
        shutdown,
        ShardConfig {
            force_poll_backend,
            ..shard_cfg(0, 1)
        },
        Some(listener),
        bridge,
        Vec::new(),
        waker_rx,
    )
    .unwrap();
    (shared, reactor)
}

/// The event loop's lock discipline is load-bearing: a callback that
/// leaves the engine locked would head-of-line block every
/// registered connection, so the loop checkpoint must catch it
/// before the next wait. (Regression test for the in-loop
/// `assert_engine_unlocked`.)
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "engine lock held across socket I/O")]
fn engine_locked_loop_turn_panics_in_debug() {
    let (shared, mut reactor) = test_reactor();
    let _guard = shared.engine.lock(); // a leaked in-loop lock
    reactor.poll_once(Duration::from_millis(0));
}

/// A warm GET that arrives once shutdown has begun is still served
/// inline — the prebuilt head with `Connection: close` appended where
/// `Response::with_header` would put it — and the connection closes
/// behind it, so a keep-alive client cannot hold the drain open.
#[test]
fn inline_serve_during_shutdown_says_connection_close() {
    const GET: &[u8] = b"GET /doc.html HTTP/1.1\r\nHost: x\r\n\r\n";
    for force_poll in [false, true] {
        let (shared, mut reactor) = test_reactor_on(force_poll);
        {
            let mut engine = shared.engine.lock();
            engine.publish(
                "/doc.html",
                b"<p>warm</p>".to_vec(),
                dcws_graph::DocKind::Html,
                true,
            );
            // The exclusive serve primes the read path.
            engine.handle_request(&dcws_http::Request::get("/doc.html"), 0);
        }
        let addr = reactor.listener.as_ref().unwrap().local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut exchange = |reactor: &mut Reactor| {
            client.write_all(GET).unwrap();
            // Accept (first time), then read, serve and flush.
            for _ in 0..3 {
                reactor.poll_once(Duration::from_millis(20));
            }
            let mut buf = vec![0u8; 4096];
            let n = client.read(&mut buf).unwrap();
            buf.truncate(n);
            String::from_utf8(buf).unwrap()
        };

        let warm = exchange(&mut reactor);
        assert!(warm.ends_with("\r\n\r\n<p>warm</p>"), "{warm}");
        assert_eq!(reactor.stats.inline_served.load(Ordering::Relaxed), 1);
        assert_eq!(reactor.live, 1, "keep-alive holds the connection");

        reactor.shutdown.store(true, Ordering::Relaxed);
        let last = exchange(&mut reactor);
        assert_eq!(
            last,
            warm.replace("\r\n\r\n", "\r\nConnection: close\r\n\r\n"),
            "force_poll={force_poll}"
        );
        assert_eq!(reactor.stats.inline_served.load(Ordering::Relaxed), 2);
        assert_eq!(reactor.live, 0, "closed once flushed");
        let mut rest = [0u8; 16];
        assert_eq!(client.read(&mut rest).unwrap(), 0, "EOF after the reply");
    }
}

/// A transfer parked on a reader that takes 4 KiB at a time has a
/// refill buffer on loan while a slice of it waits on the socket — one,
/// never two — and none between slices; the shard ends with the one
/// buffer it ever allocated back in its pool.
#[test]
fn parked_stream_borrows_one_refill_buffer() {
    // More than the loopback socket buffers hold for a reader that has
    // not started reading (about 3 MB).
    const LEN: usize = 16 << 20;
    const GET: &[u8] = b"GET /big.bin HTTP/1.1\r\nHost: x\r\n\r\n";
    for force_poll in [false, true] {
        let (shared, mut reactor) = test_reactor_on(force_poll);
        let body: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
        {
            let mut engine = shared.engine.lock();
            engine.publish("/big.bin", body.clone(), dcws_graph::DocKind::Image, false);
            // The exclusive serve primes the stream route.
            engine.handle_request(&dcws_http::Request::get("/big.bin"), 0);
        }
        let addr = reactor.listener.as_ref().unwrap().local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        client.write_all(GET).unwrap();
        // Accept, read, serve, and write until the socket is full.
        for _ in 0..40 {
            reactor.poll_once(Duration::from_millis(5));
        }
        assert_eq!(reactor.stats.inline_served.load(Ordering::Relaxed), 1);
        let parked = |reactor: &Reactor| {
            let conn = reactor.conns.iter().flatten().next().expect("connected");
            // Mid-transfer, what waits in `out` is a slice of the entity.
            (conn.stream_body.is_some(), !conn.out.is_empty())
        };
        let (mid_transfer, on_loan) = parked(&reactor);
        assert!(mid_transfer, "the socket took 16 MiB unread");
        assert_eq!(reactor.refills.spare() + usize::from(on_loan), 1);

        let mut got = Vec::with_capacity(LEN + 256);
        let mut chunk = [0u8; 4096];
        while got.len() < LEN || !got.windows(4).any(|w| w == b"\r\n\r\n") {
            let n = client.read(&mut chunk).unwrap();
            assert!(n > 0, "closed mid-transfer");
            got.extend_from_slice(&chunk[..n]);
            reactor.poll_once(Duration::ZERO);
            let on_loan = usize::from(parked(&reactor).1);
            assert_eq!(reactor.refills.spare() + on_loan, 1, "one buffer in all");
            if got.len() >= LEN {
                // Past the head at the latest: is the entity complete?
                let head_end = got.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
                if got.len() - head_end == LEN {
                    assert!(got[head_end..] == body[..], "force_poll={force_poll}");
                    break;
                }
            }
        }
        assert_eq!(parked(&reactor), (false, false));
        assert_eq!(reactor.refills.spare(), 1);
        assert_eq!(reactor.live, 1, "keep-alive holds the connection");
    }
}

#[test]
fn token_packing_round_trips() {
    // The reserved tokens correspond to slab indices ≥ 2^32 − 2,
    // which the 16,384-connection ceiling keeps unreachable; any realistic
    // (idx, gen) must round-trip and stay clear of them.
    for (idx, gen) in [(0usize, 1u32), (42, 7), (1_000_000, u32::MAX)] {
        let t = pack_token(idx, gen);
        assert_eq!(unpack_token(t), (idx, gen));
        assert_ne!(t, LISTENER_TOKEN);
        assert_ne!(t, WAKER_TOKEN);
    }
}

/// A completion carrying shard A's token posted to shard B's bridge
/// must be dropped by B's generation/slot check — never written to
/// an unrelated connection, never resurrecting a vacant slot.
#[test]
fn cross_shard_completion_never_resurrects() {
    let listener_a = TcpListener::bind("127.0.0.1:0").unwrap();
    let listener_b = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr_a = listener_a.local_addr().unwrap();
    let mut net = NetConfig::new(Duration::from_millis(1000));
    net.reactor_shards = 2;
    let shared = Shared::build(test_engine(), &net, addr_a);
    let shutdown = Arc::new(AtomicBool::new(false));
    let (bridge_a, waker_a) = spill_bridge().unwrap();
    let (bridge_b, waker_b) = spill_bridge().unwrap();
    let mut shard_a = Reactor::new(
        shared.clone(),
        shutdown.clone(),
        shard_cfg(0, 2),
        Some(listener_a),
        bridge_a,
        Vec::new(),
        waker_a,
    )
    .unwrap();
    let mut shard_b = Reactor::new(
        shared.clone(),
        shutdown,
        shard_cfg(1, 2),
        Some(listener_b),
        bridge_b.clone(),
        Vec::new(),
        waker_b,
    )
    .unwrap();

    // A client lands on shard A and gets a slab slot + token there.
    let client = TcpStream::connect(addr_a).unwrap();
    let deadline = Instant::now() + Duration::from_secs(2);
    while shard_a.live == 0 && Instant::now() < deadline {
        shard_a.poll_once(Duration::from_millis(10));
    }
    assert_eq!(shard_a.live, 1, "shard A must have accepted the client");
    let (idx, conn) = shard_a
        .conns
        .iter()
        .enumerate()
        .find_map(|(i, c)| c.as_ref().map(|c| (i, c)))
        .unwrap();
    let token = pack_token(idx, conn.gen);

    // Misroute a completion for that token to shard B.
    bridge_b.push(Completion {
        token,
        method: Method::Get,
        keep_alive: true,
        started: Instant::now(),
        served: Served::from_response(Response::ok(b"misrouted".to_vec(), "text/plain")),
        stream: None,
    });
    shard_b.poll_once(Duration::from_millis(10));
    assert_eq!(shard_b.live, 0, "shard B must not materialize a conn");
    assert!(
        shard_b.conns.iter().all(|c| c.is_none()),
        "no slot on shard B may be resurrected by a foreign token"
    );

    // The response must not have leaked onto shard A's client either.
    shard_a.poll_once(Duration::from_millis(10));
    client
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let mut buf = [0u8; 64];
    use std::io::Read as _;
    match (&client).read(&mut buf) {
        Ok(n) => panic!("client unexpectedly received {n} bytes"),
        Err(e) => assert!(
            matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "expected read timeout, got {e:?}"
        ),
    }
}

#[test]
fn nofile_limit_reports_something() {
    // Must not panic and must report a sane limit on any platform.
    let lim = raise_nofile_limit(1024);
    assert!(lim >= 256, "soft fd limit {lim} suspiciously low");
}
