//! Integration tests for the persistent inter-server connection pool:
//! transparent redial of poisoned pooled streams, reuse-ratio under a
//! steady workload, ping freshness, and fault-schedule determinism with
//! pooling on versus off (see the "Connection reuse" section of
//! `docs/PERFORMANCE.md`).

use dcws_core::Call;
use dcws_graph::ServerId;
use dcws_http::{Request, Response};
use dcws_net::{FaultInjector, FaultPlan, FaultSnapshot, PoolConfig, RetryPolicy, Transport};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A pull; the transport reads only its label.
const PULL: Call = Call::Pull {
    path: String::new(),
};

/// One attempt, no backoff: failures must surface immediately so the
/// tests can tell a free stale-reuse redial from a budgeted retry.
fn single_attempt() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 1,
        attempt_timeout: Duration::from_secs(2),
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(1),
        deadline: Duration::from_secs(4),
        jitter_seed: 1,
    }
}

/// Chaos-style policy for the determinism comparison: enough budget
/// that garbles and refusals are retried the same way in both runs.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        attempt_timeout: Duration::from_secs(2),
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(10),
        deadline: Duration::from_secs(4),
        jitter_seed: 0xc0ffee,
    }
}

/// A thread-per-connection keep-alive echo-ish server answering every
/// request with `body`. Returns the server id plus clones of every
/// accepted stream so tests can poison parked connections.
fn keepalive_server(body: &'static [u8]) -> (ServerId, Arc<Mutex<Vec<TcpStream>>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let accepted: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
    let accepted2 = Arc::clone(&accepted);
    std::thread::spawn(move || {
        while let Ok((mut s, _)) = listener.accept() {
            let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
            accepted2.lock().unwrap().push(s.try_clone().unwrap());
            std::thread::spawn(move || {
                let mut mb = dcws_net::MsgBuf::new();
                while let Ok(Some(req)) = dcws_net::conn::read_request_buf(&mut s, &mut mb) {
                    let resp = Response::ok(body.to_vec(), "text/plain");
                    if dcws_net::conn::write_response(&mut s, &resp, req.method).is_err() {
                        break;
                    }
                }
            });
        }
    });
    (
        ServerId::new(format!("127.0.0.1:{}", addr.port())),
        accepted,
    )
}

fn get(peer: &ServerId, path: &str) -> Request {
    Request::get(path).with_header("Host", peer.to_string())
}

/// A pooled stream the peer silently closed is redialed transparently:
/// the caller sees no error, the RetryPolicy budget is untouched
/// (max_attempts = 1 here, so a budgeted retry was impossible), and the
/// dead stream is evicted.
#[test]
fn poisoned_pooled_connection_redials_transparently() {
    let (peer, accepted) = keepalive_server(b"doc-body");
    let t = Transport::new(single_attempt(), None);

    for _ in 0..2 {
        let resp = t.call(&peer, &get(&peer, "/a.html"), &PULL).unwrap();
        assert_eq!(resp.body, b"doc-body");
    }
    let snap = t.pool().snapshot();
    assert_eq!((snap.dials, snap.hits), (1, 1), "second call must reuse");

    // Poison: hard-close every server-side socket, killing the parked
    // client stream under the pool's feet.
    for s in accepted.lock().unwrap().drain(..) {
        let _ = s.shutdown(Shutdown::Both);
    }
    std::thread::sleep(Duration::from_millis(50));

    let resp = t.call(&peer, &get(&peer, "/a.html"), &PULL).unwrap();
    assert_eq!(resp.body, b"doc-body", "stale reuse must be invisible");

    let io = t.snapshot();
    assert_eq!(io.stale_retries, 1, "exactly one free redial");
    assert_eq!(io.retries, 0, "RetryPolicy budget untouched");
    assert_eq!(io.giveups, 0);
    let snap = t.pool().snapshot();
    assert_eq!(snap.evicted_error, 1, "dead stream evicted");
    assert_eq!(snap.dials, 2, "redial went through the pool's dialer");
}

/// A steady single-peer workload reuses one connection for everything:
/// reuse ratio beyond 0.9 (the bar the retired `connpress` smoke enforced).
#[test]
fn steady_workload_reuse_ratio_exceeds_target() {
    let (peer, _accepted) = keepalive_server(b"payload");
    let t = Transport::new(single_attempt(), None);
    for i in 0..20 {
        let path = format!("/doc{i}.html");
        let resp = t.call(&peer, &get(&peer, &path), &PULL).unwrap();
        assert_eq!(resp.body, b"payload");
    }
    let snap = t.pool().snapshot();
    assert_eq!(snap.dials, 1, "one connection serves the whole run");
    assert_eq!(snap.hits, 19);
    assert!(
        snap.reuse_ratio() > 0.9,
        "reuse ratio {:.2} below target",
        snap.reuse_ratio()
    );
}

/// Pings measure real reachability (§4.5): each one dials fresh over a
/// live server, never checks out the parked stream, and never parks its
/// own connection — the pool's state is completely unchanged.
#[test]
fn pings_dial_fresh_over_a_live_server() {
    let (peer, accepted) = keepalive_server(b"pong");
    let t = Transport::new(single_attempt(), None);

    // Park one pooled stream via a normal pull.
    t.call(&peer, &get(&peer, "/x.html"), &PULL).unwrap();
    assert_eq!(t.pool().idle_total(), 1);
    let before = t.pool().snapshot();

    for _ in 0..3 {
        let resp = t.call(&peer, &get(&peer, "/ping"), &Call::Ping).unwrap();
        assert_eq!(resp.body, b"pong");
    }

    let after = t.pool().snapshot();
    assert_eq!(after.hits, before.hits, "ping must not check out a stream");
    assert_eq!(after.dials, before.dials, "ping bypasses the pool dialer");
    assert_eq!(after.checkins, before.checkins, "ping must not park");
    assert_eq!(t.pool().idle_total(), 1, "parked stream untouched");
    // 1 pulled connection + 3 fresh ping dials reached the server.
    assert_eq!(accepted.lock().unwrap().len(), 4);
}

/// Run a fixed request sequence against a seeded fault plan and return
/// every outcome (body bytes or error kind) plus the injector's counts.
fn faulted_run(
    pool: PoolConfig,
    seed: u64,
) -> (Vec<Result<Vec<u8>, std::io::ErrorKind>>, FaultSnapshot) {
    let (peer, _accepted) = keepalive_server(b"chaos-body");
    let plan = FaultPlan::new(seed)
        .with_refuse(0.2)
        .with_garble(0.15)
        .with_delay(0.3, (0, 3));
    let injector = Arc::new(FaultInjector::new(plan));
    let t = Transport::with_pool(fast_retry(), Some(injector.clone()), pool);
    let mut outcomes = Vec::new();
    for i in 0..30 {
        let path = format!("/doc{i}.html");
        let out = t
            .call(&peer, &get(&peer, &path), &PULL)
            .map(|r| r.body.to_vec())
            .map_err(|e| e.kind());
        outcomes.push(out);
    }
    (outcomes, injector.snapshot())
}

/// The fault schedule is a pure function of `(seed, seq)`: replaying
/// the same seeded plan with pooling on and off yields byte-identical
/// outcomes and identical injection counts — pooling never perturbs a
/// chaos replay, because decisions are drawn per attempt and a free
/// stale-reuse redial reapplies the attempt's decision verbatim.
#[test]
fn fault_schedule_replays_identically_with_pool_on_and_off() {
    for seed in [5u64, 1999] {
        let (pooled, pooled_faults) = faulted_run(PoolConfig::default(), seed);
        let (fresh, fresh_faults) = faulted_run(
            PoolConfig {
                max_per_peer: 0,
                ..PoolConfig::default()
            },
            seed,
        );
        assert_eq!(pooled, fresh, "seed {seed}: outcome sequences diverged");
        assert_eq!(
            pooled_faults, fresh_faults,
            "seed {seed}: injected fault counts diverged"
        );
    }
}
