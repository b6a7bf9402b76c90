//! End-to-end tests over real TCP sockets: two cooperating servers on
//! localhost perform the full migrate → redirect → pull → serve cycle.

use dcws_core::{MemStore, ServerConfig, ServerEngine};
use dcws_graph::{DocKind, Location, ServerId};
use dcws_http::{Request, StatusCode, Url};
use dcws_net::{fetch, fetch_from, DcwsServer};
use std::time::{Duration, Instant};

/// Fast timers so the test completes in a couple of seconds.
fn fast_config() -> ServerConfig {
    ServerConfig {
        stat_interval_ms: 100,
        pinger_interval_ms: 300,
        validation_interval_ms: 500,
        remigration_interval_ms: 5_000,
        coop_migration_interval_ms: 100,
        selection_threshold: 5,
        ..ServerConfig::paper_defaults()
    }
}

fn engine(id: &ServerId, cfg: ServerConfig) -> ServerEngine {
    ServerEngine::new(id.clone(), cfg, Box::new(MemStore::new()))
}

fn spawn(engine: ServerEngine) -> DcwsServer {
    DcwsServer::spawn(engine, "127.0.0.1:0", Duration::from_millis(25)).unwrap()
}

/// Wait until `pred` holds or the timeout elapses.
fn wait_for(timeout: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < timeout {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

#[test]
fn static_serving_over_tcp() {
    let placeholder = ServerId::new("placeholder:0");
    let mut e = engine(&placeholder, fast_config());
    e.publish("/hello.html", b"<p>hi</p>".to_vec(), DocKind::Html, true);
    let server = spawn(e);
    let resp = fetch_from(&server.server_id(), &Request::get("/hello.html")).unwrap();
    assert_eq!(resp.status, StatusCode::Ok);
    assert_eq!(resp.body, b"<p>hi</p>");
    let resp = fetch_from(&server.server_id(), &Request::get("/missing.html")).unwrap();
    assert_eq!(resp.status, StatusCode::NotFound);
    server.shutdown();
}

#[test]
fn migration_redirect_and_pull_over_tcp() {
    // The engine id must match the reachable address, so reserve two
    // ephemeral ports by binding and immediately reusing them.
    let l1 = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let p_home = l1.local_addr().unwrap().port();
    let l2 = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let p_coop = l2.local_addr().unwrap().port();
    drop((l1, l2));

    let home_id = ServerId::new(format!("127.0.0.1:{p_home}"));
    let coop_id2 = ServerId::new(format!("127.0.0.1:{p_coop}"));

    let mut home_engine = engine(&home_id, fast_config());
    home_engine.publish(
        "/index.html",
        br#"<a href="/d.html">D</a>"#.to_vec(),
        DocKind::Html,
        true,
    );
    home_engine.publish(
        "/d.html",
        br#"<html><body><a href="/index.html">back</a> payload-D</body></html>"#.to_vec(),
        DocKind::Html,
        false,
    );
    home_engine.add_peer(coop_id2.clone());

    let coop = DcwsServer::spawn(
        engine(&coop_id2, fast_config()),
        &coop_id2.to_string(),
        Duration::from_millis(25),
    )
    .unwrap();
    let home =
        DcwsServer::spawn(home_engine, &home_id.to_string(), Duration::from_millis(25)).unwrap();

    // Hammer the home server so it decides to migrate /d.html.
    for _ in 0..60 {
        let r = fetch_from(&home_id, &Request::get("/d.html")).unwrap();
        assert!(r.status.is_success() || r.status.is_redirect());
    }
    let migrated = wait_for(Duration::from_secs(5), || {
        home.engine()
            .lock()
            .ldg()
            .get("/d.html")
            .map(|e| matches!(e.location, Location::Coop(_)))
            .unwrap_or(false)
    });
    assert!(migrated, "home never migrated /d.html");

    // A fresh request to the old URL follows the 301 to the co-op, which
    // lazily pulls the content from home and serves it.
    let url = Url::absolute("127.0.0.1", p_home, "/d.html").unwrap();
    let (resp, final_url) = fetch(&url, 3).unwrap();
    assert_eq!(resp.status, StatusCode::Ok);
    assert!(String::from_utf8_lossy(&resp.body).contains("payload-D"));
    assert_eq!(final_url.port(), p_coop, "served by the co-op");
    assert!(final_url.path().starts_with("/~migrate/"));
    assert!(coop.engine().lock().stats().served_coop >= 1);
    assert!(home.engine().lock().stats().pulls_served >= 1);

    // The home's entry page now carries the rewritten hyperlink.
    let idx = fetch_from(&home_id, &Request::get("/index.html")).unwrap();
    assert!(String::from_utf8_lossy(&idx.body).contains("/~migrate/127.0.0.1/"));

    // Piggybacked gossip flowed back: home knows the co-op's load.
    assert!(home.engine().lock().glt().get(&coop_id2).is_some());

    home.shutdown();
    coop.shutdown();
}

#[test]
fn concurrent_misses_coalesce_to_one_pull_over_tcp() {
    // Eight clients hit the co-op for the same migrated document at once;
    // the co-op's `Front` must turn those misses into exactly one pull
    // against the home server.
    let l1 = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let p_home = l1.local_addr().unwrap().port();
    let l2 = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let p_coop = l2.local_addr().unwrap().port();
    drop((l1, l2));
    let home_id = ServerId::new(format!("127.0.0.1:{p_home}"));
    let coop_id = ServerId::new(format!("127.0.0.1:{p_coop}"));

    let mut home_engine = engine(&home_id, fast_config());
    home_engine.publish(
        "/index.html",
        br#"<a href="/d.html">D</a>"#.to_vec(),
        DocKind::Html,
        true,
    );
    home_engine.publish(
        "/d.html",
        b"<p>payload-D</p>".to_vec(),
        DocKind::Html,
        false,
    );
    home_engine.add_peer(coop_id.clone());

    let coop = DcwsServer::spawn(
        engine(&coop_id, fast_config()),
        &coop_id.to_string(),
        Duration::from_millis(25),
    )
    .unwrap();
    let home =
        DcwsServer::spawn(home_engine, &home_id.to_string(), Duration::from_millis(25)).unwrap();

    // Drive the home to migrate /d.html without ever following the
    // redirect, so the co-op holds no copy yet.
    for _ in 0..60 {
        let r = fetch_from(&home_id, &Request::get("/d.html")).unwrap();
        assert!(r.status.is_success() || r.status.is_redirect());
    }
    assert!(wait_for(Duration::from_secs(5), || {
        home.engine().lock().stats().migrations >= 1
    }));
    assert_eq!(home.engine().lock().stats().pulls_served, 0);

    // Eight simultaneous first requests for the migrated URL at the co-op.
    let migrate_path = format!("/~migrate/127.0.0.1/{p_home}/d.html");
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let coop_id = coop_id.clone();
            let path = migrate_path.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                fetch_from(&coop_id, &Request::get(&path)).unwrap()
            })
        })
        .collect();
    for h in handles {
        let resp = h.join().unwrap();
        assert_eq!(resp.status, StatusCode::Ok);
        assert!(String::from_utf8_lossy(&resp.body).contains("payload-D"));
    }
    assert_eq!(
        home.engine().lock().stats().pulls_served,
        1,
        "concurrent misses must coalesce into a single pull"
    );
    assert_eq!(coop.engine().lock().stats().served_coop, 8);

    home.shutdown();
    coop.shutdown();
}

/// A miss parks its job, not its worker. The co-op has two workers and
/// every pull it sends takes two seconds: one worker leads the pull of
/// eight concurrent misses, and the other — a follower under a blocking
/// scheme — is free to answer a cold GET of another document while the
/// pull is still on its way to the home.
#[test]
fn a_parked_miss_holds_no_worker() {
    use dcws_net::{FaultInjector, FaultPlan, NetConfig};
    use std::sync::atomic::Ordering;

    let l1 = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let p_home = l1.local_addr().unwrap().port();
    let l2 = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let p_coop = l2.local_addr().unwrap().port();
    drop((l1, l2));
    let home_id = ServerId::new(format!("127.0.0.1:{p_home}"));
    let coop_id = ServerId::new(format!("127.0.0.1:{p_coop}"));

    let mut home_engine = engine(&home_id, fast_config());
    home_engine.publish(
        "/index.html",
        br#"<a href="/d.html">D</a>"#.to_vec(),
        DocKind::Html,
        true,
    );
    home_engine.publish(
        "/d.html",
        b"<p>payload-D</p>".to_vec(),
        DocKind::Html,
        false,
    );
    home_engine.add_peer(coop_id.clone());
    let mut coop_engine = engine(
        &coop_id,
        ServerConfig {
            n_workers: 2,
            ..fast_config()
        },
    );
    coop_engine.publish("/own.html", b"<p>own</p>".to_vec(), DocKind::Html, true);
    let slow_pulls = FaultPlan::new(7).with_delay(1.0, (2_000, 2_001));
    let coop = DcwsServer::spawn_with(
        coop_engine,
        &coop_id.to_string(),
        NetConfig {
            faults: Some(std::sync::Arc::new(FaultInjector::new(slow_pulls))),
            ..NetConfig::new(Duration::from_millis(25))
        },
    )
    .unwrap();
    let home =
        DcwsServer::spawn(home_engine, &home_id.to_string(), Duration::from_millis(25)).unwrap();

    for _ in 0..60 {
        let r = fetch_from(&home_id, &Request::get("/d.html")).unwrap();
        assert!(r.status.is_success() || r.status.is_redirect());
    }
    assert!(wait_for(Duration::from_secs(5), || {
        home.engine().lock().stats().migrations >= 1
    }));

    let migrate_path = format!("/~migrate/127.0.0.1/{p_home}/d.html");
    let spilled = coop.reactor_stats().spillover_jobs.load(Ordering::Relaxed);
    let misses: Vec<_> = (0..8)
        .map(|_| {
            let coop_id = coop_id.clone();
            let path = migrate_path.clone();
            std::thread::spawn(move || fetch_from(&coop_id, &Request::get(&path)).unwrap())
        })
        .collect();
    assert!(wait_for(Duration::from_secs(1), || {
        coop.reactor_stats().spillover_jobs.load(Ordering::Relaxed) >= spilled + 8
    }));

    let cold = fetch_from(&coop_id, &Request::get("/own.html")).unwrap();
    assert_eq!(cold.status, StatusCode::Ok);
    assert_eq!(
        home.engine().lock().stats().pulls_served,
        0,
        "the cold GET waited for the pull"
    );
    for m in misses {
        let resp = m.join().unwrap();
        assert_eq!(resp.status, StatusCode::Ok);
        assert!(String::from_utf8_lossy(&resp.body).contains("payload-D"));
    }
    assert_eq!(home.engine().lock().stats().pulls_served, 1);

    home.shutdown();
    coop.shutdown();
}

#[test]
fn pinger_declares_dead_coop_and_recalls_documents() {
    let mut cfg = fast_config();
    cfg.ping_failure_limit = 2;
    cfg.pinger_interval_ms = 100;

    let l1 = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let p_home = l1.local_addr().unwrap().port();
    let l2 = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let p_coop = l2.local_addr().unwrap().port();
    drop((l1, l2));
    let home_id = ServerId::new(format!("127.0.0.1:{p_home}"));
    let coop_id = ServerId::new(format!("127.0.0.1:{p_coop}"));

    let mut home_engine = engine(&home_id, cfg.clone());
    home_engine.publish(
        "/index.html",
        br#"<a href="/d.html">D</a>"#.to_vec(),
        DocKind::Html,
        true,
    );
    home_engine.publish("/d.html", b"<p>D</p>".to_vec(), DocKind::Html, false);
    home_engine.add_peer(coop_id.clone());

    let coop = DcwsServer::spawn(
        engine(&coop_id, cfg.clone()),
        &coop_id.to_string(),
        Duration::from_millis(25),
    )
    .unwrap();
    let home =
        DcwsServer::spawn(home_engine, &home_id.to_string(), Duration::from_millis(25)).unwrap();

    for _ in 0..60 {
        let _ = fetch_from(&home_id, &Request::get("/d.html"));
    }
    assert!(wait_for(Duration::from_secs(5), || {
        home.engine().lock().stats().migrations >= 1
    }));

    // Kill the co-op; the home's pinger must notice and recall /d.html.
    coop.shutdown();
    let recalled = wait_for(Duration::from_secs(10), || {
        home.engine()
            .lock()
            .ldg()
            .get("/d.html")
            .map(|e| e.location.is_home())
            .unwrap_or(false)
    });
    assert!(recalled, "documents not recalled after co-op death");
    assert!(home.engine().lock().stats().peers_declared_dead >= 1);

    // Home serves the document directly again.
    let r = fetch_from(&home_id, &Request::get("/d.html")).unwrap();
    assert_eq!(r.status, StatusCode::Ok);
    home.shutdown();
}

#[test]
fn status_endpoint_reports_engine_and_transport_state() {
    use dcws_core::Json;

    // Same two-server topology as the migration test: the status document
    // is checked after a real migrate → redirect → pull sequence so every
    // section has non-trivial content.
    let l1 = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let p_home = l1.local_addr().unwrap().port();
    let l2 = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let p_coop = l2.local_addr().unwrap().port();
    drop((l1, l2));
    let home_id = ServerId::new(format!("127.0.0.1:{p_home}"));
    let coop_id = ServerId::new(format!("127.0.0.1:{p_coop}"));

    let mut home_engine = engine(&home_id, fast_config());
    home_engine.publish(
        "/index.html",
        br#"<a href="/d.html">D</a>"#.to_vec(),
        DocKind::Html,
        true,
    );
    home_engine.publish(
        "/d.html",
        b"<p>payload-D</p>".to_vec(),
        DocKind::Html,
        false,
    );
    home_engine.add_peer(coop_id.clone());

    let coop = DcwsServer::spawn(
        engine(&coop_id, fast_config()),
        &coop_id.to_string(),
        Duration::from_millis(25),
    )
    .unwrap();
    let home =
        DcwsServer::spawn(home_engine, &home_id.to_string(), Duration::from_millis(25)).unwrap();

    for _ in 0..60 {
        let r = fetch_from(&home_id, &Request::get("/d.html")).unwrap();
        assert!(r.status.is_success() || r.status.is_redirect());
    }
    assert!(wait_for(Duration::from_secs(5), || {
        home.engine().lock().stats().migrations >= 1
    }));
    // Follow the redirect so the co-op pulls and serves the document.
    let url = Url::absolute("127.0.0.1", p_home, "/d.html").unwrap();
    let (resp, _) = fetch(&url, 3).unwrap();
    assert_eq!(resp.status, StatusCode::Ok);

    // The reserved endpoint answers with valid JSON.
    let resp = fetch_from(&home_id, &Request::get(dcws_http::STATUS_PATH)).unwrap();
    assert_eq!(resp.status, StatusCode::Ok);
    assert_eq!(resp.headers.get("Content-Type"), Some("application/json"));
    let doc = Json::parse(&String::from_utf8_lossy(&resp.body)).expect("valid JSON");

    // Every EngineStats counter appears under "stats" and matches the
    // engine's live value (stats only move forward, so re-read and allow
    // growth from requests that raced the fetch).
    let before = home.engine().lock().stats();
    let stats = doc.get("stats").expect("stats section");
    for (name, value) in before.fields() {
        let reported = stats
            .get(name)
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("counter {name} missing from /dcws/status"));
        assert!(
            reported <= value,
            "counter {name}: reported {reported} > live {value}"
        );
    }
    assert!(stats.get("migrations").unwrap().as_u64().unwrap() >= 1);
    assert!(stats.get("pulls_served").unwrap().as_u64().unwrap() >= 1);
    assert!(stats.get("redirects").unwrap().as_u64().unwrap() >= 1);

    // Identity, GLT, and the event ring reflect the scenario.
    assert_eq!(
        doc.get("server").unwrap().as_str().unwrap(),
        home_id.to_string()
    );
    let glt = doc.get("glt").unwrap().as_arr().unwrap();
    let coop_name = coop_id.to_string();
    assert!(
        glt.iter()
            .any(|p| p.get("server").and_then(|s| s.as_str()) == Some(coop_name.as_str())),
        "co-op missing from GLT section"
    );
    let events = doc.get("events").unwrap();
    assert!(events.get("total").unwrap().as_u64().unwrap() >= 1);
    let recent = events.get("recent").unwrap().as_arr().unwrap();
    assert!(
        recent
            .iter()
            .any(|e| e.get("kind").and_then(|k| k.as_str()) == Some("migration_started")),
        "migration_started not in recent events"
    );

    // The transport section carries the service-time histogram; every
    // request above passed through the worker pool.
    let transport = doc.get("transport").unwrap();
    let service = transport.get("service_time").unwrap();
    assert!(service.get("count").unwrap().as_u64().unwrap() >= 60);
    assert!(service.get("p50_us").unwrap().as_u64().is_some());
    assert!(service.get("p95_us").unwrap().as_u64().is_some());
    assert!(service.get("p99_us").unwrap().as_u64().is_some());

    // The resilience counters are always present: inter-server I/O ran
    // clean here (the co-op's pull + pings succeeded on first attempts),
    // and fault injection is disabled but its shape is stable.
    let retries = transport.get("retries").expect("retries section");
    for field in [
        "attempts",
        "successes",
        "retried",
        "giveups",
        "corrupt_responses",
        "backoff_ms",
    ] {
        assert!(
            retries.get(field).and_then(|v| v.as_u64()).is_some(),
            "transport.retries.{field} missing"
        );
    }
    assert_eq!(retries.get("giveups").unwrap().as_u64(), Some(0));
    assert_eq!(
        retries.get("stale_reuse_retries").unwrap().as_u64(),
        Some(0)
    );

    // The connection-pool section is always present: pooling is on by
    // default, and its counters are internally consistent.
    let pool = transport.get("pool").expect("pool section");
    assert!(matches!(pool.get("enabled"), Some(Json::Bool(true))));
    assert!(pool.get("max_per_peer").unwrap().as_u64().unwrap() >= 1);
    assert!(pool.get("idle_ttl_ms").unwrap().as_u64().unwrap() >= 1);
    for field in ["hits", "dials", "checkins", "discarded_full", "open_idle"] {
        assert!(
            pool.get(field).and_then(|v| v.as_u64()).is_some(),
            "transport.pool.{field} missing"
        );
    }
    let ratio = pool.get("reuse_ratio").unwrap().as_f64().unwrap();
    assert!((0.0..=1.0).contains(&ratio));
    let evictions = pool.get("evictions").expect("eviction breakdown");
    for field in ["idle_ttl", "peer_close", "error"] {
        assert!(
            evictions.get(field).and_then(|v| v.as_u64()).is_some(),
            "transport.pool.evictions.{field} missing"
        );
    }
    assert!(pool.get("open_idle_per_peer").is_some());
    assert!(pool.get("events").unwrap().as_arr().is_some());
    // The pinger's transfers flow through the transport (the status doc
    // above may have been read before the first 300 ms ping fired, so
    // check the live counter with a grace period).
    assert!(wait_for(Duration::from_secs(3), || {
        home.transport().snapshot().attempts >= 1
    }));
    // Each successful ping round-trip feeds the per-peer RTT EWMA; once
    // one has fired, the co-op shows up under transport.peer_rtt_ms with
    // a sane millisecond figure (loopback: well under a second).
    let rtt_visible = wait_for(Duration::from_secs(3), || {
        let resp = fetch_from(&home_id, &Request::get(dcws_http::STATUS_PATH)).unwrap();
        let doc = Json::parse(&String::from_utf8_lossy(&resp.body)).expect("valid JSON");
        doc.get("transport")
            .and_then(|t| t.get("peer_rtt_ms"))
            .and_then(|m| m.get(coop_name.as_str()))
            .and_then(|v| v.as_f64())
            .is_some_and(|ms| (0.0..1000.0).contains(&ms))
    });
    assert!(
        rtt_visible,
        "transport.peer_rtt_ms missing the co-op's EWMA"
    );
    let faults = transport.get("faults").expect("faults section");
    assert!(matches!(faults.get("enabled"), Some(Json::Bool(false))));
    assert_eq!(faults.get("injected").unwrap().as_u64(), Some(0));
    // And the engine's degradation counters appear under stats.
    for field in ["validation_failures", "pull_failures", "stale_serves"] {
        assert_eq!(
            stats.get(field).and_then(|v| v.as_u64()),
            Some(0),
            "stats.{field} missing or nonzero on a clean run"
        );
    }

    // Reserved paths other than /dcws/status are 404, and the namespace
    // never shadows documents.
    let r = fetch_from(&home_id, &Request::get("/dcws/nope")).unwrap();
    assert_eq!(r.status, StatusCode::NotFound);
    let r = fetch_from(&home_id, &Request::get("/index.html")).unwrap();
    assert_eq!(r.status, StatusCode::Ok);

    home.shutdown();
    coop.shutdown();
}

#[test]
fn keep_alive_serves_multiple_requests_per_connection() {
    use dcws_net::conn::{read_response, READ_TIMEOUT};
    use std::io::Write;

    let mut e = engine(&ServerId::new("placeholder:0"), fast_config());
    e.publish("/a.html", b"<p>a</p>".to_vec(), DocKind::Html, true);
    e.publish("/b.html", b"<p>b</p>".to_vec(), DocKind::Html, false);
    let server = spawn(e);

    let mut s = std::net::TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    // Two HTTP/1.1 requests on the same connection.
    s.write_all(&Request::get("/a.html").to_bytes()).unwrap();
    let r1 = read_response(&mut s, dcws_http::Method::Get).unwrap();
    assert_eq!(r1.body, b"<p>a</p>");
    s.write_all(&Request::get("/b.html").to_bytes()).unwrap();
    let r2 = read_response(&mut s, dcws_http::Method::Get).unwrap();
    assert_eq!(r2.body, b"<p>b</p>");

    // Connection: close is honored — the server closes after responding.
    s.write_all(
        &Request::get("/a.html")
            .with_header("Connection", "close")
            .to_bytes(),
    )
    .unwrap();
    let r3 = read_response(&mut s, dcws_http::Method::Get).unwrap();
    assert_eq!(r3.status, StatusCode::Ok);
    use std::io::Read;
    let mut rest = Vec::new();
    let n = s.read_to_end(&mut rest).unwrap();
    assert_eq!(n, 0, "server should close after Connection: close");
    server.shutdown();
}

#[test]
fn malformed_request_gets_400() {
    use std::io::{Read, Write};
    let mut e = engine(&ServerId::new("placeholder:0"), fast_config());
    e.publish("/x.html", b"x".to_vec(), DocKind::Html, true);
    let server = spawn(e);
    let mut s = std::net::TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
    s.write_all(b"NONSENSE GARBAGE\r\n\r\n").unwrap();
    let mut buf = Vec::new();
    let _ = s.read_to_end(&mut buf);
    assert!(
        String::from_utf8_lossy(&buf).starts_with("HTTP/1.1 400"),
        "got: {:?}",
        String::from_utf8_lossy(&buf)
    );
    server.shutdown();
}
