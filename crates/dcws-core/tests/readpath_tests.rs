//! Behavioural tests for the concurrent read path: zero-copy serving,
//! declining inter-server traffic, and hit accounting through the
//! mailboxes.

use dcws_core::{MemStore, ServerConfig, ServerEngine};
use dcws_graph::DocKind;
use dcws_http::{LoadReport, Request, StatusCode};

fn engine(id: &str) -> ServerEngine {
    ServerEngine::new(
        dcws_graph::ServerId::new(id),
        ServerConfig::paper_defaults(),
        Box::new(MemStore::new()),
    )
}

/// First serve goes through the exclusive path and primes the table;
/// after that the read path answers, and every hit shares one allocation.
#[test]
fn read_path_cache_hits_are_zero_copy() {
    let mut e = engine("home:8080");
    e.publish(
        "/doc.html",
        b"<p>stable text</p>".to_vec(),
        DocKind::Html,
        false,
    );

    let req = Request::get("/doc.html");
    // Cold: the read path has no route yet.
    assert!(e.read_path().try_serve(&req, 0).is_none());
    let primed = e
        .handle_request(&req, 0)
        .into_response()
        .expect("home doc serves");
    assert_eq!(primed.status, StatusCode::Ok);

    let read = e.read_path().clone();
    let a = read.try_serve(&req, 1).expect("primed route serves");
    let b = read.try_serve(&req, 2).expect("primed route serves");
    assert_eq!(a.status, StatusCode::Ok);
    assert_eq!(a.body, b"<p>stable text</p>");
    // The zero-copy witness: both responses borrow the same allocation.
    assert!(
        a.body.ptr_eq(&b.body),
        "read-path hits must share one body allocation"
    );
    assert_eq!(read.snapshot().served_home, 2);
}

/// Republishing a document invalidates its route: readers see either the
/// old primed route or a vacancy, never a stale body after re-priming.
#[test]
fn republish_invalidates_primed_route() {
    let mut e = engine("home:8080");
    e.publish("/doc.html", b"<p>v1</p>".to_vec(), DocKind::Html, false);
    let req = Request::get("/doc.html");
    e.handle_request(&req, 0).into_response().unwrap();
    assert!(e.read_path().try_serve(&req, 1).is_some());

    e.publish("/doc.html", b"<p>v2</p>".to_vec(), DocKind::Html, false);
    // Route dropped by the publish; next read-path attempt misses …
    assert!(e.read_path().try_serve(&req, 2).is_none());
    // … and the exclusive path re-primes with the new content.
    let resp = e.handle_request(&req, 3).into_response().unwrap();
    assert_eq!(resp.body, b"<p>v2</p>");
    let served = e.read_path().try_serve(&req, 4).expect("re-primed");
    assert_eq!(served.body, b"<p>v2</p>");
}

/// A piggybacked load report is inter-server traffic: the read path
/// declines it even on a primed route, and the engine merges its row
/// while it answers — the GLT holds it before any tick.
#[test]
fn piggyback_on_read_path_reaches_glt_within_one_tick() {
    let mut e = engine("home:8080");
    e.publish("/doc.html", b"<p>x</p>".to_vec(), DocKind::Html, false);
    let plain = Request::get("/doc.html");
    e.handle_request(&plain, 0).into_response().unwrap();
    assert!(e.read_path().try_serve(&plain, 1).is_some(), "primed");

    let mut req = Request::get("/doc.html");
    let report = LoadReport {
        server: "peer:9090".into(),
        cps: 41.5,
        bps: 20_000.0,
        ts_ms: 5,
    };
    report.attach(&mut req.headers);

    assert!(e.read_path().try_serve(&req, 10).is_none());
    let resp = e.handle_request(&req, 10).into_response().unwrap();
    assert_eq!(resp.status, StatusCode::Ok);
    let peers = e.peer_summaries();
    let peer = peers
        .iter()
        .find(|p| p.id.as_str() == "peer:9090")
        .expect("report merged into GLT before any tick");
    assert!((peer.cps - 41.5).abs() < 1e-9);
    assert_eq!(peer.ts_ms, 5);
}

/// A ranged GET that piggybacks a load report gets one answer whether its
/// route is primed or cold: the engine's, which treats it as inter-server
/// and leaves the range unapplied. (A read path that answered it would
/// slice a primed route to a `206`, while the cold engine sends a `200`.)
#[test]
fn ranged_get_with_a_load_report_is_answered_alike_primed_or_cold() {
    let image: Vec<u8> = (0..200u8).collect();
    let report = LoadReport {
        server: "peer:9090".into(),
        cps: 1.0,
        bps: 1.0,
        ts_ms: 5,
    };
    let answer = |primed: bool| {
        let mut e = engine("home:8080");
        e.publish("/img.bin", image.clone(), DocKind::Image, false);
        if primed {
            e.handle_request(&Request::get("/img.bin"), 0)
                .into_response()
                .unwrap();
        }
        let mut req = Request::get("/img.bin").with_header("Range", "bytes=0-9");
        report.attach(&mut req.headers);
        // A host's order: the read path, then the engine.
        let resp = match e.read_path().try_serve(&req, 10) {
            Some(resp) => resp,
            None => e.handle_request(&req, 10).into_response().unwrap(),
        };
        (resp.status, resp.body.to_vec())
    };
    let cold = answer(false);
    assert_eq!(answer(true), cold);
    assert_eq!(cold, (StatusCode::Ok, image));
}

/// Read-path hits flow into LDG hit accounting (and hence Algorithm 1's
/// statistics) via the tick-drained mailbox.
#[test]
fn read_path_hits_counted_in_ldg_at_tick() {
    let mut e = engine("home:8080");
    e.publish("/doc.html", b"<p>x</p>".to_vec(), DocKind::Html, false);
    let req = Request::get("/doc.html");
    e.handle_request(&req, 0).into_response().unwrap();
    for t in 0..7 {
        e.read_path().try_serve(&req, t).expect("hit");
    }
    e.tick(50);
    let hot = e.hot_docs(1);
    assert_eq!(hot[0].name, "/doc.html");
    // 1 exclusive-path serve + 7 read-path serves.
    assert_eq!(hot[0].hits_total, 8);
}

/// Folded stats: totals include read-path work, so observability stays
/// whole regardless of which path served.
#[test]
fn stats_fold_read_path_counters() {
    let mut e = engine("home:8080");
    e.publish("/doc.html", b"<p>12345</p>".to_vec(), DocKind::Html, false);
    let req = Request::get("/doc.html");
    e.handle_request(&req, 0).into_response().unwrap();
    let before = e.stats();
    e.read_path().try_serve(&req, 1).unwrap();
    e.read_path().try_serve(&req, 2).unwrap();
    let after = e.stats();
    assert_eq!(after.requests - before.requests, 2);
    assert_eq!(after.served_home - before.served_home, 2);
    assert_eq!(
        after.bytes_sent - before.bytes_sent,
        2 * b"<p>12345</p>".len() as u64
    );
}

/// Non-GET methods, unknown inter-server headers, and unprimed paths all
/// decline to the exclusive path (counted as fallbacks), never panic.
#[test]
fn read_path_declines_non_common_cases() {
    let mut e = engine("home:8080");
    e.publish("/doc.html", b"<p>x</p>".to_vec(), DocKind::Html, false);
    e.handle_request(&Request::get("/doc.html"), 0)
        .into_response()
        .unwrap();
    let read = e.read_path().clone();

    // Pull requests are inter-server traffic: exclusive path.
    let pull = Request::get("/doc.html").with_header("X-DCWS-Pull", "1");
    assert!(read.try_serve(&pull, 1).is_none());
    // Unprimed path.
    assert!(read.try_serve(&Request::get("/other.html"), 2).is_none());
    // Reserved namespace is the transport's business.
    assert!(read.try_serve(&Request::get("/dcws/status"), 3).is_none());
    let snap = read.snapshot();
    assert!(snap.fallbacks >= 2);
}

/// Conditional GET against a primed route answers 304 lock-free.
#[test]
fn read_path_conditional_get() {
    let mut e = engine("home:8080");
    e.publish("/doc.html", b"<p>x</p>".to_vec(), DocKind::Html, false);
    let first = e
        .handle_request(&Request::get("/doc.html"), 0)
        .into_response()
        .unwrap();
    let lm = first
        .headers
        .get("Last-Modified")
        .expect("has Last-Modified");
    let cond = Request::get("/doc.html").with_header("If-Modified-Since", lm.to_string());
    let resp = e
        .read_path()
        .try_serve(&cond, 10)
        .expect("read path serves");
    assert_eq!(resp.status, StatusCode::NotModified);
    assert_eq!(e.read_path().snapshot().conditional_not_modified, 1);
}

/// A migrated document's prebuilt 301 is served lock-free, and revoking
/// the migration drops the route.
#[test]
fn read_path_serves_prebuilt_redirects_and_honors_revoke() {
    let cfg = ServerConfig {
        stat_interval_ms: 100,
        selection_threshold: 1,
        min_cps_to_migrate: 0.0,
        ..ServerConfig::paper_defaults()
    };
    let mut e = ServerEngine::new(
        dcws_graph::ServerId::new("home:8080"),
        cfg,
        Box::new(MemStore::new()),
    );
    let peer = dcws_graph::ServerId::new("peer:8081");
    e.add_peer(peer.clone());
    e.publish("/hot.html", b"<p>hot</p>".to_vec(), DocKind::Html, false);
    for t in 0..30 {
        e.handle_request(&Request::get("/hot.html"), t);
    }
    let out = e.tick(150);
    assert_eq!(out.migrated.len(), 1, "migration expected");

    // Exclusive path primes the Moved route …
    let req = Request::get("/hot.html");
    let resp = e.handle_request(&req, 200).into_response().unwrap();
    assert_eq!(resp.status, StatusCode::MovedPermanently);
    // … after which the read path answers the 301 without the lock.
    let read = e.read_path().clone();
    let r1 = read.try_serve(&req, 201).expect("moved route primed");
    assert_eq!(r1.status, StatusCode::MovedPermanently);
    assert_eq!(
        r1.headers.get("Location"),
        resp.headers.get("Location"),
        "same redirect target"
    );

    // Revocation invalidates: the next 200 comes from home again.
    e.declare_peer_dead(&peer);
    assert!(read.try_serve(&req, 300).is_none(), "route dropped");
    let back = e.handle_request(&req, 301).into_response().unwrap();
    assert_eq!(back.status, StatusCode::Ok);
}

/// Parse `req`'s wire form in place and serve it on the read path, as the
/// reactor does: the wire form and, for a large object, its entity.
fn serve_front_end(
    e: &ServerEngine,
    req: &Request,
) -> Option<(dcws_core::Served, Option<dcws_http::StreamBody>)> {
    let wire = req.to_bytes();
    let text = std::str::from_utf8(&wire).unwrap();
    let head = dcws_http::RequestHead::parse(text, wire.len()).expect("valid request");
    e.read_path().serve(&head)
}

/// [`serve_front_end`] for documents below the streaming threshold.
fn serve_borrowed(e: &ServerEngine, req: &Request) -> Option<dcws_core::Served> {
    serve_front_end(e, req).map(|(served, stream)| {
        assert!(stream.is_none(), "a buffered document has no stream");
        served
    })
}

/// For every document, the head the serve table prebuilt at prime time
/// is byte for byte the head the exclusive path serializes for the same
/// request — as are the read path's answers to the request variants that
/// get a head of their own — and `try_serve` is the same answer in
/// message form.
fn assert_read_path_matches_exclusive(e: &mut ServerEngine, paths: &[&str], now: u64) {
    for path in paths {
        let plain = Request::get(*path);
        // The exclusive serve primes (or re-primes) the route.
        let primed = e.handle_request(&plain, now).into_response().unwrap();
        let lm = primed.headers.get("Last-Modified").map(str::to_string);
        let mut variants = vec![
            plain.clone(),
            Request::head(*path),
            plain.clone().with_header("Range", "bytes=1-3"),
            plain.clone().with_header("Range", "bytes=900000-"),
            plain.clone().with_header("Connection", "close"),
        ];
        if let Some(lm) = &lm {
            variants.push(plain.clone().with_header("If-Modified-Since", lm.clone()));
        }
        for req in &variants {
            let want = e.handle_request(req, now).into_response().unwrap();
            let got = serve_borrowed(e, req)
                .unwrap_or_else(|| panic!("{path}: route not primed for {req:?}"));
            assert_eq!(
                String::from_utf8_lossy(&got.head),
                String::from_utf8_lossy(&want.head_bytes()),
                "{path}: head differs for {req:?}"
            );
            assert_eq!(got.body, want.body, "{path}: body differs for {req:?}");
            assert_eq!(
                e.read_path().try_serve(req, now).as_ref(),
                Some(&want),
                "{path}: try_serve differs for {req:?}"
            );
        }
    }
}

#[test]
fn prebuilt_heads_match_exclusive_path_across_invalidation() {
    let cfg = ServerConfig {
        stat_interval_ms: 100,
        selection_threshold: 1,
        min_cps_to_migrate: 0.0,
        ..ServerConfig::paper_defaults()
    };
    let mut e = ServerEngine::new(
        dcws_graph::ServerId::new("home:8080"),
        cfg,
        Box::new(MemStore::new()),
    );
    let peer = dcws_graph::ServerId::new("peer:8081");
    e.add_peer(peer.clone());
    let paths = ["/index.html", "/hot.html", "/img/logo.gif"];
    e.publish(
        "/index.html",
        b"<a href=\"/hot.html\">hot</a><img src=\"/img/logo.gif\">".to_vec(),
        DocKind::Html,
        true,
    );
    e.publish(
        "/hot.html",
        b"<p>hot</p><a href=\"/index.html\">up</a>".to_vec(),
        DocKind::Html,
        false,
    );
    e.publish("/img/logo.gif", vec![0x47; 300], DocKind::Image, false);
    assert_read_path_matches_exclusive(&mut e, &paths, 10);

    // publish: the republished route and the documents linking to it
    // are invalidated and re-primed with new heads.
    e.publish(
        "/hot.html",
        b"<p>hotter, and longer than before</p>".to_vec(),
        DocKind::Html,
        false,
    );
    assert!(serve_borrowed(&e, &Request::get("/hot.html")).is_none());
    assert_read_path_matches_exclusive(&mut e, &paths, 20);

    // migrate: the document's route becomes the prebuilt 301.
    for t in 0..40 {
        e.handle_request(&Request::get("/hot.html"), 30 + t);
    }
    let out = e.tick(250);
    assert!(!out.migrated.is_empty(), "migration expected");
    assert_read_path_matches_exclusive(&mut e, &paths, 300);
    let moved: Vec<_> = paths
        .iter()
        .filter_map(|p| serve_borrowed(&e, &Request::get(*p)))
        .filter(|s| s.head.starts_with(b"HTTP/1.1 301"))
        .collect();
    assert!(!moved.is_empty(), "a migrated route serves a prebuilt 301");

    // revoke: back to 200s from home.
    e.declare_peer_dead(&peer);
    assert_read_path_matches_exclusive(&mut e, &paths, 400);
    for p in paths {
        let s = serve_borrowed(&e, &Request::get(p)).unwrap();
        assert!(s.head.starts_with(b"HTTP/1.1 200"), "{p} still moved");
    }
}

/// The exclusive path offers the route again on every serve it handles;
/// while the resident route holds the same body and modification time
/// that is a no-op — the prebuilt head is not rebuilt.
#[test]
fn exclusive_reserve_does_not_reprime_an_unchanged_route() {
    let mut e = engine("home:8080");
    e.publish("/doc.html", b"<p>x</p>".to_vec(), DocKind::Html, false);
    let req = Request::get("/doc.html");
    e.handle_request(&req, 0).into_response().unwrap();
    let first = serve_borrowed(&e, &req).unwrap();
    for t in 1..5 {
        e.handle_request(&req, t).into_response().unwrap();
    }
    let again = serve_borrowed(&e, &req).unwrap();
    assert!(first.head.ptr_eq(&again.head), "route was re-primed");
    assert!(first.body.ptr_eq(&again.body));
    assert_eq!(e.read_path().table().stats().entries, 1);
}

/// A shutting-down front end appends `Connection: close` to whatever the
/// read path served, exactly where `Response::with_header` would put it.
#[test]
fn close_connection_matches_with_header() {
    let mut e = engine("home:8080");
    e.publish("/doc.html", b"<p>x</p>".to_vec(), DocKind::Html, false);
    let req = Request::get("/doc.html");
    let resp = e.handle_request(&req, 0).into_response().unwrap();
    let mut served = serve_borrowed(&e, &req).unwrap();
    served.close_connection();
    assert_eq!(
        &served.head[..],
        &resp.with_header("Connection", "close").head_bytes()[..]
    );
}

/// A wire-form answer reads as its message: the status line's code and
/// each header's value, names matched without regard to case.
#[test]
fn served_reads_its_status_and_headers_in_place() {
    let url = dcws_http::Url::parse("http://s1:80/~migrate/s0/80/x.html").unwrap();
    let answers = [
        dcws_http::Response::ok(&b"<p>x</p>"[..], "text/html").with_header("Last-Modified", "t"),
        dcws_http::Response::moved_permanently(&url),
        dcws_http::Response::service_unavailable(1),
        dcws_http::Response::not_modified(),
    ];
    for resp in answers {
        let served = dcws_core::Served::from_response(resp.clone());
        assert_eq!(served.status(), resp.status);
        for (name, value) in resp.headers.iter() {
            assert_eq!(served.header(name), Some(value), "{name}");
            assert_eq!(served.header(&name.to_ascii_uppercase()), Some(value));
        }
        assert_eq!(served.header("X-Absent"), None);
        assert_eq!(served.into_response(), resp);
    }
}

/// A request the front end's lookup declines spills to a worker, which
/// looks again before taking the engine lock. Both looks decline; the
/// request is one fallback. `try_serve` on its own still counts its own.
#[test]
fn a_spilled_request_counts_one_fallback() {
    let mut e = engine("home:8080");
    e.publish("/doc.html", b"<p>x</p>".to_vec(), DocKind::Html, false);
    let read = e.read_path().clone();
    const N: u64 = 9;
    let spilled = [
        Request::get("/doc.html"), // not primed yet
        Request::get("/missing.html"),
        Request::get("/doc.html").with_header("X-DCWS-Pull", "1"),
    ];
    let before = read.snapshot().fallbacks;
    for i in 0..N {
        let req = &spilled[i as usize % spilled.len()];
        assert!(serve_front_end(&e, req).is_none());
        assert!(read.try_serve_spilled(req).is_none());
    }
    assert_eq!(read.snapshot().fallbacks - before, N);
    assert!(read.try_serve(&spilled[0], 0).is_none());
    assert_eq!(read.snapshot().fallbacks - before, N + 1);
    // Another worker primed the route between the two looks: the second
    // one serves, and the request still counted once.
    e.handle_request(&spilled[0], 0).into_response().unwrap();
    assert!(read.try_serve_spilled(&spilled[0]).is_some());
    assert_eq!(read.snapshot().fallbacks - before, N + 1);
}

/// A [`MemStore`] that counts whole-document fetches.
struct CountingStore {
    inner: MemStore,
    fetches: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl CountingStore {
    fn count(&self) {
        self.fetches
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

impl dcws_core::DocStore for CountingStore {
    fn get(&self, name: &str) -> Option<Vec<u8>> {
        self.count();
        self.inner.get(name)
    }
    fn get_body(&self, name: &str) -> Option<dcws_http::Body> {
        self.count();
        self.inner.get_body(name)
    }
    fn put(&mut self, name: &str, bytes: Vec<u8>) -> std::io::Result<()> {
        self.inner.put(name, bytes)
    }
    fn remove(&mut self, name: &str) -> bool {
        self.inner.remove(name)
    }
    fn contains(&self, name: &str) -> bool {
        self.inner.contains(name)
    }
    fn size(&self, name: &str) -> Option<u64> {
        self.inner.size(name)
    }
    fn open_stream(&self, name: &str) -> Option<dcws_core::DocReader> {
        self.inner.open_stream(name)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn total_bytes(&self) -> u64 {
        self.inner.total_bytes()
    }
}

/// Above the default 256 KiB streaming threshold.
const BIG_LEN: usize = 700 * 1024;

/// A `HEAD` of a large object is answered from metadata on both paths:
/// the store is never asked for the document, and neither is it for the
/// `GET`s, which read through `open_stream`.
#[test]
fn large_object_head_never_fetches_the_document() {
    let fetches = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let mut e = ServerEngine::new(
        dcws_graph::ServerId::new("home:8080"),
        ServerConfig::paper_defaults(),
        Box::new(CountingStore {
            inner: MemStore::new(),
            fetches: fetches.clone(),
        }),
    );
    e.publish("/big.img", vec![7u8; BIG_LEN], DocKind::Image, false);
    e.publish("/small.img", vec![7u8; 4096], DocKind::Image, false);
    let fetched = || fetches.load(std::sync::atomic::Ordering::Relaxed);

    // Exclusive path, route not primed: the head, and no entity.
    let head = Request::head("/big.img");
    let resp = match e.handle_request(&head, 0) {
        dcws_core::Outcome::Response(resp) => resp,
        other => panic!("a HEAD streams nothing: {other:?}"),
    };
    assert_eq!(resp.status, StatusCode::Ok);
    assert_eq!(
        resp.headers.get("Content-Length"),
        Some(&*BIG_LEN.to_string())
    );
    assert!(resp.body.is_empty());
    assert_eq!(fetched(), 0, "the HEAD loaded the document");

    // It primed the route all the same: read path, inline.
    let (served, stream) = serve_front_end(&e, &head).expect("route primed by the HEAD");
    assert!(stream.is_none() && served.body.is_empty());
    assert_eq!(&served.head[..], &resp.head_bytes()[..]);
    let (_, stream) = serve_front_end(&e, &Request::get("/big.img")).unwrap();
    assert_eq!(stream.expect("a GET streams").len(), BIG_LEN as u64);
    e.handle_request(&Request::get("/big.img"), 1);
    assert_eq!(fetched(), 0);
    let stats = e.stats();
    assert_eq!((stats.served_home, stats.streamed_serves), (4, 2));

    // The wrapper does count: a buffered document is fetched.
    e.handle_request(&Request::get("/small.img"), 2);
    assert_eq!(fetched(), 1);
}

/// What the reactor serves of a large object reaches Algorithm 1 and the
/// rate window at the next tick, as a small document's hits do, and
/// `try_serve` — whose caller could not drain a stream — declines.
#[test]
fn stream_route_hits_are_counted_and_try_serve_declines() {
    let mut e = engine("home:8080");
    e.publish("/big.img", vec![7u8; BIG_LEN], DocKind::Image, false);
    let get = Request::get("/big.img");
    assert!(serve_front_end(&e, &get).is_none(), "not primed yet");
    e.handle_request(&get, 0);
    let store = e.read_path().table().stats();
    assert_eq!(
        (e.read_path().snapshot().stream_routes, store.entries),
        (1, 1)
    );
    assert!(store.bytes_resident >= 64 * 1024, "a descriptor's charge");

    let ranged = get.clone().with_header("Range", "bytes=0-99999");
    for req in [&get, &ranged, &get] {
        let (_, stream) = serve_front_end(&e, req).expect("primed");
        assert!(stream.is_some());
    }
    let before = e.read_path().snapshot();
    assert!(e.read_path().try_serve(&get, 1).is_none());
    assert!(e.read_path().try_serve_spilled(&get).is_none());
    let after = e.read_path().snapshot();
    assert_eq!(after.fallbacks - before.fallbacks, 1);
    assert_eq!(after.requests, before.requests, "a decline serves nothing");
    assert_eq!(after.streamed_serves, 3);
    assert_eq!(after.bytes_sent, 2 * BIG_LEN as u64 + 100_000);

    e.tick(50);
    let hot = e.hot_docs(1);
    assert_eq!(hot[0].name, "/big.img");
    // 1 exclusive-path serve + 3 read-path serves.
    assert_eq!(hot[0].hits_total, 4);
    assert_eq!(e.stats().streamed_serves, 4);

    // Republishing drops the route and the reader with it.
    e.publish("/big.img", vec![8u8; BIG_LEN], DocKind::Image, false);
    assert_eq!(e.read_path().snapshot().stream_routes, 0);
    assert!(serve_front_end(&e, &get).is_none());
}

/// The store evicts one entry at a time, and a read-path hit keeps its
/// entry: with a slice that holds three of these routes, a stream of cold
/// routes through every shard never pushes out the page the read path
/// keeps answering, and each overflow costs exactly one eviction.
#[test]
fn a_hot_route_outlives_a_stream_of_cold_ones() {
    const COLD: u64 = 96;
    let mut cfg = ServerConfig::paper_defaults();
    // Half of it is the store's, over its 8 shards: 4 KiB a shard, and
    // each route below is charged a little over 1.2 KiB.
    cfg.cache_budget_bytes = 2 * 8 * 4096;
    let mut e = ServerEngine::new(
        dcws_graph::ServerId::new("home:8080"),
        cfg,
        Box::new(MemStore::new()),
    );
    let page = |fill: u8| [b"<p>".as_slice(), &[fill; 1000], b"</p>"].concat();
    e.publish("/hot.html", page(b'h'), DocKind::Html, false);
    for i in 0..COLD {
        e.publish(&format!("/cold/{i}.html"), page(b'c'), DocKind::Html, false);
    }
    let hot = Request::get("/hot.html");
    e.handle_request(&hot, 0).into_response().unwrap();
    assert!(e.read_path().try_serve(&hot, 0).is_some(), "primed");

    let read = e.read_path().clone();
    let evictions = || read.table().stats().evictions;
    for i in 0..COLD {
        let before = evictions();
        let cold = Request::get(format!("/cold/{i}.html"));
        e.handle_request(&cold, i).into_response().unwrap();
        assert!(
            evictions() - before <= 1,
            "/cold/{i}: one eviction an overflow"
        );
        assert!(
            e.read_path().try_serve(&hot, i).is_some(),
            "/hot.html declined after /cold/{i}.html"
        );
    }
    // Every shard overflowed, /hot.html's among them, and nothing else
    // left the store.
    let store = e.read_path().table().stats();
    assert!(
        store.evictions >= COLD - 3 * 8,
        "{} evictions",
        store.evictions
    );
    assert_eq!(store.entries, 1 + COLD - store.evictions);
    assert_eq!(e.read_path().snapshot().fallbacks, 0);
}
