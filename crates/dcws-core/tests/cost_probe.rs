//! The exclusive path shares bytes, and the control plane's cost does not
//! grow with the group.
//!
//! This binary installs a counting global allocator and holds two lines:
//!
//! * **allocations per message are independent of group size, and few**
//!   — one `attach_reports`, one ping answered by `handle_request`, and
//!   one idle `tick` allocate exactly as often with 512 peers in the
//!   Global Load Table as with 8 (they read at most `piggyback_max` rows,
//!   by reference), and a peer's row costs a send nothing — its cached
//!   text travels by refcount — where formatting it cost four;
//! * **a message allocates only what it says** — a warm home `200`, a
//!   `304`, a `503`, a co-op serve and a repeat pull of a rewritten page
//!   each allocate an exact, pinned number of times: constant names and
//!   values, shared dates and rows, the borrowed request path and the
//!   kept regenerated variant cost nothing;
//! * **gossip that says nothing new is free to receive** — a message
//!   whose rows are all this server's own or no newer than the table's
//!   is merged without one allocation, and a row that is newer costs the
//!   decoding of that row alone;
//! * **the exclusive serve path copies no body** — consecutive serves of
//!   an unrewritten `MemStore` document, the store's own `get_body`, and
//!   the route the read path was primed with all share one allocation —
//!   while a store that implements only the required `DocStore` methods
//!   still serves correctly through the default `get_body`.
//!
//! Deliberately a **single** `#[test]`: the allocation counter is
//! process-global, and parallel tests would interleave their counts.

use dcws_core::{DocStore, MemStore, ServerConfig, ServerEngine};
use dcws_graph::{DocKind, ServerId};
use dcws_http::{Body, Headers, LoadReport, Request, Response, StatusCode};
use dcws_sim::alloc::{allocations, CountingAlloc};
use std::io;

#[global_allocator]
static PROBE: CountingAlloc = CountingAlloc;

/// An engine at `s0000:80` whose GLT holds `peers` other servers, each
/// heard from at `heard_ms`. Names and loads are the same width in every
/// row, so the rows a message carries format to the same lengths whatever
/// the group size.
fn engine_with_peers(peers: usize, heard_ms: u64) -> ServerEngine {
    let mut e = ServerEngine::new(
        ServerId::new("s0000:80"),
        ServerConfig::paper_defaults(),
        Box::new(MemStore::new()),
    );
    for i in 1..=peers {
        let mut h = Headers::new();
        LoadReport {
            server: format!("s{i:04}:80"),
            cps: 5.0,
            bps: 5e3,
            ts_ms: heard_ms,
        }
        .attach(&mut h);
        e.ingest_reports(&h);
    }
    assert_eq!(e.glt().len(), peers + 1);
    e
}

/// Allocator calls made by `f`.
fn allocs_of(f: impl FnOnce()) -> u64 {
    let before = allocations();
    f();
    allocations() - before
}

/// `(attach_reports, ping answer, idle tick)` allocation counts for a
/// group of `peers` + 1.
fn control_plane_allocs(peers: usize) -> (u64, u64, u64) {
    const NOW: u64 = 50_000;
    // Every peer was heard from just now, so no ping is due and the
    // tick is idle; one warm-up round settles lazily grown buffers.
    let mut e = engine_with_peers(peers, NOW);
    let piggyback_max = e.config().piggyback_max;
    let ping = Request::head("/").with_header("X-DCWS-Ping", "1");
    let round = |e: &mut ServerEngine, now: u64| {
        let mut headers = Headers::new();
        let attach = allocs_of(|| e.attach_reports(&mut headers, now));
        assert_eq!(
            headers.get_all("X-DCWS-Load").count(),
            piggyback_max.min(peers + 1)
        );
        let mut answer = None;
        let pong = allocs_of(|| answer = e.handle_request(&ping, now).into_response());
        let answer = answer.expect("a ping is answered");
        assert_eq!(answer.status, StatusCode::Ok);
        assert_eq!(
            answer.headers.get_all("X-DCWS-Load").count(),
            piggyback_max.min(peers + 1)
        );
        let mut out = None;
        let tick = allocs_of(|| out = Some(e.tick(now)));
        assert!(out.expect("ticked").is_empty(), "the measured tick is idle");
        (attach, pong, tick)
    };
    round(&mut e, NOW);
    round(&mut e, NOW + 1)
}

/// What receiving gossip allocates: nothing for rows that say nothing
/// new, one row's decoding for one that does.
fn ingest_allocs() {
    const NOW: u64 = 50_000;
    let mut e = engine_with_peers(8, NOW);
    let report = |server: &str, ts_ms: u64| LoadReport {
        server: server.into(),
        cps: 6.0,
        bps: 6e3,
        ts_ms,
    };
    // Own row (however new it claims to be), ties, older rows.
    let mut stale = Headers::new();
    report("s0000:80", NOW + 9).attach(&mut stale);
    for i in 1..=7 {
        report(&format!("s{i:04}:80"), NOW - (i % 2)).attach(&mut stale);
    }
    let before = e.glt().snapshot();
    assert_eq!(allocs_of(|| e.ingest_reports(&stale)), 0);
    assert_eq!(e.glt().snapshot(), before);
    assert_eq!(e.stats().reports_skipped, 8);

    // The same message with one row newer, as a ping's answer.
    let decode_and_merge = {
        let mut one = Headers::new();
        report("s0003:80", NOW + 1).attach(&mut one);
        allocs_of(|| e.ingest_reports(&one))
    };
    assert_eq!(
        decode_and_merge, 2,
        "one accepted row: its id as decoded, and as a table key"
    );
    report("s0003:80", NOW + 2).attach(&mut stale);
    let peer = ServerId::new("s0003:80");
    let pong = allocs_of(|| {
        e.ping_result(&peer, true, Some(&stale));
    });
    assert_eq!(
        pong, decode_and_merge,
        "an answer with one newer row among nine costs that row alone"
    );
    assert_eq!(e.glt().get(&peer).map(|i| i.ts_ms), Some(NOW + 2));
}

/// A store implementing only what `DocStore` requires — as stores written
/// before `get_body` existed do.
#[derive(Default)]
struct PlainStore(std::collections::HashMap<String, Vec<u8>>);

impl DocStore for PlainStore {
    fn get(&self, name: &str) -> Option<Vec<u8>> {
        self.0.get(name).cloned()
    }
    fn put(&mut self, name: &str, bytes: Vec<u8>) -> io::Result<()> {
        self.0.insert(name.to_string(), bytes);
        Ok(())
    }
    fn remove(&mut self, name: &str) -> bool {
        self.0.remove(name).is_some()
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn total_bytes(&self) -> u64 {
        self.0.values().map(|b| b.len() as u64).sum()
    }
}

/// `(home 200, 304, 503, co-op serve)` allocation counts, each warm: the
/// route primed, the copy cached, one round already served.
fn message_allocs() -> (u64, u64, u64, u64) {
    let page = b"<html><a href=\"/b.html\">b</a></html>".to_vec();
    let home_id = ServerId::new("s0:80");
    let mut home = ServerEngine::new(
        home_id.clone(),
        ServerConfig::paper_defaults(),
        Box::new(MemStore::new()),
    );
    home.publish("/a.html", page.clone(), DocKind::Html, true);
    let get = Request::get("/a.html");
    let modified = serve(&mut home, "/a.html", 1_000);
    let mut ok = None;
    let home_ok = allocs_of(|| ok = home.handle_request(&get, 1_001).into_response());
    let ok = ok.expect("a home document is served");
    assert_eq!((ok.status, &ok.body), (StatusCode::Ok, &modified));
    // The request carries its own `If-Modified-Since`: only the answer
    // is counted.
    let since = ok.headers.get("Last-Modified").expect("dated").to_string();
    let conditional = Request::get("/a.html").with_header("If-Modified-Since", since);
    let mut nm = None;
    let not_modified = allocs_of(|| nm = home.handle_request(&conditional, 1_002).into_response());
    assert_eq!(nm.expect("answered").status, StatusCode::NotModified);
    let mut busy = None;
    let unavailable = allocs_of(|| busy = Some(Response::service_unavailable(1)));
    assert_eq!(busy.expect("built").headers.get("Retry-After"), Some("1"));

    let mut coop = ServerEngine::new(
        ServerId::new("s1:80"),
        ServerConfig::paper_defaults(),
        Box::new(MemStore::new()),
    );
    let pulled = Response::ok(page.clone(), "text/html").with_header("X-DCWS-Version", "1");
    assert!(coop.store_pulled(&home_id, "/a.html", &pulled, 1_000));
    let migrated = Request::get("/~migrate/s0/80/a.html");
    let coop_serve = |coop: &mut ServerEngine, now: u64| {
        let mut served = None;
        let n = allocs_of(|| served = coop.handle_request(&migrated, now).into_response());
        let served = served.expect("a cached copy is served");
        assert_eq!(
            (served.status, &served.body[..]),
            (StatusCode::Ok, &page[..])
        );
        n
    };
    coop_serve(&mut coop, 1_001);
    (
        home_ok,
        not_modified,
        unavailable,
        coop_serve(&mut coop, 1_002),
    )
}

/// The exclusive answer to a co-op's repeat pull of a rewritten page: the
/// version settled and the pull variant kept by the first pull.
fn repeat_pull_allocs() -> u64 {
    let mut home = ServerEngine::new(
        ServerId::new("s0:80"),
        ServerConfig::paper_defaults(),
        Box::new(MemStore::new()),
    );
    let page = b"<html><a href=\"/b.html\">b</a></html>".to_vec();
    home.publish("/a.html", page, DocKind::Html, true);
    home.publish("/b.html", b"<html>b</html>".to_vec(), DocKind::Html, false);
    let moved = "/b.html\ts1:80\n/a.html\ts2:80\n";
    assert_eq!(home.restore_migrations(moved, 0), 2);
    let pull = Request::get("/a.html")
        .with_header("X-DCWS-Pull", "1")
        .with_header("X-DCWS-Coop", "s2:80");
    let pull_once = |home: &mut ServerEngine, now: u64| {
        let mut answer = None;
        let n = allocs_of(|| answer = home.handle_request(&pull, now).into_response());
        (n, answer.expect("a pull is answered"))
    };
    pull_once(&mut home, 1_000);
    let regenerations = home.regenerations();
    let (n, answer) = pull_once(&mut home, 1_001);
    assert_eq!(answer.status, StatusCode::Ok);
    assert!(
        answer.body.windows(8).any(|w| w == b"~migrate"),
        "rewritten"
    );
    assert_eq!(home.regenerations(), regenerations, "the variant was kept");
    n
}

fn serve(e: &mut ServerEngine, path: &str, now: u64) -> Body {
    let resp = e
        .handle_request(&Request::get(path), now)
        .into_response()
        .expect("a home document is served");
    assert_eq!(resp.status, StatusCode::Ok);
    resp.body
}

#[test]
fn control_plane_cost_is_flat_and_exclusive_serves_share_bytes() {
    // Prove the probe is armed before trusting any count.
    assert!(
        allocs_of(|| drop(std::hint::black_box(vec![1u64, 2, 3]))) > 0,
        "the counting allocator is not installed"
    );

    let small = control_plane_allocs(8);
    let large = control_plane_allocs(512);
    assert_eq!(
        small, large,
        "(attach_reports, ping answer, idle tick) allocations: 8 peers vs 512"
    );
    // Eight rows on a message: the header list (1) and the own row's
    // text (1); the seven cached rows are refcounts. The answer's list
    // holds its constant `Content-Length: 0` first and grows once for
    // the rows. The idle tick allocates nothing: no message leaves it.
    // (33 / 36 / 10 when every row was formatted for every message;
    // 9 / 12 / 3 while every row, name and constant was copied into a
    // `String`; 2 / 3 / 3 while the tick re-published a snapshot of the
    // rows for the read path.)
    assert_eq!(small, (2, 3, 0));
    ingest_allocs();
    // A warm home 200: the header list and its `Content-Length` text;
    // the media type is a literal, the date the route's shared text. A
    // 304 and a 503: the list alone. A co-op serve: the `~migrate`
    // decode (4), the two keys (2), the list and its length (2) — the
    // held copy's media type and date are shared texts. (9 / 5 / 3 / 20
    // while every name and constant was a `String`, the path a parse and
    // the date formatted in a growing buffer; 10 for the co-op serve
    // while the copy's media type was cloned out of a cache and its date
    // formatted for every answer.)
    assert_eq!(message_allocs(), (2, 1, 1, 8));
    // A co-op's repeat pull of a rewritten page allocates its answer
    // alone — the requester's id, the event, the head's texts and its
    // load row: the kept variant is found by the borrowed path and shared
    // by refcount. (11 while the lookup built a `format!` key, grown
    // once, and cloned the cached copy's media type.)
    assert_eq!(repeat_pull_allocs(), 8);

    // Zero-copy exclusive path over a MemStore.
    let page = b"<html><a href=\"/b.html\">b</a></html>".to_vec();
    let image = vec![7u8; 4096];
    let mut store = MemStore::new();
    store.put("/a.html", page.clone()).unwrap();
    let stored = store.get_body("/a.html").unwrap();
    assert!(stored.ptr_eq(&store.get_body("/a.html").unwrap()));
    let mut e = ServerEngine::new(
        ServerId::new("s0:80"),
        ServerConfig::paper_defaults(),
        Box::new(store),
    );
    // `publish` replaces the stored body, so identity is judged from here.
    e.publish("/a.html", page.clone(), DocKind::Html, true);
    e.publish("/b.html", page.clone(), DocKind::Html, false);
    e.publish("/i.gif", image.clone(), DocKind::Image, false);
    for (path, bytes) in [("/a.html", &page), ("/i.gif", &image)] {
        let first = serve(&mut e, path, 1_000);
        let second = serve(&mut e, path, 1_001);
        assert_eq!(first, *bytes);
        assert!(
            first.ptr_eq(&second),
            "{path}: two exclusive serves must share one body"
        );
        let resident = e
            .read_path()
            .try_serve(&Request::get(path), 1_002)
            .expect("the exclusive serve primed the read path");
        assert!(
            resident.body.ptr_eq(&first),
            "{path}: the read path's route must hold the served body"
        );
    }

    // A store with only the required methods serves through the default.
    let mut e = ServerEngine::new(
        ServerId::new("s0:80"),
        ServerConfig::paper_defaults(),
        Box::<PlainStore>::default(),
    );
    e.publish("/a.html", page.clone(), DocKind::Html, true);
    e.publish("/i.gif", image.clone(), DocKind::Image, false);
    assert_eq!(serve(&mut e, "/a.html", 1_000), page);
    assert_eq!(serve(&mut e, "/a.html", 1_001), page);
    assert_eq!(serve(&mut e, "/i.gif", 1_002), image);
}
