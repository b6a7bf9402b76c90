//! The exclusive path shares bytes, and the control plane's cost does not
//! grow with the group.
//!
//! This binary installs a counting global allocator and holds two lines:
//!
//! * **allocations per message are independent of group size, and few**
//!   — one `attach_reports`, one ping answered by `handle_request`, and
//!   one idle `tick` allocate exactly as often with 512 peers in the
//!   Global Load Table as with 8 (they read at most `piggyback_max` rows,
//!   by reference), and a peer's row costs a send one allocation — the
//!   copy of its cached text — where formatting it cost four;
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
use dcws_http::{Body, Headers, LoadReport, Request, StatusCode};
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
    // Eight rows on a message: the header list (1), the own row's text
    // (1), seven copies of cached text (7). The answer adds the response
    // and its Content-Length. The idle tick re-publishes the read path's
    // snapshot: the list, the own row's text, and its shared copy.
    // (33 / 36 / 10 when every row was formatted for every message.)
    assert_eq!(small, (9, 12, 3));
    ingest_allocs();

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
