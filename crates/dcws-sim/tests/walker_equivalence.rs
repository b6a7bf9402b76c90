//! One Algorithm 2, two substrates: the simulator's client adapter and the
//! blocking driver `dcws-walk` runs fetch the same sequence.
//!
//! One client, one seed — `seed::stream(seed, "client", 0)`, the stream
//! the simulator gives its client 0, handed to the blocking walker too —
//! LOD on a single home server, no think time. The simulator records the
//! URL of every request its client sends (`record_trace`); the blocking
//! driver reports every URL it sends, against a loopback `DcwsServer`
//! serving the same materialized documents. On one server nothing
//! migrates, redirects or drops, so the walk is a function of the seed
//! and the pages alone: the first `K` request paths must be equal, with
//! one helper and with four (whose replies come back in any order).

use dcws_core::{MemStore, ServerConfig, ServerEngine};
use dcws_graph::{DocKind, ServerId};
use dcws_http::Url;
use dcws_net::{walk, ClientModel, DcwsServer, NetConfig, WalkTally, Walker};
use dcws_sim::{seed, SimCluster, SimConfig};
use dcws_workloads::{materialize::materialize, Dataset, PageKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const K: usize = 300;

fn dataset() -> Dataset {
    Dataset::lod(1)
}

fn model(helpers: usize) -> ClientModel {
    ClientModel {
        helpers,
        ..ClientModel::default()
    }
}

/// The paths the simulator's client 0 requests, in order.
fn simulated(seed: u64, helpers: usize) -> Vec<String> {
    let mut cfg = SimConfig::paper(dataset(), 1, 1);
    cfg.client = model(helpers);
    cfg.seed = seed;
    cfg.duration_ms = 120_000;
    cfg.record_trace = true;
    let result = SimCluster::new(cfg).run();
    assert_eq!(result.totals.drops + result.totals.redirects, 0);
    let trace = result.trace.expect("record_trace keeps the access log");
    trace
        .events
        .iter()
        .take(K)
        .map(|e| Url::parse(&e.url).unwrap().path().to_string())
        .collect()
}

/// The paths the blocking driver requests from a loopback server, in
/// order.
fn over_tcp(seed: u64, helpers: usize) -> Vec<String> {
    let mut config = ServerConfig::paper_defaults();
    config.cache_budget_bytes = u64::MAX;
    config.n_workers = 2;
    let mut engine = ServerEngine::new(
        ServerId::new("127.0.0.1:0"),
        config,
        Box::new(MemStore::new()),
    );
    let dataset = dataset();
    for doc in &dataset.docs {
        let kind = match doc.kind {
            PageKind::Html => DocKind::Html,
            PageKind::Image => DocKind::Image,
        };
        engine.publish(&doc.name, materialize(doc), kind, doc.entry_point);
    }
    let mut net = NetConfig::new(Duration::from_millis(250));
    net.reactor_shards = 1;
    let server = DcwsServer::spawn_with(engine, "127.0.0.1:0", net).unwrap();
    let port = server.addr().port();
    let entries: Vec<Arc<Url>> = dataset
        .entry_points()
        .iter()
        .map(|d| Arc::new(Url::absolute("127.0.0.1", port, d.name.clone()).unwrap()))
        .collect();

    let mut walker: Walker = Walker::new(model(helpers), seed::stream(seed, "client", 0));
    let (tally, stop) = (WalkTally::default(), AtomicBool::new(false));
    let mut paths = Vec::new();
    walk(&mut walker, &entries, &tally, &stop, |url| {
        if paths.len() < K {
            paths.push(url.path().to_string());
        } else {
            stop.store(true, Ordering::Relaxed);
        }
    });
    server.shutdown();
    for (what, n) in [
        ("drops", &tally.drops),
        ("redirects", &tally.redirects),
        ("failures", &tally.failures),
    ] {
        assert_eq!(n.load(Ordering::Relaxed), 0, "{what}");
    }
    paths
}

#[test]
fn simulator_and_blocking_driver_fetch_the_same_sequence() {
    for seed in [1999, 2024] {
        for helpers in [1, 4] {
            let sim = simulated(seed, helpers);
            assert_eq!(sim.len(), K, "seed {seed}: the simulated run is too short");
            let tcp = over_tcp(seed, helpers);
            if let Some(i) = (0..K).find(|&i| sim[i] != tcp[i]) {
                panic!(
                    "seed {seed}, {helpers} helper(s): fetch {i} differs — simulator {:?}, \
                     blocking {:?}",
                    &sim[i.saturating_sub(2)..=i],
                    &tcp[i.saturating_sub(2)..=i]
                );
            }
            assert_eq!(tcp.len(), K);
        }
    }
}
