//! Large-object serving sweep: streamed versus buffered delivery of
//! Sequoia-class documents, plus the cache-admission working-set check.
//!
//! The paper's Sequoia corpus (1–2.8 MB images) is the worst case for a
//! whole-body `Arc<[u8]>` design: a buffered serve reads the entire
//! document before the first response byte leaves, so time-to-first-byte
//! grows with document size. The streaming subsystem sends the head and
//! first chunk as soon as the store yields 64 KiB. This binary measures
//! what that is worth on a real server, end to end:
//!
//! # Workloads
//!
//! 1. **TTFB / BPS sweep** — two identical [`DcwsServer`]s on a
//!    disk-backed mixed LOD+Sequoia corpus, one with streaming enabled
//!    (default 256 KiB threshold), one with it disabled
//!    (`stream_threshold_bytes = 0`, every serve buffered). A raw
//!    keep-alive client times each 2.8 MB GET: TTFB is the delay until
//!    the first response byte, BPS the whole-transfer rate. A mixed
//!    loop (small + large GETs) then measures aggregate throughput.
//! 2. **Admission working set** — a [`DocCache`] under a mixed
//!    insert/get stream, three arms: small docs only, mixed with the
//!    byte-budgeted admission rule on (large objects bypass the LRU),
//!    and mixed with the rule off. The small-doc hit ratio with the
//!    rule on must stay within 5 % of the small-only baseline.
//!
//! Outputs: `bench_results/bigpress.csv`,
//! `bench_results/BENCH_bigpress.json`, a table on stdout. Honors
//! `DCWS_BENCH_QUICK=1` / `--quick`, and **exits nonzero in quick mode
//! if the streamed TTFB median does not beat the buffered one, or if
//! the streamed arm's timed 2.8 MB GETs spilled to the worker pool more
//! than once per document** (the first serve primes a document's route;
//! every later one is the reactor's own) — the CI smoke gate for the
//! streaming subsystem.

use dcws_bench::write_csv;
use dcws_cache::{CacheConfig, CachedDoc, DocCache};
use dcws_core::{DiskStore, Json, ServerConfig, ServerEngine};
use dcws_graph::{DocKind, ServerId};
use dcws_net::DcwsServer;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Sequoia-class document size (the corpus ceiling the paper cites).
const BIG_LEN: usize = 2_800_000;

/// LOD-class small document size.
const SMALL_LEN: usize = 8 * 1024;

/// How many large / small documents the corpus holds.
const N_BIG: usize = 4;
const N_SMALL: usize = 64;

struct Params {
    /// Timed 2.8 MB GETs per arm (after one warmup).
    ttfb_samples: usize,
    /// Mixed-workload duration per arm.
    mixed: Duration,
}

fn quick_mode() -> bool {
    dcws_bench::quick() || std::env::args().any(|a| a == "--quick")
}

fn params() -> Params {
    if quick_mode() {
        Params {
            ttfb_samples: 8,
            mixed: Duration::from_millis(400),
        }
    } else {
        Params {
            ttfb_samples: 30,
            mixed: Duration::from_millis(1500),
        }
    }
}

/// Position-dependent corpus bytes so truncation or mis-slicing in
/// either path would corrupt visibly.
fn doc_bytes(len: usize, salt: usize) -> Vec<u8> {
    (0..len).map(|i| ((i + salt * 7) % 251) as u8).collect()
}

/// Spawn a server over a fresh disk-backed corpus. `streamed` toggles
/// the tentpole: off means every serve is a whole-body buffered copy.
fn spawn_server(root: &std::path::Path, streamed: bool) -> DcwsServer {
    let cfg = ServerConfig {
        stream_threshold_bytes: if streamed { 256 * 1024 } else { 0 },
        // Half of this is the serve table's, in 8 shards: 1 MiB a shard
        // holds every LOD document and any number of stream routes but
        // never a 2.8 MB body, so the buffered arm stays what it is
        // here to show — each serve reads the whole document first —
        // instead of turning into serve-table hits after the first.
        cache_budget_bytes: 16 * 1024 * 1024,
        ..ServerConfig::paper_defaults()
    };
    let store = DiskStore::open(root).expect("corpus dir");
    let mut engine = ServerEngine::new(ServerId::new("bigpress:0"), cfg, Box::new(store));
    for i in 0..N_BIG {
        engine.publish(
            &format!("/seq{i}.img"),
            doc_bytes(BIG_LEN, i),
            DocKind::Image,
            false,
        );
    }
    for i in 0..N_SMALL {
        engine.publish(
            &format!("/lod{i}.img"),
            doc_bytes(SMALL_LEN, i),
            DocKind::Image,
            false,
        );
    }
    DcwsServer::spawn(engine, "127.0.0.1:0", Duration::from_secs(1)).expect("spawn server")
}

/// One timed GET on a kept-alive raw socket: returns (ttfb, total
/// elapsed, body bytes). Reading raw keeps the first-byte timestamp
/// honest — no client-side buffering layer in the way.
fn timed_get(stream: &mut TcpStream, path: &str) -> (Duration, Duration, usize) {
    let req = format!("GET {path} HTTP/1.1\r\nHost: bigpress\r\n\r\n");
    let start = Instant::now();
    stream.write_all(req.as_bytes()).expect("write request");
    let mut buf = vec![0u8; 256 * 1024];
    let mut have: Vec<u8> = Vec::new();
    let n = stream.read(&mut buf).expect("first read");
    assert!(n > 0, "server closed before response");
    let ttfb = start.elapsed();
    have.extend_from_slice(&buf[..n]);
    // Frame the response: head end, Content-Length, then drain.
    let (head_end, content_len) = loop {
        if let Some(pos) = have.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&have[..pos]);
            let cl = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .and_then(|v| v.trim().parse::<usize>().ok())
                .expect("Content-Length");
            break (pos + 4, cl);
        }
        let n = stream.read(&mut buf).expect("head read");
        assert!(n > 0, "EOF in head");
        have.extend_from_slice(&buf[..n]);
    };
    let total = head_end + content_len;
    while have.len() < total {
        let n = stream.read(&mut buf).expect("body read");
        assert!(n > 0, "EOF mid-body");
        have.extend_from_slice(&buf[..n]);
    }
    (ttfb, start.elapsed(), content_len)
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if xs.is_empty() {
        return 0.0;
    }
    xs[xs.len() / 2]
}

struct ArmResult {
    ttfb_ms: f64,
    big_bps: f64,
    mixed_bps: f64,
    mixed_requests: u64,
    /// Of the timed 2.8 MB GETs, how many the reactor handed to the
    /// worker pool and how many it answered itself (`ReactorStats`).
    big_spilled: u64,
    big_inline: u64,
}

/// Run one serving arm: TTFB samples on the 2.8 MB document, then the
/// mixed small+large loop for aggregate BPS.
fn run_arm(p: &Params, streamed: bool) -> ArmResult {
    let root = std::env::temp_dir().join(format!(
        "dcws-bigpress-{}-{}",
        std::process::id(),
        if streamed { "s" } else { "b" }
    ));
    let server = spawn_server(&root, streamed);
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    // One warmup pass so both arms measure a warm page cache.
    let _ = timed_get(&mut stream, "/seq0.img");
    let counters = || {
        let stats = server.reactor_stats();
        (
            stats.spillover_jobs.load(Ordering::Relaxed),
            stats.inline_served.load(Ordering::Relaxed),
        )
    };
    let (spilled0, inline0) = counters();

    let mut ttfbs = Vec::new();
    let mut rates = Vec::new();
    for i in 0..p.ttfb_samples {
        let path = format!("/seq{}.img", i % N_BIG);
        let (ttfb, total, len) = timed_get(&mut stream, &path);
        ttfbs.push(ttfb.as_secs_f64() * 1e3);
        rates.push(len as f64 / total.as_secs_f64());
    }
    let (spilled, inline) = counters();

    // Mixed loop: concurrent keep-alive clients, each round touching
    // part of the LOD set plus one Sequoia image — the media-page
    // access pattern the subsystem exists for. Aggregate BPS sums all
    // clients, which is where the reactor's per-event fairness cap
    // earns its keep (large transfers interleave instead of blocking).
    const CLIENTS: usize = 4;
    let t0 = Instant::now();
    let deadline = p.mixed;
    let (bytes, requests) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    stream.set_nodelay(true).expect("nodelay");
                    let mut bytes = 0usize;
                    let mut requests = 0u64;
                    let mut round = c; // desynchronize the clients
                    while t0.elapsed() < deadline {
                        for i in 0..8 {
                            let path = format!("/lod{}.img", (round * 8 + i) % N_SMALL);
                            let (_, _, len) = timed_get(&mut stream, &path);
                            bytes += len;
                            requests += 1;
                        }
                        let (_, _, len) =
                            timed_get(&mut stream, &format!("/seq{}.img", round % N_BIG));
                        bytes += len;
                        requests += 1;
                        round += 1;
                    }
                    (bytes, requests)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .fold((0usize, 0u64), |a, b| (a.0 + b.0, a.1 + b.1))
    });
    let mixed_elapsed = t0.elapsed();

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);

    ArmResult {
        ttfb_ms: median(&mut ttfbs),
        big_bps: median(&mut rates),
        mixed_bps: bytes as f64 / mixed_elapsed.as_secs_f64(),
        mixed_requests: requests,
        big_spilled: spilled - spilled0,
        big_inline: inline - inline0,
    }
}

struct AdmissionResult {
    small_only: f64,
    rule_on: f64,
    rule_off: f64,
}

/// The working-set half: a DocCache under mixed pressure. Shard budget
/// 4 MB (32 MB / 8), so a 2.8 MB Sequoia object *fits* a shard — with
/// no admission rule it evicts most of that shard's small working set;
/// with the rule (25 % of shard budget) it bypasses the LRU entirely.
fn run_admission() -> AdmissionResult {
    const SMALLS: usize = 300;
    const SMALL_BODY: usize = 64 * 1024;
    const ROUNDS: usize = 12;
    let run = |with_big: bool, fraction: f64| -> f64 {
        let cache = DocCache::new(CacheConfig::new(32 * 1024 * 1024));
        cache.set_admit_fraction(fraction);
        let small = |i: usize| format!("/lod{i}.img");
        for i in 0..SMALLS {
            cache.insert(
                &small(i),
                CachedDoc::new(vec![0u8; SMALL_BODY], "image/gif", 1, 0),
            );
        }
        let (mut hits, mut misses) = (0u64, 0u64);
        for round in 0..ROUNDS {
            for i in 0..SMALLS {
                if cache.get(&small(i)).is_some() {
                    hits += 1;
                } else {
                    misses += 1;
                    cache.insert(
                        &small(i),
                        CachedDoc::new(vec![0u8; SMALL_BODY], "image/gif", 1, 0),
                    );
                }
            }
            if with_big {
                for b in 0..N_BIG {
                    let key = format!("/seq{}-{}.img", round, b);
                    cache.insert(&key, CachedDoc::new(vec![0u8; BIG_LEN], "image/gif", 1, 0));
                    let _ = cache.get(&key);
                }
            }
        }
        hits as f64 / (hits + misses) as f64
    };
    AdmissionResult {
        small_only: run(false, 0.25),
        rule_on: run(true, 0.25),
        rule_off: run(true, 1.0),
    }
}

fn arm_json(a: &ArmResult) -> Json {
    Json::obj(vec![
        ("ttfb_ms_median", Json::from(a.ttfb_ms)),
        ("big_bps_median", Json::from(a.big_bps)),
        ("mixed_bps", Json::from(a.mixed_bps)),
        ("mixed_requests", Json::from(a.mixed_requests)),
        ("big_gets_spilled", Json::from(a.big_spilled)),
        ("big_gets_inline", Json::from(a.big_inline)),
    ])
}

fn main() {
    let p = params();
    println!(
        "Large-object sweep: {} x {:.1} MB Sequoia + {} x {} KiB LOD, {} TTFB samples{}",
        N_BIG,
        BIG_LEN as f64 / 1e6,
        N_SMALL,
        SMALL_LEN / 1024,
        p.ttfb_samples,
        if quick_mode() { " [quick]" } else { "" }
    );

    let buffered = run_arm(&p, false);
    let streamed = run_arm(&p, true);
    let ttfb_ratio = if streamed.ttfb_ms > 0.0 {
        buffered.ttfb_ms / streamed.ttfb_ms
    } else {
        f64::INFINITY
    };

    println!(
        "{:>9} {:>10} {:>12} {:>12} {:>8}",
        "arm", "ttfb_ms", "big_MBps", "mixed_MBps", "reqs"
    );
    for (name, a) in [("buffered", &buffered), ("streamed", &streamed)] {
        println!(
            "{:>9} {:>10.3} {:>12.1} {:>12.1} {:>8}",
            name,
            a.ttfb_ms,
            a.big_bps / 1e6,
            a.mixed_bps / 1e6,
            a.mixed_requests
        );
    }
    println!("streamed TTFB is {ttfb_ratio:.1}x lower than buffered (acceptance asks >= 5x)");
    println!(
        "streamed arm's timed GETs: {} answered on the reactor, {} spilled ({N_BIG} documents)",
        streamed.big_inline, streamed.big_spilled
    );

    let adm = run_admission();
    println!(
        "admission working set: small-only hit ratio {:.4}, rule-on {:.4}, rule-off {:.4}",
        adm.small_only, adm.rule_on, adm.rule_off
    );
    let within_5pct = adm.rule_on >= adm.small_only - 0.05;

    let csv = vec![
        vec![
            "arm".into(),
            "ttfb_ms_median".into(),
            "big_bps_median".into(),
            "mixed_bps".into(),
            "mixed_requests".into(),
        ],
        vec![
            "buffered".into(),
            format!("{:.4}", buffered.ttfb_ms),
            format!("{:.0}", buffered.big_bps),
            format!("{:.0}", buffered.mixed_bps),
            buffered.mixed_requests.to_string(),
        ],
        vec![
            "streamed".into(),
            format!("{:.4}", streamed.ttfb_ms),
            format!("{:.0}", streamed.big_bps),
            format!("{:.0}", streamed.mixed_bps),
            streamed.mixed_requests.to_string(),
        ],
    ];
    write_csv("bigpress", &csv);

    let json = Json::obj(vec![
        ("bench", Json::from("bigpress")),
        ("quick", Json::from(quick_mode())),
        (
            "params",
            Json::obj(vec![
                ("big_len", Json::from(BIG_LEN as u64)),
                ("small_len", Json::from(SMALL_LEN as u64)),
                ("n_big", Json::from(N_BIG as u64)),
                ("n_small", Json::from(N_SMALL as u64)),
                ("ttfb_samples", Json::from(p.ttfb_samples as u64)),
                ("mixed_ms", Json::from(p.mixed.as_millis() as u64)),
            ]),
        ),
        ("buffered", arm_json(&buffered)),
        ("streamed", arm_json(&streamed)),
        ("ttfb_ratio", Json::from(ttfb_ratio)),
        (
            "admission",
            Json::obj(vec![
                ("small_only_hit_ratio", Json::from(adm.small_only)),
                ("rule_on_hit_ratio", Json::from(adm.rule_on)),
                ("rule_off_hit_ratio", Json::from(adm.rule_off)),
                ("rule_within_5pct_of_small_only", Json::from(within_5pct)),
            ]),
        ),
    ]);
    let path = dcws_bench::results_dir().join("BENCH_bigpress.json");
    match std::fs::write(&path, json.to_string()) {
        Ok(()) => println!("[json written to {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }

    // Quick mode doubles as the CI smoke gate: streaming must deliver
    // the first byte of a 2.8 MB document sooner than buffering, and
    // the admission rule must protect the small-doc working set.
    if quick_mode() {
        let mut failed = false;
        if streamed.ttfb_ms >= buffered.ttfb_ms {
            eprintln!(
                "FAIL: streamed TTFB {:.3} ms >= buffered {:.3} ms",
                streamed.ttfb_ms, buffered.ttfb_ms
            );
            failed = true;
        }
        if streamed.big_spilled > N_BIG as u64 {
            eprintln!(
                "FAIL: {} of the streamed arm's {} timed GETs spilled, more than one per document ({N_BIG})",
                streamed.big_spilled, p.ttfb_samples
            );
            failed = true;
        }
        if !within_5pct {
            eprintln!(
                "FAIL: rule-on hit ratio {:.4} more than 5% below small-only {:.4}",
                adm.rule_on, adm.small_only
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
    }
}
