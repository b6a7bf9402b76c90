//! The multi-core front-end sweep: reactor shards.
//!
//! PR "Multi-core front end" split the client-facing reactor into N
//! `SO_REUSEPORT` shards (each with its own poller, conn slab, and
//! listener) and replaced copy-on-serve writes with zero-copy vectored
//! writes: the response head and the shared `Body` Arc go out through
//! one `writev(2)` with no per-serve memcpy of the entity. (The
//! copy-on-serve arm this binary used to sweep beside it showed parity
//! and is gone.) This binary measures one real [`DcwsServer`] per arm:
//!
//! * **shards axis** — `NetConfig::reactor_shards` ∈ {1, 2, 4, 8}
//!   (quick: {1, 4}): warm keep-alive GETs of a cached document,
//!   back-to-back per connection, reported as completions/sec (CPS).
//!   The server's own `body_copies` / `bodies_zero_copy` counters prove
//!   how the bodies left: every arm must finish with **zero** body
//!   copies and at least one zero-copy body.
//! * **Sequoia arm** — one streamed serve of a multi-megabyte image
//!   (over `stream_threshold_bytes`, chunk-refilled), reported as MB/s,
//!   to show sharding leaves the large-object path intact.
//!
//! Outputs: `bench_results/corepress.csv`,
//! `bench_results/BENCH_corepress.json`, and a per-arm table on stdout.
//! `--quick` / `DCWS_BENCH_QUICK=1` is the CI gate: it **exits
//! nonzero** unless every arm served with zero body copies, every arm
//! accepted cleanly, and — only on hosts with ≥ 4 cores, where parallel
//! speedup is physically possible — the 4-shard arm beats 1.5× the
//! 1-shard CPS. On smaller hosts the scaling gate is skipped with an
//! explicit note; the write-path gates are unconditional.

use dcws_bench::{fmt_thousands, write_csv};
use dcws_core::{Json, MemStore, ServerConfig, ServerEngine};
use dcws_graph::{DocKind, ServerId};
use dcws_http::Method;
use dcws_net::metrics::LatencyHistogram;
use dcws_net::{DcwsServer, MsgBuf, NetConfig};
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Params {
    /// Shard counts swept on the warm-GET axis.
    shards: &'static [usize],
    /// Concurrent keep-alive client threads per warm arm.
    conns: usize,
    /// Measurement window per arm (after per-connection warmup).
    measure: Duration,
    /// Streamed-entity size for the Sequoia arm.
    sequoia_bytes: usize,
}

fn quick_mode() -> bool {
    dcws_bench::quick() || std::env::args().any(|a| a == "--quick")
}

fn params() -> Params {
    if quick_mode() {
        Params {
            shards: &[1, 4],
            conns: 8,
            measure: Duration::from_millis(1_200),
            sequoia_bytes: 1 << 20,
        }
    } else {
        Params {
            shards: &[1, 2, 4, 8],
            conns: 32,
            measure: Duration::from_millis(4_000),
            sequoia_bytes: 4 << 20,
        }
    }
}

/// Warm-GET document: big enough that a per-serve memcpy is measurable,
/// small enough to stay under `stream_threshold_bytes` (buffered path).
const DOC_BYTES: usize = 8 * 1024;
const DOC_REQ: &[u8] = b"GET /doc.html HTTP/1.1\r\nHost: bench\r\n\r\n";
const SEQUOIA_REQ: &[u8] = b"GET /sequoia.jpg HTTP/1.1\r\nHost: bench\r\n\r\n";

fn spawn_server(shards: usize, sequoia_bytes: usize) -> DcwsServer {
    let id = ServerId::new("placeholder:0");
    let mut engine = ServerEngine::new(
        id,
        ServerConfig::paper_defaults(),
        Box::new(MemStore::new()),
    );
    engine.publish("/doc.html", vec![b'x'; DOC_BYTES], DocKind::Html, true);
    // Over the 256 KiB paper-default stream threshold: served chunked
    // off the store, not from the buffered serve table.
    engine.publish(
        "/sequoia.jpg",
        vec![0xA5; sequoia_bytes],
        DocKind::Image,
        true,
    );
    let mut net = NetConfig::new(Duration::from_millis(500));
    net.reactor_shards = shards;
    DcwsServer::spawn_with(engine, "127.0.0.1:0", net).expect("spawn server")
}

/// Write one request on a blocking keep-alive stream and read one full
/// response. Returns the body length of a `200`, or an error.
fn get_one(stream: &mut TcpStream, mb: &mut MsgBuf, req: &[u8]) -> std::io::Result<usize> {
    stream.write_all(req)?;
    loop {
        if let Ok(Some(resp)) = mb.try_extract_response(Method::Get) {
            if resp.status != dcws_http::StatusCode::Ok {
                return Err(std::io::Error::other(format!(
                    "non-200 response: {}",
                    resp.status.code()
                )));
            }
            return Ok(resp.body.len());
        }
        let n = mb.fill_from(stream, &mut [0u8; dcws_net::READ_CHUNK])?;
        if n == 0 {
            return Err(std::io::Error::other("server closed mid-response"));
        }
    }
}

/// Client-side measurements from one arm's drive: `conns` threads, each
/// holding one keep-alive connection and issuing back-to-back GETs.
struct DriveResult {
    ok: u64,
    bytes: u64,
    errors: u64,
    elapsed: Duration,
    p50: Duration,
    p99: Duration,
}

impl DriveResult {
    fn cps(&self) -> f64 {
        self.ok as f64 / self.elapsed.as_secs_f64()
    }
    fn mb_per_s(&self) -> f64 {
        self.bytes as f64 / (1024.0 * 1024.0) / self.elapsed.as_secs_f64()
    }
}

fn drive(addr: SocketAddr, conns: usize, measure: Duration, req: &'static [u8]) -> DriveResult {
    let ok = Arc::new(AtomicU64::new(0));
    let bytes = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let go = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let latency = Arc::new(LatencyHistogram::new());

    let mut handles = Vec::with_capacity(conns);
    for _ in 0..conns {
        let (ok, bytes, errors, go, stop, latency) = (
            ok.clone(),
            bytes.clone(),
            errors.clone(),
            go.clone(),
            stop.clone(),
            latency.clone(),
        );
        handles.push(std::thread::spawn(move || {
            let Ok(mut stream) = TcpStream::connect(addr) else {
                errors.fetch_add(1, Ordering::Relaxed);
                return;
            };
            let _ = stream.set_nodelay(true);
            let mut mb = MsgBuf::new();
            // Per-connection warmup: prime the serve path and the
            // keep-alive state before the measurement window opens.
            for _ in 0..2 {
                if get_one(&mut stream, &mut mb, req).is_err() {
                    errors.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
            while !go.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            while !stop.load(Ordering::Acquire) {
                let t0 = Instant::now();
                match get_one(&mut stream, &mut mb, req) {
                    Ok(n) => {
                        latency.record(t0.elapsed());
                        // Count only responses completed inside the
                        // window, so `elapsed` divides a clean total.
                        if !stop.load(Ordering::Acquire) {
                            ok.fetch_add(1, Ordering::Relaxed);
                            bytes.fetch_add(n as u64, Ordering::Relaxed);
                        }
                    }
                    Err(_) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
            }
        }));
    }

    // Let every thread finish its warmup before the clock starts.
    std::thread::sleep(Duration::from_millis(200));
    let t0 = Instant::now();
    go.store(true, Ordering::Release);
    std::thread::sleep(measure);
    stop.store(true, Ordering::Release);
    let elapsed = t0.elapsed();
    for h in handles {
        let _ = h.join();
    }
    let snap = latency.snapshot();
    DriveResult {
        ok: ok.load(Ordering::Relaxed),
        bytes: bytes.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        elapsed,
        p50: snap.percentile(50.0),
        p99: snap.percentile(99.0),
    }
}

/// What one arm measured: the client-side drive plus the aggregate
/// reactor counters that prove which write path served it.
struct ArmResult {
    label: String,
    shards: usize,
    workload: &'static str,
    d: DriveResult,
    srv_accepted: u64,
    srv_accept_errors: u64,
    srv_writev_calls: u64,
    srv_writev_segments: u64,
    srv_bodies_zero_copy: u64,
    srv_body_copies: u64,
}

fn run_arm(p: &Params, shards: usize, streamed: bool) -> ArmResult {
    let server = spawn_server(shards, p.sequoia_bytes);
    let addr = server.addr();
    let workload = if streamed { "sequoia" } else { "warm-get" };
    let label = format!("{workload}/x{shards}");

    let d = if streamed {
        // Streamed serves pin a refill slot per connection; a few
        // clients saturate loopback without drowning a 1-core host.
        drive(addr, p.conns.min(4), p.measure, SEQUOIA_REQ)
    } else {
        drive(addr, p.conns, p.measure, DOC_REQ)
    };

    let rs = server.reactor_stats();
    let result = ArmResult {
        label,
        shards,
        workload,
        d,
        srv_accepted: rs.accepted.load(Ordering::Relaxed),
        srv_accept_errors: rs.accept_errors.load(Ordering::Relaxed),
        srv_writev_calls: rs.writev_calls.load(Ordering::Relaxed),
        srv_writev_segments: rs.writev_segments.load(Ordering::Relaxed),
        srv_bodies_zero_copy: rs.bodies_zero_copy.load(Ordering::Relaxed),
        srv_body_copies: rs.body_copies.load(Ordering::Relaxed),
    };
    server.shutdown();
    result
}

fn arm_json(a: &ArmResult) -> Json {
    Json::obj(vec![
        ("label", Json::from(a.label.as_str())),
        ("workload", Json::from(a.workload)),
        ("shards", Json::from(a.shards as u64)),
        ("ok", Json::from(a.d.ok)),
        ("bytes", Json::from(a.d.bytes)),
        ("errors", Json::from(a.d.errors)),
        ("cps", Json::from(a.d.cps())),
        ("mb_per_s", Json::from(a.d.mb_per_s())),
        ("p50_us", Json::from(a.d.p50.as_micros() as u64)),
        ("p99_us", Json::from(a.d.p99.as_micros() as u64)),
        (
            "server",
            Json::obj(vec![
                ("accepted", Json::from(a.srv_accepted)),
                ("accept_errors", Json::from(a.srv_accept_errors)),
                ("writev_calls", Json::from(a.srv_writev_calls)),
                ("writev_segments", Json::from(a.srv_writev_segments)),
                ("bodies_zero_copy", Json::from(a.srv_bodies_zero_copy)),
                ("body_copies", Json::from(a.srv_body_copies)),
            ]),
        ),
    ])
}

fn main() {
    let p = params();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!(
        "corepress: shards {:?} warm GETs ({} conns, {} B doc, {:?} window) + sequoia stream ({} MB), host cores: {cores}{}",
        p.shards,
        p.conns,
        DOC_BYTES,
        p.measure,
        p.sequoia_bytes >> 20,
        if quick_mode() { " [quick]" } else { "" }
    );
    println!(
        "{:>22} {:>9} {:>9} {:>9} {:>10} {:>10} {:>9} {:>9}",
        "arm", "cps", "MB/s", "ok", "p50", "p99", "zc", "copies"
    );

    let mut results: Vec<ArmResult> = Vec::new();
    for &shards in p.shards {
        let r = run_arm(&p, shards, false);
        println!(
            "{:>22} {:>9} {:>9.1} {:>9} {:>10} {:>10} {:>9} {:>9}",
            r.label,
            fmt_thousands(r.d.cps()),
            r.d.mb_per_s(),
            fmt_thousands(r.d.ok as f64),
            format!("{:?}", r.d.p50),
            format!("{:?}", r.d.p99),
            r.srv_bodies_zero_copy,
            r.srv_body_copies,
        );
        results.push(r);
    }
    // The Sequoia streamed arm rides the widest shard config swept.
    let sequoia = run_arm(&p, *p.shards.last().unwrap(), true);
    println!(
        "{:>22} {:>9} {:>9.1} {:>9} {:>10} {:>10} {:>9} {:>9}",
        sequoia.label,
        fmt_thousands(sequoia.d.cps()),
        sequoia.d.mb_per_s(),
        fmt_thousands(sequoia.d.ok as f64),
        format!("{:?}", sequoia.d.p50),
        format!("{:?}", sequoia.d.p99),
        sequoia.srv_bodies_zero_copy,
        sequoia.srv_body_copies,
    );

    let cps_at = |shards: usize| {
        results
            .iter()
            .find(|r| r.shards == shards)
            .map(|r| r.d.cps())
    };
    let scaling = match (cps_at(1), cps_at(4)) {
        (Some(one), Some(four)) if one > 0.0 => Some(four / one),
        _ => None,
    };
    if let Some(s) = scaling {
        println!("\n4-shard / 1-shard CPS: {s:.2}×");
    }

    // ---- artifacts ----------------------------------------------------
    let mut csv = vec![vec![
        "workload".into(),
        "shards".into(),
        "ok".into(),
        "errors".into(),
        "cps".into(),
        "mb_per_s".into(),
        "p50_us".into(),
        "p99_us".into(),
        "srv_accepted".into(),
        "srv_accept_errors".into(),
        "srv_writev_calls".into(),
        "srv_writev_segments".into(),
        "srv_bodies_zero_copy".into(),
        "srv_body_copies".into(),
    ]];
    for r in results.iter().chain(std::iter::once(&sequoia)) {
        csv.push(vec![
            r.workload.into(),
            r.shards.to_string(),
            r.d.ok.to_string(),
            r.d.errors.to_string(),
            format!("{:.1}", r.d.cps()),
            format!("{:.2}", r.d.mb_per_s()),
            r.d.p50.as_micros().to_string(),
            r.d.p99.as_micros().to_string(),
            r.srv_accepted.to_string(),
            r.srv_accept_errors.to_string(),
            r.srv_writev_calls.to_string(),
            r.srv_writev_segments.to_string(),
            r.srv_bodies_zero_copy.to_string(),
            r.srv_body_copies.to_string(),
        ]);
    }
    write_csv("corepress", &csv);

    let json = Json::obj(vec![
        ("bench", Json::from("corepress")),
        ("quick", Json::from(quick_mode())),
        ("host_parallelism", Json::from(cores as u64)),
        (
            "params",
            Json::obj(vec![
                (
                    "shards",
                    Json::Arr(p.shards.iter().map(|&s| Json::from(s as u64)).collect()),
                ),
                ("conns", Json::from(p.conns as u64)),
                ("doc_bytes", Json::from(DOC_BYTES as u64)),
                ("measure_ms", Json::from(p.measure.as_millis() as u64)),
                ("sequoia_bytes", Json::from(p.sequoia_bytes as u64)),
            ]),
        ),
        (
            "arms",
            Json::Arr(
                results
                    .iter()
                    .chain(std::iter::once(&sequoia))
                    .map(arm_json)
                    .collect(),
            ),
        ),
        (
            "scaling_4x_over_1x",
            scaling.map(Json::from).unwrap_or(Json::Null),
        ),
        ("scaling_gate_armed", Json::from(cores >= 4)),
    ]);
    let path = dcws_bench::results_dir().join("BENCH_corepress.json");
    match std::fs::write(&path, json.to_string()) {
        Ok(()) => println!("[json written to {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }

    // ---- gates --------------------------------------------------------
    // Write-path gates are unconditional: they are counter assertions,
    // not timing, so they hold on any host.
    let mut fail = Vec::new();
    for r in results.iter().chain(std::iter::once(&sequoia)) {
        if r.d.errors > 0 {
            fail.push(format!("{}: {} client errors", r.label, r.d.errors));
        }
        if r.srv_accept_errors > 0 {
            fail.push(format!(
                "{}: {} accept errors",
                r.label, r.srv_accept_errors
            ));
        }
        if r.srv_body_copies > 0 {
            fail.push(format!(
                "{}: copied {} bodies (must be zero-copy)",
                r.label, r.srv_body_copies
            ));
        }
        if r.workload == "warm-get" && r.srv_bodies_zero_copy == 0 {
            fail.push(format!("{}: recorded no zero-copy bodies", r.label));
        }
    }
    // Scaling gate: parallel speedup needs parallel hardware. On hosts
    // with < 4 cores the shards contend for one CPU and the ratio is
    // noise, so the gate is skipped (loudly) rather than faked.
    if cores >= 4 {
        match scaling {
            Some(s) if s > 1.5 => {
                println!("scaling gate: PASS ({s:.2}× > 1.5×)");
            }
            Some(s) => fail.push(format!(
                "4-shard CPS only {s:.2}× the 1-shard CPS (need > 1.5×)"
            )),
            None => fail.push("scaling ratio unavailable (missing arm)".into()),
        }
    } else {
        println!(
            "scaling gate: SKIPPED — host has {cores} core(s); \
             4-shard vs 1-shard speedup needs >= 4"
        );
    }
    if !fail.is_empty() {
        eprintln!("FAIL: {}", fail.join("; "));
        std::process::exit(1);
    }
}
