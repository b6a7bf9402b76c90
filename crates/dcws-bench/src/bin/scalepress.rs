//! Simulator scale-out proof: 1,000+ servers, 10⁶+ client sessions, one
//! process, bounded wall-clock.
//!
//! The discrete-event core (index-addressed slabs, an allocation-free
//! radix heap, per-component seed streams — see `docs/SIMULATION.md`)
//! claims to hold cluster sizes three orders of magnitude past the paper's
//! 64-workstation testbed. This binary is the claim's receipt: it runs a
//! replicated round-robin-DNS deployment — the configuration that puts
//! *every* server on the data plane with no migration warm-up — over a
//! small uniform site and drives enough Algorithm-2 sessions through it
//! to cross the headline floors, measuring events/second and peak RSS.
//!
//! Three arms, same seed: the constant-bandwidth switch, the fair-share
//! [`NetModel::SharedBandwidth`] switch, and the shared arm **re-run** —
//! the third arm must reproduce the second's integer digest exactly, which
//! is the in-anger determinism gate (the scenario suite covers the
//! fine-grained event-trace comparison at small scale).
//!
//! Two knobs deliberately depart from the 1999 calibration, because the
//! headline is event-core scale, not period switch saturation: the walk is
//! short (`max_steps = 6` — sessions, not marathons) and the switch fabric
//! is scaled to 12,500 B/µs (≈ 100 Gbps aggregate; the paper's 2.4 Gbps
//! pipe would be the bottleneck of a 1,000-server cluster by construction,
//! in either switch model). Everything else is Table-1/`paper_testbed`.
//!
//! Outputs: `bench_results/scalepress.csv` and
//! `bench_results/BENCH_scalepress.json`. Full mode requires ≥ 1,000
//! servers and ≥ 10⁶ sessions per arm; `--quick` / `DCWS_BENCH_QUICK=1`
//! runs ≥ 200 servers and ≥ 10⁵ sessions as the CI gate. Both modes exit
//! nonzero when a floor, the wall-clock bound, or determinism fails.

use dcws_baselines::Strategy;
use dcws_bench::{fmt_thousands, quick, write_csv, write_report};
use dcws_sim::{NetModel, SimCluster, SimConfig, SimResult};
use dcws_workloads::{uniform_site, SyntheticConfig};
use std::time::{Duration, Instant};

struct Params {
    servers: usize,
    clients: usize,
    duration_ms: u64,
    /// Per-arm session floor the run must clear.
    min_sessions: u64,
    /// Per-arm wall-clock ceiling.
    max_wall: Duration,
}

fn params() -> Params {
    if quick() {
        Params {
            servers: 240,
            clients: 3_000,
            duration_ms: 10_000,
            min_sessions: 100_000,
            max_wall: Duration::from_secs(120),
        }
    } else {
        Params {
            servers: 1_000,
            clients: 12_000,
            duration_ms: 20_000,
            min_sessions: 1_000_000,
            max_wall: Duration::from_secs(600),
        }
    }
}

const SEED: u64 = 1999;

fn config(p: &Params, net: NetModel) -> SimConfig {
    let site = uniform_site(
        &SyntheticConfig {
            pages: 24,
            images: 4,
            fanout: 4,
            embeds: 1,
            page_bytes: 2_048,
            image_bytes: 768,
        },
        SEED,
    );
    let mut cfg = SimConfig::paper(site, p.servers, p.clients).quiet_control_plane();
    cfg.duration_ms = p.duration_ms;
    cfg.seed = SEED;
    cfg.net_model = net;
    cfg.sample_interval_ms = p.duration_ms / 4;
    // Every server carries a full copy; DNS spreads clients evenly. This
    // is the all-data-plane configuration: no cold-start warm-up, no
    // migration transient — pure event-core load.
    cfg.strategy = Strategy::RoundRobinDns { ttl_ms: 600_000 };
    cfg.client.max_steps = 6;
    // See module docs: a 1,000-server cluster needs a fabric from its own
    // era, not the testbed's 2.4 Gbps pipe.
    cfg.cost.switch_bytes_per_us = 12_500.0;
    cfg
}

struct Arm {
    name: &'static str,
    result: SimResult,
    wall: Duration,
    events_per_sec: f64,
}

fn run_arm(p: &Params, name: &'static str, net: NetModel) -> Arm {
    let cfg = config(p, net);
    let t0 = Instant::now();
    let result = SimCluster::new(cfg).run();
    let wall = t0.elapsed();
    let events_per_sec = result.events as f64 / wall.as_secs_f64().max(1e-9);
    println!(
        "{name:>16}: {} sessions, {} events in {wall:.2?} ({} events/s, peak {} switch flows, \
         {} queued events)",
        fmt_thousands(result.totals.sessions as f64),
        fmt_thousands(result.events as f64),
        fmt_thousands(events_per_sec),
        fmt_thousands(result.switch_peak_flows as f64),
        fmt_thousands(result.queue_peak as f64),
    );
    Arm {
        name,
        result,
        wall,
        events_per_sec,
    }
}

/// Peak resident set of this process so far, kB (`VmHWM` from
/// `/proc/self/status`); 0 when unavailable.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

fn arm_json(a: &Arm) -> dcws_core::Json {
    use dcws_core::Json;
    Json::obj(vec![
        ("arm", Json::from(a.name)),
        ("sessions", Json::from(a.result.totals.sessions)),
        ("completed", Json::from(a.result.totals.completed)),
        ("bytes", Json::from(a.result.totals.bytes)),
        ("drops", Json::from(a.result.totals.drops)),
        ("failures", Json::from(a.result.totals.failures)),
        ("events", Json::from(a.result.events)),
        ("wall_ms", Json::from(a.wall.as_millis() as u64)),
        ("events_per_sec", Json::from(a.events_per_sec)),
        ("switch_peak_flows", Json::from(a.result.switch_peak_flows)),
        ("queue_peak", Json::from(a.result.queue_peak)),
        ("p50_ms", Json::from(a.result.latency.p50_ms())),
        ("p99_ms", Json::from(a.result.latency.p99_ms())),
        ("digest", Json::from(a.result.digest().as_str())),
    ])
}

fn main() {
    let p = params();
    println!(
        "scalepress: {} servers, {} clients, {} s virtual, floor {} sessions/arm{}",
        p.servers,
        fmt_thousands(p.clients as f64),
        p.duration_ms / 1_000,
        fmt_thousands(p.min_sessions as f64),
        if quick() { " [quick]" } else { "" }
    );

    let arms = vec![
        run_arm(&p, "constant_bw", NetModel::ConstantBandwidth),
        run_arm(&p, "shared_bw", NetModel::SharedBandwidth),
        run_arm(&p, "shared_bw_rerun", NetModel::SharedBandwidth),
    ];
    let rss_kb = peak_rss_kb();
    println!(
        "peak RSS {} MB across all arms",
        fmt_thousands(rss_kb as f64 / 1024.0)
    );

    let deterministic = arms[1].result.digest() == arms[2].result.digest();
    let mut fail: Vec<String> = Vec::new();
    if !deterministic {
        fail.push(format!(
            "shared_bw rerun diverged:\n  a: {}\n  b: {}",
            arms[1].result.digest(),
            arms[2].result.digest()
        ));
    }
    for a in &arms {
        if a.result.totals.sessions < p.min_sessions {
            fail.push(format!(
                "{}: {} sessions under the {} floor",
                a.name, a.result.totals.sessions, p.min_sessions
            ));
        }
        if a.wall > p.max_wall {
            fail.push(format!(
                "{}: wall {:?} over the {:?} bound",
                a.name, a.wall, p.max_wall
            ));
        }
    }

    let mut csv = vec![vec![
        "arm".into(),
        "servers".into(),
        "clients".into(),
        "duration_ms".into(),
        "sessions".into(),
        "completed".into(),
        "events".into(),
        "wall_ms".into(),
        "events_per_sec".into(),
        "switch_peak_flows".into(),
        "queue_peak".into(),
        "p50_ms".into(),
        "p99_ms".into(),
    ]];
    for a in &arms {
        csv.push(vec![
            a.name.into(),
            p.servers.to_string(),
            p.clients.to_string(),
            p.duration_ms.to_string(),
            a.result.totals.sessions.to_string(),
            a.result.totals.completed.to_string(),
            a.result.events.to_string(),
            a.wall.as_millis().to_string(),
            format!("{:.0}", a.events_per_sec),
            a.result.switch_peak_flows.to_string(),
            a.result.queue_peak.to_string(),
            format!("{:.3}", a.result.latency.p50_ms()),
            format!("{:.3}", a.result.latency.p99_ms()),
        ]);
    }
    write_csv("scalepress", &csv);

    use dcws_core::Json;
    write_report(
        "scalepress",
        vec![
            ("seed", Json::from(SEED)),
            ("servers", Json::from(p.servers as u64)),
            ("clients", Json::from(p.clients as u64)),
            ("duration_ms", Json::from(p.duration_ms)),
            ("min_sessions", Json::from(p.min_sessions)),
            ("max_wall_ms", Json::from(p.max_wall.as_millis() as u64)),
        ],
        vec![
            (
                "arms",
                Json::Arr(arms.iter().map(arm_json).collect::<Vec<_>>()),
            ),
            ("peak_rss_kb", Json::from(rss_kb)),
            ("deterministic", Json::from(deterministic)),
            ("pass", Json::from(fail.is_empty())),
        ],
    );

    if !fail.is_empty() {
        eprintln!("FAIL: {}", fail.join("; "));
        std::process::exit(1);
    }
}
