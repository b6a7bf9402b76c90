//! `sim-lod`: the discrete-event simulator on the paper's configuration,
//! run back to back for the length of the run.
//!
//! One op is one whole `SimCluster::new` + `run`. There is no arrival
//! process to pace, so the run is a closed loop of one thread throughout:
//! the ops that start in the warm-up (the first fifth of the run, as on
//! the TCP workloads) give `client.cold_ops_per_s`, the rest are both the
//! latency and the throughput sample, and an op's first byte is its
//! result. The run is correct when every op's `SimResult::digest` equals
//! the first and the cluster migrated something.
//!
//! As on the TCP workloads every timed metric is a multiple of a
//! reference measured beside it (see `reference`), here the reference
//! computation run before and after every op.

use crate::metrics::Values;
use crate::probes::probe_sim_queue;
use crate::procfs;
use crate::reference::{Stopwatch, Timing};
use crate::stats::Summary;
use crate::workload::{set_setup_metrics, zeroed_values, RunOpts, RunResult, Workload};
use dcws_sim::{SimCluster, SimConfig};
use dcws_workloads::Dataset;
use std::io;
use std::time::Instant;

pub const SERVERS: usize = 64;
pub const CLIENTS: usize = 1024;
pub const VIRTUAL_MS: u64 = 100_000;

/// The frozen configuration, and how long generating its dataset took.
fn config(seed: u64) -> (SimConfig, f64) {
    let t = Instant::now();
    let dataset = Dataset::lod(seed);
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut cfg = SimConfig::paper(dataset, SERVERS, CLIENTS);
    cfg.duration_ms = VIRTUAL_MS;
    cfg.seed = seed;
    (cfg, generate_ms)
}

struct Op {
    /// Seconds into the run at which the op started.
    started_s: f64,
    timing: Timing,
    cpu_us: f64,
    events: u64,
    sessions: u64,
    completed: u64,
    drops: u64,
    bytes: u64,
    migrations: u64,
    digest: String,
}

fn one_op(cfg: &SimConfig, run_start: Instant, stopwatch: &mut Stopwatch) -> Op {
    let started_s = run_start.elapsed().as_secs_f64();
    let cpu0 = procfs::current_thread_cpu_ns();
    let ((r, cpu_us), timing) = stopwatch.time(|| {
        let r = SimCluster::new(cfg.clone()).run();
        (r, (procfs::current_thread_cpu_ns() - cpu0) as f64 / 1e3)
    });
    Op {
        started_s,
        timing,
        cpu_us,
        events: r.events,
        sessions: r.totals.sessions,
        completed: r.totals.completed,
        drops: r.totals.drops,
        bytes: r.totals.bytes,
        migrations: r.migrations,
        digest: r.digest(),
    }
}

pub fn run(w: &Workload, opts: &RunOpts) -> io::Result<RunResult> {
    let mut values: Values = zeroed_values();

    // Set-up: everything before the first event can be processed.
    let mut stopwatch = Stopwatch::new();
    let setups: Vec<Timing> = (0..w.setup_repeats)
        .map(|_| {
            stopwatch
                .time(|| {
                    std::hint::black_box(SimCluster::new(config(opts.seed).0));
                })
                .1
        })
        .collect();
    procfs::reset_peak_rss();
    set_setup_metrics(&mut values, &setups);
    let (cfg, generate_ms) = config(opts.seed);
    values.insert("workloads.generate_ms", Summary::single(generate_ms));

    let started = Instant::now();
    let mut ops = Vec::new();
    while started.elapsed().as_secs_f64() < opts.seconds || ops.len() < 2 {
        ops.push(one_op(&cfg, started, &mut stopwatch));
    }
    let mismatched = ops.iter().filter(|o| o.digest != ops[0].digest).count() as u64;
    let failed = if ops[0].migrations == 0 {
        ops.len() as u64
    } else {
        mismatched
    };

    // At least the first op is cold and at least the last is not.
    let cold_s = opts.seconds * 0.2;
    let n_cold = ops
        .iter()
        .filter(|o| o.started_s < cold_s)
        .count()
        .clamp(1, ops.len() - 1);
    let (cold_ops, warm) = ops.split_at(n_cold);
    let cold = &ops[0];
    let over =
        |ops: &[Op], f: &dyn Fn(&Op) -> f64| Summary::of(&ops.iter().map(f).collect::<Vec<f64>>());
    let per = |f: &dyn Fn(&Op) -> f64| over(warm, f);
    values.insert(
        "client.cold_ops_per_s",
        over(cold_ops, &|o| 1.0 / o.timing.raw_s),
    );
    let latency = per(&|o| o.timing.scaled_s() * 1e6);
    values.insert("p50_us", latency);
    values.insert("ttfb_p50_us", latency);
    // Too few ops for a percentile: the tail is the slowest op.
    let slowest = Summary {
        n: warm.len(),
        ..Summary::single(
            warm.iter()
                .map(|o| o.timing.raw_s * 1e6)
                .fold(0.0, f64::max),
        )
    };
    values.insert("client.p99_us", slowest);
    values.insert("sat_ops_per_s", per(&|o| 1.0 / o.timing.scaled_s()));
    values.insert(
        "sat_mb_per_s",
        per(&|o| o.bytes as f64 / 1e6 / o.timing.scaled_s()),
    );
    values.insert(
        "server_cpu_us_per_op",
        per(&|o| o.cpu_us / o.timing.slowdown()),
    );
    values.insert("peak_rss_mb", Summary::single(procfs::peak_rss_mb()));
    values.insert("client.raw_p50_us", per(&|o| o.timing.raw_s * 1e6));
    values.insert("client.raw_sat_ops_per_s", per(&|o| 1.0 / o.timing.raw_s));
    let reference = per(&|o| o.timing.ref_us);
    values.insert("client.ref_paced_us", reference);
    values.insert("client.ref_sat_us", reference);

    values.insert("sim.wall_s", per(&|o| o.timing.raw_s));
    values.insert(
        "sim.events_per_s",
        per(&|o| o.events as f64 / o.timing.raw_s),
    );
    values.insert(
        "sim.events_per_session",
        Summary::single(cold.events as f64 / cold.sessions.max(1) as f64),
    );
    values.insert("sim.sessions", Summary::single(cold.sessions as f64));
    values.insert("sim.migrations", Summary::single(cold.migrations as f64));
    values.insert(
        "sim.drop_share",
        Summary::single(cold.drops as f64 / (cold.completed + cold.drops).max(1) as f64),
    );
    values.insert(
        "sim.digest_match",
        Summary::single(if mismatched == 0 { 1.0 } else { 0.0 }),
    );
    values.insert(
        "client.fail_share",
        Summary::single(failed as f64 / ops.len() as f64),
    );
    if opts.traced {
        // Standing queue length: one pending event per client and about
        // two per server (tick, service).
        values.insert(
            "sim.queue_ns_per_event",
            Summary::of(&probe_sim_queue(CLIENTS + 2 * SERVERS)),
        );
    }

    Ok(RunResult {
        workload: w.name,
        seed: opts.seed,
        seconds: opts.seconds,
        traced: opts.traced,
        attempted: ops.len() as u64,
        failed,
        first_failure: (failed > 0).then(|| {
            if cold.migrations == 0 {
                "no migrations in the simulated run".to_string()
            } else {
                "SimResult digests differ between runs of one seed".to_string()
            }
        }),
        values,
        threads: 1,
        reactor_shards: Vec::new(),
        rate_ops_per_s: 0.0,
        detail: vec![
            ("digest".to_string(), cold.digest.clone()),
            ("servers".to_string(), SERVERS.to_string()),
            ("clients".to_string(), CLIENTS.to_string()),
            ("virtual_ms".to_string(), VIRTUAL_MS.to_string()),
        ],
    })
}
