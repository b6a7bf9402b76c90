//! Seeded scenario suite runner: flash crowd, diurnal wave, rolling
//! restarts, correlated co-op failures.
//!
//! Each scenario in [`dcws_sim::Scenario`] is a fully seeded fault/load
//! script over a real `ServerEngine` cluster (see `docs/SIMULATION.md`).
//! This binary runs all four at full size on both switch models, audits
//! the quiesced cluster against the PR-4 invariants (no document lost,
//! single owner per document, GLT reconverged), and writes the artifacts
//! EXPERIMENTS.md cites:
//!
//! - `bench_results/scenario_<name>.csv` — per-interval time series
//!   (CPS, bytes/s, drops/s, redirects/s, cumulative migrations),
//! - `bench_results/scenario_<name>_events.csv` — the merged engine
//!   event trace (migrations, pings, revocations) for causal analysis,
//! - `bench_results/BENCH_scenarios.json` — digests, latency
//!   percentiles, and audit verdicts per (scenario, switch model).
//!
//! `--quick` / `DCWS_BENCH_QUICK=1` runs the reduced
//! [`Scenario::quick`] sizes and exits nonzero when any audit fails —
//! the same invariants the test suite checks, exercised standalone.

use dcws_bench::{quick, write_csv, write_report};
use dcws_sim::{NetModel, OwnershipAudit, Scenario, ScenarioKind, SimResult};
use std::time::Instant;

const SEED: u64 = 1999;

struct Run {
    scenario: Scenario,
    net: &'static str,
    result: SimResult,
    audit: OwnershipAudit,
    wall_ms: u64,
}

fn run_one(kind: ScenarioKind, net: NetModel, net_name: &'static str) -> Run {
    let base = if quick() {
        Scenario::quick(kind, SEED)
    } else {
        Scenario::full(kind, SEED)
    };
    let scenario = base.with_net_model(net);
    let t0 = Instant::now();
    let (result, audit) = scenario.run();
    let wall_ms = t0.elapsed().as_millis() as u64;
    println!(
        "{:>16}/{net_name}: {} sessions, p50 {:.1} ms, p99 {:.1} ms, {} migrations, audit {} ({wall_ms} ms wall)",
        kind.name(),
        result.totals.sessions,
        result.latency.p50_ms(),
        result.latency.p99_ms(),
        result.migrations,
        if audit.clean() { "clean" } else { "DIRTY" },
    );
    Run {
        scenario,
        net: net_name,
        result,
        audit,
        wall_ms,
    }
}

fn series_csv(name: &str, r: &SimResult) {
    let mut rows = vec![vec![
        "t_ms".into(),
        "cps".into(),
        "bps".into(),
        "drops_per_sec".into(),
        "redirects_per_sec".into(),
        "migrations_total".into(),
    ]];
    for s in &r.samples {
        rows.push(vec![
            s.t_ms.to_string(),
            format!("{:.2}", s.cps),
            format!("{:.0}", s.bps),
            format!("{:.2}", s.drops_per_sec),
            format!("{:.2}", s.redirects_per_sec),
            s.migrations_total.to_string(),
        ]);
    }
    write_csv(name, &rows);
}

fn run_json(r: &Run) -> dcws_core::Json {
    use dcws_core::Json;
    Json::obj(vec![
        ("scenario", Json::from(r.scenario.kind.name())),
        ("net_model", Json::from(r.net)),
        ("servers", Json::from(r.scenario.n_servers as u64)),
        ("clients", Json::from(r.scenario.n_clients as u64)),
        ("duration_ms", Json::from(r.scenario.duration_ms)),
        ("sessions", Json::from(r.result.totals.sessions)),
        ("completed", Json::from(r.result.totals.completed)),
        ("drops", Json::from(r.result.totals.drops)),
        ("failures", Json::from(r.result.totals.failures)),
        ("migrations", Json::from(r.result.migrations)),
        ("p50_ms", Json::from(r.result.latency.p50_ms())),
        ("p99_ms", Json::from(r.result.latency.p99_ms())),
        ("wall_ms", Json::from(r.wall_ms)),
        ("digest", Json::from(r.result.digest().as_str())),
        (
            "audit",
            Json::obj(vec![
                ("docs", Json::from(r.audit.docs as u64)),
                ("lost", Json::from(r.audit.lost.len() as u64)),
                ("multi_owner", Json::from(r.audit.multi_owner.len() as u64)),
                ("glt_stale", Json::from(r.audit.glt_stale.len() as u64)),
                ("clean", Json::from(r.audit.clean())),
            ]),
        ),
    ])
}

fn main() {
    println!(
        "scenarios: seed {SEED}, {} sizes, both switch models",
        if quick() { "quick" } else { "full" }
    );

    let mut runs = Vec::new();
    for kind in ScenarioKind::all() {
        for (net, net_name) in [
            (NetModel::ConstantBandwidth, "constant_bw"),
            (NetModel::SharedBandwidth, "shared_bw"),
        ] {
            let run = run_one(kind, net, net_name);
            // The constant-bandwidth arm is the calibrated one cited by
            // EXPERIMENTS.md; its CSVs carry the scenario name alone.
            if matches!(net, NetModel::ConstantBandwidth) {
                let name = format!("scenario_{}", kind.name());
                series_csv(&name, &run.result);
                let ev = dcws_bench::results_dir().join(format!("{name}_events.csv"));
                match run.result.save_event_trace(&ev) {
                    Ok(()) => println!("[events written to {}]", ev.display()),
                    Err(e) => eprintln!("warning: cannot write {}: {e}", ev.display()),
                }
            }
            runs.push(run);
        }
    }

    let dirty: Vec<String> = runs
        .iter()
        .filter(|r| !r.audit.clean())
        .map(|r| format!("{}/{}", r.scenario.kind.name(), r.net))
        .collect();

    use dcws_core::Json;
    write_report(
        "scenarios",
        vec![("seed", Json::from(SEED))],
        vec![
            (
                "runs",
                Json::Arr(runs.iter().map(run_json).collect::<Vec<_>>()),
            ),
            ("all_clean", Json::from(dirty.is_empty())),
        ],
    );

    if !dirty.is_empty() {
        eprintln!("FAIL: invariant audit dirty for {}", dirty.join(", "));
        std::process::exit(1);
    }
}
