//! Output: the printed report, the run file, and the one-line result the
//! benchmark contract asks for. All JSON goes through `dcws_core::Json`.

use crate::metrics::{MetricDef, Values, END_TO_END, PER_LAYER};
use crate::procfs;
use crate::workload::{generator_threads, RunResult, WORKLOADS};
use dcws_core::Json;

pub const SCHEMA: &str = "dcws-benchmark/1";

/// A JSON number. JSON has no infinity: a statistic that is infinite
/// (failed ops in its sample) is written as a value no real run reaches.
fn num(v: f64) -> Json {
    Json::F64(if v.is_finite() { v } else { 1e18 })
}

fn metrics_json(defs: &[&MetricDef], values: &Values, full: bool) -> Json {
    Json::Obj(
        defs.iter()
            .map(|d| {
                let s = &values[d.name];
                let mut fields = vec![("value", num(s.median)), ("unit", Json::from(d.unit))];
                if full {
                    fields.extend([
                        ("q1", num(s.q1)),
                        ("q3", num(s.q3)),
                        ("samples", Json::from(s.n)),
                    ]);
                }
                (d.name.to_string(), Json::obj(fields))
            })
            .collect(),
    )
}

/// The last line of standard output in contract mode: end-to-end metrics
/// of an untraced run, per-layer metrics of a traced one.
pub fn contract_line(r: &RunResult, correct: bool) -> String {
    let defs: Vec<&MetricDef> = if r.traced { PER_LAYER } else { END_TO_END }
        .iter()
        .collect();
    Json::obj(vec![
        ("correct", Json::from(correct)),
        ("attempted", Json::from(r.attempted)),
        ("failed", Json::from(r.failed)),
        ("metrics", metrics_json(&defs, &r.values, false)),
    ])
    .to_string()
}

/// One workload run as an object of the run file: every metric with its
/// quartiles and sample count.
pub fn result_json(r: &RunResult, violations: &[String]) -> Json {
    let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
    Json::obj(vec![
        ("workload", Json::from(r.workload)),
        ("seed", Json::from(r.seed)),
        ("seconds", num(r.seconds)),
        ("trace", Json::from(r.traced)),
        (
            "correct",
            Json::from(r.failed == 0 && violations.is_empty()),
        ),
        ("attempted", Json::from(r.attempted)),
        ("failed", Json::from(r.failed)),
        (
            "first_failure",
            r.first_failure.as_deref().map_or(Json::Null, Json::from),
        ),
        ("generator_threads", Json::from(r.threads)),
        (
            "reactor_shards",
            Json::Arr(r.reactor_shards.iter().map(|&s| Json::from(s)).collect()),
        ),
        ("rate_ops_per_s", num(r.rate_ops_per_s)),
        (
            "signature_violations",
            Json::Arr(violations.iter().map(|v| Json::from(v.as_str())).collect()),
        ),
        (
            "detail",
            Json::Obj(
                r.detail
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
                    .collect(),
            ),
        ),
        ("metrics", metrics_json(&all, &r.values, true)),
    ])
}

fn git(args: &[&str]) -> Option<String> {
    let out = std::process::Command::new("git").args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The run file: an envelope describing the machine and the settings,
/// and the workload runs (each an object from [`result_json`]).
pub fn run_file_json(seed: u64, quick: bool, seconds: f64, runs: Vec<Json>) -> Json {
    let rev = git(&["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
    Json::obj(vec![
        ("schema", Json::from(SCHEMA)),
        ("git_rev", Json::from(rev)),
        ("git_dirty", Json::from(dirty)),
        ("nproc", Json::from(procfs::nproc())),
        ("allowed_cpus", Json::from(procfs::allowed_cpus())),
        ("kernel", Json::from(procfs::kernel())),
        ("seed", Json::from(seed)),
        ("quick", Json::from(quick)),
        ("seconds", num(seconds)),
        ("loopback", Json::from(true)),
        ("generator_threads", Json::from(generator_threads())),
        (
            "rate_ops_per_s",
            Json::Obj(
                WORKLOADS
                    .iter()
                    .map(|w| (w.name.to_string(), num(w.rate_ops_per_s)))
                    .collect(),
            ),
        ),
        ("claim", Json::Null),
        ("runs", Json::Arr(runs)),
    ])
}

/// Print every metric of a run by name, with unit, quartiles and count.
pub fn print_result(r: &RunResult, violations: &[String]) {
    println!(
        "== {} seed {} {} s {} (loopback, {} generator thread(s), shards {:?}, paced at {} op/s)",
        r.workload,
        r.seed,
        r.seconds,
        if r.traced { "traced" } else { "untraced" },
        r.threads,
        r.reactor_shards,
        r.rate_ops_per_s
    );
    let line = |d: &MetricDef| {
        let s = &r.values[d.name];
        if s.n > 1 {
            println!(
                "  {:<32} {:>16} {:<6} [q1 {} q3 {} n {}]",
                d.name,
                num(s.median).to_string(),
                d.unit,
                num(s.q1),
                num(s.q3),
                s.n
            );
        } else {
            println!(
                "  {:<32} {:>16} {}",
                d.name,
                num(s.median).to_string(),
                d.unit
            );
        }
    };
    if !r.traced {
        END_TO_END.iter().for_each(line);
    }
    PER_LAYER.iter().for_each(line);
    println!(
        "  ops attempted {} failed {}{}",
        r.attempted,
        r.failed,
        r.first_failure
            .as_ref()
            .map_or(String::new(), |f| format!(" (first: {f})"))
    );
    for v in violations {
        println!("  SIGNATURE VIOLATED: {v}");
    }
}
