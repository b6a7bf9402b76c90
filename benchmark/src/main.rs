//! `dcws-benchmark` — the DCWS end-to-end and per-layer benchmark.
//!
//! ```text
//! dcws-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one run of one workload; the last line of standard output is the
//!     result object of the benchmark contract
//! dcws-benchmark [--seed N] [--quick] [--runs K]
//!     every workload, untraced then traced, each in a process of its
//!     own; prints every metric, writes the run file, exits non-zero on
//!     a wrong response or a violated workload signature
//! dcws-benchmark --compare A.json B.json
//! dcws-benchmark --emit-contract | --glossary
//! ```
//!
//! Run from the repository root; everything written goes under
//! `benchmark/target/`. See `benchmark/README.md`.

mod client;
mod cluster;
mod compare;
mod gen;
mod metrics;
mod probes;
mod procfs;
mod reference;
mod report;
mod sched;
mod signature;
mod sim;
mod source;
mod stats;
mod trace;
mod verify;
mod workload;

use dcws_core::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Kind, RunOpts, RunResult, Workload, WORKLOADS};

/// Seconds one run measures, unless `--seconds` says otherwise. The same
/// number is `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: f64 = 24.0;
/// `--quick` divides the run by this.
const QUICK_DIVISOR: f64 = 5.0;
/// Signatures are enforced on runs at least this long; shorter runs
/// (smoke runs) do not give migration the time the signatures assume.
const ENFORCE_FROM_SECONDS: f64 = 10.0;
const DEFAULT_SEED: u64 = 1999;

fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/target")
}

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    runs: usize,
    json_out: Option<PathBuf>,
    /// Full mode tells its `lod-churn` child what `lod-cluster` measured.
    cluster_inline_ratio: Option<f64>,
    compare: Option<(String, String)>,
    emit_contract: bool,
    glossary: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        runs: 1,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err("--seconds must be between 1 and 600".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => a.quick = true,
            "--runs" => a.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--json-out" => a.json_out = Some(PathBuf::from(value()?)),
            "--cluster-inline-ratio" => {
                a.cluster_inline_ratio = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--cluster-inline-ratio: {e}"))?,
                )
            }
            "--compare" => a.compare = Some((value()?, value()?)),
            "--emit-contract" => a.emit_contract = true,
            "--glossary" => a.glossary = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn run_one(w: &Workload, opts: &RunOpts) -> std::io::Result<RunResult> {
    match w.kind {
        Kind::SimLod => sim::run(w, opts),
        _ => workload::run_tcp(w, opts),
    }
}

/// Contract mode: one workload, one pass, result object on the last line.
fn single(w: &Workload, args: &Args) -> Result<ExitCode, String> {
    let opts = RunOpts {
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(RUN_SECONDS),
        traced: args.trace,
        out_dir: out_dir(),
    };
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    let result = run_one(w, &opts).map_err(|e| format!("{}: {e}", w.name))?;
    let check = signature::check(
        w.kind,
        &result.values,
        result.attempted,
        args.cluster_inline_ratio,
    );
    let violations = check.violations;
    report::print_result(&result, &violations);
    for warning in &check.warnings {
        println!("  note: {warning}");
    }
    let enforce = opts.seconds >= ENFORCE_FROM_SECONDS;
    if !violations.is_empty() && !enforce {
        println!(
            "  (run shorter than {ENFORCE_FROM_SECONDS} s: signature violations are warnings)"
        );
    }
    let correct = result.failed == 0 && (violations.is_empty() || !enforce);
    let json = report::result_json(&result, &violations);
    let path = args.json_out.clone().unwrap_or_else(|| {
        opts.out_dir.join(format!(
            "last-{}-trace{}.json",
            w.name,
            u8::from(args.trace)
        ))
    });
    std::fs::write(&path, format!("{json}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", report::contract_line(&result, correct));
    Ok(ExitCode::SUCCESS)
}

/// Run `exe` for one workload and pass, and read back its result object.
fn child(
    exe: &Path,
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    cluster_inline_ratio: Option<f64>,
) -> Result<Json, String> {
    let out = out_dir().join(format!("child-{}-{}.json", w.name, u8::from(trace)));
    let mut cmd = std::process::Command::new(exe);
    if let Some(ratio) = cluster_inline_ratio {
        cmd.args(["--cluster-inline-ratio", &ratio.to_string()]);
    }
    let status = cmd
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--json-out")
        .arg(&out)
        .status()
        .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
    if !status.success() {
        return Err(format!("{} (trace {trace}) exited with {status}", w.name));
    }
    let text = std::fs::read_to_string(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let _ = std::fs::remove_file(&out);
    Json::parse(&text).map_err(|e| format!("{}: {e}", out.display()))
}

fn metric(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Full mode: every workload, untraced then traced, each in its own
/// process so that peak memory and thread accounting are the workload's.
fn full(args: &Args) -> Result<ExitCode, String> {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let base_seconds = args.seconds.unwrap_or(RUN_SECONDS);
    let seconds = if args.quick {
        (base_seconds / QUICK_DIVISOR).max(1.0)
    } else {
        base_seconds
    };
    let enforce = seconds >= ENFORCE_FROM_SECONDS;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;

    let mut runs = Vec::new();
    let mut problems = Vec::new();
    for k in 0..args.runs.max(1) as u64 {
        let mut cluster_inline = None;
        for w in WORKLOADS {
            for trace in [false, true] {
                // `lod-churn` is also held against `lod-cluster` of the
                // same set: the one signature clause that needs two runs.
                let versus = cluster_inline.filter(|_| w.kind == Kind::LodChurn && !trace);
                let run = child(&exe, w, seed + k, seconds, trace, versus)?;
                if matches!(run.get("correct"), Some(Json::Bool(false))) {
                    problems.push(format!(
                        "{} seed {} trace {trace}: incorrect",
                        w.name,
                        seed + k
                    ));
                }
                if !trace && w.kind == Kind::LodCluster {
                    cluster_inline = metric(&run, "net.inline_ratio");
                }
                runs.push(run);
            }
        }
    }

    // Quick and full results never share a file name, so a smoke run
    // cannot overwrite a full result.
    let name = if args.quick {
        format!("quick-{seed}.json")
    } else {
        format!("run-{seed}.json")
    };
    let path = out_dir().join(name);
    let doc = report::run_file_json(seed, args.quick, seconds, runs);
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    for p in &problems {
        println!("PROBLEM: {p}");
    }
    if problems.is_empty() || !enforce {
        if !problems.is_empty() {
            println!("(quick run: problems above are warnings)");
        }
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.emit_contract {
            println!("{}", metrics::contract_json(RUN_SECONDS as u64));
            return Ok(ExitCode::SUCCESS);
        }
        if args.glossary {
            println!("{}", metrics::glossary_markdown());
            return Ok(ExitCode::SUCCESS);
        }
        if let Some((a, b)) = &args.compare {
            return compare::compare(a, b).map(|clean| {
                if clean {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            });
        }
        match &args.workload {
            Some(name) => {
                let w = workload::by_name(name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?;
                single(w, &args)
            }
            None => full(&args),
        }
    });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("dcws-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
