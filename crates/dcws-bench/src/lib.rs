//! Shared harness utilities for the reproduction binaries.
//!
//! The paper's evaluation (§5) is one table of runs and checks,
//! [`reproduce`], run by one binary; the rest are our own presses:
//!
//! | Binary | Reproduces |
//! |--------|-----------|
//! | `reproduce` | Fig 6 (BPS & CPS vs clients), Fig 7 (peak vs #servers, four datasets), Fig 8 (cold-start warm-up), Table 2 (timer trade-offs), §5.3 overhead, and the ablations (DCWS vs baselines, design choices), over five seeds, checked against the paper |
//! | `cachepress` | cache budget vs hit ratio / response time sweep |
//! | `c10kpress` | concurrent keep-alive clients held by the reactor |
//! | `scalepress` | simulator scale-out proof: 1,000+ servers, 10⁶+ sessions, determinism at scale |
//! | `scenarios` | seeded scenario suite (flash crowd, diurnal, restarts, co-op failures) + invariant audits |
//!
//! Table 1 is `dcws-core`'s `config::tests::paper_defaults_match_table_1`.
//! Request-path performance is not measured here: the end-to-end ruler
//! and its per-layer probes are the standalone `benchmark/` package
//! (`BENCHMARK.json`).
//!
//! Every binary honors `--quick` / `DCWS_BENCH_QUICK=1` for a fast smoke
//! pass (fewer points, shorter runs) and writes machine-readable CSV —
//! the last three also a `BENCH_<name>.json` report — next to its stdout
//! tables into `bench_results/` (`DCWS_BENCH_OUT` redirects; the smokes
//! must, since `bench_results/` holds full runs only).
//!
//! Passing `--status-dump` (or setting `DCWS_STATUS_DUMP=1`) additionally
//! writes each run's merged engine event trace —
//! `t_ms,server,seq,kind,detail`, see
//! [`SimResult::save_event_trace`](dcws_sim::SimResult::save_event_trace)
//! — as `<tag>.events.csv` next to the figure CSVs, and prints a per-kind
//! event census so a reader can correlate migrations, revocations, and
//! dead-peer recalls with the performance curves.

#![warn(missing_docs)]

pub mod chart;
pub mod reproduce;

pub use chart::ascii_chart;

use dcws_core::Json;
use std::io::Write;
use std::path::PathBuf;

/// Whether `flag` is among `args` or the switch's environment variable
/// reads `1`.
fn requested(args: impl IntoIterator<Item = String>, flag: &str, env: Option<&str>) -> bool {
    env == Some("1") || args.into_iter().any(|a| a == flag)
}

/// Whether the quick smoke mode is requested: `--quick` on the command
/// line, or `DCWS_BENCH_QUICK=1`.
pub fn quick() -> bool {
    requested(
        std::env::args(),
        "--quick",
        std::env::var("DCWS_BENCH_QUICK").ok().as_deref(),
    )
}

/// `base` scaled down in quick mode.
pub fn scaled(base: u64, quick_value: u64) -> u64 {
    if quick() {
        quick_value
    } else {
        base
    }
}

/// Where CSV output lands (created on demand).
pub fn results_dir() -> PathBuf {
    let d =
        PathBuf::from(std::env::var("DCWS_BENCH_OUT").unwrap_or_else(|_| "bench_results".into()));
    let _ = std::fs::create_dir_all(&d);
    d
}

/// Write `rows` (first row = header) as `name.csv` in [`results_dir`].
pub fn write_csv(name: &str, rows: &[Vec<String>]) {
    let path = results_dir().join(format!("{name}.csv"));
    let Ok(mut f) = std::fs::File::create(&path) else {
        eprintln!("warning: cannot write {}", path.display());
        return;
    };
    for row in rows {
        let _ = writeln!(f, "{}", row.join(","));
    }
    println!("\n[csv written to {}]", path.display());
}

/// Write `BENCH_<bench>.json` in [`results_dir`]: the envelope every
/// report shares — `bench`, `quick`, `host_parallelism`, `params` —
/// followed by the binary's own `body` keys.
pub fn write_report(bench: &str, params: Vec<(&str, Json)>, body: Vec<(&str, Json)>) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut pairs = vec![
        ("bench", Json::from(bench)),
        ("quick", Json::from(quick())),
        ("host_parallelism", Json::from(cores)),
        ("params", Json::obj(params)),
    ];
    pairs.extend(body);
    let path = results_dir().join(format!("BENCH_{bench}.json"));
    match std::fs::write(&path, Json::obj(pairs).to_string()) {
        Ok(()) => println!("[json written to {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Whether `--status-dump` was passed on the command line (or
/// `DCWS_STATUS_DUMP=1` set): also write engine event traces.
pub fn status_dump() -> bool {
    requested(
        std::env::args(),
        "--status-dump",
        std::env::var("DCWS_STATUS_DUMP").ok().as_deref(),
    )
}

/// When [`status_dump`] is on, write `result`'s merged engine event
/// trace as `<tag>.events.csv` in [`results_dir`] and print a per-kind
/// event census. A no-op otherwise, so call sites can stay unconditional.
pub fn dump_status(tag: &str, result: &dcws_sim::SimResult) {
    if !status_dump() {
        return;
    }
    // Tags come from run labels ("strategy:rr-dns", "T_val x0.25"); keep
    // filenames portable.
    let safe: String = tag
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '_'
            }
        })
        .collect();
    let path = results_dir().join(format!("{safe}.events.csv"));
    if let Err(e) = result.save_event_trace(&path) {
        eprintln!("warning: cannot write {}: {e}", path.display());
        return;
    }
    let mut by_kind: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    for (_, rec) in &result.engine_events {
        *by_kind.entry(rec.event.kind()).or_insert(0) += 1;
    }
    let census = if by_kind.is_empty() {
        "no events".to_string()
    } else {
        by_kind
            .iter()
            .map(|(k, n)| format!("{k}={n}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!(
        "  [{tag}: {} events -> {} | {census}]",
        result.engine_events.len(),
        path.display()
    );
}

/// Format a number with thousands separators for table output.
pub fn fmt_thousands(x: f64) -> String {
    let n = x.round() as i64;
    let s = n.abs().to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    if n < 0 {
        format!("-{out}")
    } else {
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousands_formatting() {
        assert_eq!(fmt_thousands(0.0), "0");
        assert_eq!(fmt_thousands(999.0), "999");
        assert_eq!(fmt_thousands(1000.0), "1,000");
        assert_eq!(fmt_thousands(15150.4), "15,150");
        assert_eq!(fmt_thousands(1234567.0), "1,234,567");
        assert_eq!(fmt_thousands(-1234.0), "-1,234");
    }

    #[test]
    fn switch_is_the_exact_flag_or_the_env_value_one() {
        let cases: [(&[&str], Option<&str>, bool); 6] = [
            (&["fig6"], None, false),
            (&["fig6", "--quick"], None, true),
            (&["fig6"], Some("1"), true),
            (&["fig6", "--status-dump", "--quick"], Some("0"), true),
            (&["fig6", "--quickly"], Some(""), false),
            (&["fig6", "--status-dump"], Some("true"), false),
        ];
        for (argv, env, want) in cases {
            let args = argv.iter().map(|a| a.to_string());
            assert_eq!(requested(args, "--quick", env), want, "{argv:?} {env:?}");
        }
    }
}
