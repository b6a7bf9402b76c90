//! `--compare A.json B.json`: one row per workload and end-to-end
//! metric, judged by the benchmark's own bounds. This is what a later
//! change shows in place of prose.

use crate::metrics::{Better, END_TO_END};
use crate::stats::Summary;
use dcws_core::Json;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Better,
    Worse,
    /// The runs of one side disagree with each other by more than the
    /// bound, so a difference of medians within noise means nothing.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `new` against `base` (one value per run of each side).
pub fn judge(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let (b, n) = (Summary::of(base), Summary::of(new));
    if b.median == 0.0 {
        return Verdict::Unresolved;
    }
    // Positive = worse, as a share of the base median.
    let worse_by = match better {
        Better::Lower => (n.median - b.median) / b.median,
        Better::Higher => (b.median - n.median) / b.median,
    };
    let noisy = b.spread().max(n.spread()) > bound;
    let separated = |worse: bool| {
        // Every run of one side beyond every run of the other.
        let (lo, hi): (&[f64], &[f64]) = match (better, worse) {
            (Better::Lower, true) | (Better::Higher, false) => (base, new),
            _ => (new, base),
        };
        let max_lo = lo.iter().copied().fold(f64::MIN, f64::max);
        let min_hi = hi.iter().copied().fold(f64::MAX, f64::min);
        max_lo < min_hi
    };
    if worse_by > bound {
        if noisy && !separated(true) {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        }
    } else if -worse_by > bound {
        if noisy && !separated(false) {
            Verdict::Unresolved
        } else {
            Verdict::Better
        }
    } else if noisy {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Per workload: values of each end-to-end metric over the file's
/// untraced runs, and the runs' failed and attempted op counts.
struct Side {
    metrics: BTreeMap<String, BTreeMap<&'static str, Vec<f64>>>,
    ops: BTreeMap<String, (u64, u64)>,
}

fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(|r| r.as_arr())
        .ok_or(format!("{path}: no \"runs\" array"))?;
    let mut side = Side {
        metrics: BTreeMap::new(),
        ops: BTreeMap::new(),
    };
    for run in runs {
        if !matches!(run.get("trace"), Some(Json::Bool(false))) {
            continue;
        }
        let name = run
            .get("workload")
            .and_then(|w| w.as_str())
            .ok_or(format!("{path}: run without a workload name"))?
            .to_string();
        let count = |k: &str| run.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
        let ops = side.ops.entry(name.clone()).or_insert((0, 0));
        ops.0 += count("failed");
        ops.1 += count("attempted");
        let per_metric = side.metrics.entry(name).or_default();
        for d in END_TO_END {
            if let Some(v) = run
                .get("metrics")
                .and_then(|m| m.get(d.name))
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64())
            {
                per_metric.entry(d.name).or_default().push(v);
            }
        }
    }
    Ok(side)
}

/// Print the comparison; `Ok(true)` when nothing is worse.
pub fn compare(base_path: &str, new_path: &str) -> Result<bool, String> {
    let (base, new) = (load(base_path)?, load(new_path)?);
    let mut clean = true;
    println!(
        "{:<12} {:<22} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "new", "new/base", "bound"
    );
    for (workload, base_metrics) in &base.metrics {
        let Some(new_metrics) = new.metrics.get(workload) else {
            println!("{workload:<12} missing from {new_path}");
            clean = false;
            continue;
        };
        for d in END_TO_END {
            let (Some(b), Some(n)) = (base_metrics.get(d.name), new_metrics.get(d.name)) else {
                continue;
            };
            let bound = d.bound.expect("end-to-end metrics have bounds");
            let verdict = judge(b, n, d.better, bound);
            let (bm, nm) = (Summary::of(b).median, Summary::of(n).median);
            println!(
                "{workload:<12} {:<22} {bm:>14.4} {nm:>14.4} {:>8.3} {bound:>6}  {} ({} vs {} runs, {})",
                d.name,
                nm / bm,
                verdict.as_str(),
                b.len(),
                n.len(),
                d.unit
            );
            clean &= verdict != Verdict::Worse;
        }
        let (bf, ba) = base.ops[workload];
        let (nf, na) = new.ops.get(workload).copied().unwrap_or((0, 0));
        let share = |f: u64, a: u64| f as f64 / a.max(1) as f64;
        let rose = share(nf, na) > share(bf, ba);
        println!(
            "{workload:<12} {:<22} {:>14} {:>14} {:>8} {:>6}  {}",
            "fail_share",
            format!("{bf}/{ba}"),
            format!("{nf}/{na}"),
            "",
            "rise",
            if rose { "worse" } else { "ok" }
        );
        clean &= !rose;
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_the_bound_is_ok_beyond_it_is_worse_or_better() {
        let base = [100.0, 101.0, 99.0];
        assert_eq!(
            judge(&base, &[104.0, 105.0, 103.0], Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&base, &[115.0, 116.0, 114.0], Better::Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(&base, &[115.0, 116.0, 114.0], Better::Higher, 0.10),
            Verdict::Better
        );
        assert_eq!(
            judge(&base, &[85.0, 86.0, 84.0], Better::Higher, 0.10),
            Verdict::Worse
        );
    }

    #[test]
    fn a_noisy_side_makes_the_row_unresolved_unless_the_runs_separate() {
        let base = [80.0, 100.0, 120.0, 90.0, 110.0]; // spread 0.2
        assert_eq!(
            judge(
                &base,
                &[100.0, 105.0, 95.0, 102.0, 98.0],
                Better::Lower,
                0.10
            ),
            Verdict::Unresolved
        );
        // Median 15 % worse but the runs overlap: still unresolved.
        assert_eq!(
            judge(
                &base,
                &[115.0, 95.0, 135.0, 105.0, 125.0],
                Better::Lower,
                0.10
            ),
            Verdict::Unresolved
        );
        // Every new run slower than every base run: worse, noise or not.
        assert_eq!(
            judge(
                &base,
                &[130.0, 150.0, 170.0, 140.0, 160.0],
                Better::Lower,
                0.10
            ),
            Verdict::Worse
        );
    }
}
