//! Workload signatures: the counters that show a workload exercised the
//! layers it is named for. A run that violates its signature measured
//! something else and is invalid, whatever its numbers look like.

use crate::metrics::Values;
use crate::workload::Kind;

fn v(values: &Values, name: &str) -> f64 {
    values.get(name).map_or(0.0, |s| s.median)
}

/// What checking a run against its workload's signature found.
#[derive(Debug, Default, PartialEq)]
pub struct Check {
    /// The run did not exercise what the workload is named for, or the
    /// servers answered wrongly: the run is invalid.
    pub violations: Vec<String>,
    /// Worth a reader's attention, but not the servers' doing.
    pub warnings: Vec<String>,
}

/// Check `values` against the signature of `kind`. `attempted` is the
/// run's op count; `cluster_inline_ratio` is `lod-cluster`'s
/// `net.inline_ratio` from the same set of runs, when known.
pub fn check(
    kind: Kind,
    values: &Values,
    attempted: u64,
    cluster_inline_ratio: Option<f64>,
) -> Check {
    let mut out = Check::default();
    let g = |name: &str| v(values, name);
    let mut require = |ok: bool, what: String| {
        if !ok {
            out.violations.push(what);
        }
    };

    // The envelope every workload must stay inside.
    require(
        g("client.fail_share") == 0.0,
        format!("client.fail_share = {} (must be 0)", g("client.fail_share")),
    );
    require(
        g("client.wrong_bytes") == 0.0,
        format!("client.wrong_bytes = {}", g("client.wrong_bytes")),
    );

    match kind {
        Kind::LodWarm => {
            require(
                g("net.inline_ratio") >= 0.99,
                format!("net.inline_ratio = {} (< 0.99)", g("net.inline_ratio")),
            );
            require(g("core.migrations") == 0.0, "core.migrations != 0".into());
            require(
                g("core.regenerations") == 0.0,
                "core.regenerations != 0".into(),
            );
        }
        Kind::LodCluster | Kind::LodChurn => {
            require(
                g("core.migrations") >= 20.0,
                format!("core.migrations = {} (< 20)", g("core.migrations")),
            );
            require(
                g("core.pulls_served") >= 1.0,
                "core.pulls_served = 0".into(),
            );
            require(
                g("core.coop_serve_share") >= COOP_SHARE_FLOOR,
                format!(
                    "core.coop_serve_share = {} in the second half of the window (< {COOP_SHARE_FLOOR})",
                    g("core.coop_serve_share")
                ),
            );
            if kind == Kind::LodChurn {
                require(
                    g("core.republish_applied_share") >= 0.9,
                    format!(
                        "only {} of the scheduled republishes applied",
                        g("core.republish_applied_share")
                    ),
                );
                require(
                    g("core.regenerations") > 0.0,
                    "core.regenerations = 0".into(),
                );
                require(
                    g("core.validations_refreshed") > 0.0,
                    "core.validations_refreshed = 0".into(),
                );
                if let Some(cluster) = cluster_inline_ratio {
                    require(
                        g("net.inline_ratio") < cluster,
                        format!(
                            "net.inline_ratio {} not below lod-cluster's {cluster}",
                            g("net.inline_ratio")
                        ),
                    );
                }
            }
        }
        Kind::SeqStream => {
            let streamed = g("core.streamed_serves") / attempted.max(1) as f64;
            require(
                streamed >= 0.7,
                format!("core.streamed_serves / ops = {streamed} (< 0.7)"),
            );
            require(
                (g("client.partial_share") - 0.25).abs() <= 0.02,
                format!(
                    "206 share = {} (not 0.25 +- 0.02)",
                    g("client.partial_share")
                ),
            );
            require(g("net.body_copies") == 0.0, "net.body_copies != 0".into());
        }
        Kind::SimLod => {
            require(g("sim.digest_match") == 1.0, "sim.digest_match != 1".into());
            require(g("sim.migrations") > 0.0, "sim.migrations = 0".into());
        }
    }

    // Both as the clock read them: `p50_us` itself is scaled.
    if kind != Kind::SimLod && g("client.lateness_p99_us") >= g("client.raw_p50_us") {
        out.warnings.push(format!(
            "client.lateness_p99_us {} >= client.raw_p50_us {}: part of the paced tail is the generator's",
            g("client.lateness_p99_us"),
            g("client.raw_p50_us")
        ));
    }
    if matches!(kind, Kind::LodCluster | Kind::LodChurn) && g("core.redirect_share") == 0.0 {
        out.warnings
            .push("core.redirect_share = 0: no walker met a stale link".into());
    }
    out
}

/// Least share of the ops of the second half of the measured window the
/// co-ops must answer on the cluster workloads. T_coop / 100 = 600 ms
/// lets a home hand each of its two co-ops one document per 600 ms, so
/// about 50 of LOD's 349 documents have moved by then; they carry a
/// fifth of the load, and over a quarter by the end of the run.
const COOP_SHARE_FLOOR: f64 = 0.1;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;
    use crate::workload::zeroed_values;

    fn healthy_cluster() -> Values {
        let mut v = zeroed_values();
        for (name, x) in [
            ("core.migrations", 60.0),
            ("core.pulls_served", 60.0),
            ("core.redirect_share", 0.01),
            ("client.sessions", 900.0),
            ("core.coop_serve_share", 0.55),
            ("client.raw_p50_us", 40.0),
            ("client.lateness_p99_us", 12.0),
        ] {
            v.insert(name, Summary::single(x));
        }
        v
    }

    #[test]
    fn a_healthy_cluster_run_passes() {
        assert_eq!(
            check(Kind::LodCluster, &healthy_cluster(), 100_000, None),
            Check::default()
        );
    }

    #[test]
    fn a_cluster_run_without_migrations_is_rejected() {
        let mut v = healthy_cluster();
        v.insert("core.migrations", Summary::single(0.0));
        let bad = check(Kind::LodCluster, &v, 100_000, None).violations;
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("core.migrations = 0"));
    }

    #[test]
    fn failures_and_wrong_bytes_break_any_workload_a_late_generator_warns() {
        let mut v = healthy_cluster();
        v.insert("client.fail_share", Summary::single(0.001));
        v.insert("client.wrong_bytes", Summary::single(1.0));
        v.insert("client.lateness_p99_us", Summary::single(41.0));
        let c = check(Kind::LodCluster, &v, 1, None);
        assert_eq!((c.violations.len(), c.warnings.len()), (2, 1));
    }

    #[test]
    fn churn_must_spill_more_than_the_plain_cluster() {
        let mut v = healthy_cluster();
        for (name, x) in [
            ("core.republish_applied_share", 1.0),
            ("core.regenerations", 5.0),
            ("core.validations_refreshed", 5.0),
            ("net.inline_ratio", 0.97),
        ] {
            v.insert(name, Summary::single(x));
        }
        assert!(check(Kind::LodChurn, &v, 1, Some(0.98))
            .violations
            .is_empty());
        assert_eq!(check(Kind::LodChurn, &v, 1, Some(0.96)).violations.len(), 1);
    }
}
