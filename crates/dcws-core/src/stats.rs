//! Engine-level counters used by the experiments.

/// Monotonic counters describing everything a server engine has done.
///
/// The Figure 8 time series, the §5.3 overhead numbers, and the ablation
/// benches are all reductions over these counters (sampled per interval by
/// the harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Total requests handled (all outcomes).
    pub requests: u64,
    /// 200 responses for documents served at home.
    pub served_home: u64,
    /// 200 responses for migrated documents served in the co-op role.
    pub served_coop: u64,
    /// 301 redirects for post-migration requests arriving at home (§4.4).
    pub redirects: u64,
    /// 404 responses.
    pub not_found: u64,
    /// 400 responses.
    pub bad_requests: u64,
    /// Pull requests served to co-op servers (lazy physical migration).
    pub pulls_served: u64,
    /// Validation requests answered 304 Not Modified.
    pub validations_not_modified: u64,
    /// Validation requests answered with fresh content.
    pub validations_refreshed: u64,
    /// Plain conditional GETs (`If-Modified-Since`) answered 304 with
    /// zero body bytes.
    pub conditional_not_modified: u64,
    /// Documents re-parsed and regenerated with rewritten hyperlinks.
    pub regenerations: u64,
    /// Logical migrations performed.
    pub migrations: u64,
    /// Migrations revoked (imbalance, content change, or dead co-op).
    pub revocations: u64,
    /// Standing migrations re-targeted to a different co-op (T_home).
    pub remigrations: u64,
    /// Artificial pinger transfers emitted.
    pub pings_sent: u64,
    /// Peers declared dead after repeated ping failures.
    pub peers_declared_dead: u64,
    /// Total body bytes sent in 200 responses.
    pub bytes_sent: u64,
    /// Replica registrations performed by the hot-spot extension.
    pub replicas_created: u64,
    /// T_val revalidations that could not be completed (home
    /// unreachable after retries); the copy is marked stale instead.
    pub validation_failures: u64,
    /// Lazy pulls that failed after retries, triggering the stale-serve
    /// or 503 degradation path.
    pub pull_failures: u64,
    /// 200 responses served from a copy whose freshness could not be
    /// verified (stale-marked, or a revoked/unreachable-home fallback).
    pub stale_serves: u64,
    /// Documents whose permanent-original store write failed (disk
    /// error); the publish proceeded in memory but durability was lost.
    pub store_put_failures: u64,
    /// 200-class responses whose body was streamed in chunks rather
    /// than buffered (large-object path).
    pub streamed_serves: u64,
    /// Piggybacked load reports the GLT accepted (newer than its row, or
    /// about a server it did not know).
    pub reports_merged: u64,
    /// Piggybacked load reports dropped before parsing: this server's
    /// own row, or no newer than the GLT's. With `reports_merged`, how
    /// much of the gossip received was redundant.
    pub reports_skipped: u64,
    /// Load reports formatted for sending: the own row of every message,
    /// plus each peer row once after it changes (later messages copy
    /// that text).
    pub reports_encoded: u64,
}

impl EngineStats {
    /// Difference `self - earlier`, for per-interval sampling.
    pub fn delta(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            requests: self.requests - earlier.requests,
            served_home: self.served_home - earlier.served_home,
            served_coop: self.served_coop - earlier.served_coop,
            redirects: self.redirects - earlier.redirects,
            not_found: self.not_found - earlier.not_found,
            bad_requests: self.bad_requests - earlier.bad_requests,
            pulls_served: self.pulls_served - earlier.pulls_served,
            validations_not_modified: self.validations_not_modified
                - earlier.validations_not_modified,
            validations_refreshed: self.validations_refreshed - earlier.validations_refreshed,
            conditional_not_modified: self.conditional_not_modified
                - earlier.conditional_not_modified,
            regenerations: self.regenerations - earlier.regenerations,
            migrations: self.migrations - earlier.migrations,
            revocations: self.revocations - earlier.revocations,
            remigrations: self.remigrations - earlier.remigrations,
            pings_sent: self.pings_sent - earlier.pings_sent,
            peers_declared_dead: self.peers_declared_dead - earlier.peers_declared_dead,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            replicas_created: self.replicas_created - earlier.replicas_created,
            validation_failures: self.validation_failures - earlier.validation_failures,
            pull_failures: self.pull_failures - earlier.pull_failures,
            stale_serves: self.stale_serves - earlier.stale_serves,
            store_put_failures: self.store_put_failures - earlier.store_put_failures,
            streamed_serves: self.streamed_serves - earlier.streamed_serves,
            reports_merged: self.reports_merged - earlier.reports_merged,
            reports_skipped: self.reports_skipped - earlier.reports_skipped,
            reports_encoded: self.reports_encoded - earlier.reports_encoded,
        }
    }

    /// All 200-class serves (home + co-op roles).
    pub fn served_total(&self) -> u64 {
        self.served_home + self.served_coop
    }

    /// Every counter as a `(name, value)` pair, in declaration order.
    ///
    /// The single source of truth for anything that enumerates the
    /// counters — the `/dcws/status` JSON, CSV headers, and the tests
    /// that check the endpoint exposes *all* of them.
    pub fn fields(&self) -> [(&'static str, u64); 26] {
        [
            ("requests", self.requests),
            ("served_home", self.served_home),
            ("served_coop", self.served_coop),
            ("redirects", self.redirects),
            ("not_found", self.not_found),
            ("bad_requests", self.bad_requests),
            ("pulls_served", self.pulls_served),
            ("validations_not_modified", self.validations_not_modified),
            ("validations_refreshed", self.validations_refreshed),
            ("conditional_not_modified", self.conditional_not_modified),
            ("regenerations", self.regenerations),
            ("migrations", self.migrations),
            ("revocations", self.revocations),
            ("remigrations", self.remigrations),
            ("pings_sent", self.pings_sent),
            ("peers_declared_dead", self.peers_declared_dead),
            ("bytes_sent", self.bytes_sent),
            ("replicas_created", self.replicas_created),
            ("validation_failures", self.validation_failures),
            ("pull_failures", self.pull_failures),
            ("stale_serves", self.stale_serves),
            ("store_put_failures", self.store_put_failures),
            ("streamed_serves", self.streamed_serves),
            ("reports_merged", self.reports_merged),
            ("reports_skipped", self.reports_skipped),
            ("reports_encoded", self.reports_encoded),
        ]
    }

    /// Fraction of requests answered 200 (either role); 0 when idle.
    pub fn success_ratio(&self) -> f64 {
        ratio(self.served_total(), self.requests)
    }

    /// Fraction of 200s served in the co-op role — the paper's measure
    /// of how much work migration actually offloaded.
    pub fn coop_serve_share(&self) -> f64 {
        ratio(self.served_coop, self.served_total())
    }

    /// Fraction of requests answered with a 301 (§4.4 old-address
    /// penalty, the effect Figure 7 prices).
    pub fn redirect_ratio(&self) -> f64 {
        ratio(self.redirects, self.requests)
    }

    /// Fraction of validations answered 304 — high means T_val traffic
    /// is cheap header exchanges, low means copies churn (§4.5).
    pub fn validation_hit_ratio(&self) -> f64 {
        ratio(
            self.validations_not_modified,
            self.validations_not_modified + self.validations_refreshed,
        )
    }

    /// Mean body bytes per 200 response; 0 when nothing served.
    pub fn mean_body_bytes(&self) -> f64 {
        let served = self.served_total();
        if served == 0 {
            0.0
        } else {
            self.bytes_sent as f64 / served as f64
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_fieldwise() {
        let a = EngineStats {
            requests: 10,
            served_home: 7,
            redirects: 2,
            ..Default::default()
        };
        let b = EngineStats {
            requests: 25,
            served_home: 15,
            redirects: 5,
            ..Default::default()
        };
        let d = b.delta(&a);
        assert_eq!(d.requests, 15);
        assert_eq!(d.served_home, 8);
        assert_eq!(d.redirects, 3);
        assert_eq!(d.not_found, 0);
    }

    #[test]
    fn served_total_sums_roles() {
        let s = EngineStats {
            served_home: 3,
            served_coop: 4,
            ..Default::default()
        };
        assert_eq!(s.served_total(), 7);
    }

    #[test]
    fn fields_cover_every_counter() {
        // Setting every field to a distinct value and summing via
        // fields() catches a counter added to the struct but forgotten
        // in the enumeration.
        let s = EngineStats {
            requests: 1,
            served_home: 2,
            served_coop: 3,
            redirects: 4,
            not_found: 5,
            bad_requests: 6,
            pulls_served: 7,
            validations_not_modified: 8,
            validations_refreshed: 9,
            conditional_not_modified: 10,
            regenerations: 11,
            migrations: 12,
            revocations: 13,
            remigrations: 14,
            pings_sent: 15,
            peers_declared_dead: 16,
            bytes_sent: 17,
            replicas_created: 18,
            validation_failures: 19,
            pull_failures: 20,
            stale_serves: 21,
            store_put_failures: 22,
            streamed_serves: 23,
            reports_merged: 24,
            reports_skipped: 25,
            reports_encoded: 26,
        };
        let fields = s.fields();
        assert_eq!(fields.len(), 26);
        let sum: u64 = fields.iter().map(|(_, v)| v).sum();
        assert_eq!(sum, (1..=26).sum::<u64>());
        // Names are unique.
        let mut names: Vec<&str> = fields.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 26);
    }

    #[test]
    fn derived_rates() {
        let s = EngineStats {
            requests: 10,
            served_home: 6,
            served_coop: 2,
            redirects: 1,
            validations_not_modified: 3,
            validations_refreshed: 1,
            bytes_sent: 1600,
            ..Default::default()
        };
        assert!((s.success_ratio() - 0.8).abs() < 1e-12);
        assert!((s.coop_serve_share() - 0.25).abs() < 1e-12);
        assert!((s.redirect_ratio() - 0.1).abs() < 1e-12);
        assert!((s.validation_hit_ratio() - 0.75).abs() < 1e-12);
        assert!((s.mean_body_bytes() - 200.0).abs() < 1e-12);
    }

    #[test]
    fn derived_rates_zero_when_idle() {
        let s = EngineStats::default();
        assert_eq!(s.success_ratio(), 0.0);
        assert_eq!(s.coop_serve_share(), 0.0);
        assert_eq!(s.redirect_ratio(), 0.0);
        assert_eq!(s.validation_hit_ratio(), 0.0);
        assert_eq!(s.mean_body_bytes(), 0.0);
    }
}
