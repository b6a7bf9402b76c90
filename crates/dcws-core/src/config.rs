//! Server configuration — Table 1 of the paper plus the knobs the paper
//! leaves implicit (migration triggers, piggyback fan-out, dead-peer
//! detection) and the extensions we implement for ablations (eager
//! migration, hot-spot replication). A value no caller outside the tests
//! sets is a constant beside its use, not a field here
//! (docs/ARCHITECTURE.md, "Options").

use dcws_graph::BalanceMetric;

/// Hot-spot replication (the paper's future-work extension, §6): allow an
/// extremely popular document to be replicated to several co-op servers,
/// with rewrites spreading sources across the replica set.
#[derive(Debug, Clone, PartialEq)]
pub struct HotReplication {
    /// A document is "hot" when it drew more than this fraction of the
    /// server's window hits.
    pub hot_fraction: f64,
    /// Maximum replicas per document (including the first co-op).
    pub max_replicas: usize,
}

impl Default for HotReplication {
    fn default() -> Self {
        HotReplication {
            hot_fraction: 0.25,
            max_replicas: 4,
        }
    }
}

/// All tunables of a DCWS server. Field names follow the paper's notation
/// where one exists.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Number of worker threads, N_wk.
    pub n_workers: usize,
    /// Socket queue length for backlogged requests, L_sq; beyond this the
    /// connection is dropped gracefully with a 503.
    pub socket_queue_len: usize,
    /// Statistics re-calculation interval, T_st (ms). Also the minimum
    /// spacing between two migrations *from* this home server ("a maximum
    /// of one file per 10 seconds").
    pub stat_interval_ms: u64,
    /// Pinger thread activation interval, T_pi (ms): peers silent longer
    /// than this get an artificial transfer.
    pub pinger_interval_ms: u64,
    /// Co-op document validation interval, T_val (ms): migrated copies are
    /// re-requested this often for consistency.
    pub validation_interval_ms: u64,
    /// Home re-migration interval, T_home (ms): a migration may be
    /// abandoned and redone no sooner than this.
    pub remigration_interval_ms: u64,
    /// Minimum time between migrations **to** the same co-op server,
    /// T_coop (ms): lets the co-op recalculate its load before accepting
    /// more.
    pub coop_migration_interval_ms: u64,
    /// Which measurement drives balancing decisions (§5.3: CPS for small
    /// files, BPS for Sequoia-sized files).
    pub balance_metric: BalanceMetric,
    /// Algorithm 1 threshold T: minimum window hits to justify migration.
    pub selection_threshold: u64,
    /// Don't bother migrating below this CPS — an idle server is balanced
    /// by definition.
    pub min_cps_to_migrate: f64,
    /// Consecutive failed pings before a peer is declared dead and its
    /// documents recalled.
    pub ping_failure_limit: u32,
    /// Maximum GLT entries piggybacked per message (own entry always
    /// included; the others are the table's first rows in id order).
    pub piggyback_max: usize,
    /// Ablation: physically push documents at migration time instead of
    /// the paper's lazy pull-on-first-request.
    pub eager_migration: bool,
    /// Ablation: replace Algorithm 1 with naive hottest-first selection
    /// (ignores steps 4–5's link-structure cost minimization).
    pub naive_selection: bool,
    /// Future-work extension: replicate hot documents to several co-ops.
    pub hot_replication: Option<HotReplication>,
    /// Total byte budget shared by the two document caches (regenerated
    /// home bodies and pulled co-op copies, half each). `u64::MAX`
    /// disables eviction; the paper's testbed never filled memory, so
    /// the default is generous rather than unbounded.
    pub cache_budget_bytes: u64,
    /// Bodies at or above this size are served by the streaming path
    /// (chunked reads straight from the [`DocStore`](crate::DocStore);
    /// the regen cache never sees them and the serve table keeps a
    /// reader for them, not their bytes) instead of being buffered
    /// whole. `0` disables streaming. The default keeps every LOD
    /// document buffered and streams only Sequoia-class objects.
    pub stream_threshold_bytes: u64,
}

impl ServerConfig {
    /// The exact parameter values of Table 1.
    pub fn paper_defaults() -> Self {
        ServerConfig {
            n_workers: 12,
            socket_queue_len: 100,
            stat_interval_ms: 10_000,
            pinger_interval_ms: 20_000,
            validation_interval_ms: 120_000,
            remigration_interval_ms: 300_000,
            coop_migration_interval_ms: 60_000,
            balance_metric: BalanceMetric::Cps,
            selection_threshold: 10,
            min_cps_to_migrate: 1.0,
            ping_failure_limit: 3,
            piggyback_max: 8,
            eager_migration: false,
            naive_selection: false,
            hot_replication: None,
            cache_budget_bytes: 64 * 1024 * 1024,
            stream_threshold_bytes: 256 * 1024,
        }
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table_1() {
        let c = ServerConfig::paper_defaults();
        assert_eq!(c.n_workers, 12);
        assert_eq!(c.socket_queue_len, 100);
        assert_eq!(c.stat_interval_ms, 10_000);
        assert_eq!(c.pinger_interval_ms, 20_000);
        assert_eq!(c.validation_interval_ms, 120_000);
        assert_eq!(c.remigration_interval_ms, 300_000);
        assert_eq!(c.coop_migration_interval_ms, 60_000);
        assert_eq!(c.balance_metric, BalanceMetric::Cps);
        assert!(!c.eager_migration);
        assert!(c.hot_replication.is_none());
        assert_eq!(c.cache_budget_bytes, 64 * 1024 * 1024);
        assert_eq!(c.stream_threshold_bytes, 256 * 1024);
    }

    #[test]
    fn default_is_paper_defaults() {
        assert_eq!(ServerConfig::default(), ServerConfig::paper_defaults());
    }

    #[test]
    fn hot_replication_defaults_sane() {
        let h = HotReplication::default();
        assert!(h.hot_fraction > 0.0 && h.hot_fraction < 1.0);
        assert!(h.max_replicas >= 2);
    }
}
