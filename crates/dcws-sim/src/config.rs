//! Simulation configuration.

use crate::cost::CostModel;
use crate::trace::Trace;
use dcws_baselines::Strategy;
use dcws_core::ServerConfig;
use dcws_workloads::Dataset;

/// How the cluster's switch fabric is modeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetModel {
    /// The §5.2 testbed model: every transfer serializes through one
    /// aggregate pipe at the switch's full rate. Cheap and adequate while
    /// total offered load sits well under the aggregate capacity.
    #[default]
    ConstantBandwidth,
    /// Fair-share contention: concurrent flows divide the aggregate
    /// capacity, so a transfer admitted while `k-1` others are in flight
    /// runs at `capacity / k`. The share is snapshotted at admission
    /// (a deterministic O(1) approximation of processor sharing — flows
    /// admitted later do not retroactively slow earlier ones), which
    /// models the switch as a finite shared resource rather than an
    /// infinite pipe.
    SharedBandwidth,
}

/// Flash-crowd style entry-point skew: from `from_ms` on, each new
/// session picks entry point `entry` with probability `prob` instead of
/// drawing uniformly (the remaining `1-prob` stays uniform).
#[derive(Debug, Clone, PartialEq)]
pub struct HotEntry {
    /// Virtual time (ms) at which the skew switches on.
    pub from_ms: u64,
    /// Index into the dataset's entry points.
    pub entry: usize,
    /// Probability a new session targets the hot entry; must be in `[0,1]`.
    pub prob: f64,
}

pub use dcws_net::walker::ClientModel;

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of cooperating servers. Under [`Strategy::Dcws`] the dataset
    /// lives on server 0 (the home) and the rest start empty, exactly the
    /// paper's cold-start deployment; replicated strategies give every
    /// server a full copy.
    pub n_servers: usize,
    /// Number of Algorithm-2 client instances.
    pub n_clients: usize,
    /// The site being served.
    pub dataset: Dataset,
    /// Engine configuration (Table 1 defaults unless overridden).
    pub server_config: ServerConfig,
    /// Hardware cost model.
    pub cost: CostModel,
    /// Client-benchmark parameters.
    pub client: ClientModel,
    /// Request-distribution architecture.
    pub strategy: Strategy,
    /// Simulated run length, ms.
    pub duration_ms: u64,
    /// Metric sampling interval, ms (the paper samples every 10 s).
    pub sample_interval_ms: u64,
    /// How often each server's control plane runs (drives engine timers).
    pub tick_interval_ms: u64,
    /// Master RNG seed; every component stream derives from it (see
    /// [`crate::seed`]).
    pub seed: u64,
    /// Switch fabric model (see [`NetModel`]).
    pub net_model: NetModel,
    /// Per-client first-wake times, ms. `None` keeps the default behavior
    /// of staggering session starts over the first second. Scenarios use
    /// this for load shapes: flash-crowd surges, diurnal ramps.
    /// When `Some`, the length must equal `n_clients`.
    pub client_starts: Option<Vec<u64>>,
    /// Per-client retirement times, ms: a client whose next session would
    /// start at or after its stop time goes dormant instead (diurnal
    /// ramp-down). When `Some`, the length must equal `n_clients`.
    pub client_stops: Option<Vec<u64>>,
    /// Entry-point skew for flash-crowd scenarios.
    pub hot_entry: Option<HotEntry>,
    /// Record every client request as an access log, returned in
    /// [`crate::SimResult::trace`].
    pub record_trace: bool,
    /// Replay this access log open-loop instead of running Algorithm-2
    /// clients (log-driven evaluation; see [`crate::trace`]).
    pub replay: Option<Trace>,
}

impl SimConfig {
    /// Speed up the Table-1 control-plane timers by `factor` so a run
    /// reaches migration steady state in a fraction of the paper's
    /// 30-minute warm-up. Load dynamics at steady state are unchanged —
    /// only the approach to it is compressed. Used by the figure harnesses
    /// (and documented in EXPERIMENTS.md); Figure 8 keeps paper timers
    /// because the warm-up *is* the experiment.
    pub fn accelerate(mut self, factor: u64) -> Self {
        assert!(factor >= 1);
        let c = &mut self.server_config;
        c.stat_interval_ms = (c.stat_interval_ms / factor).max(500);
        c.pinger_interval_ms = (c.pinger_interval_ms / factor).max(1_000);
        c.validation_interval_ms = (c.validation_interval_ms / factor).max(2_000);
        c.remigration_interval_ms = (c.remigration_interval_ms / factor).max(5_000);
        c.coop_migration_interval_ms = (c.coop_migration_interval_ms / factor).max(1_000);
        c.selection_threshold = (c.selection_threshold / factor.min(2)).max(3);
        self.tick_interval_ms = self.tick_interval_ms.min(c.stat_interval_ms / 2).max(250);
        self
    }

    /// Quiet the control-plane timers for pure data-plane scale runs: the
    /// pinger, validation, and remigration intervals are pushed past the
    /// run's end so a 1,000-server group does not spend the whole run in
    /// O(N²) ping storms. `scalepress` uses this; scenario runs keep the
    /// (accelerated) timers because the control plane *is* the scenario.
    pub fn quiet_control_plane(mut self) -> Self {
        let beyond = self.duration_ms.saturating_mul(10).max(3_600_000);
        let c = &mut self.server_config;
        c.pinger_interval_ms = beyond;
        c.validation_interval_ms = beyond;
        c.remigration_interval_ms = beyond;
        c.coop_migration_interval_ms = beyond;
        self
    }

    /// A configuration mirroring the paper's setup for `dataset` with the
    /// given cluster and client sizes.
    pub fn paper(dataset: Dataset, n_servers: usize, n_clients: usize) -> Self {
        // The paper's testbed held every dataset in memory and never
        // evicted, so the figure harnesses run with an unbounded document
        // cache; the `cachepress` benchmark sweeps explicit budgets.
        let mut server_config = ServerConfig::paper_defaults();
        server_config.cache_budget_bytes = u64::MAX;
        SimConfig {
            n_servers,
            n_clients,
            dataset,
            server_config,
            cost: CostModel::paper_testbed(),
            client: ClientModel::default(),
            strategy: Strategy::Dcws,
            duration_ms: 120_000,
            sample_interval_ms: 10_000,
            tick_interval_ms: 1_000,
            seed: 42,
            net_model: NetModel::ConstantBandwidth,
            client_starts: None,
            client_stops: None,
            hot_entry: None,
            record_trace: false,
            replay: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_defaults() {
        let c = SimConfig::paper(Dataset::lod(1), 4, 32);
        assert_eq!(c.n_servers, 4);
        assert_eq!(c.n_clients, 32);
        assert_eq!(c.sample_interval_ms, 10_000);
        assert_eq!(c.client.helpers, 4);
        assert_eq!(c.client.max_steps, 25);
        assert_eq!(c.strategy, Strategy::Dcws);
        assert_eq!(c.net_model, NetModel::ConstantBandwidth);
        assert!(c.client_starts.is_none());
        assert!(c.hot_entry.is_none());
    }

    #[test]
    fn quiet_control_plane_outlasts_run() {
        let mut c = SimConfig::paper(Dataset::lod(1), 2, 4);
        c.duration_ms = 30_000;
        let c = c.quiet_control_plane();
        assert!(c.server_config.pinger_interval_ms > c.duration_ms);
        assert!(c.server_config.validation_interval_ms > c.duration_ms);
        assert!(c.server_config.coop_migration_interval_ms > c.duration_ms);
    }
}
