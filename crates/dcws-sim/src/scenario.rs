//! Seeded scenario library: reproducible cluster stories.
//!
//! Each scenario is a pure function of `(kind, seed, scale)` — the load
//! shape, fault schedule, and every client's walk all derive from the one
//! seed through [`crate::seed`] streams, so a scenario run is replayable
//! byte for byte (the determinism suite holds that line) and a failing
//! run can be handed to someone else as three numbers.
//!
//! The four kinds map to the cluster stories the paper's design must
//! survive:
//!
//! * **Flash crowd** — a quiet SBLog site, then most of the population
//!   arrives at once and every detail page hammers the one bar-graph JPEG
//!   (§5.3's hot spot). Exercises migration under a step load.
//! * **Diurnal wave** — LOD with client arrivals ramping up over the
//!   first half and retiring over the second, the shape a day of traffic
//!   compresses into. Exercises migration *and* re-migration (T_home).
//! * **Rolling restart** — every non-home server crashes and cold-starts
//!   in sequence, as a fleet upgrade would. Exercises dead-peer
//!   detection, recall-on-death, and GLT reconvergence.
//! * **Co-op failures** — half the co-ops die at the same instant and
//!   stay down (a rack loss). Exercises correlated revocation: every
//!   migrated document must fall back to its home.

use crate::cluster::{OwnershipAudit, SimCluster};
use crate::config::{HotEntry, SimConfig};
use crate::event::SimTime;
use crate::metrics::SimResult;
use dcws_workloads::Dataset;

pub use crate::config::NetModel;

/// Which cluster story to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Step arrival surge onto SBLog's hot-JPEG site.
    FlashCrowd,
    /// Arrival ramp-up then ramp-down over LOD.
    DiurnalWave,
    /// Sequential crash + cold restart of every non-home server.
    RollingRestart,
    /// Simultaneous permanent loss of half the co-op servers.
    CoopFailures,
}

impl ScenarioKind {
    /// Every scenario kind, in a fixed order (drives test matrices and
    /// the `scenarios` harness).
    pub fn all() -> [ScenarioKind; 4] {
        [
            ScenarioKind::FlashCrowd,
            ScenarioKind::DiurnalWave,
            ScenarioKind::RollingRestart,
            ScenarioKind::CoopFailures,
        ]
    }

    /// Stable snake_case name (CSV file stems, log lines).
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioKind::FlashCrowd => "flash_crowd",
            ScenarioKind::DiurnalWave => "diurnal_wave",
            ScenarioKind::RollingRestart => "rolling_restart",
            ScenarioKind::CoopFailures => "coop_failures",
        }
    }
}

/// A fully specified, reproducible scenario run. Two `Scenario` values
/// with equal fields produce byte-identical results.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The story.
    pub kind: ScenarioKind,
    /// Master seed; dataset shape, client walks, and jitter all derive
    /// from it.
    pub seed: u64,
    /// Switch fabric model.
    pub net_model: NetModel,
    /// Cluster size (server 0 is the home and is never faulted).
    pub n_servers: usize,
    /// Client population.
    pub n_clients: usize,
    /// Virtual run length, ms. Fault and load phases scale with it.
    pub duration_ms: u64,
}

impl Scenario {
    /// Paper-scale defaults: what the `scenarios` harness runs in release
    /// mode for EXPERIMENTS.md.
    pub fn full(kind: ScenarioKind, seed: u64) -> Self {
        let (n_servers, n_clients, duration_ms) = match kind {
            ScenarioKind::FlashCrowd => (4, 64, 180_000),
            ScenarioKind::DiurnalWave => (4, 64, 240_000),
            ScenarioKind::RollingRestart => (4, 32, 300_000),
            ScenarioKind::CoopFailures => (5, 48, 240_000),
        };
        Scenario {
            kind,
            seed,
            net_model: NetModel::default(),
            n_servers,
            n_clients,
            duration_ms,
        }
    }

    /// CI-scale variant: same phases, shrunk population and duration, so
    /// the determinism and invariant suites stay affordable in debug
    /// builds. Phase boundaries are fractions of `duration_ms`, so the
    /// story is the same — just shorter.
    pub fn quick(kind: ScenarioKind, seed: u64) -> Self {
        let (n_servers, n_clients, duration_ms) = match kind {
            ScenarioKind::FlashCrowd => (3, 12, 60_000),
            ScenarioKind::DiurnalWave => (3, 12, 60_000),
            ScenarioKind::RollingRestart => (3, 10, 75_000),
            ScenarioKind::CoopFailures => (4, 12, 60_000),
        };
        Scenario {
            kind,
            seed,
            net_model: NetModel::default(),
            n_servers,
            n_clients,
            duration_ms,
        }
    }

    /// Same scenario under a different switch model.
    pub fn with_net_model(mut self, m: NetModel) -> Self {
        self.net_model = m;
        self
    }

    /// When the flash crowd's surge (or this scenario's main disturbance)
    /// begins, ms.
    pub fn phase_ms(&self) -> u64 {
        match self.kind {
            ScenarioKind::FlashCrowd => self.duration_ms / 3,
            ScenarioKind::DiurnalWave => self.duration_ms / 2,
            ScenarioKind::RollingRestart => self.duration_ms / 5,
            ScenarioKind::CoopFailures => self.duration_ms / 2,
        }
    }

    /// The simulation configuration this scenario expands to.
    pub fn config(&self) -> SimConfig {
        let dataset = match self.kind {
            ScenarioKind::FlashCrowd | ScenarioKind::CoopFailures => Dataset::sblog(self.seed),
            ScenarioKind::DiurnalWave | ScenarioKind::RollingRestart => Dataset::lod(self.seed),
        };
        // 10x-accelerated control plane: migration steady state (and,
        // for the fault scenarios, dead-peer detection at ~3 pinger
        // periods ≈ 6 s) arrives well inside the run.
        let mut cfg = SimConfig::paper(dataset, self.n_servers, self.n_clients).accelerate(10);
        cfg.duration_ms = self.duration_ms;
        cfg.seed = self.seed;
        cfg.net_model = self.net_model;
        match self.kind {
            ScenarioKind::FlashCrowd => {
                // A quarter of the population browses from t=0; the rest
                // all arrive at the surge and enter through the front page
                // (whose detail pages all embed the hot JPEG).
                let surge = self.phase_ms();
                let early = (self.n_clients / 4).max(1);
                cfg.client_starts = Some(
                    (0..self.n_clients)
                        .map(|i| {
                            if i < early {
                                i as u64 * 1_000 / early as u64
                            } else {
                                surge
                            }
                        })
                        .collect(),
                );
                cfg.hot_entry = Some(HotEntry {
                    from_ms: surge,
                    entry: 0,
                    prob: 1.0,
                });
            }
            ScenarioKind::DiurnalWave => {
                // Arrivals spread over the first half; retirements over
                // the second, first-in first-out.
                let n = self.n_clients as u64;
                let half = self.duration_ms / 2;
                cfg.client_starts = Some((0..n).map(|i| i * half / n).collect());
                cfg.client_stops = Some((0..n).map(|i| half + (i + 1) * half / n).collect());
            }
            ScenarioKind::RollingRestart | ScenarioKind::CoopFailures => {}
        }
        cfg
    }

    /// Crash schedule `(t_ms, server)`. Server 0 (the home, holding the
    /// originals) is never faulted.
    pub fn crashes(&self) -> Vec<(u64, usize)> {
        match self.kind {
            ScenarioKind::RollingRestart => (1..self.n_servers)
                .map(|s| {
                    (
                        self.restart_spacing_ms() * (s as u64 - 1) + self.phase_ms(),
                        s,
                    )
                })
                .collect(),
            ScenarioKind::CoopFailures => {
                // The top half of the co-ops die together at mid-run.
                let coops = self.n_servers - 1;
                let dead = coops.div_ceil(2);
                let t = self.phase_ms();
                (self.n_servers - dead..self.n_servers)
                    .map(|s| (t, s))
                    .collect()
            }
            _ => Vec::new(),
        }
    }

    /// Cold-restart schedule `(t_ms, server)` pairing the rolling
    /// restart's crashes; each server stays down for half a spacing —
    /// comfortably past the ~3-pinger-period dead-peer detection, so the
    /// group really does revoke and re-admit it.
    pub fn restarts(&self) -> Vec<(u64, usize)> {
        match self.kind {
            ScenarioKind::RollingRestart => self
                .crashes()
                .into_iter()
                .map(|(t, s)| (t + self.restart_spacing_ms() / 2, s))
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Gap between successive rolling-restart crashes, ms.
    fn restart_spacing_ms(&self) -> u64 {
        let victims = (self.n_servers - 1).max(1) as u64;
        self.duration_ms * 3 / 5 / victims
    }

    /// Build the cluster (faults scheduled) without running it.
    pub fn build(&self) -> SimCluster {
        SimCluster::with_crashes(self.config(), self.crashes())
            .with_restart_schedule(self.restarts())
    }

    /// Run to completion, with the quiesce-time ownership audit.
    pub fn run(&self) -> (SimResult, OwnershipAudit) {
        self.build().run_audited()
    }
}

/// Smallest delay after the last scheduled restart before the run ends,
/// µs — diagnostic guard used by tests to confirm a scenario leaves room
/// for reconvergence.
pub fn tail_after_last_restart_us(s: &Scenario) -> SimTime {
    let last = s
        .restarts()
        .into_iter()
        .chain(s.crashes())
        .map(|(t, _)| t)
        .max()
        .unwrap_or(0);
    (s.duration_ms.saturating_sub(last)) * 1_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_pure_functions_of_the_scenario() {
        for kind in ScenarioKind::all() {
            let a = Scenario::quick(kind, 9);
            let b = Scenario::quick(kind, 9);
            assert_eq!(a.crashes(), b.crashes(), "{}", kind.name());
            assert_eq!(a.restarts(), b.restarts(), "{}", kind.name());
        }
    }

    #[test]
    fn home_is_never_faulted() {
        for kind in ScenarioKind::all() {
            for scale in [Scenario::quick(kind, 1), Scenario::full(kind, 1)] {
                assert!(
                    scale.crashes().iter().all(|&(_, s)| s != 0),
                    "{} crashes the home",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn rolling_restart_leaves_reconvergence_tail() {
        for s in [
            Scenario::quick(ScenarioKind::RollingRestart, 1),
            Scenario::full(ScenarioKind::RollingRestart, 1),
        ] {
            let cfg = s.config();
            // Down-time exceeds detection (3 pinger periods)…
            let detection_us = 3 * cfg.server_config.pinger_interval_ms * 1_000;
            let down_us = s.restart_spacing_ms() / 2 * 1_000;
            assert!(
                down_us > detection_us,
                "down {down_us} vs detect {detection_us}"
            );
            // …and the run outlives the last restart by several pinger
            // periods, so GLTs can reconverge before the audit.
            assert!(tail_after_last_restart_us(&s) > 2 * detection_us);
        }
    }

    #[test]
    fn coop_failures_kill_half_the_coops_at_once() {
        let s = Scenario::full(ScenarioKind::CoopFailures, 3);
        let crashes = s.crashes();
        assert_eq!(crashes.len(), (s.n_servers - 1).div_ceil(2));
        assert!(crashes.iter().all(|&(t, _)| t == s.phase_ms()));
    }

    #[test]
    fn flash_crowd_shapes_arrivals() {
        let s = Scenario::quick(ScenarioKind::FlashCrowd, 5);
        let cfg = s.config();
        let starts = cfg.client_starts.expect("flash crowd shapes arrivals");
        assert_eq!(starts.len(), s.n_clients);
        let surge = s.phase_ms();
        assert!(starts.iter().filter(|&&t| t == surge).count() >= s.n_clients / 2);
        assert!(starts.iter().any(|&t| t < surge));
        assert_eq!(cfg.hot_entry.as_ref().map(|h| h.from_ms), Some(surge));
    }
}
