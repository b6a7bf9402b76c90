//! Metric collection and reduction — the CPS/BPS measures of §5.3 —
//! plus the merged engine event trace for causal analysis.

use crate::event::{Event, Origin};
use dcws_cache::CacheStats;
use dcws_core::{EventRecord, ReadPathStats};
use std::io::Write;
use std::path::Path;

/// Raw cluster counters, monotonic.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Successful (200) client-side completions.
    pub completed: u64,
    /// Body bytes delivered to clients in 200 responses.
    pub bytes: u64,
    /// 503 drops observed by clients.
    pub drops: u64,
    /// 301 redirects followed by clients.
    pub redirects: u64,
    /// Connection failures (crashed server) observed by clients.
    pub failures: u64,
    /// Sessions completed.
    pub sessions: u64,
}

/// How many events of each kind the run loop handled: the simulator's
/// own decomposition, to set beside wall time when asking where a run's
/// time went (`examples/probe.rs` prints it). Deterministic for a given
/// configuration, like everything else in a [`SimResult`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Requests reaching a server's front end (client GETs, pulls,
    /// validations, pings, pushes).
    pub request_arrive: u64,
    /// Server CPU completions.
    pub service_done: u64,
    /// Responses or failures delivered to a client.
    pub client_deliver: u64,
    /// Responses or failures delivered to a server (pull, validation,
    /// ping and push answers).
    pub server_deliver: u64,
    /// Per-server control-plane ticks.
    pub server_tick: u64,
    /// Client wake-ups (session starts, post-overhead, back-off expiry).
    pub client_wake: u64,
    /// Everything else: samples, switch releases, replay fires, restarts.
    pub other: u64,
}

impl EventCounts {
    /// Count one handled event under its kind.
    pub(crate) fn record(&mut self, ev: &Event) {
        *match ev {
            Event::RequestArrive { .. } => &mut self.request_arrive,
            Event::ServiceDone { .. } => &mut self.service_done,
            Event::Deliver {
                origin: Origin::Client { .. },
                ..
            } => &mut self.client_deliver,
            Event::Deliver { .. } => &mut self.server_deliver,
            Event::ServerTick { .. } => &mut self.server_tick,
            Event::ClientWake { .. } => &mut self.client_wake,
            Event::Sample
            | Event::ReplayFire { .. }
            | Event::SwitchRelease
            | Event::ServerRestart { .. } => &mut self.other,
        } += 1;
    }

    /// All events handled — [`SimResult::events`].
    pub fn total(&self) -> u64 {
        self.request_arrive
            + self.service_done
            + self.client_deliver
            + self.server_deliver
            + self.server_tick
            + self.client_wake
            + self.other
    }
}

/// Log₂-bucketed client-latency histogram (µs buckets).
///
/// Fixed-size and allocation-free, so the hot completion path can record
/// into it at 10⁶-session scale, and structurally comparable, so two runs
/// of the same seed must produce identical histograms (the determinism
/// suite compares them). Bucket `k` holds latencies in `[2^k, 2^{k+1})` µs;
/// the last bucket absorbs everything ≥ 2^31 µs (~36 min — beyond any
/// simulated fetch).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyHist {
    buckets: [u64; 32],
    count: u64,
}

impl LatencyHist {
    /// Record one latency in microseconds.
    pub fn record_us(&mut self, us: u64) {
        let idx = (63 - us.max(1).leading_zeros() as usize).min(31);
        self.buckets[idx] += 1;
        self.count += 1;
    }

    /// Number of recorded latencies.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile (`0 < q <= 1`) as a bucket upper bound, µs.
    /// Returns 0 when nothing was recorded.
    pub fn percentile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return (1u64 << (k + 1)) - 1;
            }
        }
        (1u64 << 32) - 1
    }

    /// Median latency, ms (bucket upper bound).
    pub fn p50_ms(&self) -> f64 {
        self.percentile_us(0.50) as f64 / 1_000.0
    }

    /// 99th-percentile latency, ms (bucket upper bound).
    pub fn p99_ms(&self) -> f64 {
        self.percentile_us(0.99) as f64 / 1_000.0
    }
}

/// One sampling point (the paper samples every 10 s).
#[derive(Debug, Clone)]
pub struct Sample {
    /// Sample time, ms.
    pub t_ms: u64,
    /// Connections per second over the interval (successful transfers).
    pub cps: f64,
    /// Bytes per second over the interval.
    pub bps: f64,
    /// Drops per second over the interval.
    pub drops_per_sec: f64,
    /// Redirects per second over the interval.
    pub redirects_per_sec: f64,
    /// Cumulative migrations across all servers at sample time.
    pub migrations_total: u64,
    /// Per-server CPS over the interval (engine-served, home + co-op).
    pub per_server_cps: Vec<f64>,
}

/// What the control plane cost a run, summed across servers: pings sent
/// (§4.5), and what became of the load reports that rode on every
/// inter-server message (§3.3). See the `EngineStats` fields of the same
/// names.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GossipCounts {
    /// Artificial pinger transfers emitted.
    pub pings_sent: u64,
    /// Received reports the GLTs accepted.
    pub reports_merged: u64,
    /// Received reports dropped before parsing (own row, or not newer).
    pub reports_skipped: u64,
    /// Reports formatted for sending (the rest were copies).
    pub reports_encoded: u64,
}

/// Result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Time series, one entry per sample interval.
    pub samples: Vec<Sample>,
    /// Final cumulative counters.
    pub totals: Counters,
    /// Total regenerations across servers (overhead accounting, §5.3).
    pub regenerations: u64,
    /// Total lazy pulls the homes answered (§4.2). Not part of
    /// [`Self::digest`].
    pub pulls: u64,
    /// Total migrations across servers.
    pub migrations: u64,
    /// Total revocations across servers.
    pub revocations: u64,
    /// Control-plane totals across servers. Not part of [`Self::digest`]:
    /// they describe how the gossip was processed, not what it decided.
    pub gossip: GossipCounts,
    /// Every server's store ([`dcws_core::ServeTable`]), both roles,
    /// merged, for the budget-vs-hit-ratio experiments.
    pub cache: CacheStats,
    /// The home role's share of the stores alone
    /// ([`dcws_core::ServerEngine::regen_cache`]), merged.
    pub store: CacheStats,
    /// Each server's read path at the end of the run, by server index:
    /// what it answered without the engine, and what it declined.
    pub read_path: Vec<ReadPathStats>,
    /// Mean client-observed fetch latency over completed (200) fetches,
    /// ms — redirect hops and lazy-pull waits included.
    pub mean_response_ms: f64,
    /// Full latency distribution behind [`SimResult::mean_response_ms`]
    /// (same population: completed fetches, end to end).
    pub latency: LatencyHist,
    /// Number of discrete events the run processed — the denominator of
    /// the scale headline (events/sec = `events` / wall-clock).
    pub events: u64,
    /// [`Self::events`] by kind. Not part of [`Self::digest`], which
    /// already pins their sum.
    pub event_counts: EventCounts,
    /// Peak number of concurrent switch flows observed (always 0 under
    /// [`crate::NetModel::ConstantBandwidth`], which serializes).
    pub switch_peak_flows: u64,
    /// Most events pending in the queue at once — what the queue's
    /// presize has to cover for the run loop never to grow it. Not part
    /// of [`Self::digest`].
    pub queue_peak: u64,
    /// Run length, ms.
    pub duration_ms: u64,
    /// The access log recorded during the run, when
    /// [`crate::SimConfig::record_trace`] was set.
    pub trace: Option<crate::trace::Trace>,
    /// Every [`EngineEvent`](dcws_core::EngineEvent) emitted by every
    /// server during the run, tagged with the server index and merged in
    /// causal order (engine time, then server, then per-engine sequence).
    /// Lets a single dump answer "which migration caused that CPS dip" —
    /// the cross-server causality the per-figure CSVs cannot show.
    pub engine_events: Vec<(usize, EventRecord)>,
}

impl SimResult {
    /// Mean CPS over the last half of the run (steady state after the
    /// cold-start warm-up).
    pub fn steady_cps(&self) -> f64 {
        self.mean_tail(|s| s.cps)
    }

    /// Mean BPS over the last half of the run.
    pub fn steady_bps(&self) -> f64 {
        self.mean_tail(|s| s.bps)
    }

    /// Mean drops/s over the last half of the run.
    pub fn steady_drop_rate(&self) -> f64 {
        self.mean_tail(|s| s.drops_per_sec)
    }

    fn mean_tail(&self, f: impl Fn(&Sample) -> f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let tail = &self.samples[self.samples.len() / 2..];
        tail.iter().map(f).sum::<f64>() / tail.len() as f64
    }

    /// Write the merged engine event trace as CSV, one line per event:
    /// `t_ms,server,seq,kind,detail`. Event details are comma-free by
    /// construction (see `dcws_core::events`), so the format needs no
    /// quoting and loads into any spreadsheet or plotting tool next to
    /// the per-figure CSVs.
    pub fn save_event_trace(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "t_ms,server,seq,kind,detail")?;
        for (server, r) in &self.engine_events {
            writeln!(
                f,
                "{},{},{},{},{}",
                r.t_ms,
                server,
                r.seq,
                r.event.kind(),
                r.event.detail()
            )?;
        }
        f.flush()
    }

    /// A compact, integer-only digest of the run for determinism checks:
    /// two runs of the same `(seed, scenario, net model)` must produce
    /// byte-identical digests. Floats are deliberately excluded so the
    /// digest is stable under formatting differences; the event-trace CSV
    /// comparison covers the fine-grained ordering.
    pub fn digest(&self) -> String {
        format!(
            "completed={} bytes={} drops={} redirects={} failures={} sessions={} \
             migrations={} revocations={} regenerations={} events={} samples={} \
             latencies={} p99_us={} engine_events={}",
            self.totals.completed,
            self.totals.bytes,
            self.totals.drops,
            self.totals.redirects,
            self.totals.failures,
            self.totals.sessions,
            self.migrations,
            self.revocations,
            self.regenerations,
            self.events,
            self.samples.len(),
            self.latency.count(),
            self.latency.percentile_us(0.99),
            self.engine_events.len(),
        )
    }

    /// Coefficient of variation of per-server load in the final sample —
    /// the load-balance quality measure (0 = perfectly even).
    pub fn final_load_imbalance(&self) -> f64 {
        let Some(last) = self.samples.last() else {
            return 0.0;
        };
        let v = &last.per_server_cps;
        if v.is_empty() {
            return 0.0;
        }
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / v.len() as f64;
        var.sqrt() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: u64, cps: f64) -> Sample {
        Sample {
            t_ms: t,
            cps,
            bps: cps * 1000.0,
            drops_per_sec: 0.0,
            redirects_per_sec: 0.0,
            migrations_total: 0,
            per_server_cps: vec![],
        }
    }

    fn result(cps: &[f64]) -> SimResult {
        SimResult {
            samples: cps
                .iter()
                .enumerate()
                .map(|(i, &c)| sample(i as u64 * 10_000, c))
                .collect(),
            totals: Counters::default(),
            regenerations: 0,
            pulls: 0,
            migrations: 0,
            revocations: 0,
            gossip: GossipCounts::default(),
            cache: CacheStats::default(),
            store: CacheStats::default(),
            read_path: Vec::new(),
            mean_response_ms: 0.0,
            latency: LatencyHist::default(),
            events: 0,
            event_counts: EventCounts::default(),
            switch_peak_flows: 0,
            queue_peak: 0,
            duration_ms: cps.len() as u64 * 10_000,
            trace: None,
            engine_events: Vec::new(),
        }
    }

    #[test]
    fn peak_and_steady() {
        let r = result(&[10.0, 50.0, 100.0, 90.0, 95.0, 100.0]);
        assert!((r.steady_cps() - 95.0).abs() < 1e-9);
    }

    #[test]
    fn empty_result_is_zero() {
        let r = result(&[]);
        assert_eq!(r.steady_cps(), 0.0);
        assert_eq!(r.final_load_imbalance(), 0.0);
    }

    #[test]
    fn event_trace_csv_round_trips_lines() {
        use dcws_core::EngineEvent;
        use dcws_graph::ServerId;
        let mut r = result(&[1.0]);
        r.engine_events = vec![
            (
                0,
                EventRecord {
                    seq: 0,
                    t_ms: 1_000,
                    event: EngineEvent::MigrationStarted {
                        doc: "/hot.html".into(),
                        coop: ServerId::new("s1:80"),
                        self_load: 40.0,
                        coop_load: 2.0,
                    },
                },
            ),
            (
                1,
                EventRecord {
                    seq: 0,
                    t_ms: 2_500,
                    event: EngineEvent::PullServed {
                        doc: "/hot.html".into(),
                        coop: Some(ServerId::new("s0:80")),
                    },
                },
            ),
        ];
        let path = std::env::temp_dir().join(format!("dcws-events-{}.csv", std::process::id()));
        r.save_event_trace(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "t_ms,server,seq,kind,detail");
        assert_eq!(lines.len(), 3);
        // Exactly five comma-separated columns per line: details are
        // comma-free by construction.
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), 5, "bad line: {line}");
        }
        assert!(lines[1].starts_with("1000,0,0,migration_started,"));
        assert!(lines[2].starts_with("2500,1,0,pull_served,"));
    }

    #[test]
    fn latency_hist_percentiles() {
        let mut h = LatencyHist::default();
        assert_eq!(h.percentile_us(0.99), 0);
        // 99 fast fetches (~1 ms) and one slow outlier (~1 s).
        for _ in 0..99 {
            h.record_us(1_000);
        }
        h.record_us(1_000_000);
        assert_eq!(h.count(), 100);
        // p50 lands in the 1000 µs bucket [512, 1024).
        assert_eq!(h.percentile_us(0.50), 1_023);
        // p99 still in the fast bucket; p100 reaches the outlier's bucket.
        assert_eq!(h.percentile_us(0.99), 1_023);
        assert!(h.percentile_us(1.0) >= 1_000_000);
        assert!(h.p99_ms() < h.percentile_us(1.0) as f64 / 1_000.0);
    }

    #[test]
    fn digest_is_stable_and_distinguishes() {
        let a = result(&[1.0, 2.0]);
        let b = result(&[1.0, 2.0]);
        assert_eq!(a.digest(), b.digest());
        let mut c = result(&[1.0, 2.0]);
        c.totals.completed = 7;
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn imbalance_zero_when_even() {
        let mut r = result(&[1.0]);
        r.samples[0].per_server_cps = vec![5.0, 5.0, 5.0];
        assert!(r.final_load_imbalance() < 1e-12);
        r.samples[0].per_server_cps = vec![10.0, 0.0];
        assert!(r.final_load_imbalance() > 0.9);
    }
}
