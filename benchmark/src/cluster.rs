//! Building the system under test — real `DcwsServer`s on 127.0.0.1 —
//! and reading its live counters from outside, through public accessors
//! only.

use crate::client::Client;
use dcws_cache::CacheStats;
use dcws_core::{DiskStore, DocStore, EngineStats, MemStore, ServerConfig, ServerEngine};
use dcws_graph::{DocKind, ServerId};
use dcws_net::{DcwsServer, HistogramSnapshot, NetConfig};
use dcws_workloads::{materialize::materialize, Dataset, PageKind};
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

/// Shape of one workload's server group.
#[derive(Debug, Clone)]
pub struct Layout {
    /// Server 0 is home to every document; the rest start empty.
    pub servers: usize,
    /// Table-1 timers divided by 100, so migration warm-up, validation
    /// and re-migration all happen within a run of tens of seconds.
    pub accelerated: bool,
    /// Keep the originals in a `DiskStore` under this directory.
    pub disk_root: Option<PathBuf>,
}

pub struct Cluster {
    pub servers: Vec<DcwsServer>,
    pub addrs: Vec<SocketAddr>,
    pub config: ServerConfig,
}

pub fn doc_kind(kind: PageKind) -> DocKind {
    match kind {
        PageKind::Html => DocKind::Html,
        PageKind::Image => DocKind::Image,
    }
}

pub fn server_config(accelerated: bool) -> ServerConfig {
    let paper = ServerConfig::paper_defaults();
    if !accelerated {
        return paper;
    }
    ServerConfig {
        stat_interval_ms: paper.stat_interval_ms / 100,
        pinger_interval_ms: paper.pinger_interval_ms / 100,
        validation_interval_ms: paper.validation_interval_ms / 100,
        remigration_interval_ms: paper.remigration_interval_ms / 100,
        coop_migration_interval_ms: paper.coop_migration_interval_ms / 100,
        // A 100 ms statistics window sees a hundredth of the hits a 10 s
        // one does; like `SimConfig::accelerate`, halve Algorithm 1's
        // threshold rather than scale it to nothing.
        selection_threshold: paper.selection_threshold / 2,
        ..paper
    }
}

fn control_interval(accelerated: bool) -> Duration {
    // dcws-serve drives the timers once a second; a tenth of T_st when
    // the timers are accelerated.
    Duration::from_millis(if accelerated { 10 } else { 1_000 })
}

/// Publish `dataset` on a fresh engine, the way `dcws-serve` scans a
/// docroot at start-up.
pub fn home_engine(
    id: &ServerId,
    config: &ServerConfig,
    store: Box<dyn DocStore>,
    dataset: &Dataset,
) -> ServerEngine {
    let mut engine = ServerEngine::new(id.clone(), config.clone(), store);
    for d in &dataset.docs {
        engine.publish(&d.name, materialize(d), doc_kind(d.kind), d.entry_point);
    }
    engine
}

impl Cluster {
    /// Materialise and publish `dataset` on server 0 and spawn the group.
    pub fn build(layout: &Layout, dataset: &Dataset) -> io::Result<Cluster> {
        // An engine's identity must be its reachable address, so reserve
        // the ports first (bind, note, release) as the TCP tests do.
        let reserved: Vec<std::net::TcpListener> = (0..layout.servers)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
            .collect::<io::Result<_>>()?;
        let addrs: Vec<SocketAddr> = reserved
            .iter()
            .map(|l| l.local_addr())
            .collect::<io::Result<_>>()?;
        drop(reserved);
        let ids: Vec<ServerId> = addrs.iter().map(|a| ServerId::new(a.to_string())).collect();

        let config = server_config(layout.accelerated);
        let control = control_interval(layout.accelerated);
        let mut servers = Vec::with_capacity(layout.servers);
        for (i, id) in ids.iter().enumerate() {
            let store: Box<dyn DocStore> = match (&layout.disk_root, i) {
                (Some(root), 0) => {
                    let _ = std::fs::remove_dir_all(root);
                    Box::new(DiskStore::open(root)?)
                }
                _ => Box::new(MemStore::new()),
            };
            let mut engine = if i == 0 {
                home_engine(id, &config, store, dataset)
            } else {
                ServerEngine::new(id.clone(), config.clone(), store)
            };
            for peer in ids.iter().filter(|p| *p != id) {
                engine.add_peer(peer.clone());
            }
            servers.push(DcwsServer::spawn_with(
                engine,
                &addrs[i].to_string(),
                NetConfig::new(control),
            )?);
        }
        Ok(Cluster {
            servers,
            addrs,
            config,
        })
    }

    pub fn shutdown(self) {
        for s in self.servers {
            s.shutdown();
        }
    }

    /// Reactor shards of each server.
    pub fn shards(&self) -> Vec<usize> {
        self.servers
            .iter()
            .map(|s| shard_registered(s).len())
            .collect()
    }

    /// Dial every client's connection to every server so that client `c`
    /// lands on reactor shard `c mod shards` of each.
    ///
    /// `SO_REUSEPORT` picks the shard by hashing the 4-tuple, so with as
    /// many connections as shards an unlucky draw leaves one shard idle
    /// and another with two, and throughput is bimodal from run to run.
    /// Redial (a new source port, a new hash) until the shard is the
    /// wanted one. Together with [`pin_reactors`] this puts generator
    /// thread `c` and the shard that serves it on the same processor.
    pub fn place(&self, clients: &mut [Client]) -> io::Result<()> {
        for (s, server) in self.servers.iter().enumerate() {
            let mut before = wait_registered(server, 0)?;
            let shards = before.len().max(1);
            for (c, client) in clients.iter_mut().enumerate() {
                let mut tries = 0;
                loop {
                    client.dial(s)?;
                    let after = wait_registered(server, c as u64 + 1)?;
                    if after[c % shards] > before[c % shards] {
                        before = after;
                        break;
                    }
                    tries += 1;
                    if tries > 64 * shards {
                        return Err(io::Error::other("connection placement did not converge"));
                    }
                }
            }
        }
        Ok(())
    }

    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for s in &self.servers {
            let (engine, regen, coop, fallbacks) = {
                let e = s.engine().lock();
                (
                    e.stats(),
                    e.regen_cache().stats(),
                    e.coop_cache().stats(),
                    e.read_path().snapshot().fallbacks,
                )
            };
            c.per_server.push(engine);
            c.cache = c.cache.merged(&regen).merged(&coop);
            c.readpath_fallbacks += fallbacks;
            let r = s.reactor_stats();
            c.inline_served += r.inline_served.load(Relaxed);
            c.spill_jobs += r.spillover_jobs.load(Relaxed);
            c.rejected_503 += r.spillover_rejected.load(Relaxed);
            c.batches += r.batches.load(Relaxed);
            c.batch_events += r.batch_events.load(Relaxed);
            c.accepted += r.accepted.load(Relaxed);
            c.accept_errors += r.accept_errors.load(Relaxed);
            c.writev_calls += r.writev_calls.load(Relaxed);
            c.writev_segments += r.writev_segments.load(Relaxed);
            c.body_copies += r.body_copies.load(Relaxed);
            c.queue_wait.add(&s.metrics().queue_wait.snapshot());
            c.service.add(&s.metrics().service_time.snapshot());
            let io = s.transport().snapshot();
            c.pull_attempts += io.attempts;
            c.retries += io.retries;
            c.stale_reuse_retries += io.stale_retries;
            let pool = s.transport().pool().snapshot();
            c.pool_hits += pool.hits;
            c.pool_dials += pool.dials;
        }
        c
    }

    /// Mean of the servers' per-peer ping RTT averages, µs (0 with no
    /// peers). Only `/dcws/status` exposes it.
    pub fn peer_rtt_us(&self) -> f64 {
        let mut rtts = Vec::new();
        for s in &self.servers {
            let status = s.status_json();
            if let Some(dcws_core::Json::Obj(peers)) =
                status.get("transport").and_then(|t| t.get("peer_rtt_ms"))
            {
                rtts.extend(peers.iter().filter_map(|(_, v)| v.as_f64()));
            }
        }
        if rtts.is_empty() {
            0.0
        } else {
            rtts.iter().sum::<f64>() / rtts.len() as f64 * 1000.0
        }
    }
}

/// Registered client connections per reactor shard, from `/dcws/status`
/// (the only public view of the per-shard counters).
fn shard_registered(server: &DcwsServer) -> Vec<u64> {
    server
        .status_json()
        .get("reactor")
        .and_then(|r| r.get("shards"))
        .and_then(|s| s.as_arr())
        .map(|shards| {
            shards
                .iter()
                .map(|s| {
                    s.get("registered_conns")
                        .and_then(|v| v.as_u64())
                        .unwrap_or(0)
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Wait until the server shows `expected` registered connections in two
/// readings in a row (accepting is asynchronous, and a peer's ping may be
/// passing through at the moment of one reading).
fn wait_registered(server: &DcwsServer, expected: u64) -> io::Result<Vec<u64>> {
    let start = Instant::now();
    let mut last = None;
    loop {
        let counts = shard_registered(server);
        if counts.iter().sum::<u64>() == expected {
            if last.as_ref() == Some(&counts) {
                return Ok(counts);
            }
            last = Some(counts);
        } else {
            last = None;
            if start.elapsed() > Duration::from_secs(2) {
                return Err(io::Error::other(format!(
                    "server registered {counts:?} connections, expected {expected}"
                )));
            }
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Sum of servers' latency histograms: sample counts per power-of-two
/// microsecond bucket, as `dcws-net` keeps them.
#[derive(Debug, Clone, Default)]
pub struct Hist {
    buckets: Vec<u64>,
}

impl Hist {
    fn add(&mut self, snap: &HistogramSnapshot) {
        if self.buckets.len() < snap.buckets.len() {
            self.buckets.resize(snap.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&snap.buckets) {
            *a += b;
        }
    }

    fn since(&self, earlier: &Hist) -> Hist {
        Hist {
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .map(|(i, c)| c - earlier.buckets.get(i).copied().unwrap_or(0))
                .collect(),
        }
    }

    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Upper bound, in µs, of the bucket holding quantile `q` (0 when
    /// empty). The resolution is a factor of two; it is the servers'.
    pub fn quantile_us(&self, q: f64) -> f64 {
        let rank = ((q * self.count() as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if c > 0 && seen >= rank {
                return (1u64 << (i + 1)) as f64;
            }
        }
        0.0
    }
}

/// Every live counter the benchmark reports, summed over the servers.
/// Counters only grow, so a phase is the difference of two snapshots.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub per_server: Vec<EngineStats>,
    pub cache: CacheStats,
    pub readpath_fallbacks: u64,
    pub inline_served: u64,
    pub spill_jobs: u64,
    pub rejected_503: u64,
    pub batches: u64,
    pub batch_events: u64,
    pub accepted: u64,
    pub accept_errors: u64,
    pub writev_calls: u64,
    pub writev_segments: u64,
    pub body_copies: u64,
    pub queue_wait: Hist,
    pub service: Hist,
    pub pull_attempts: u64,
    pub retries: u64,
    pub stale_reuse_retries: u64,
    pub pool_hits: u64,
    pub pool_dials: u64,
}

impl Counters {
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            per_server: self
                .per_server
                .iter()
                .zip(&earlier.per_server)
                .map(|(a, b)| a.delta(b))
                .collect(),
            cache: CacheStats {
                hits: self.cache.hits - earlier.cache.hits,
                misses: self.cache.misses - earlier.cache.misses,
                evictions: self.cache.evictions - earlier.cache.evictions,
                admission_rejects: self.cache.admission_rejects - earlier.cache.admission_rejects,
                coalesced_waits: self.cache.coalesced_waits - earlier.cache.coalesced_waits,
                ..self.cache
            },
            readpath_fallbacks: self.readpath_fallbacks - earlier.readpath_fallbacks,
            inline_served: self.inline_served - earlier.inline_served,
            spill_jobs: self.spill_jobs - earlier.spill_jobs,
            rejected_503: self.rejected_503 - earlier.rejected_503,
            batches: self.batches - earlier.batches,
            batch_events: self.batch_events - earlier.batch_events,
            accepted: self.accepted - earlier.accepted,
            accept_errors: self.accept_errors - earlier.accept_errors,
            writev_calls: self.writev_calls - earlier.writev_calls,
            writev_segments: self.writev_segments - earlier.writev_segments,
            body_copies: self.body_copies - earlier.body_copies,
            queue_wait: self.queue_wait.since(&earlier.queue_wait),
            service: self.service.since(&earlier.service),
            pull_attempts: self.pull_attempts - earlier.pull_attempts,
            retries: self.retries - earlier.retries,
            stale_reuse_retries: self.stale_reuse_retries - earlier.stale_reuse_retries,
            pool_hits: self.pool_hits - earlier.pool_hits,
            pool_dials: self.pool_dials - earlier.pool_dials,
        }
    }

    /// The engine counters the benchmark reports, summed over servers.
    pub fn engine(&self) -> EngineStats {
        let mut t = EngineStats::default();
        for s in &self.per_server {
            t.requests += s.requests;
            t.served_home += s.served_home;
            t.served_coop += s.served_coop;
            t.redirects += s.redirects;
            t.pulls_served += s.pulls_served;
            t.validations_refreshed += s.validations_refreshed;
            t.regenerations += s.regenerations;
            t.migrations += s.migrations;
            t.revocations += s.revocations;
            t.remigrations += s.remigrations;
            t.stale_serves += s.stale_serves;
            t.streamed_serves += s.streamed_serves;
        }
        t
    }
}
