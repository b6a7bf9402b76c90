//! The simulated cluster: servers with CPU/NIC/backlog models, Algorithm-2
//! clients (driven by the adapter in `client.rs`), and the event loop that
//! binds them.
//!
//! Every server hosts a real [`ServerEngine`] — the same code that runs on
//! TCP in `dcws-net` — so migrations, hyperlink rewrites, redirects,
//! piggybacked gossip, pulls, validations, and pings all actually happen;
//! it answers in the order the TCP reactor does (socket-queue `503`, then
//! the engine's [`ReadPath`](dcws_core::ReadPath), then `handle_request`
//! for what the read path declines); and every client is a real
//! [`dcws_net::walker::Walker`], the one `dcws-walk` drives over TCP. Only
//! wire time and CPU time are modeled.
//!
//! # Scale-out structure
//!
//! Per-server and per-client state live in flat `Vec` slabs addressed by
//! index; the hot routing path parses the simulator's `s<idx>` host
//! naming directly instead of building `ServerId` keys, so steady-state
//! event handling performs no per-event map allocation (the run loop
//! carries a debug-build micro-assert, armed by `tests/alloc_probe.rs`).
//! The few id-keyed structures left — each server's [`Front`] of requests
//! parked on a pull, the DNS resolver's peer list — are either cold-path
//! or deterministic-ordered (`BTreeMap`), which is what makes crash
//! schedules replay byte-identically.

use crate::client::{ParseCache, SimWalker};
use crate::config::{NetModel, SimConfig};
use crate::event::{Delivery, Event, EventQueue, Incoming, Origin, SimTime};
use crate::metrics::{Counters, EventCounts, GossipCounts, LatencyHist, Sample, SimResult};
use dcws_baselines::{CentralRouter, RoundRobinDns, Strategy};
use dcws_cache::CachedDoc;
use dcws_core::{
    decode_migrate_path, unavailable, Call, EventRecord, Front, MemStore, Outbound, Outcome,
    Served, ServerConfig, ServerEngine, Settled, Step, Waiter,
};
use dcws_graph::{DocKind, ServerId};
use dcws_http::{Method, Request, Response, StatusCode, Url};
use dcws_workloads::{materialize::materialize, PageKind};
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Estimated header bytes per response on the wire (request + response
/// heads + TCP setup/teardown packets).
const WIRE_OVERHEAD_BYTES: usize = 300;

/// A request in a simulated server's socket queue, or parked on a pull.
pub(crate) struct Job {
    msg: Incoming,
    origin: Origin,
    /// The copy its pull settled with: served again, the request takes
    /// the read path as ever, and [`Front::serve_copy`] in the engine's
    /// place. Boxed: every request in a socket queue carries the field.
    copy: Option<Box<CachedDoc>>,
}

impl Waiter for Job {
    fn request(&self) -> Cow<'_, Request> {
        match &self.msg {
            Incoming::ClientGet(url) => Cow::Owned(Request::get(url.path())),
            Incoming::Request(req) => Cow::Borrowed(req),
        }
    }
}

pub(crate) struct ServerSt {
    engine: ServerEngine,
    /// What the engine declines to answer outright — requests parked on a
    /// lazy pull — and the door every reply to this server's calls takes.
    front: Front<Job>,
    /// Socket queue of backlogged requests (L_sq limit applies).
    queue: VecDeque<Job>,
    busy: bool,
    /// The answer being serviced, shipped at `ServiceDone`.
    in_service: Option<(Delivery, Origin)>,
    nic_free_at: SimTime,
    crashed: bool,
}

/// The simulated cluster. Construct with [`SimCluster::new`], then call
/// [`SimCluster::run`] (or use the [`crate::run_sim`] convenience).
pub struct SimCluster {
    pub(crate) cfg: SimConfig,
    pub(crate) queue: EventQueue,
    pub(crate) now: SimTime,
    pub(crate) servers: Vec<ServerSt>,
    pub(crate) clients: Vec<SimWalker>,
    /// Cold-path id→index map (peer lookups, DNS results). The hot client
    /// route parses `s<idx>` hosts directly and never touches this.
    pub(crate) id_to_idx: HashMap<ServerId, usize>,
    /// Index→id slab, for restarts and control-plane targets.
    server_ids: Vec<ServerId>,
    /// The effective per-server engine config (strategy adjustments
    /// applied), kept for cold restarts.
    server_config: ServerConfig,
    pub(crate) entry_urls: Vec<Arc<Url>>,
    pub(crate) dns: Option<RoundRobinDns>,
    router: Option<CentralRouter>,
    /// Router pseudo-server CPU/queue state.
    router_queue: VecDeque<(Incoming, Origin)>,
    router_busy: bool,
    switch_free_at: SimTime,
    /// Active flows under [`NetModel::SharedBandwidth`].
    switch_flows: u64,
    switch_peak_flows: u64,
    /// Most events ever pending at once.
    queue_peak: usize,
    /// The front end's graceful drop (§5.2), serialized once: every 503
    /// is a copy of it by refcount.
    unavailable: Served,
    pub(crate) counters: Counters,
    samples: Vec<Sample>,
    last_counters: Counters,
    last_server_served: Vec<u64>,
    /// Crash schedule (ms, server index) from the config.
    crashes: Vec<(u64, usize)>,
    /// Cold-restart schedule (ms, server index); see
    /// [`SimCluster::with_restart_schedule`].
    restarts: Vec<(u64, usize)>,
    /// The clients' page parses (see [`ParseCache`]).
    pub(crate) parse_cache: ParseCache,
    /// Access log accumulated when `record_trace` is set.
    pub(crate) trace_out: Vec<crate::trace::TraceEvent>,
    /// Engine events drained from every server at each sample point
    /// (so the bounded per-engine ring never overflows between samples),
    /// tagged with the server index.
    engine_events: Vec<(usize, EventRecord)>,
    /// Outstanding open-loop replay fetches: token -> (client, redirects left).
    replay_pending: HashMap<u64, (usize, u32)>,
    replay_next_token: u64,
    /// Sum of end-to-end fetch latencies (200-completed only), µs.
    pub(crate) latency_us_sum: u64,
    /// Log₂-bucketed end-to-end latency distribution (200-completed only).
    pub(crate) latency: LatencyHist,
    /// Events handled by the run loop, by kind.
    event_counts: EventCounts,
}

/// Index used for the router pseudo-server in events.
pub(crate) fn router_idx(n_servers: usize) -> usize {
    n_servers
}

impl SimCluster {
    /// Build a cluster per `cfg`: create engines, distribute the dataset
    /// (server 0 is the home under DCWS; full replication otherwise),
    /// and register peers.
    pub fn new(cfg: SimConfig) -> Self {
        Self::with_crashes(cfg, Vec::new())
    }

    /// [`SimCluster::new`] driven by the same seeded fault vocabulary as
    /// the real transport: every [`Blackout`](dcws_net::Blackout) in
    /// `plan` whose peer names a simulated server (`"s2:80"` or bare
    /// `"2"`; the `"*"` wildcard is ignored) becomes a crash at its
    /// `from_ms`. The simulator models fail-stop servers, so blackouts
    /// do not heal at `until_ms` — use the real-TCP chaos suite for
    /// partition-heal scenarios.
    pub fn with_fault_plan(cfg: SimConfig, plan: &dcws_net::FaultPlan) -> Self {
        let n = cfg.n_servers;
        let mut crashes: Vec<(u64, usize)> = plan
            .blackouts
            .iter()
            .filter_map(|b| {
                let idx = (0..n).find(|i| {
                    b.peer == format!("s{i}:80")
                        || b.peer == format!("s{i}")
                        || b.peer == format!("{i}")
                })?;
                Some((b.from_ms, idx))
            })
            .collect();
        crashes.sort_unstable();
        // Fail-stop: only the first blackout per server matters.
        let mut seen = std::collections::HashSet::new();
        crashes.retain(|&(_, idx)| seen.insert(idx));
        Self::with_crashes(cfg, crashes)
    }

    /// [`SimCluster::new`] plus scheduled server crashes `(t_ms, server)`
    /// for the fault-tolerance experiments.
    pub fn with_crashes(cfg: SimConfig, crashes: Vec<(u64, usize)>) -> Self {
        assert!(cfg.n_servers >= 1, "need at least one server");
        assert!(cfg.n_clients >= 1, "need at least one client");
        let ids: Vec<ServerId> = (0..cfg.n_servers)
            .map(|i| ServerId::new(format!("s{i}:80")))
            .collect();
        // Replicated baselines must not run DCWS migrations on top.
        let mut server_config = cfg.server_config.clone();
        if cfg.strategy.replicated() {
            server_config.min_cps_to_migrate = f64::INFINITY;
        }
        let mut servers: Vec<ServerSt> = ids
            .iter()
            .map(|id| ServerSt {
                engine: ServerEngine::new(
                    id.clone(),
                    server_config.clone(),
                    Box::new(MemStore::new()),
                ),
                front: Front::default(),
                queue: VecDeque::new(),
                busy: false,
                in_service: None,
                nic_free_at: 0,
                crashed: false,
            })
            .collect();

        // Register the peer group on every engine.
        for srv in &mut servers {
            for id in &ids {
                srv.engine.add_peer(id.clone());
            }
        }

        // Distribute the dataset.
        let replicated = cfg.strategy.replicated();
        let targets: Vec<usize> = if replicated {
            (0..servers.len()).collect()
        } else {
            vec![0]
        };
        for &t in &targets {
            for doc in &cfg.dataset.docs {
                let kind = match doc.kind {
                    PageKind::Html => DocKind::Html,
                    PageKind::Image => DocKind::Image,
                };
                servers[t]
                    .engine
                    .publish(&doc.name, materialize(doc), kind, doc.entry_point);
            }
        }

        let id_to_idx: HashMap<ServerId, usize> = ids
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, id)| (id, i))
            .collect();

        // Entry-point URLs always name the home server (server 0); for
        // replicated strategies routing overrides the host anyway.
        let (h, p) = ids[0].host_port();
        let entry_urls: Vec<Arc<Url>> = cfg
            .dataset
            .entry_points()
            .iter()
            .map(|d| Url::absolute(h, p, d.name.clone()).expect("dataset names are valid paths"))
            .map(Arc::new)
            .collect();
        assert!(!entry_urls.is_empty(), "dataset has no entry points");

        let dns = match cfg.strategy {
            Strategy::RoundRobinDns { ttl_ms } => Some(RoundRobinDns::new(ids.clone(), ttl_ms)),
            _ => None,
        };
        let router = match cfg.strategy {
            Strategy::CentralRouter { forward_cpu_us } => {
                Some(CentralRouter::new(ids.clone(), forward_cpu_us))
            }
            _ => None,
        };

        if let Some(starts) = &cfg.client_starts {
            assert_eq!(starts.len(), cfg.n_clients, "client_starts length");
        }
        if let Some(stops) = &cfg.client_stops {
            assert_eq!(stops.len(), cfg.n_clients, "client_stops length");
        }
        if let Some(h) = &cfg.hot_entry {
            assert!((0.0..=1.0).contains(&h.prob), "hot_entry.prob in [0,1]");
        }

        // Each client draws from its own named stream off the master seed,
        // so adding clients (or scenario draws) never perturbs existing ones.
        let clients: Vec<SimWalker> = (0..cfg.n_clients)
            .map(|i| {
                let rng = crate::seed::stream(cfg.seed, "client", i as u64);
                SimWalker::new(cfg.client.clone(), rng)
            })
            .collect();

        let n = servers.len();
        // What a closed-loop run can have pending: per client its image
        // helpers plus one document fetch or wake, per server a tick, a
        // service completion and a response in flight, plus the sampler,
        // crashes and restarts. A hint, not a bound — replay primes the
        // whole trace up front, and a pinger round is quadratic in the
        // group (256 servers: 256 x 255 pings in one burst) — so `push`
        // still grows the queue when it must.
        let queue_cap = cfg.n_clients * (cfg.client.helpers + 1) + 3 * n + 64;
        SimCluster {
            cfg,
            queue: EventQueue::with_capacity(queue_cap),
            now: 0,
            servers,
            clients,
            id_to_idx,
            server_ids: ids,
            server_config,
            entry_urls,
            dns,
            router,
            router_queue: VecDeque::new(),
            router_busy: false,
            switch_free_at: 0,
            switch_flows: 0,
            switch_peak_flows: 0,
            queue_peak: 0,
            unavailable: Served::from_response(unavailable()),
            counters: Counters::default(),
            samples: Vec::new(),
            last_counters: Counters::default(),
            last_server_served: vec![0; n],
            crashes,
            restarts: Vec::new(),
            parse_cache: ParseCache::default(),
            trace_out: Vec::new(),
            engine_events: Vec::new(),
            replay_pending: HashMap::new(),
            replay_next_token: 0,
            latency_us_sum: 0,
            latency: LatencyHist::default(),
            event_counts: EventCounts::default(),
        }
    }

    /// Schedule cold restarts `(t_ms, server)`: a crashed server comes back
    /// with a fresh engine and an empty store (plus the dataset it would
    /// hold on a cold deploy: the originals on the home, a full copy under
    /// replicated strategies). Restarting a live server is a no-op, so pair
    /// each entry with an earlier crash.
    pub fn with_restart_schedule(mut self, restarts: Vec<(u64, usize)>) -> Self {
        self.restarts = restarts;
        self
    }

    /// Run to completion and reduce the metrics.
    pub fn run(mut self) -> SimResult {
        self.run_loop();
        self.collect()
    }

    /// Run to completion, then audit quiesced ownership (documents lost,
    /// multiply owned, GLT staleness) across the surviving servers. The
    /// scenario invariant tests use this; `run` skips the audit walk.
    pub fn run_audited(mut self) -> (SimResult, OwnershipAudit) {
        self.run_loop();
        let result = self.collect();
        let audit = self.quiesce_audit();
        (result, audit)
    }

    fn run_loop(&mut self) {
        let duration_us = self.cfg.duration_ms * 1_000;
        // Prime the schedule: ticks, samples, staggered client starts,
        // crashes, restarts.
        for s in 0..self.servers.len() {
            self.queue.push(
                self.cfg.tick_interval_ms * 1_000,
                Event::ServerTick { server: s },
            );
        }
        self.queue
            .push(self.cfg.sample_interval_ms * 1_000, Event::Sample);
        if let Some(trace) = self.cfg.replay.clone() {
            // Open-loop replay: requests fire at their recorded times;
            // Algorithm-2 clients stay idle.
            for (idx, ev) in trace.events.iter().enumerate() {
                self.queue
                    .push(ev.t_ms * 1_000 + 1, Event::ReplayFire { idx });
            }
        } else if let Some(starts) = self.cfg.client_starts.clone() {
            // Scenario-shaped arrivals: each client wakes at its own time.
            for (c, &t_ms) in starts.iter().enumerate() {
                self.queue
                    .push((t_ms * 1_000).max(1), Event::ClientWake { client: c });
            }
        } else {
            for c in 0..self.clients.len() {
                // Spread session starts over the first second.
                let jitter = (c as u64 * 1_000_000 / self.clients.len() as u64).max(1);
                self.queue.push(jitter, Event::ClientWake { client: c });
            }
        }
        for &(t_ms, s) in &self.restarts {
            self.queue
                .push((t_ms * 1_000).max(1), Event::ServerRestart { server: s });
        }
        let mut crashes = std::mem::take(&mut self.crashes);
        crashes.sort();
        let mut crash_iter = crashes.into_iter().peekable();

        loop {
            // Handlers only push, so the length before a pop is a local
            // maximum and the largest of them is the run's peak.
            self.queue_peak = self.queue_peak.max(self.queue.len());
            // The queue pop itself must never allocate: it is the one
            // operation every single event pays for. The probe harness
            // (tests/alloc_probe.rs) arms this assert.
            #[cfg(debug_assertions)]
            let allocs_before = crate::alloc::allocations();
            let popped = self.queue.pop();
            #[cfg(debug_assertions)]
            debug_assert_eq!(
                crate::alloc::allocations(),
                allocs_before,
                "event-queue pop must not allocate"
            );
            let Some((t, ev)) = popped else { break };
            // Apply any crash whose time has come before this event.
            while let Some(&(ct_ms, cs)) = crash_iter.peek() {
                if ct_ms * 1_000 <= t {
                    // A crash happens at its own time: the failures it
                    // delivers follow it, not the event before it.
                    self.now = self.now.max(ct_ms * 1_000);
                    self.crash_server(cs);
                    crash_iter.next();
                } else {
                    break;
                }
            }
            if t > duration_us {
                break;
            }
            self.now = t;
            self.handle(ev);
        }
    }

    fn crash_server(&mut self, s: usize) {
        let srv = &mut self.servers[s];
        srv.crashed = true;
        srv.busy = false;
        srv.in_service = None;
        // Connections die: every queued or parked requester sees a
        // failure — the parked ones in the front's key order, so the
        // failure deliveries replay identically run to run.
        for job in srv.queue.drain(..).chain(srv.front.drain()) {
            self.queue.push(
                self.now + 1,
                Event::Deliver {
                    origin: job.origin,
                    delivery: Delivery::Failed,
                },
            );
        }
    }

    fn collect(&mut self) -> SimResult {
        let mut regenerations = 0;
        let mut migrations = 0;
        let mut revocations = 0;
        let mut gossip = GossipCounts::default();
        let mut cache = dcws_cache::CacheStats::default();
        let mut store = cache;
        let mut read_path = Vec::with_capacity(self.servers.len());
        for (i, s) in self.servers.iter_mut().enumerate() {
            read_path.push(s.engine.read_path().snapshot());
            let st = s.engine.stats();
            regenerations += st.regenerations;
            migrations += st.migrations;
            revocations += st.revocations;
            gossip.pings_sent += st.pings_sent;
            gossip.reports_merged += st.reports_merged;
            gossip.reports_skipped += st.reports_skipped;
            gossip.reports_encoded += st.reports_encoded;
            let kept = s.engine.read_path().table().stats();
            store = store.merged(&kept);
            cache = cache.merged(&kept).merged(&s.engine.coop_cache().stats());
            let tail: Vec<(usize, EventRecord)> = s
                .engine
                .drain_events()
                .into_iter()
                .map(|r| (i, r))
                .collect();
            self.engine_events.extend(tail);
        }
        // Causal order across the cluster: engine time, then server, then
        // each engine's own sequence number.
        self.engine_events
            .sort_by_key(|(srv, r)| (r.t_ms, *srv, r.seq));
        SimResult {
            samples: std::mem::take(&mut self.samples),
            totals: self.counters,
            regenerations,
            migrations,
            revocations,
            gossip,
            cache,
            store,
            read_path,
            mean_response_ms: self.latency_us_sum as f64
                / self.latency.count().max(1) as f64
                / 1_000.0,
            latency: self.latency.clone(),
            events: self.event_counts.total(),
            event_counts: self.event_counts,
            switch_peak_flows: self.switch_peak_flows,
            queue_peak: self.queue_peak as u64,
            duration_ms: self.cfg.duration_ms,
            trace: if self.cfg.record_trace {
                Some(crate::trace::Trace::new(std::mem::take(
                    &mut self.trace_out,
                )))
            } else {
                None
            },
            engine_events: std::mem::take(&mut self.engine_events),
        }
    }

    fn handle(&mut self, ev: Event) {
        self.event_counts.record(&ev);
        match ev {
            Event::RequestArrive {
                server,
                req,
                origin,
            } => self.request_arrive(server, req, origin),
            Event::ServiceDone { server } => self.service_done(server),
            Event::Deliver { origin, delivery } => self.deliver(origin, delivery),
            Event::ServerTick { server } => self.server_tick(server),
            Event::ClientWake { client } => self.client_wake(client),
            Event::Sample => self.sample(),
            Event::ReplayFire { idx } => self.replay_fire(idx),
            Event::SwitchRelease => {
                self.switch_flows = self.switch_flows.saturating_sub(1);
            }
            Event::ServerRestart { server } => self.restart_server(server),
        }
    }

    /// Cold-restart a crashed server: fresh engine, empty store, the full
    /// peer group re-registered, plus the dataset a cold deploy would hold.
    /// Everything it had migrated or cached before the crash is gone — the
    /// group must re-converge, which is exactly what the rolling-restart
    /// scenario measures.
    fn restart_server(&mut self, s: usize) {
        if !self.servers[s].crashed {
            return;
        }
        let mut engine = ServerEngine::new(
            self.server_ids[s].clone(),
            self.server_config.clone(),
            Box::new(MemStore::new()),
        );
        for id in &self.server_ids {
            engine.add_peer(id.clone());
        }
        if s == 0 || self.cfg.strategy.replicated() {
            for doc in &self.cfg.dataset.docs {
                let kind = match doc.kind {
                    PageKind::Html => DocKind::Html,
                    PageKind::Image => DocKind::Image,
                };
                engine.publish(&doc.name, materialize(doc), kind, doc.entry_point);
            }
        }
        let srv = &mut self.servers[s];
        // Preserve the dead engine's event tail before replacing it.
        let tail: Vec<(usize, EventRecord)> = srv
            .engine
            .drain_events()
            .into_iter()
            .map(|r| (s, r))
            .collect();
        self.engine_events.extend(tail);
        let srv = &mut self.servers[s];
        srv.engine = engine;
        srv.queue.clear();
        srv.busy = false;
        srv.in_service = None;
        srv.nic_free_at = self.now;
        srv.crashed = false;
        // The fresh engine's served counter restarts at zero; realign the
        // per-sample CPS baseline or the next sample underflows.
        self.last_server_served[s] = 0;
        self.queue.push(
            self.now + self.cfg.tick_interval_ms * 1_000,
            Event::ServerTick { server: s },
        );
    }

    // ---------------------------------------------------------------- servers

    // The server model takes the reactor's order (docs/SIMULATION.md,
    // "The server model"): the socket-queue 503 at arrival; then, when
    // the request reaches the CPU, the read path for a client GET; the
    // engine only for what the read path declines.
    fn request_arrive(&mut self, server: usize, req: Incoming, origin: Origin) {
        // Router pseudo-server.
        if self.router.is_some() && server == router_idx(self.servers.len()) {
            self.router_queue.push_back((req, origin));
            if !self.router_busy {
                self.router_start();
            }
            return;
        }
        let latency = self.cfg.cost.latency_us;
        let srv = &mut self.servers[server];
        if srv.crashed {
            self.queue.push(
                self.now + latency,
                Event::Deliver {
                    origin,
                    delivery: Delivery::Failed,
                },
            );
            return;
        }
        if srv.queue.len() >= srv.engine.config().socket_queue_len {
            // Graceful 503 from the front end (§5.2).
            self.queue.push(
                self.now + latency + self.cfg.cost.drop_cpu_us,
                Event::Deliver {
                    origin,
                    delivery: Delivery::Served(self.unavailable.clone()),
                },
            );
            return;
        }
        srv.queue.push_back(Job {
            msg: req,
            origin,
            copy: None,
        });
        if !srv.busy {
            self.start_service(server);
        }
    }

    fn start_service(&mut self, server: usize) {
        let now_ms = self.now / 1_000;
        let cost = &self.cfg.cost;
        let srv = &mut self.servers[server];
        let Some(mut job) = srv.queue.pop_front() else {
            return;
        };
        if let Incoming::ClientGet(url) = &job.msg {
            let read = srv.engine.read_path();
            if let Some(served) = read.serve_parts(Method::Get, url.path(), std::iter::empty()) {
                // What the engine would have recorded in its rate window
                // for this serve, recorded at the same time.
                srv.engine.fold_read_traffic(now_ms);
                let service = cost.service_us(served.body.len());
                srv.in_service = Some((Delivery::Served(served), job.origin));
                srv.busy = true;
                self.queue
                    .push(self.now + service, Event::ServiceDone { server });
                return;
            }
        }
        let regen_before = srv.engine.regenerations();
        let step = match job.copy.take() {
            Some(copy) => {
                let (job, resp) = srv.front.serve_copy(&mut srv.engine, job, &copy, now_ms);
                Step::Answer(job, Outcome::Response(resp))
            }
            None => srv.front.serve(&mut srv.engine, job, now_ms),
        };
        let regens = srv.engine.regenerations() - regen_before;
        srv.busy = true;
        let Step::Answer(job, answer) = step else {
            // Parked on a pull: the connection's setup is all the CPU it
            // costs until the pull settles.
            self.queue
                .push(self.now + cost.conn_cpu_us, Event::ServiceDone { server });
            if let Step::Pull(pull) = step {
                self.send_call(server, pull);
            }
            return;
        };
        // The discrete-event model charges CPU per byte either way, so
        // streamed answers collapse to buffered here.
        let resp = answer.into_response().expect("an answer is never a miss");
        let service = cost.service_us(resp.body.len()) + regens * cost.regen_cpu_us;
        srv.in_service = Some((Delivery::Response(resp), job.origin));
        self.queue
            .push(self.now + service, Event::ServiceDone { server });
    }

    /// Send `server`'s call. A peer that is no simulated server — the
    /// home a `~migrate` URL names, say — is unreachable: the call is
    /// answered on the spot.
    fn send_call(&mut self, server: usize, Outbound { peer, call, req }: Outbound) {
        let Some(&idx) = self.id_to_idx.get(&peer) else {
            return self.answered(server, &peer, &call, None);
        };
        self.queue.push(
            self.now + self.cfg.cost.latency_us,
            Event::RequestArrive {
                server: idx,
                req: Incoming::Request(req),
                origin: Origin::Server {
                    id: server,
                    peer: idx,
                    call,
                },
            },
        );
    }

    /// Hand `server`'s front the reply to its `call` and release the
    /// requests a pull held: the ones handed a copy go back to the head of
    /// the line in arrival order, carrying it, to be served in turn; the
    /// rest are answered at once.
    fn answered(&mut self, server: usize, peer: &ServerId, call: &Call, reply: Option<&Response>) {
        let now_ms = self.now / 1_000;
        let srv = &mut self.servers[server];
        let mut copies = Vec::new();
        for settled in srv
            .front
            .answered(&mut srv.engine, peer, call, reply, now_ms)
        {
            match settled {
                Settled::Copy(job, copy) => copies.push(Job {
                    copy: Some(Box::new(copy)),
                    ..job
                }),
                Settled::Answer(job, resp) => self.queue.push(
                    self.now + 1,
                    Event::Deliver {
                        origin: job.origin,
                        delivery: Delivery::Response(resp),
                    },
                ),
            }
        }
        if copies.is_empty() {
            return;
        }
        for job in copies.into_iter().rev() {
            srv.queue.push_front(job);
        }
        if !srv.busy {
            self.start_service(server);
        }
    }

    fn service_done(&mut self, server: usize) {
        // Router pseudo-server: forwarding slot freed.
        if self.router.is_some() && server == router_idx(self.servers.len()) {
            self.router_busy = false;
            if !self.router_queue.is_empty() {
                self.router_start();
            }
            return;
        }
        let cost = &self.cfg.cost;
        let srv = &mut self.servers[server];
        if srv.crashed {
            return;
        }
        srv.busy = false;
        if let Some((delivery, origin)) = srv.in_service.take() {
            // Transmission: serialize on the server NIC, then the switch.
            let bytes = delivery.body_len() + WIRE_OVERHEAD_BYTES;
            let tx_start = self.now.max(srv.nic_free_at);
            let tx_end = tx_start + cost.tx_us(bytes);
            srv.nic_free_at = tx_end;
            let sw_end = match self.cfg.net_model {
                NetModel::ConstantBandwidth => {
                    // One aggregate pipe: transfers serialize at full rate.
                    let e = tx_end.max(self.switch_free_at) + cost.switch_us(bytes);
                    self.switch_free_at = e;
                    e
                }
                NetModel::SharedBandwidth => {
                    // Fair share, snapshotted at admission: with k flows in
                    // flight this one runs at capacity/k for its whole
                    // transfer. SwitchRelease returns the share.
                    self.switch_flows += 1;
                    self.switch_peak_flows = self.switch_peak_flows.max(self.switch_flows);
                    let e = tx_end + cost.switch_us(bytes) * self.switch_flows;
                    self.queue.push(e, Event::SwitchRelease);
                    e
                }
            };
            self.queue.push(
                sw_end + cost.latency_us,
                Event::Deliver { origin, delivery },
            );
        }
        if !self.servers[server].queue.is_empty() {
            self.start_service(server);
        }
    }

    fn server_tick(&mut self, server: usize) {
        if self.servers[server].crashed {
            return;
        }
        let out = self.servers[server].engine.tick(self.now / 1_000);
        for call in out.calls {
            self.send_call(server, call);
        }
        self.queue.push(
            self.now + self.cfg.tick_interval_ms * 1_000,
            Event::ServerTick { server },
        );
    }

    fn router_start(&mut self) {
        let Some(router) = self.router.as_mut() else {
            return;
        };
        let Some((req, origin)) = self.router_queue.pop_front() else {
            return;
        };
        let backend = router.forward();
        let cpu = router.forward_cpu_us;
        let idx = self.id_to_idx[&backend];
        // Forwarding consumes router CPU; the backend sees the request
        // after that plus a hop.
        self.queue.push(
            self.now + cpu + self.cfg.cost.latency_us,
            Event::RequestArrive {
                server: idx,
                req,
                origin,
            },
        );
        // Model the router CPU as serial: next forward after `cpu`.
        self.router_busy = true;
        let n = self.servers.len();
        self.queue.push(
            self.now + cpu,
            Event::ServiceDone {
                server: router_idx(n),
            },
        );
    }

    // --------------------------------------------------------------- delivery

    fn deliver(&mut self, origin: Origin, delivery: Delivery) {
        match origin {
            Origin::Client { id, token } if self.cfg.replay.is_some() => {
                self.replay_deliver(id, token, delivery)
            }
            Origin::Client { id, token } => self.client_deliver(id, token, delivery),
            Origin::Server { id, peer, call } => self.server_deliver(id, peer, call, delivery),
        }
    }

    // ----------------------------------------------------------------- replay

    /// Fire one recorded access-log request (open loop).
    fn replay_fire(&mut self, idx: usize) {
        let ev = self
            .cfg
            .replay
            .as_ref()
            .expect("replay_fire only scheduled in replay mode")
            .events[idx]
            .clone();
        let Ok(url) = Url::parse(&ev.url) else { return };
        let client = ev.client % self.clients.len();
        let token = self.replay_next_token;
        self.replay_next_token += 1;
        self.replay_pending
            .insert(token, (client, self.cfg.client.max_redirects));
        self.send_client_request(client, Arc::new(url), token);
    }

    /// Digest a response to a replayed request: count it, follow 301s,
    /// never retry (open loop).
    fn replay_deliver(&mut self, _client: usize, token: u64, delivery: Delivery) {
        let Some((client, redirects_left)) = self.replay_pending.remove(&token) else {
            return;
        };
        let Some(reply) = delivery.reply() else {
            self.counters.failures += 1;
            return;
        };
        match reply.status() {
            StatusCode::Ok => {
                self.counters.completed += 1;
                self.counters.bytes += reply.body().len() as u64;
            }
            StatusCode::ServiceUnavailable => {
                self.counters.drops += 1;
            }
            StatusCode::MovedPermanently => {
                self.counters.redirects += 1;
                if redirects_left > 0 {
                    if let Some(loc) = reply.location() {
                        if loc.is_absolute() {
                            self.replay_pending
                                .insert(token, (client, redirects_left - 1));
                            self.send_client_request(client, Arc::new(loc), token);
                        }
                    }
                }
            }
            _ => {
                self.counters.failures += 1;
            }
        }
    }

    fn server_deliver(&mut self, server: usize, peer: usize, call: Call, delivery: Delivery) {
        if self.servers[server].crashed {
            return;
        }
        // The engine reads headers: a wire-form answer (only ever a 503
        // here) is parsed back; `None` is a failed connection.
        let reply = delivery.into_response();
        let peer = self.server_ids[peer].clone();
        self.answered(server, &peer, &call, reply.as_ref());
    }

    // ---------------------------------------------------------------- metrics

    fn sample(&mut self) {
        let dt_s = self.cfg.sample_interval_ms as f64 / 1000.0;
        let d = Counters {
            completed: self.counters.completed - self.last_counters.completed,
            bytes: self.counters.bytes - self.last_counters.bytes,
            drops: self.counters.drops - self.last_counters.drops,
            redirects: self.counters.redirects - self.last_counters.redirects,
            failures: self.counters.failures - self.last_counters.failures,
            sessions: self.counters.sessions - self.last_counters.sessions,
        };
        self.last_counters = self.counters;
        let mut per_server_cps = Vec::with_capacity(self.servers.len());
        let mut migrations_total = 0;
        for (i, s) in self.servers.iter_mut().enumerate() {
            let served = s.engine.stats().served_total();
            per_server_cps.push((served - self.last_server_served[i]) as f64 / dt_s);
            self.last_server_served[i] = served;
            migrations_total += s.engine.stats().migrations;
            // Drain the bounded per-engine ring every sample so long runs
            // never overflow it between observations.
            self.engine_events
                .extend(s.engine.drain_events().into_iter().map(|r| (i, r)));
        }
        self.samples.push(Sample {
            t_ms: self.now / 1_000,
            cps: d.completed as f64 / dt_s,
            bps: d.bytes as f64 / dt_s,
            drops_per_sec: d.drops as f64 / dt_s,
            redirects_per_sec: d.redirects as f64 / dt_s,
            migrations_total,
            per_server_cps,
        });
        self.queue.push(
            self.now + self.cfg.sample_interval_ms * 1_000,
            Event::Sample,
        );
    }

    // ------------------------------------------------------------------ audit

    /// Post-run ownership audit (the chaos-suite invariants, evaluated
    /// in-process). Probes mutate engine stats, so this runs only after
    /// [`SimCluster::collect`] has reduced the metrics.
    fn quiesce_audit(&mut self) -> OwnershipAudit {
        let now_ms = self.now / 1_000;
        let n = self.servers.len();
        let names: Vec<String> = self
            .cfg
            .dataset
            .docs
            .iter()
            .map(|d| d.name.clone())
            .collect();
        let mut lost = Vec::new();
        let mut multi_owner = Vec::new();
        // Replicated strategies have no ownership protocol to audit: every
        // server holds a full copy by construction.
        if !self.cfg.strategy.replicated() {
            for name in &names {
                // Single owner: exactly one live LDG claims the name (the
                // plain URL is always answered — directly or via 301 — by
                // the one server whose LDG holds it).
                let claimants = (0..n)
                    .filter(|&i| {
                        !self.servers[i].crashed && self.servers[i].engine.ldg().contains(name)
                    })
                    .count();
                if claimants > 1 {
                    multi_owner.push(name.clone());
                }
                if !self.doc_reachable(name, now_ms) {
                    lost.push(name.clone());
                }
            }
        }
        // GLT convergence: no live server considers another live server
        // stale once the pinger has had a few periods to re-hear everyone.
        let window_ms = 6 * self
            .server_config
            .pinger_interval_ms
            .max(self.server_config.stat_interval_ms);
        let live: Vec<bool> = self.servers.iter().map(|s| !s.crashed).collect();
        let mut glt_stale = Vec::new();
        for i in 0..n {
            if !live[i] {
                continue;
            }
            let has_stale_live_peer = self.servers[i]
                .engine
                .glt()
                .stale_peers(now_ms, window_ms)
                .into_iter()
                .any(|p| self.id_to_idx.get(&p).is_some_and(|&j| live[j]));
            if has_stale_live_peer {
                glt_stale.push(i);
            }
        }
        OwnershipAudit {
            docs: names.len(),
            lost,
            multi_owner,
            glt_stale,
        }
    }

    /// Follow the 301 chain for `name` from its home (server 0); true if a
    /// live server answers 200, or a lazy-pull `FetchNeeded` whose home is
    /// alive (the copy is one pull away — not lost).
    fn doc_reachable(&mut self, name: &str, now_ms: u64) -> bool {
        let mut target = 0usize;
        let mut path = name.to_string();
        for _ in 0..8 {
            if self.servers[target].crashed {
                return false;
            }
            let req = Request::get(&path);
            let out = self.servers[target].engine.handle_request(&req, now_ms);
            let Some(resp) = out.into_response() else {
                // A co-op miss: the copy is one pull away from the home
                // its `~migrate` path names.
                let home = decode_migrate_path(&path).ok().flatten();
                return home
                    .and_then(|t| self.id_to_idx.get(&t.home))
                    .is_some_and(|&h| !self.servers[h].crashed);
            };
            match resp.status {
                StatusCode::Ok => return true,
                StatusCode::MovedPermanently => {
                    let Some(loc) = resp.location() else {
                        return false;
                    };
                    let Some(idx) = loc.host().and_then(|h| self.host_to_idx(h, loc.port())) else {
                        return false;
                    };
                    target = idx;
                    path = loc.path().to_string();
                }
                _ => return false,
            }
        }
        false
    }
}

/// What [`SimCluster::run_audited`] found at quiesce: the chaos-suite
/// invariants (no document lost, a single owner per name) plus GLT
/// convergence, checked across the surviving servers.
#[derive(Debug, Clone)]
pub struct OwnershipAudit {
    /// Documents in the dataset.
    pub docs: usize,
    /// Names no live server can produce (200 or recoverable pull) within a
    /// bounded redirect chain from the home.
    pub lost: Vec<String>,
    /// Names claimed by more than one live server's LDG.
    pub multi_owner: Vec<String>,
    /// Live servers whose GLT still lists another *live* server as stale.
    pub glt_stale: Vec<usize>,
}

impl OwnershipAudit {
    /// All invariants hold.
    pub fn clean(&self) -> bool {
        self.lost.is_empty() && self.multi_owner.is_empty() && self.glt_stale.is_empty()
    }
}

/// Run one simulation to completion.
pub fn run_sim(cfg: SimConfig) -> SimResult {
    SimCluster::new(cfg).run()
}
