//! The DCWS server: the event-driven reactor front end, a worker pool,
//! a pinger thread, and the `/dcws/status` introspection endpoint.

use crate::faults::FaultInjector;
use crate::lock::EngineLock;
use crate::metrics::TransportMetrics;
use crate::queue::SocketQueue;
use crate::reactor::{
    bind_reuseport, spill_bridge, Completion, Reactor, ReactorStats, ShardConfig, SpillBridge,
};
use crate::retry::RetryPolicy;
use crate::transport::{OpClass, Transport};
use dcws_core::{
    unavailable, Front, Json, Outcome, Pulled, ReadPath, Served, ServerEngine, Settled, Step,
    Waiter,
};
use dcws_graph::ServerId;
use dcws_http::{is_reserved_path, Request, Response, StreamBody, STATUS_PATH};
use std::borrow::Cow;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Registered-connection ceiling of the whole server. At the ceiling
/// the listener is paused (kernel backlog absorbs the burst) and re-armed
/// once occupancy drops below 90 % of it.
const MAX_REACTOR_CONNS: usize = 16_384;

/// How long a keep-alive connection may park at a request boundary
/// before the sweep closes it.
const REACTOR_KEEPALIVE_IDLE: Duration = Duration::from_secs(60);

/// Host-level transport configuration for [`DcwsServer::spawn_with`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// How often the pinger thread wakes to drive the engine's timers.
    pub control_interval: Duration,
    /// Retry policy for pulls, pushes, and validations (pings always
    /// use a single attempt so dead-peer detection stays prompt).
    pub retry: RetryPolicy,
    /// Fault injector applied to every *outbound* inter-server call.
    pub faults: Option<Arc<FaultInjector>>,
    /// Force the portable `poll(2)` backend even where `epoll` is
    /// available. `poll` is the only backend off Linux, and this flag
    /// is how Linux CI covers it; only tests set it.
    pub reactor_force_poll: bool,
    /// How many reactor shards to run (default
    /// `min(cores, 8)`). Each shard is one thread with its own poller,
    /// connection slab, and — on Linux — its own `SO_REUSEPORT` listener,
    /// so the kernel spreads clients across cores. Where `SO_REUSEPORT`
    /// is unavailable, shard 0 owns the lone listener and round-robins
    /// accepted connections to its peers. Benches whose premises are
    /// single-loop (batch histograms, fairness caps) pin this to 1.
    pub reactor_shards: usize,
}

impl NetConfig {
    /// Defaults: the given control interval, the stock inter-server
    /// retry policy, no fault injection, the epoll backend where there
    /// is one, a shard per core up to eight.
    pub fn new(control_interval: Duration) -> NetConfig {
        NetConfig {
            control_interval,
            retry: RetryPolicy::default_inter_server(),
            faults: None,
            reactor_force_poll: false,
            reactor_shards: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
        }
    }
}

/// A request spilled from the reactor to the worker pool: one the
/// reactor could not serve lock-free (engine miss, mutation,
/// inter-server verb, `/dcws/*`). The worker computes the response and
/// posts a [`Completion`]; it never touches the client socket.
pub(crate) struct SpillJob {
    /// The reactor's generation-tagged connection token; a stale token
    /// (connection died while the job ran) makes the completion a no-op.
    pub token: u64,
    /// Which reactor shard owns the connection: the worker posts the
    /// completion to that shard's bridge (tokens are per-shard, so
    /// cross-shard delivery could resurrect an unrelated slot).
    pub shard: usize,
    pub req: Request,
    /// Decided by the reactor at parse time (HTTP version, Connection
    /// header, shutdown state) so the worker doesn't re-derive it.
    pub keep_alive: bool,
    /// When the request was parsed; the reactor records service time
    /// end-to-end when the completion flushes.
    pub started: Instant,
}

impl Waiter for SpillJob {
    fn request(&self) -> Cow<'_, Request> {
        Cow::Borrowed(&self.req)
    }
}

/// Everything the worker, reactor, and pinger threads share.
/// Crate-visible so the `reactor` module (and its tests) can drive the
/// serve paths directly.
pub(crate) struct Shared {
    pub(crate) engine: EngineLock,
    /// The engine's concurrent serve path: workers and the reactor
    /// answer common-case GETs here without touching `engine` at all.
    pub(crate) read: Arc<ReadPath>,
    pub(crate) metrics: TransportMetrics,
    /// Jobs parked on a lazy pull, by document: the first worker to miss
    /// leads the pull and answers them all; a follower parks its job and
    /// goes back to the queue. Only ever locked inside the engine lock
    /// (or alone), so a miss and its parking are one step.
    front: Mutex<Front<SpillJob>>,
    /// The graceful 503, serialized once: every spill-full drop is a
    /// copy of it by refcount.
    pub(crate) unavailable: Served,
    /// Retrying, fault-aware inter-server I/O (pulls, pushes, pings,
    /// validations all go through here — never a raw socket call).
    transport: Transport,
    pub(crate) dropped: AtomicU64,
    /// The bounded spillover queue (the paper's L_sq).
    pub(crate) queue: SocketQueue<SpillJob>,
    /// Whole-server reactor counters. Every shard bumps these alongside
    /// its own entry in `shard_stats`.
    pub(crate) reactor: ReactorStats,
    /// Per-shard reactor counters, indexed by shard id.
    pub(crate) shard_stats: Vec<Arc<ReactorStats>>,
    /// Per-peer smoothed ping round-trip time (EWMA, milliseconds) —
    /// the measurement input for delay-aware co-op choice.
    peer_rtt: std::sync::Mutex<std::collections::BTreeMap<String, f64>>,
    /// Which poller backend the reactor chose ("epoll"/"poll"), set
    /// once at spawn.
    reactor_backend: OnceLock<&'static str>,
    epoch: Instant,
    addr: SocketAddr,
}

impl Shared {
    /// Assemble the shared state for a server bound at `addr`.
    pub(crate) fn build(engine: ServerEngine, net: &NetConfig, addr: SocketAddr) -> Arc<Shared> {
        let queue_len = engine.config().socket_queue_len;
        let read = engine.read_path().clone();
        Arc::new(Shared {
            engine: EngineLock::new(engine),
            read,
            metrics: TransportMetrics::default(),
            front: Mutex::new(Front::default()),
            unavailable: Served::from_response(unavailable()),
            transport: Transport::new(net.retry, net.faults.clone()),
            dropped: AtomicU64::new(0),
            queue: SocketQueue::new(queue_len),
            reactor: ReactorStats::default(),
            shard_stats: (0..net.reactor_shards.max(1))
                .map(|_| Arc::new(ReactorStats::default()))
                .collect(),
            peer_rtt: std::sync::Mutex::new(std::collections::BTreeMap::new()),
            reactor_backend: OnceLock::new(),
            epoch: Instant::now(),
            addr,
        })
    }

    pub(crate) fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn front(&self) -> MutexGuard<'_, Front<SpillJob>> {
        self.front.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// EWMA smoothing factor for per-peer ping RTT: responsive enough to
    /// track congestion shifts within a few control intervals, smooth
    /// enough that one outlier sample doesn't whipsaw a placement choice.
    const RTT_ALPHA: f64 = 0.2;

    /// Fold one successful ping round-trip into the peer's RTT estimate.
    pub(crate) fn note_peer_rtt(&self, peer: &ServerId, rtt: Duration) {
        let ms = rtt.as_secs_f64() * 1000.0;
        let mut map = self.peer_rtt.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(peer.to_string())
            .and_modify(|e| *e += Self::RTT_ALPHA * (ms - *e))
            .or_insert(ms);
    }

    /// Snapshot of the smoothed per-peer RTTs (milliseconds).
    pub(crate) fn peer_rtt_snapshot(&self) -> Vec<(String, f64)> {
        self.peer_rtt
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// The full `/dcws/status` document: the engine's introspection
    /// object (see `dcws_core::status`) extended with `transport` and
    /// `reactor` sections describing this host.
    fn status_json(&self) -> Json {
        let engine_status = self.engine.lock().status_json();
        let transport = Json::obj(vec![
            ("addr", Json::from(self.addr.to_string())),
            ("uptime_ms", Json::U64(self.now_ms())),
            (
                "dropped_connections",
                Json::U64(self.dropped.load(Ordering::Relaxed)),
            ),
            (
                "socket_queue",
                Json::obj(vec![
                    ("depth", Json::from(self.queue.len())),
                    ("capacity", Json::from(self.queue.capacity())),
                ]),
            ),
            ("queue_wait", self.metrics.queue_wait.snapshot().to_json()),
            (
                "service_time",
                self.metrics.service_time.snapshot().to_json(),
            ),
            (
                "peer_rtt_ms",
                Json::Obj(
                    self.peer_rtt_snapshot()
                        .into_iter()
                        .map(|(peer, ms)| (peer, Json::from(ms)))
                        .collect(),
                ),
            ),
            ("pull_flights", {
                let fs = self.front().flights();
                Json::obj(vec![
                    ("led", Json::from(fs.led)),
                    ("coalesced", Json::from(fs.coalesced)),
                    ("in_flight", Json::from(fs.in_flight)),
                ])
            }),
            ("retries", {
                let io = self.transport.snapshot();
                Json::obj(vec![
                    ("attempts", Json::from(io.attempts)),
                    ("successes", Json::from(io.successes)),
                    ("retried", Json::from(io.retries)),
                    ("giveups", Json::from(io.giveups)),
                    ("corrupt_responses", Json::from(io.corrupt)),
                    ("backoff_ms", Json::from(io.backoff_ms)),
                    ("stale_reuse_retries", Json::from(io.stale_retries)),
                ])
            }),
            ("pool", {
                let pool = self.transport.pool();
                let snap = pool.snapshot();
                let per_peer = Json::Obj(
                    pool.idle_per_peer()
                        .into_iter()
                        .map(|(peer, n)| (peer, Json::from(n as u64)))
                        .collect(),
                );
                let events = Json::Arr(
                    pool.recent_events()
                        .into_iter()
                        .map(|e| {
                            Json::obj(vec![
                                ("at_ms", Json::from(e.at_ms)),
                                ("peer", Json::from(e.peer)),
                                ("kind", Json::from(e.kind)),
                            ])
                        })
                        .collect(),
                );
                Json::obj(vec![
                    ("enabled", Json::from(pool.enabled())),
                    (
                        "max_per_peer",
                        Json::from(pool.config().max_per_peer as u64),
                    ),
                    (
                        "idle_ttl_ms",
                        Json::from(pool.config().idle_ttl.as_millis() as u64),
                    ),
                    ("hits", Json::from(snap.hits)),
                    ("dials", Json::from(snap.dials)),
                    ("reuse_ratio", Json::from(snap.reuse_ratio())),
                    ("checkins", Json::from(snap.checkins)),
                    (
                        "evictions",
                        Json::obj(vec![
                            ("idle_ttl", Json::from(snap.evicted_idle)),
                            ("peer_close", Json::from(snap.evicted_close)),
                            ("error", Json::from(snap.evicted_error)),
                        ]),
                    ),
                    ("discarded_full", Json::from(snap.discarded_full)),
                    ("open_idle", Json::from(pool.idle_total() as u64)),
                    ("open_idle_per_peer", per_peer),
                    ("events", events),
                ])
            }),
            ("faults", {
                // Zeros when no injector is installed, so the section
                // shape is stable.
                let f = self
                    .transport
                    .faults()
                    .map(|i| i.snapshot())
                    .unwrap_or_default();
                Json::obj(vec![
                    ("enabled", Json::from(self.transport.faults().is_some())),
                    ("injected", Json::from(f.injected())),
                    ("refusals", Json::from(f.refusals)),
                    ("drops", Json::from(f.drops)),
                    ("garbles", Json::from(f.garbles)),
                    ("delays", Json::from(f.delays)),
                ])
            }),
        ]);
        let mut reactor = self.reactor.to_json(
            self.reactor_backend.get().copied().unwrap_or("none"),
            self.queue.len(),
            self.queue.capacity(),
        );
        if let Json::Obj(pairs) = &mut reactor {
            pairs.push((
                "shards".to_string(),
                Json::Arr(
                    self.shard_stats
                        .iter()
                        .enumerate()
                        .map(|(i, s)| s.shard_json(i))
                        .collect(),
                ),
            ));
        }
        match engine_status {
            Json::Obj(mut pairs) => {
                pairs.push(("transport".to_string(), transport));
                pairs.push(("reactor".to_string(), reactor));
                Json::Obj(pairs)
            }
            other => other,
        }
    }

    /// Answer a request in the reserved `/dcws/` namespace.
    fn reserved_response(&self, path: &str) -> Response {
        if path == STATUS_PATH {
            let body = self.status_json().to_string().into_bytes();
            Response::ok(body, "application/json")
        } else {
            Response::not_found()
        }
    }
}

/// Closes the work queue when dropped: even a panicking reactor
/// thread releases the workers blocked in `pop`.
struct QueueCloser(Arc<Shared>);

impl Drop for QueueCloser {
    fn drop(&mut self) {
        self.0.queue.close();
    }
}

/// A running DCWS server; dropping the handle shuts it down.
pub struct DcwsServer {
    shared: Arc<Shared>,
    shutdown: Arc<AtomicBool>,
    /// Per-shard bridges: how `stop()` wakes each event loop and
    /// workers post completions back to the owning shard.
    bridges: Vec<Arc<SpillBridge>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

/// Bind the client-facing listener(s). A sharded reactor tries one
/// `SO_REUSEPORT` listener per shard (Linux, concrete IPv4 address);
/// anywhere that fails, shard 0 gets the lone `std` listener (`None` for
/// its peers) and distributes accepted connections by round-robin.
fn bind_front_end(
    bind_addr: &str,
    shards: usize,
) -> std::io::Result<(Vec<Option<TcpListener>>, SocketAddr)> {
    if shards > 1 {
        if let Ok(want) = bind_addr.parse::<SocketAddr>() {
            if let Ok(first) = bind_reuseport(want) {
                // Re-bind the siblings to the *resolved* address, so an
                // ephemeral port 0 request lands every shard on the same
                // concrete port.
                let addr = first.local_addr()?;
                let mut listeners = vec![Some(first)];
                let mut complete = true;
                for _ in 1..shards {
                    match bind_reuseport(addr) {
                        Ok(l) => listeners.push(Some(l)),
                        Err(_) => {
                            complete = false;
                            break;
                        }
                    }
                }
                if complete {
                    return Ok((listeners, addr));
                }
                // Partial failure: drop what we bound and fall through
                // to the hand-off layout on a fresh socket.
            }
        }
    }
    let listener = TcpListener::bind(bind_addr)?;
    let addr = listener.local_addr()?;
    let mut listeners = vec![Some(listener)];
    listeners.extend((1..shards).map(|_| None));
    Ok((listeners, addr))
}

impl DcwsServer {
    /// Bind `engine` to `bind_addr` (e.g. `"127.0.0.1:0"` for an ephemeral
    /// port) and start the reactor, worker, and pinger threads. The
    /// pinger wakes every `control_interval` to drive the engine's timers.
    pub fn spawn(
        engine: ServerEngine,
        bind_addr: &str,
        control_interval: Duration,
    ) -> std::io::Result<DcwsServer> {
        DcwsServer::spawn_with(engine, bind_addr, NetConfig::new(control_interval))
    }

    /// [`Self::spawn`] with explicit transport configuration: shards,
    /// retry policy, and (for chaos testing) fault injectors.
    pub fn spawn_with(
        engine: ServerEngine,
        bind_addr: &str,
        net: NetConfig,
    ) -> std::io::Result<DcwsServer> {
        let n_shards = net.reactor_shards.max(1);
        let (mut listeners, addr) = bind_front_end(bind_addr, n_shards)?;
        let n_workers = engine.config().n_workers;
        let control_interval = net.control_interval;
        let shared = Shared::build(engine, &net, addr);
        let shutdown = Arc::new(AtomicBool::new(false));

        let mut threads = Vec::new();
        let mut bridge_handles = Vec::new();

        // N reactor shard threads multiplex the client connections; the
        // worker pool only sees spillover jobs.
        let reuseport = listeners.iter().all(|l| l.is_some());
        let mut wakers = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            let (bridge, waker_rx) = spill_bridge()?;
            bridge_handles.push(bridge);
            wakers.push(waker_rx);
        }
        // One shared guard: the queue closes (releasing the workers)
        // when the *last* shard's loop exits or panics.
        let closer = Arc::new(QueueCloser(shared.clone()));
        // Per-shard connection ceiling: an equal slice under
        // SO_REUSEPORT; the hand-off distributor instead caps on the
        // aggregate gauge, so the whole-server limit holds in both
        // layouts.
        let per_shard_cap = (MAX_REACTOR_CONNS / n_shards).max(1);
        for (shard, waker_rx) in wakers.into_iter().enumerate() {
            let listener = listeners[shard].take();
            let distributes = !reuseport && shard == 0 && n_shards > 1;
            let mut reactor = Reactor::new(
                shared.clone(),
                shutdown.clone(),
                ShardConfig {
                    shard,
                    n_shards,
                    max_conns: if distributes {
                        MAX_REACTOR_CONNS
                    } else {
                        per_shard_cap
                    },
                    keepalive_idle: REACTOR_KEEPALIVE_IDLE,
                    force_poll_backend: net.reactor_force_poll,
                },
                listener,
                bridge_handles[shard].clone(),
                if distributes {
                    bridge_handles.clone()
                } else {
                    Vec::new()
                },
                waker_rx,
            )?;
            let _ = shared.reactor_backend.set(reactor.backend_name());
            let closer = closer.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("dcws-reactor-{shard}"))
                    .spawn(move || {
                        let _closer = closer;
                        reactor.run();
                    })
                    .expect("spawn reactor"),
            );
        }

        // Worker threads run spillover jobs — even while shutting down:
        // the reactor is draining and needs the in-flight responses to
        // finish cleanly.
        for i in 0..n_workers {
            let shared = shared.clone();
            let bridges = bridge_handles.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("dcws-worker-{i}"))
                    .spawn(move || {
                        while let Some(q) = shared.queue.pop() {
                            shared.metrics.queue_wait.record(q.enqueued_at.elapsed());
                            serve_spill(&shared, &bridges, q.item);
                        }
                    })
                    .expect("spawn worker"),
            );
        }

        // Pinger / statistics thread.
        {
            let shared = shared.clone();
            let shutdown = shutdown.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("dcws-pinger".into())
                    .spawn(move || {
                        while !shutdown.load(Ordering::Relaxed) {
                            std::thread::sleep(control_interval);
                            let now = shared.now_ms();
                            let out = shared.engine.lock().tick(now);
                            run_tick_actions(&shared, out, now);
                        }
                    })
                    .expect("spawn pinger"),
            );
        }

        Ok(DcwsServer {
            shared,
            shutdown,
            bridges: bridge_handles,
            threads,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// This server's group identity (`host:port` of the bound address).
    pub fn server_id(&self) -> ServerId {
        ServerId::new(format!(
            "{}:{}",
            self.shared.addr.ip(),
            self.shared.addr.port()
        ))
    }

    /// Shared engine handle (lock to publish documents or read stats).
    pub fn engine(&self) -> &EngineLock {
        &self.shared.engine
    }

    /// The engine's concurrent read path (counters, published reports).
    pub fn read_path(&self) -> &Arc<ReadPath> {
        &self.shared.read
    }

    /// Requests dropped with a graceful 503 so far (spillover-queue
    /// overflow, §5.2).
    pub fn dropped_connections(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// The transport latency histograms (queue wait + service time).
    pub fn metrics(&self) -> &TransportMetrics {
        &self.shared.metrics
    }

    /// The reactor's whole-server counters.
    pub fn reactor_stats(&self) -> &ReactorStats {
        &self.shared.reactor
    }

    /// The retrying inter-server transport (retry counters, fault
    /// injector handle).
    pub fn transport(&self) -> &Transport {
        &self.shared.transport
    }

    /// The document served at `/dcws/status`: engine counters, derived
    /// rates, GLT view, active migrations, hot documents, recent events,
    /// this host's transport section (histograms, queue, drops), and
    /// the reactor section (registered conns, ready batches, spillover).
    pub fn status_json(&self) -> Json {
        self.shared.status_json()
    }

    /// Stop all threads and wait for them.
    pub fn shutdown(mut self) {
        self.stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    fn stop(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        // Each shard's waker pipe interrupts its event loop, which
        // drains at request boundaries; the queue closes when the last
        // shard exits (releasing the workers).
        for bridge in &self.bridges {
            bridge.wake();
        }
    }
}

impl Drop for DcwsServer {
    fn drop(&mut self) {
        self.stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Run one spillover job on a worker thread. The worker computes the
/// answer — engine lock, lazy pull, and all — and posts it back to the
/// reactor shard that owns the connection; it never touches the client
/// socket. A co-op miss parks the job in the [`Front`]: the worker that
/// leads the pull answers every job parked on it, and a follower goes
/// straight back to the queue.
fn serve_spill(shared: &Shared, bridges: &[Arc<SpillBridge>], job: SpillJob) {
    // Reserved introspection namespace: answered by the transport, never
    // entering the engine's document path.
    if let Ok(url) = job.req.url() {
        if is_reserved_path(url.path()) {
            let served = Served::from_response(shared.reserved_response(url.path()));
            return complete(bridges, job, served, None);
        }
    }
    // The reactor's read-path lookup declined this request, but another
    // worker may have primed its route since: look again (uncounted —
    // the request is already a fallback) before taking the engine lock.
    if let Some(served) = shared.read.try_serve_spilled(&job.req) {
        return complete(bridges, job, served, None);
    }
    let now = shared.now_ms();
    let step = {
        let mut eng = shared.engine.lock();
        shared.front().serve(&mut eng, job, now)
    };
    match step {
        Step::Answer(job, answer) => answer_job(bridges, job, answer),
        Step::Parked => {}
        Step::Pull { home, path } => lead_pull(shared, bridges, &home, &path),
    }
}

/// Lazy physical migration (§4.2): pull `path` from `home`, settle it,
/// and answer every job that waited on it. The pull request needs no
/// engine state beyond identity and the published load-report snapshot,
/// so it is built lock-free, and the engine lock is taken once, *after*
/// the network round-trip, to settle the pull and serve the waiters again.
fn lead_pull(shared: &Shared, bridges: &[Arc<SpillBridge>], home: &ServerId, path: &str) {
    let pull = shared.read.make_pull_request(path);
    let pulled = match shared.transport.call(home, &pull, OpClass::Pull) {
        Ok(resp) => Pulled::Reply(resp),
        // Unreachable after the transport's retries.
        Err(_) => Pulled::Unreachable,
    };
    let now = shared.now_ms();
    let answers: Vec<(SpillJob, Outcome)> = {
        let mut eng = shared.engine.lock();
        let mut front = shared.front();
        let settled = front.settle(&mut eng, home, path, pulled, now);
        settled
            .into_iter()
            .map(|s| match s {
                Settled::Retry(job) => front.retry(&mut eng, job, now),
                Settled::Answer(job, resp) => (job, Outcome::Response(resp)),
            })
            .collect()
    };
    for (job, answer) in answers {
        answer_job(bridges, job, answer);
    }
}

/// Serialize `answer` off the reactor thread and post it. A large-object
/// serve keeps its chunked entity producer beside the head; the reactor
/// parks it on the connection as resumable write-state.
fn answer_job(bridges: &[Arc<SpillBridge>], job: SpillJob, answer: Outcome) {
    let (resp, stream) = match answer {
        // A bodyless status carries no entity, streamed or otherwise.
        Outcome::Stream { resp, body } => {
            let stream = (!resp.status.bodyless()).then_some(body);
            (resp, stream)
        }
        other => (
            other.into_response().expect("an answer is never a miss"),
            None,
        ),
    };
    complete(bridges, job, Served::from_response(resp), stream);
}

/// Post `job`'s answer to the shard that owns its connection (tokens are
/// per-shard).
fn complete(
    bridges: &[Arc<SpillBridge>],
    job: SpillJob,
    served: Served,
    stream: Option<StreamBody>,
) {
    bridges
        .get(job.shard)
        .expect("spill job without a bridge")
        .push(Completion {
            token: job.token,
            method: job.req.method,
            keep_alive: job.keep_alive,
            started: job.started,
            served,
            stream,
        });
}

/// Perform the network side of a tick: pings, validations, eager pushes.
fn run_tick_actions(shared: &Arc<Shared>, out: dcws_core::TickOutput, now: u64) {
    for (peer, req) in out.pings {
        // Single attempt, short timeout: a dead peer must fail fast and
        // feed the §4.5 failure counter, not be masked by retries.
        let t0 = Instant::now();
        let result = shared.transport.call(&peer, &req, OpClass::Ping);
        if result.is_ok() {
            // A round-trip that came back is an RTT sample for the
            // delay-aware co-op choice.
            shared.note_peer_rtt(&peer, t0.elapsed());
        }
        let mut eng = shared.engine.lock();
        match result {
            Ok(resp) => {
                eng.ping_result(&peer, true, Some(&resp.headers));
            }
            Err(_) => {
                eng.ping_result(&peer, false, None);
            }
        }
    }
    for (home, req) in out.validations {
        let path = req.target.clone();
        match shared.transport.call(&home, &req, OpClass::Validate) {
            Ok(resp) => {
                shared
                    .engine
                    .lock()
                    .handle_validation_response(&home, &path, &resp, now);
            }
            // Home unreachable: serve the retained copy stale rather than
            // discarding it (graceful degradation, docs/RESILIENCE.md).
            Err(_) => {
                shared.engine.lock().validation_failed(&home, &path, now);
            }
        }
    }
    for (coop, req) in out.pushes {
        // A failed eager push costs nothing: the co-op simply lazy-pulls
        // later if its load warrants it.
        let _ = shared.transport.call(&coop, &req, OpClass::Push);
    }
}
