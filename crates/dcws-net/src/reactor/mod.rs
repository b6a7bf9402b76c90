//! The event-driven front end: a readiness-based reactor that owns every
//! client-facing connection.
//!
//! The paper's §5.1 front end is one blocking acceptor feeding a fixed
//! pool of blocking workers, which caps *concurrent* client connections
//! at roughly the worker count: a keep-alive client parked between
//! requests pins a whole thread (EXPERIMENTS.md, "C10kpress", is the
//! record of that comparison). Per-connection setup is the dominant
//! fixed cost of small transfers ("Connpress", same file), so the scaling
//! move is to hold idle connections cheaply and spend threads only on work
//! that actually blocks. This module does that with a hand-rolled readiness
//! loop — no async runtime (the workspace's vendored-deps constraint
//! forbids tokio), just nonblocking sockets and the kernel's readiness
//! API behind a tiny FFI shim (`sys`, which keeps every foreign call of
//! the crate behind a safe function):
//!
//! * **[`Poller`]** — `epoll_create1`/`epoll_ctl`/`epoll_wait` on Linux,
//!   with a portable `poll(2)` backend (`Poller::with_poll_backend`,
//!   the default off Linux) so macOS dev builds compile and the
//!   fallback stays tested;
//! * **`Reactor`** *(crate-private, spawned by
//!   [`DcwsServer`](crate::DcwsServer))* — one thread that accepts
//!   nonblockingly, resumes each ready connection's incremental
//!   [`MsgBuf`](crate::MsgBuf) parse mid-head, answers common-case GETs
//!   inline via `ReadPath::serve` (parsed in place, served from a
//!   prebuilt head: one `read`, one `writev`, no heap allocation; a
//!   large object's entity is read from the route's shared descriptor
//!   slice by slice as the socket drains),
//!   and hands engine-locked work (misses, mutations, `/dcws/*`,
//!   inter-server verbs) to the worker pool, demoted to a bounded
//!   **spillover**: workers compute the response and post it back
//!   through a completion list plus a waker pipe, never touching the
//!   client socket.
//!
//! Backpressure is explicit and two-runged, consistent with the
//! fresh→stale→503 degradation ladder (docs/RESILIENCE.md):
//!
//! 1. **accept-pause** — past 16,384 registered connections (a constant
//!    in `server.rs`) the listener is deregistered from the poller
//!    (counted in `reactor.accept_pauses`) and re-armed once the count
//!    drops below 90 % of the limit; the kernel backlog, then SYN queue,
//!    absorb the burst;
//! 2. **spillover 503** — when the bounded spillover queue (the paper's
//!    L_sq) is full, the reactor answers `503` + `Retry-After` inline
//!    and keeps the connection alive, exactly the §5.2 graceful drop.
//!
//! The engine-lock discipline extends into the loop: the reactor thread
//! **never takes the engine lock** (even `/dcws/status` spills over),
//! and every loop turn debug-asserts
//! [`assert_engine_unlocked`] so a
//! callback that leaked a guard into the loop panics in debug builds
//! rather than stalling ten thousand connections behind a mutex.
//!
//! Shutdown drains at request boundaries: connections idle at a
//! boundary close immediately, in-flight spillover
//! responses are written with `Connection: close`, and the loop exits
//! once drained (or after a bounded deadline).

use crate::conn::{READ_CHUNK, READ_TIMEOUT};
use crate::lock::assert_engine_unlocked;
use crate::server::{Shared, SpillJob};
use dcws_core::Served;
use dcws_http::{Method, Response, StreamBody};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

mod outq;
mod poller;
mod stats;
mod sys;

use outq::{OutQueue, RefillPool, MAX_IOVECS};
pub use poller::{Event, Poller};
pub use stats::ReactorStats;

/// Try to raise the process's open-file soft limit to at least `want`
/// descriptors (hard limit too, where privilege allows) and return the
/// soft limit actually in effect afterwards. Ten thousand keep-alive
/// clients need ten thousand fds; the default 1024 soft limit would cap
/// a c10k run at c1k, so `c10kpress` calls this before opening anything.
pub fn raise_nofile_limit(want: u64) -> u64 {
    let Ok(lim) = sys::nofile_limit() else {
        return 0;
    };
    if lim.rlim_cur >= want {
        return lim.rlim_cur;
    }
    // First try within the current hard limit, then (root only)
    // above it; keep whichever attempt sticks.
    let attempt = sys::Rlimit {
        rlim_cur: want.min(lim.rlim_max),
        rlim_max: lim.rlim_max,
    };
    let _ = sys::set_nofile_limit(&attempt);
    if want > lim.rlim_max {
        let raise = sys::Rlimit {
            rlim_cur: want,
            rlim_max: want,
        };
        let _ = sys::set_nofile_limit(&raise);
    }
    sys::nofile_limit().map_or(0, |lim| lim.rlim_cur)
}

/// Bind a listener at `addr` with `SO_REUSEPORT` set, so several shards
/// can share one port and the kernel spreads incoming connections across
/// their accept queues (hashed on the 4-tuple). Linux-only — the option
/// must be set *before* bind, which `std`'s `TcpListener` offers no hook
/// for, hence the raw FFI. IPv4 only; anything else reports
/// `Unsupported` and the caller falls back to single-listener hand-off.
#[cfg(target_os = "linux")]
pub(crate) fn bind_reuseport(addr: std::net::SocketAddr) -> io::Result<TcpListener> {
    let std::net::SocketAddr::V4(v4) = addr else {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "SO_REUSEPORT sharding is IPv4-only",
        ));
    };
    sys::reuseport_listener(v4)
}

#[cfg(not(target_os = "linux"))]
pub(crate) fn bind_reuseport(_addr: std::net::SocketAddr) -> io::Result<TcpListener> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "SO_REUSEPORT sharding requires Linux; using accept hand-off",
    ))
}

// ---------------------------------------------------------------------
// Spillover bridge: workers → reactor completions.
// ---------------------------------------------------------------------

/// A finished spillover job travelling back to the reactor.
pub(crate) struct Completion {
    pub token: u64,
    pub method: Method,
    pub keep_alive: bool,
    pub started: Instant,
    /// The answer in wire form, serialized by the worker.
    pub served: Served,
    /// Present for large-object serves: the chunked entity producer.
    /// The reactor parks it on the connection as resumable write-state
    /// and refills the output buffer as the socket drains.
    pub stream: Option<StreamBody>,
}

/// Shared between the spillover workers and one reactor shard: completed
/// responses plus the waker that kicks that shard's event loop awake to
/// write them. Also how `DcwsServer::stop` wakes the loops for shutdown,
/// and — under the single-listener hand-off fallback — how shard 0
/// forwards accepted connections to its peers.
pub(crate) struct SpillBridge {
    completions: Mutex<Vec<Completion>>,
    /// Accepted connections handed to this shard by the distributor
    /// (shard 0) when `SO_REUSEPORT` is unavailable. The streams travel
    /// in-process; the waker pipe only signals their arrival.
    handoffs: Mutex<Vec<TcpStream>>,
    /// Write half of the waker pipe (nonblocking; a full pipe means a
    /// wake is already pending, so `WouldBlock` is success).
    waker_tx: UnixStream,
}

impl SpillBridge {
    pub(crate) fn push(&self, c: Completion) {
        self.completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(c);
        self.wake();
    }

    fn push_handoff(&self, stream: TcpStream) {
        self.handoffs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(stream);
        self.wake();
    }

    pub(crate) fn wake(&self) {
        let _ = (&self.waker_tx).write(&[1u8]);
    }

    fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock().unwrap_or_else(|e| e.into_inner()))
    }

    fn drain_handoffs(&self) -> Vec<TcpStream> {
        std::mem::take(&mut *self.handoffs.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

// ---------------------------------------------------------------------
// The reactor itself.
// ---------------------------------------------------------------------

const LISTENER_TOKEN: u64 = u64::MAX;
const WAKER_TOKEN: u64 = u64::MAX - 1;

/// How often the loop wakes with no events to run the timeout sweep and
/// re-check the shutdown flag.
const TICK: Duration = Duration::from_millis(250);

/// How often the O(conns) timeout sweep actually runs.
const SWEEP_EVERY: Duration = Duration::from_millis(1000);

/// After shutdown is noticed, connections still awaiting spillover
/// results get this long before being force-closed.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Per-connection cap on bytes read per readiness event, so one
/// firehosing client cannot starve the rest of a ready batch
/// (level-triggered polling re-delivers the residue immediately).
const MAX_READ_PER_EVENT: usize = 256 * 1024;

/// Per-connection cap on streamed-entity bytes refilled per flush, so a
/// single Sequoia-class transfer cannot monopolize the event loop
/// (writable interest stays armed while the stream is parked, so the
/// next readiness turn resumes it). Also the size of a refill buffer:
/// one read, one segment, one `writev` per turn.
const MAX_WRITE_PER_EVENT: usize = 256 * 1024;

struct ClientConn {
    stream: TcpStream,
    gen: u32,
    mb: crate::conn::MsgBuf,
    /// Pending response segments not yet taken by the kernel, flushed
    /// with `writev` (heads owned, bodies shared zero-copy).
    out: OutQueue,
    /// In-progress streamed entity: refilled into `out` slice by slice
    /// as the socket drains, so a 2.8 MB serve never occupies more than
    /// one refill buffer of reactor memory. While present, reads are
    /// paused and pipelined requests stay buffered — responses keep
    /// request order.
    stream_body: Option<StreamBody>,
    /// A spillover job is in flight; reads are paused (interest drops to
    /// hangup-only, giving natural TCP backpressure) and further
    /// pipelined requests stay buffered until the response returns.
    awaiting_spill: bool,
    /// Close once `out` drains (Connection: close, errors, shutdown).
    close_after_flush: bool,
    /// Interest currently registered with the poller.
    reg_readable: bool,
    reg_writable: bool,
    last_activity: Instant,
}

/// Per-shard knobs for [`Reactor::new`], computed once in `spawn_with`.
pub(crate) struct ShardConfig {
    /// This shard's index in `[0, n_shards)`.
    pub shard: usize,
    /// Total reactor shards the server runs.
    pub n_shards: usize,
    /// This shard's registered-connection ceiling. Under `SO_REUSEPORT`
    /// each shard gets an equal slice of the server's ceiling; under
    /// hand-off the distributor caps on the aggregate gauge instead.
    pub max_conns: usize,
    pub keepalive_idle: Duration,
    pub force_poll_backend: bool,
}

pub(crate) struct Reactor {
    shared: Arc<Shared>,
    shutdown: Arc<AtomicBool>,
    poller: Poller,
    listener: Option<TcpListener>,
    waker_rx: UnixStream,
    bridge: Arc<SpillBridge>,
    /// Every shard's bridge, indexed by shard id. Non-empty only on the
    /// hand-off distributor (shard 0 without `SO_REUSEPORT`), which
    /// round-robins accepted connections across them.
    peers: Vec<Arc<SpillBridge>>,
    /// This shard's own stat counters; every bump also lands on the
    /// aggregate `shared.reactor` so existing gauges stay whole-server.
    stats: Arc<ReactorStats>,
    shard: usize,
    n_shards: usize,
    /// Round-robin cursor for hand-off distribution.
    rr: usize,
    /// The buffer every socket read on this shard goes through
    /// (`MsgBuf::fill_from`): initialised once, so a read costs no
    /// memset, and shared, so ten thousand parked connections hold no
    /// read buffers of their own.
    scratch: Box<[u8]>,
    /// The buffers streamed entities are read into, lent to a
    /// connection's `out` for as long as the socket takes to drain them.
    refills: RefillPool,
    conns: Vec<Option<ClientConn>>,
    free: Vec<usize>,
    live: usize,
    next_gen: u32,
    max_conns: usize,
    keepalive_idle: Duration,
    accept_paused: bool,
    events: Vec<Event>,
    last_sweep: Instant,
    draining: Option<Instant>,
}

/// Build the waker pair: `rx` lives in the shard's poller, `tx` inside
/// the [`SpillBridge`] handed to workers and `stop()`.
pub(crate) fn spill_bridge() -> io::Result<(Arc<SpillBridge>, UnixStream)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((
        Arc::new(SpillBridge {
            completions: Mutex::new(Vec::new()),
            handoffs: Mutex::new(Vec::new()),
            waker_tx: tx,
        }),
        rx,
    ))
}

impl Reactor {
    #[allow(clippy::too_many_arguments)] // crate-private constructor with one call site
    pub(crate) fn new(
        shared: Arc<Shared>,
        shutdown: Arc<AtomicBool>,
        cfg: ShardConfig,
        listener: Option<TcpListener>,
        bridge: Arc<SpillBridge>,
        peers: Vec<Arc<SpillBridge>>,
        waker_rx: UnixStream,
    ) -> io::Result<Reactor> {
        let mut poller = if cfg.force_poll_backend {
            Poller::with_poll_backend()?
        } else {
            Poller::new()?
        };
        if let Some(listener) = &listener {
            listener.set_nonblocking(true)?;
            poller.register(listener.as_raw_fd(), LISTENER_TOKEN, true, false)?;
        }
        poller.register(waker_rx.as_raw_fd(), WAKER_TOKEN, true, false)?;
        let stats = shared
            .shard_stats
            .get(cfg.shard)
            .cloned()
            .unwrap_or_default();
        Ok(Reactor {
            shared,
            shutdown,
            poller,
            listener,
            waker_rx,
            bridge,
            peers,
            stats,
            shard: cfg.shard,
            n_shards: cfg.n_shards.max(1),
            rr: 0,
            scratch: vec![0u8; READ_CHUNK].into_boxed_slice(),
            refills: RefillPool::new(MAX_WRITE_PER_EVENT),
            conns: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_gen: 1,
            max_conns: cfg.max_conns.max(1),
            keepalive_idle: cfg.keepalive_idle,
            accept_paused: false,
            events: Vec::new(),
            last_sweep: Instant::now(),
            draining: None,
        })
    }

    /// True on the shard that owns the lone listener and forwards
    /// accepted connections to its peers (`SO_REUSEPORT` unavailable).
    fn distributes(&self) -> bool {
        self.n_shards > 1 && !self.peers.is_empty()
    }

    pub(crate) fn backend_name(&self) -> &'static str {
        self.poller.backend_name()
    }

    /// Apply a counter update to both this shard's stats and the
    /// whole-server aggregate, so existing gauges (and tests) keep their
    /// meaning while `/dcws/status` gains the per-shard breakdown.
    fn bump(&self, f: impl Fn(&ReactorStats)) {
        f(&self.shared.reactor);
        f(&self.stats);
    }

    /// The event loop. Returns when shutdown has drained (or timed out).
    pub(crate) fn run(&mut self) {
        while !self.poll_once(TICK) {}
        // Whatever remains gets a hard close so fds don't linger.
        for idx in 0..self.conns.len() {
            self.close_conn(idx);
        }
    }

    /// One loop turn: wait for readiness, dispatch, run completions and
    /// the timeout sweep. Returns `true` when the loop should exit.
    ///
    /// Every turn asserts the engine lock is not held: the reactor must
    /// stay lock-free or one engine critical section would head-of-line
    /// block every registered connection (regression-tested in this
    /// module — an engine-locked callback in the loop panics in debug
    /// builds).
    pub(crate) fn poll_once(&mut self, timeout: Duration) -> bool {
        assert_engine_unlocked("reactor event loop");
        self.events.clear();
        let n = self
            .poller
            .wait(&mut self.events, Some(timeout))
            .unwrap_or_default();
        self.bump(|s| s.note_batch(n));
        let events = std::mem::take(&mut self.events);
        for ev in &events {
            match ev.token {
                LISTENER_TOKEN => self.accept_burst(),
                WAKER_TOKEN => self.drain_waker(),
                token => self.handle_conn_event(token, ev.readable, ev.writable, ev.hangup),
            }
        }
        self.events = events;
        // Hand-off adoption and completions can land while we were
        // dispatching; drain both unconditionally (cheap when empty).
        self.adopt_handoffs();
        self.run_completions();
        if self.last_sweep.elapsed() >= SWEEP_EVERY {
            self.sweep_timeouts();
            self.last_sweep = Instant::now();
        }
        // A paused distributor must notice peers draining conns it never
        // sees close; re-check occupancy every turn while paused.
        if self.accept_paused {
            self.maybe_resume_accept();
        }
        if self.shutdown.load(Ordering::Relaxed) {
            return self.drive_shutdown();
        }
        false
    }

    // -- accept path ---------------------------------------------------

    /// Registered-connection occupancy the accept cap applies to: this
    /// shard's own slab with a per-shard listener, the whole-server
    /// aggregate when this shard distributes accepts to its peers.
    fn occupancy(&self) -> usize {
        if self.distributes() {
            self.shared.reactor.registered.load(Ordering::Relaxed) as usize
        } else {
            self.live
        }
    }

    fn accept_burst(&mut self) {
        loop {
            if self.occupancy() >= self.max_conns {
                self.pause_accept();
                return;
            }
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if self.distributes() {
                        // Hand-off fallback: spread accepted connections
                        // round-robin; peers adopt them on their next
                        // waker wake.
                        let target = self.rr % self.n_shards;
                        self.rr = self.rr.wrapping_add(1);
                        if target != self.shard {
                            self.peers[target].push_handoff(stream);
                            continue;
                        }
                    }
                    self.register_conn(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.bump(|s| {
                        s.accept_errors.fetch_add(1, Ordering::Relaxed);
                    });
                    return;
                }
            }
        }
    }

    /// Register connections a distributing peer handed to this shard.
    fn adopt_handoffs(&mut self) {
        if self.n_shards == 1 {
            return;
        }
        for stream in self.bridge.drain_handoffs() {
            if self.draining.is_some() {
                // Mid-shutdown adoptions close immediately — the drain
                // already passed its request-boundary sweep.
                drop(stream);
                continue;
            }
            self.register_conn(stream);
        }
    }

    fn pause_accept(&mut self) {
        if self.accept_paused {
            return;
        }
        if let Some(listener) = &self.listener {
            let _ = self.poller.deregister(listener.as_raw_fd());
            self.accept_paused = true;
            self.bump(|s| {
                s.accept_pauses.fetch_add(1, Ordering::Relaxed);
            });
        }
    }

    fn maybe_resume_accept(&mut self) {
        if !self.accept_paused || self.draining.is_some() {
            return;
        }
        // Re-arm below 90% of the cap so the listener doesn't flap
        // on/off around the boundary.
        if self.occupancy() < self.max_conns - self.max_conns / 10 {
            if let Some(listener) = &self.listener {
                if self
                    .poller
                    .register(listener.as_raw_fd(), LISTENER_TOKEN, true, false)
                    .is_ok()
                {
                    self.accept_paused = false;
                }
            }
        }
    }

    fn register_conn(&mut self, stream: TcpStream) {
        let gen = self.next_gen;
        self.next_gen = self.next_gen.wrapping_add(1).max(1);
        let conn = ClientConn {
            stream,
            gen,
            mb: crate::conn::MsgBuf::new(),
            out: OutQueue::default(),
            stream_body: None,
            awaiting_spill: false,
            close_after_flush: false,
            reg_readable: true,
            reg_writable: false,
            last_activity: Instant::now(),
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.conns[i] = Some(conn);
                i
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        };
        let token = pack_token(idx, gen);
        let fd = self.conns[idx].as_ref().unwrap().stream.as_raw_fd();
        if self.poller.register(fd, token, true, false).is_err() {
            self.conns[idx] = None;
            self.free.push(idx);
            return;
        }
        self.live += 1;
        self.bump(ReactorStats::note_conn_open);
    }

    fn close_conn(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].take() else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        drop(conn);
        self.free.push(idx);
        self.live -= 1;
        self.bump(ReactorStats::note_conn_close);
        self.maybe_resume_accept();
    }

    // -- per-connection I/O --------------------------------------------

    fn conn_at(&mut self, token: u64) -> Option<usize> {
        let (idx, gen) = unpack_token(token);
        match self.conns.get(idx) {
            Some(Some(c)) if c.gen == gen => Some(idx),
            _ => None,
        }
    }

    fn handle_conn_event(&mut self, token: u64, readable: bool, writable: bool, hangup: bool) {
        let Some(idx) = self.conn_at(token) else {
            return;
        };
        // Reads were paused while an entity streamed, so pipelined
        // requests may already sit in the buffer, and no readable event
        // will fire for those: once the stream's last slice is queued,
        // serve them (behind whatever the socket has yet to take).
        if writable && !(self.flush(idx) && self.process_buffered(idx)) {
            return;
        }
        if readable && !self.fill(idx) {
            return;
        }
        if hangup && !readable && !writable {
            // Pure error/hangup with nothing to read: the kernel says
            // this connection is done.
            self.close_conn(idx);
            return;
        }
        self.update_interest(idx);
    }

    /// Read until the socket is drained (bounded), serving every complete
    /// request as it arrives. Returns `false` if the connection was
    /// closed.
    fn fill(&mut self, idx: usize) -> bool {
        let mut read_bytes = 0usize;
        loop {
            let conn = self.conns[idx].as_mut().unwrap();
            if conn.awaiting_spill || conn.close_after_flush || conn.stream_body.is_some() {
                // Paused: leave bytes in the kernel buffer (TCP
                // backpressure) until the spill completes or the
                // in-progress streamed response finishes.
                return true;
            }
            let read = conn.mb.fill_from(&mut conn.stream, &mut self.scratch);
            self.bump(|s| {
                s.read_calls.fetch_add(1, Ordering::Relaxed);
            });
            let conn = self.conns[idx].as_mut().unwrap();
            match read {
                Ok(0) => {
                    // EOF. Anything buffered mid-message is an aborted
                    // request; either way the conversation is over once
                    // pending output drains.
                    if !conn.out.is_empty() {
                        conn.close_after_flush = true;
                        return true;
                    }
                    self.close_conn(idx);
                    return false;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    read_bytes += n;
                    if !self.process_buffered(idx) {
                        return false;
                    }
                    // A short read drained the socket: asking again would
                    // only buy an `EAGAIN` (level-triggered readiness
                    // reports whatever lands meanwhile). Past the fairness
                    // cap the residue is likewise re-delivered next turn.
                    if n < READ_CHUNK || read_bytes >= MAX_READ_PER_EVENT {
                        return true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(idx);
                    return false;
                }
            }
        }
    }

    /// Serve every complete request sitting in the buffer. Returns
    /// `false` if the connection was closed.
    fn process_buffered(&mut self, idx: usize) -> bool {
        loop {
            let conn = self.conns[idx].as_mut().unwrap();
            if conn.awaiting_spill || conn.close_after_flush || conn.stream_body.is_some() {
                return true;
            }
            match self.handle_request(idx) {
                Ok(Some(true)) => {}
                Ok(Some(false)) => return false,
                Ok(None) => return true,
                Err(_) => {
                    // Unparseable request: answer 400 and close once
                    // written (framing is unrecoverable).
                    let resp = Response::new(dcws_http::StatusCode::BadRequest);
                    let conn = self.conns[idx].as_mut().unwrap();
                    conn.out.push_shared(Served::from_response(resp).head);
                    conn.close_after_flush = true;
                    return self.flush(idx);
                }
            }
        }
    }

    /// Route the next buffered request, if one is complete: inline
    /// read-path serve, or spillover. `Ok(Some(alive))` reports whether
    /// the connection survived serving it.
    fn handle_request(&mut self, idx: usize) -> io::Result<Option<bool>> {
        let started = Instant::now();
        let closing = self.shutdown.load(Ordering::Relaxed);
        let conn = self.conns[idx].as_mut().unwrap();
        let Some(req) = conn.mb.peek_request()? else {
            return Ok(None);
        };
        let keep_alive = !closing
            && req.head.version == dcws_http::Version::Http11
            && !req
                .head
                .header("Connection")
                .is_some_and(|c| c.eq_ignore_ascii_case("close"));
        let method = req.head.method;
        let consumed = req.head.wire_len();
        // Fast path: prebuilt route, warm co-op copy, ready 301, or a
        // large object's resident reader — answered on this thread from
        // the borrowed head, with zero locks, body copies or (for a
        // plain GET of a buffered document) allocations. Everything else
        // (misses, non-GET, inter-server verbs, /dcws/*) needs the
        // engine and spills to the worker pool as an owned request; the
        // reactor thread itself never takes the engine lock.
        let routed = match self.shared.read.serve(&req.head) {
            Some(answer) => Ok(answer),
            None => Err(req.head.to_request(req.body)),
        };
        conn.mb.consume(consumed);
        let req = match routed {
            Ok((served, stream)) => {
                self.bump(|s| {
                    s.inline_served.fetch_add(1, Ordering::Relaxed);
                });
                return Ok(Some(
                    self.queue_response(idx, served, stream, method, keep_alive, started),
                ));
            }
            Err(req) => req,
        };
        let token = pack_token(idx, conn.gen);
        let job = SpillJob {
            token,
            shard: self.shard,
            req,
            keep_alive,
            started,
        };
        Ok(Some(match self.shared.queue.try_push(job) {
            Ok(()) => {
                self.bump(|s| {
                    s.spillover_jobs.fetch_add(1, Ordering::Relaxed);
                });
                let conn = self.conns[idx].as_mut().unwrap();
                conn.awaiting_spill = true;
                true
            }
            Err(_) => {
                // Spillover full: the explicit 503 + Retry-After rung of
                // the backpressure ladder. The connection stays alive —
                // this is a graceful drop, not a slammed socket.
                self.bump(|s| {
                    s.spillover_rejected.fetch_add(1, Ordering::Relaxed);
                });
                self.shared.dropped.fetch_add(1, Ordering::Relaxed);
                let served = self.shared.unavailable.clone();
                self.queue_response(idx, served, None, method, keep_alive, started)
            }
        }))
    }

    /// Queue `served` on the connection's output and flush as far as the
    /// socket allows: head and entity as two shared segments, so the
    /// serve is two `Arc` refcount bumps and the bytes leave user space
    /// exactly once, via `writev`. A streamed entity (`stream`) parks on
    /// the connection and is refilled slice by slice as the socket
    /// drains. Returns `false` if the connection was closed.
    fn queue_response(
        &mut self,
        idx: usize,
        mut served: Served,
        stream: Option<StreamBody>,
        method: Method,
        keep_alive: bool,
        started: Instant,
    ) -> bool {
        let closing = self.shutdown.load(Ordering::Relaxed);
        if closing {
            // Shutdown must break keep-alive at a request boundary, or
            // parked clients (and peers' pooled connections) would
            // never let the reactor drain.
            served.close_connection();
        }
        let conn = self.conns[idx].as_mut().unwrap();
        conn.out.push_shared(served.head);
        // HEAD gets the head alone (entity never read, never sent).
        let with_body = method != Method::Head && !served.body.is_empty();
        if method != Method::Head {
            conn.out.push_shared(served.body);
            // Streamed entity: head now, the first slice on this flush,
            // the rest as the socket drains.
            conn.stream_body = stream;
        }
        if !keep_alive || closing {
            conn.close_after_flush = true;
        }
        if with_body {
            debug_assert_eq!(self.stats.body_copies.load(Ordering::Relaxed), 0);
            self.bump(|s| {
                s.bodies_zero_copy.fetch_add(1, Ordering::Relaxed);
            });
        }
        self.shared.metrics.service_time.record(started.elapsed());
        if !self.flush(idx) {
            return false;
        }
        if self.conns[idx].is_some() {
            self.update_interest(idx);
        }
        self.conns[idx].is_some()
    }

    /// Write pending output until done or WouldBlock, refilling from any
    /// parked streamed entity (bounded per call, so one large transfer
    /// cannot monopolize the loop). Returns `false` if the connection
    /// was closed.
    ///
    /// The write syscall is `writev(2)` over the segment queue: head and
    /// body leave in one gather, a partial write advances the queue's
    /// front offset, and the next writable event resumes mid-segment.
    fn flush(&mut self, idx: usize) -> bool {
        let mut refilled = 0usize;
        loop {
            // Drain the segment queue.
            loop {
                let conn = self.conns[idx].as_mut().unwrap();
                if conn.out.is_empty() {
                    break;
                }
                let mut iov = [sys::IoVec::new(&[]); MAX_IOVECS];
                let cnt = conn.out.gather(&mut iov);
                match sys::writev(conn.stream.as_raw_fd(), &iov[..cnt]) {
                    Ok(0) => {
                        self.close_conn(idx);
                        return false;
                    }
                    Ok(n) => {
                        conn.out.advance(n, &mut self.refills);
                        conn.last_activity = Instant::now();
                        self.bump(|s| {
                            s.writev_calls.fetch_add(1, Ordering::Relaxed);
                            s.writev_segments.fetch_add(cnt as u64, Ordering::Relaxed);
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.close_conn(idx);
                        return false;
                    }
                }
            }
            let conn = self.conns[idx].as_mut().unwrap();
            let Some(body) = conn.stream_body.as_mut() else {
                if conn.close_after_flush {
                    self.close_conn(idx);
                    return false;
                }
                return true;
            };
            if refilled >= MAX_WRITE_PER_EVENT {
                // Fairness cap: writable interest stays armed (the
                // stream is still parked), so level-triggered
                // readiness resumes this transfer next turn.
                return true;
            }
            // The queue is empty — the head left first, on its own — so
            // the next slice of the entity is read straight into a
            // pooled buffer, which the writev above gathers from: no
            // staging chunk, no copy, one buffer on loan at a time.
            let mut buf = self.refills.take();
            let mut n = 0;
            while n < buf.len() && !body.done() {
                match body.read_chunk(&mut buf[n..]) {
                    Ok(k) => n += k,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        // The Content-Length framing is already on the
                        // wire; a dry source is unrecoverable.
                        self.close_conn(idx);
                        return false;
                    }
                }
            }
            refilled += n;
            if body.done() {
                conn.stream_body = None;
            }
            conn.out.push_refill(buf, n);
        }
    }

    /// Reconcile the poller's interest set with the connection's state:
    /// readable unless paused for spillover/stream/close, writable while
    /// output (buffered or streamed) is pending.
    fn update_interest(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        let want_read =
            !conn.awaiting_spill && !conn.close_after_flush && conn.stream_body.is_none();
        let want_write = !conn.out.is_empty() || conn.stream_body.is_some();
        if want_read == conn.reg_readable && want_write == conn.reg_writable {
            return;
        }
        let token = pack_token(idx, conn.gen);
        let fd = conn.stream.as_raw_fd();
        conn.reg_readable = want_read;
        conn.reg_writable = want_write;
        if self
            .poller
            .modify(fd, token, want_read, want_write)
            .is_err()
        {
            self.close_conn(idx);
        }
    }

    // -- spillover completions -----------------------------------------

    fn drain_waker(&mut self) {
        let mut sink = [0u8; 256];
        loop {
            match (&self.waker_rx).read(&mut sink) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // WouldBlock: fully drained
            }
        }
    }

    fn run_completions(&mut self) {
        let done = self.bridge.drain();
        for c in done {
            let Some(idx) = self.conn_at(c.token) else {
                // The connection died while its job was in flight; the
                // generation check keeps the response from landing on a
                // recycled slot.
                continue;
            };
            self.conns[idx].as_mut().unwrap().awaiting_spill = false;
            if !self.queue_response(idx, c.served, c.stream, c.method, c.keep_alive, c.started) {
                continue;
            }
            // Reads were paused while the job ran; pipelined requests
            // may already be buffered — serve them now.
            if self.process_buffered(idx) && self.conns[idx].is_some() {
                self.update_interest(idx);
            }
        }
    }

    // -- timeouts and shutdown -----------------------------------------

    fn sweep_timeouts(&mut self) {
        let now = Instant::now();
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_ref() else {
                continue;
            };
            if conn.awaiting_spill {
                continue; // the worker owns the clock here
            }
            let idle = now.duration_since(conn.last_activity);
            if conn.mb.mid_message() || !conn.out.is_empty() || conn.stream_body.is_some() {
                // Mid-request (slow loris) or mid-response (dead
                // reader): same budget a blocking worker's socket
                // timeout would have enforced.
                if idle >= READ_TIMEOUT {
                    self.bump(|s| {
                        s.timeout_closed.fetch_add(1, Ordering::Relaxed);
                    });
                    self.close_conn(idx);
                }
            } else if idle >= self.keepalive_idle {
                // Parked at a request boundary past the keep-alive TTL.
                self.bump(|s| {
                    s.idle_closed.fetch_add(1, Ordering::Relaxed);
                });
                self.close_conn(idx);
            }
        }
    }

    /// Progress the drain; returns `true` once the loop should exit.
    fn drive_shutdown(&mut self) -> bool {
        if self.draining.is_none() {
            self.draining = Some(Instant::now());
            // Stop accepting for good.
            if !self.accept_paused {
                if let Some(l) = &self.listener {
                    let _ = self.poller.deregister(l.as_raw_fd());
                }
            }
            self.listener = None;
            // Request-boundary drain: anything idle closes now;
            // anything mid-exchange finishes its current response
            // (queue_response adds `Connection: close` under shutdown).
            for idx in 0..self.conns.len() {
                let Some(conn) = self.conns[idx].as_ref() else {
                    continue;
                };
                if !conn.awaiting_spill && conn.out.is_empty() && conn.stream_body.is_none() {
                    self.close_conn(idx);
                }
            }
        }
        if self.live == 0 {
            return true;
        }
        if self.draining.is_some_and(|t| t.elapsed() >= DRAIN_DEADLINE) {
            for idx in 0..self.conns.len() {
                self.close_conn(idx);
            }
            return true;
        }
        false
    }
}

fn pack_token(idx: usize, gen: u32) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

fn unpack_token(token: u64) -> (usize, u32) {
    ((token & 0xffff_ffff) as usize, (token >> 32) as u32)
}

#[cfg(test)]
mod tests;
