//! Real TCP transport for DCWS — the §5.1 prototype architecture on
//! `std::thread`, with an event-driven front end in place of its
//! acceptor and thread-per-connection workers (the socket queue, the
//! worker pool, the graceful 503 and the pinger are the paper's).
//!
//! A [`DcwsServer`] runs these thread roles (see
//! `docs/ARCHITECTURE.md` for the full request lifecycle):
//!
//! * **reactor shards** (the front end, [`reactor`];
//!   `NetConfig::reactor_shards`, default `min(cores, 8)`): each shard
//!   is one thread running a nonblocking accept loop plus an
//!   `epoll`/`poll` readiness event loop over its own connection slab —
//!   tens of thousands of idle keep-alive clients cost an fd and a few
//!   hundred bytes each, not a thread. On Linux every shard binds its
//!   own `SO_REUSEPORT` listener and the kernel spreads accepts;
//!   elsewhere shard 0 owns the lone listener and hands accepted
//!   sockets to its peers round-robin over their waker pipes.
//!   Responses leave through zero-copy vectored writes: the response
//!   head and the shared entity [`Body`](dcws_http::Body) Arc go out in
//!   one `writev(2)` with no per-serve copy of the document bytes.
//!   Common-case GETs are answered inline on the engine's concurrent
//!   [`ReadPath`](dcws_core::ReadPath); engine-locked work spills to
//!   the worker pool over one shared bounded queue, with accept-pause
//!   and `503 Retry-After` backpressure;
//! * **worker threads** (N_wk = 12 by default): compute responses for
//!   spilled requests (misses, mutations, inter-server verbs,
//!   `/dcws/*`) and post them back over the originating shard's
//!   completion bridge — they never touch client sockets;
//! * **pinger/statistics thread** (N_pi = 1): drives
//!   [`ServerEngine::tick`](dcws_core::ServerEngine::tick) — statistics
//!   recalculation, migration decisions, artificial ping transfers,
//!   co-op revalidation — sends the calls it returns, in order, and
//!   hands each reply to the same door the workers use
//!   ([`Front::answered`](dcws_core::Front::answered)), folding each ping
//!   round-trip into a per-peer RTT EWMA surfaced as
//!   `transport.peer_rtt_ms` in `/dcws/status`.
//!
//! The multithreaded (rather than pool-of-processes) design is the
//! paper's: workers and the statistics module share the Local Document
//! Graph and Global Load Table through one lock — with two amendments:
//! the common-case GET is answered on the concurrent read path with no
//! engine lock at all, and the lock is never held across a socket call
//! nor inside the reactor's event loop ([`assert_engine_unlocked`] is
//! debug-asserted in both places).
//!
//! The transport also maintains **observability** state the engine
//! cannot see: per-request service-time and queue-wait latency
//! histograms ([`metrics`]) and the graceful-drop counter. Together with
//! the engine's own counters and event log they are exposed as JSON at
//! the reserved `GET /dcws/status` endpoint
//! ([`DcwsServer::status_json`]).
//!
//! Every inter-server socket call — a [`dcws_core::Call`]: pull, push,
//! ping or validation — goes through the resilient [`Transport`]:
//! persistent keep-alive connection reuse through a bounded per-peer
//! [`ConnPool`] (pings exempt, so §4.5 dead-peer detection stays
//! honest), per-attempt timeouts, capped exponential backoff with seeded
//! jitter ([`RetryPolicy`]), a body integrity check, and optional
//! deterministic fault injection ([`FaultPlan`] / [`FaultInjector`]) so
//! chaos runs are reproducible from a seed (see `docs/RESILIENCE.md`
//! and the "Connection reuse" section of `docs/PERFORMANCE.md`).
//!
//! [`client`] provides the small blocking HTTP client used for
//! inter-server transfers and by the examples. [`walker`] is the paper's
//! benchmark client (Algorithm 2) as a sans-IO state machine, driven by
//! [`client::walk`] in `dcws-walk` and by the simulator's client adapter.

#![warn(missing_docs)]

pub mod client;
pub mod conn;
pub mod faults;
pub mod lock;
pub mod metrics;
pub mod pool;
pub mod queue;
pub mod reactor;
pub mod retry;
pub mod server;
pub mod transport;
pub mod walker;

pub use client::{fetch, fetch_from, walk, WalkTally};
pub use conn::{BufferedRequest, MsgBuf, READ_CHUNK};
pub use faults::{Blackout, Decision, FaultInjector, FaultPlan, FaultSnapshot, FirstFaultKind};
pub use lock::{assert_engine_unlocked, EngineGuard, EngineLock};
pub use metrics::{HistogramSnapshot, LatencyHistogram, TransportMetrics};
pub use pool::{ConnPool, PoolConfig, PoolEvent, PoolSnapshot, PooledConn};
pub use queue::{Queued, SocketQueue};
pub use reactor::{raise_nofile_limit, Event, Poller, ReactorStats};
pub use retry::RetryPolicy;
pub use server::{DcwsServer, NetConfig};
pub use transport::{IoSnapshot, Transport};
pub use walker::{ClientModel, Heard, Links, Next, Walker};
