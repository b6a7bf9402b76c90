//! Reactor statistics (the `reactor` section of /dcws/status).

use dcws_core::Json;
use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free counters the reactor maintains: one instance per shard
/// plus a whole-server aggregate.
#[derive(Debug, Default)]
pub struct ReactorStats {
    /// Currently registered client connections (gauge).
    pub registered: AtomicU64,
    /// High-water mark of `registered`.
    pub peak: AtomicU64,
    /// Connections accepted since start.
    pub accepted: AtomicU64,
    /// Accept-loop errors (excluding WouldBlock).
    pub accept_errors: AtomicU64,
    /// Times the listener was paused for hitting its connection ceiling.
    pub accept_pauses: AtomicU64,
    /// Requests answered inline on the reactor thread (read-path hits).
    pub inline_served: AtomicU64,
    /// Requests handed to the spillover worker pool.
    pub spillover_jobs: AtomicU64,
    /// Requests answered `503 Retry-After` because the spillover queue
    /// was full.
    pub spillover_rejected: AtomicU64,
    /// `epoll_wait`/`poll` returns that delivered at least one event.
    pub batches: AtomicU64,
    /// Sum of ready-batch sizes (mean = `batch_events / batches`).
    pub batch_events: AtomicU64,
    /// Largest single ready batch.
    pub batch_max: AtomicU64,
    /// Keep-alive connections closed by the idle sweep (parked past the
    /// configured keep-alive TTL, at a request boundary).
    pub idle_closed: AtomicU64,
    /// Connections closed mid-message by the sweep (slow-loris guard:
    /// a partial head/body older than
    /// [`READ_TIMEOUT`](crate::conn::READ_TIMEOUT)).
    pub timeout_closed: AtomicU64,
    /// `epoll_wait`/`poll` calls, whether or not they delivered events.
    pub poll_waits: AtomicU64,
    /// `read(2)` calls on client sockets, including those that returned
    /// `EAGAIN` or EOF. With `poll_waits` and `writev_calls` this is the
    /// reactor's syscall count: a warm keep-alive GET costs one of each.
    pub read_calls: AtomicU64,
    /// `writev(2)` syscalls issued by the vectored flush path.
    pub writev_calls: AtomicU64,
    /// Total iovec segments across those calls (mean segments per call =
    /// `writev_segments / writev_calls`).
    pub writev_segments: AtomicU64,
    /// Response bodies queued as a shared `Arc` segment — no memcpy; the
    /// refcount holds the bytes until the kernel has taken them all.
    pub bodies_zero_copy: AtomicU64,
    /// Response bodies memcpy'd into the out-buffer. No path does that
    /// any more (the copy-on-serve A/B arm is gone), so this stays 0 —
    /// debug-asserted where a body is queued; the field remains for the
    /// dashboards and gates that read it.
    pub body_copies: AtomicU64,
}

impl ReactorStats {
    pub(super) fn note_conn_open(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        let now = self.registered.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    pub(super) fn note_conn_close(&self) {
        self.registered.fetch_sub(1, Ordering::Relaxed);
    }

    pub(super) fn note_batch(&self, n: usize) {
        self.poll_waits.fetch_add(1, Ordering::Relaxed);
        if n == 0 {
            return;
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_events.fetch_add(n as u64, Ordering::Relaxed);
        self.batch_max.fetch_max(n as u64, Ordering::Relaxed);
    }

    /// The `reactor` status section. `backend` names the running
    /// poller; ratios are derived here so dashboards don't have to.
    pub fn to_json(&self, backend: &str, queue_depth: usize, queue_cap: usize) -> Json {
        let inline = self.inline_served.load(Ordering::Relaxed);
        let spilled = self.spillover_jobs.load(Ordering::Relaxed);
        let total = inline + spilled;
        let batches = self.batches.load(Ordering::Relaxed);
        let events = self.batch_events.load(Ordering::Relaxed);
        Json::obj(vec![
            ("backend", Json::from(backend)),
            (
                "registered_conns",
                Json::from(self.registered.load(Ordering::Relaxed)),
            ),
            ("peak_conns", Json::from(self.peak.load(Ordering::Relaxed))),
            (
                "accepted",
                Json::from(self.accepted.load(Ordering::Relaxed)),
            ),
            (
                "accept_errors",
                Json::from(self.accept_errors.load(Ordering::Relaxed)),
            ),
            (
                "accept_pauses",
                Json::from(self.accept_pauses.load(Ordering::Relaxed)),
            ),
            ("inline_served", Json::from(inline)),
            (
                "inline_ratio",
                Json::from(if total > 0 {
                    inline as f64 / total as f64
                } else {
                    0.0
                }),
            ),
            (
                "spillover",
                Json::obj(vec![
                    ("jobs", Json::from(spilled)),
                    (
                        "rejected_503",
                        Json::from(self.spillover_rejected.load(Ordering::Relaxed)),
                    ),
                    ("queue_depth", Json::from(queue_depth)),
                    ("queue_capacity", Json::from(queue_cap)),
                ]),
            ),
            (
                "ready_batches",
                Json::obj(vec![
                    ("count", Json::from(batches)),
                    (
                        "mean",
                        Json::from(if batches > 0 {
                            events as f64 / batches as f64
                        } else {
                            0.0
                        }),
                    ),
                    ("max", Json::from(self.batch_max.load(Ordering::Relaxed))),
                ]),
            ),
            (
                "closed",
                Json::obj(vec![
                    (
                        "keepalive_idle",
                        Json::from(self.idle_closed.load(Ordering::Relaxed)),
                    ),
                    (
                        "read_timeout",
                        Json::from(self.timeout_closed.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            (
                "writes",
                Json::obj(vec![
                    (
                        "poll_waits",
                        Json::from(self.poll_waits.load(Ordering::Relaxed)),
                    ),
                    (
                        "read_calls",
                        Json::from(self.read_calls.load(Ordering::Relaxed)),
                    ),
                    (
                        "writev_calls",
                        Json::from(self.writev_calls.load(Ordering::Relaxed)),
                    ),
                    (
                        "writev_segments",
                        Json::from(self.writev_segments.load(Ordering::Relaxed)),
                    ),
                    (
                        "bodies_zero_copy",
                        Json::from(self.bodies_zero_copy.load(Ordering::Relaxed)),
                    ),
                    (
                        "body_copies",
                        Json::from(self.body_copies.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
        ])
    }

    /// Compact per-shard breakdown appended to the aggregate `reactor`
    /// status section as the `shards` array.
    pub fn shard_json(&self, shard: usize) -> Json {
        Json::obj(vec![
            ("shard", Json::from(shard as u64)),
            (
                "registered_conns",
                Json::from(self.registered.load(Ordering::Relaxed)),
            ),
            ("peak_conns", Json::from(self.peak.load(Ordering::Relaxed))),
            (
                "accepted",
                Json::from(self.accepted.load(Ordering::Relaxed)),
            ),
            (
                "inline_served",
                Json::from(self.inline_served.load(Ordering::Relaxed)),
            ),
            (
                "spillover_jobs",
                Json::from(self.spillover_jobs.load(Ordering::Relaxed)),
            ),
            (
                "poll_waits",
                Json::from(self.poll_waits.load(Ordering::Relaxed)),
            ),
            (
                "read_calls",
                Json::from(self.read_calls.load(Ordering::Relaxed)),
            ),
            (
                "writev_calls",
                Json::from(self.writev_calls.load(Ordering::Relaxed)),
            ),
        ])
    }
}
