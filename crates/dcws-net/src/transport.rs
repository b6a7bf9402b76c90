//! The resilient inter-server I/O layer.
//!
//! Every inter-server call ([`Call`]: a lazy pull, an eager push, a
//! ping, a T_val validation) goes through [`Transport::call`], which
//! layers four things over a raw socket exchange:
//!
//! 1. **Connection reuse** ([`ConnPool`]): calls check a persistent
//!    keep-alive connection out of a per-peer pool instead of dialing,
//!    so one TCP handshake is amortized over many pulls, pushes, and
//!    validations. Pings are exempt — they always dial fresh so §4.5
//!    dead-peer detection measures a real connection attempt. A request
//!    that dies on a *reused* stream before any response byte (the peer
//!    closed it idle) is retried once on a fresh dial without consuming
//!    the retry budget; responses carrying `Connection: close` and
//!    failed exchanges evict the stream (see `docs/PERFORMANCE.md`);
//! 2. **Fault injection** ([`FaultInjector`]): an optional seeded plan
//!    decides per attempt whether to refuse, delay, cut off, or garble
//!    the operation, so chaos runs are reproducible. The decision is
//!    drawn once per attempt and reapplied verbatim to a stale-reuse
//!    redial, so pooling never perturbs the fault sequence;
//! 3. **Integrity**: a response carrying `X-DCWS-Body-FNV` has its body
//!    re-hashed; a mismatch (truncated or garbled transfer) is a
//!    *retryable* I/O error, never a corrupt document install;
//! 4. **Retries** ([`RetryPolicy`]): per-attempt timeout, capped
//!    exponential backoff with seeded jitter, overall deadline. Pings
//!    use a separate single-attempt policy so a dead peer feeds the
//!    §4.5 failure counter promptly instead of being masked.
//!
//! The engine lock is never held across a call — asserted on entry
//! (see `docs/PERFORMANCE.md`), which also keeps backoff sleeps out of
//! the lock's critical path.

use crate::client::fetch_from_timeout;
use crate::conn::{drain_body_chunks, read_response_head_buf, write_request};
use crate::faults::{Decision, FaultInjector};
use crate::lock::assert_engine_unlocked;
use crate::pool::{ConnPool, Evict, PoolConfig, PooledConn};
use crate::retry::RetryPolicy;
use dcws_core::Call;
use dcws_graph::ServerId;
use dcws_http::{checksum_matches, Request, Response, RollingChecksum, Version, CHECKSUM_HEADER};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Monotonic I/O counters, for `/dcws/status`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Individual attempts made (first tries + retries).
    pub attempts: u64,
    /// Calls that returned a response.
    pub successes: u64,
    /// Retries performed (attempts beyond a call's first).
    pub retries: u64,
    /// Calls that exhausted attempts or deadline.
    pub giveups: u64,
    /// Responses rejected by the body integrity check.
    pub corrupt: u64,
    /// Total milliseconds slept in backoff.
    pub backoff_ms: u64,
    /// Free redials after a reused pooled stream died before any
    /// response byte (not counted against the retry budget).
    pub stale_retries: u64,
}

#[derive(Debug, Default)]
struct IoCounters {
    attempts: AtomicU64,
    successes: AtomicU64,
    retries: AtomicU64,
    giveups: AtomicU64,
    corrupt: AtomicU64,
    backoff_ms: AtomicU64,
    stale_retries: AtomicU64,
}

/// Timeout for ping transfers: headers-only, so generous is still fast.
const PING_TIMEOUT: Duration = Duration::from_secs(2);

/// The shared inter-server I/O layer (see module docs). One per
/// [`DcwsServer`](crate::DcwsServer), shared by workers and the pinger
/// thread; all methods take `&self`.
#[derive(Debug)]
pub struct Transport {
    policy: RetryPolicy,
    ping_policy: RetryPolicy,
    faults: Option<Arc<FaultInjector>>,
    pool: ConnPool,
    counters: IoCounters,
}

/// How one exchange failed, and whether the failure is the stale-reuse
/// signature (connection-level death before any response byte, eligible
/// for a free redial when the stream was reused).
struct ExchangeErr {
    err: io::Error,
    stale_candidate: bool,
}

impl Transport {
    /// Build a transport with `policy` for pulls/pushes/validations, an
    /// optional outbound fault injector, and the default pool sizing.
    pub fn new(policy: RetryPolicy, faults: Option<Arc<FaultInjector>>) -> Transport {
        Transport::with_pool(policy, faults, PoolConfig::default())
    }

    /// [`Transport::new`] with explicit connection-pool knobs
    /// (`max_per_peer: 0` disables pooling).
    pub fn with_pool(
        policy: RetryPolicy,
        faults: Option<Arc<FaultInjector>>,
        pool: PoolConfig,
    ) -> Transport {
        Transport {
            policy,
            ping_policy: RetryPolicy::single(PING_TIMEOUT),
            faults,
            pool: ConnPool::new(pool),
            counters: IoCounters::default(),
        }
    }

    /// The outbound fault injector, if one is installed.
    pub fn faults(&self) -> Option<&Arc<FaultInjector>> {
        self.faults.as_ref()
    }

    /// The retry policy for non-ping operations.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// The persistent inter-server connection pool.
    pub fn pool(&self) -> &ConnPool {
        &self.pool
    }

    /// Send `req` to `peer` for `call`, retrying per policy. Returns the
    /// first intact response, or the last error once attempts or the
    /// deadline run out.
    pub fn call(&self, peer: &ServerId, req: &Request, call: &Call) -> io::Result<Response> {
        assert_engine_unlocked("inter-server transport call");
        let ping = *call == Call::Ping;
        let policy = if ping {
            &self.ping_policy
        } else {
            &self.policy
        };
        let salt = salt_of(peer.as_str(), &req.target, call.label());
        let started = Instant::now();
        let mut last_err: Option<io::Error> = None;
        for attempt in 0..policy.max_attempts {
            if attempt > 0 {
                let pause = policy.backoff(attempt, salt);
                if started.elapsed().saturating_add(pause) > policy.deadline {
                    break;
                }
                self.counters.retries.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .backoff_ms
                    .fetch_add(pause.as_millis() as u64, Ordering::Relaxed);
                std::thread::sleep(pause);
            }
            self.counters.attempts.fetch_add(1, Ordering::Relaxed);
            match self.attempt(peer, req, policy.attempt_timeout, ping) {
                Ok(resp) => {
                    self.counters.successes.fetch_add(1, Ordering::Relaxed);
                    return Ok(resp);
                }
                Err(e) => last_err = Some(e),
            }
            if started.elapsed() >= policy.deadline {
                break;
            }
        }
        self.counters.giveups.fetch_add(1, Ordering::Relaxed);
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::TimedOut, "call deadline left no attempts")
        }))
    }

    /// One attempt: apply the injected fault decision, perform the
    /// exchange over a pooled (or, for pings, fresh) connection, verify
    /// body integrity. A reused stream that dies before yielding any
    /// response byte is retried once on a fresh dial with the *same*
    /// fault decision, so the injected schedule is identical whether or
    /// not the pool handed out a stale socket.
    fn attempt(
        &self,
        peer: &ServerId,
        req: &Request,
        timeout: Duration,
        ping: bool,
    ) -> io::Result<Response> {
        let decision = match &self.faults {
            Some(f) => f.outbound(peer.as_str(), &req.target),
            None => Decision::default(),
        };
        if decision.delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(decision.delay_ms));
        }
        if decision.refuse {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "injected fault: connection refused",
            ));
        }
        if ping {
            // Pings measure connection health: always a fresh dial,
            // never a pooled stream, closed right after (§4.5).
            let resp = fetch_from_timeout(peer, req, timeout)?;
            return self.finish(resp, &decision);
        }
        let conn = self.pool.checkout(peer, timeout)?;
        let was_reused = conn.reused;
        match self.exchange(peer, conn, req, &decision) {
            Ok(resp) => Ok(resp),
            Err(ExchangeErr {
                err,
                stale_candidate,
            }) => {
                if was_reused && stale_candidate {
                    // The parked stream was dead on arrival (peer closed
                    // it idle). The request never reached an application,
                    // so redialing is free: no retry-budget charge, no
                    // new fault draw.
                    self.counters.stale_retries.fetch_add(1, Ordering::Relaxed);
                    self.pool.note_stale_retry(peer);
                    let fresh = self.pool.dial(peer, timeout)?;
                    return self
                        .exchange(peer, fresh, req, &decision)
                        .map_err(|e| e.err);
                }
                Err(err)
            }
        }
    }

    /// One request/response over `conn`, returning the stream to the
    /// pool on success (unless the peer asked to close) and evicting it
    /// on any failure. The response head is parsed first, then the
    /// entity is drained from the wire chunk by chunk with the rolling
    /// FNV folded in as each piece arrives. A transfer that dies
    /// mid-body aborts at the point of death instead of after
    /// buffering, and a digest mismatch is detected before a
    /// [`Response`] carrying the bytes is ever constructed — a corrupt
    /// copy cannot escape this function.
    ///
    /// Injected faults apply at byte granularity: a mid-response drop
    /// kills the transfer at the body midpoint, a garble flips the byte
    /// at `body_len / 2` — the same byte [`Transport::finish`] flips on
    /// the ping path.
    fn exchange(
        &self,
        peer: &ServerId,
        mut conn: PooledConn,
        req: &Request,
        decision: &Decision,
    ) -> Result<Response, ExchangeErr> {
        let fail = |err: io::Error, buffered: usize| {
            // Connection-level death before any response byte is the
            // stale-reuse signature; anything else (timeout, mid-response
            // EOF with partial bytes) goes to the normal retry path.
            let stale_candidate = buffered == 0 && is_conn_death(&err);
            ExchangeErr {
                err,
                stale_candidate,
            }
        };
        let head = write_request(&mut conn.stream, req)
            .and_then(|()| read_response_head_buf(&mut conn.stream, req.method, &mut conn.buf));
        let head = match head {
            Ok(h) => h,
            Err(err) => {
                let e = fail(err, conn.buf.buffered());
                self.pool.evict(peer, conn, Evict::Error);
                return Err(e);
            }
        };
        let body_len = head.body_len;
        let cut = decision.drop_mid_response.then_some(body_len / 2);
        let garble_at = (decision.garble && body_len > 0).then_some(body_len / 2);
        let mut sum = RollingChecksum::new();
        let mut body: Vec<u8> = Vec::with_capacity(body_len);
        let drained = drain_body_chunks(&mut conn.stream, &mut conn.buf, body_len, &mut |chunk| {
            let at = body.len();
            if cut.is_some_and(|c| at + chunk.len() > c) {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "injected fault: connection closed mid-response",
                ));
            }
            body.extend_from_slice(chunk);
            if let Some(g) = garble_at {
                if g >= at && g < body.len() {
                    body[g] ^= 0x20;
                }
            }
            sum.update(&body[at..]);
            Ok(())
        });
        if let Err(err) = drained {
            self.pool.evict(peer, conn, Evict::Error);
            return Err(ExchangeErr {
                err,
                stale_candidate: false,
            });
        }
        if decision.drop_mid_response {
            // Empty-body edge: no chunk ever hit the midpoint cut, but
            // the drop must still fire.
            self.pool.evict(peer, conn, Evict::Error);
            return Err(ExchangeErr {
                err: io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "injected fault: connection closed mid-response",
                ),
                stale_candidate: false,
            });
        }
        if let Some(expect) = head.resp.headers.get(CHECKSUM_HEADER) {
            if !sum.matches(expect) {
                // The bytes never become a Response: dropped here,
                // before any caller could install them.
                self.counters.corrupt.fetch_add(1, Ordering::Relaxed);
                self.pool.evict(peer, conn, Evict::Error);
                return Err(ExchangeErr {
                    err: io::Error::new(
                        io::ErrorKind::InvalidData,
                        "inter-server body failed integrity check",
                    ),
                    stale_candidate: false,
                });
            }
        }
        let mut resp = head.resp;
        resp.body = body.into();
        let keep = resp.version == Version::Http11
            && !resp
                .headers
                .get("Connection")
                .is_some_and(|c| c.eq_ignore_ascii_case("close"));
        if keep {
            self.pool.checkin(peer, conn);
        } else {
            self.pool.evict(peer, conn, Evict::PeerClose);
        }
        Ok(resp)
    }

    /// Post-exchange response handling of the ping path: apply an
    /// injected garble, verify body integrity.
    fn finish(&self, mut resp: Response, decision: &Decision) -> io::Result<Response> {
        if decision.garble && !resp.body.is_empty() {
            let mut bytes = resp.body.to_vec();
            let i = bytes.len() / 2;
            bytes[i] ^= 0x20;
            resp.body = bytes.into();
        }
        if let Some(sum) = resp.headers.get(CHECKSUM_HEADER) {
            if !checksum_matches(&resp.body, sum) {
                self.counters.corrupt.fetch_add(1, Ordering::Relaxed);
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "inter-server body failed integrity check",
                ));
            }
        }
        Ok(resp)
    }

    /// I/O counter snapshot.
    pub fn snapshot(&self) -> IoSnapshot {
        let c = &self.counters;
        IoSnapshot {
            attempts: c.attempts.load(Ordering::Relaxed),
            successes: c.successes.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            giveups: c.giveups.load(Ordering::Relaxed),
            corrupt: c.corrupt.load(Ordering::Relaxed),
            backoff_ms: c.backoff_ms.load(Ordering::Relaxed),
            stale_retries: c.stale_retries.load(Ordering::Relaxed),
        }
    }
}

/// Error kinds a dead (peer-closed) connection produces on first use.
pub(crate) fn is_conn_death(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::WriteZero
    )
}

/// FNV-1a over the call identity, salting backoff jitter so concurrent
/// retries against one peer spread out instead of stampeding.
fn salt_of(peer: &str, target: &str, label: &str) -> u64 {
    let mut h = RollingChecksum::new();
    for part in [peer, target, label] {
        h.update(part.as_bytes());
    }
    h.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::{read_request_buf, write_response, MsgBuf};
    use crate::faults::{FaultPlan, FirstFaultKind};
    use dcws_http::{body_checksum, StatusCode};
    use std::net::TcpListener;

    /// A keep-alive server answering every request with `resp`,
    /// counting them. One thread per connection, each served until EOF
    /// or a 5 s idle timeout, so pooled streams can carry many requests
    /// while fresh dials (pings, redials) are accepted concurrently.
    fn counting_server(resp: Response) -> (ServerId, Arc<AtomicU64>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let served = Arc::new(AtomicU64::new(0));
        let served2 = served.clone();
        std::thread::spawn(move || {
            while let Ok((mut s, _)) = listener.accept() {
                let served = served2.clone();
                let resp = resp.clone();
                std::thread::spawn(move || {
                    let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
                    let mut mb = MsgBuf::new();
                    while let Ok(Some(req)) = read_request_buf(&mut s, &mut mb) {
                        served.fetch_add(1, Ordering::Relaxed);
                        if write_response(&mut s, &resp, req.method).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        (ServerId::new(format!("127.0.0.1:{}", addr.port())), served)
    }

    /// A pull; the transport reads only its label.
    const PULL: Call = Call::Pull {
        path: String::new(),
    };

    /// Every call but a ping: each goes over a pooled connection.
    const POOLED: [Call; 3] = [
        PULL,
        Call::Validate {
            path: String::new(),
        },
        Call::Push,
    ];

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            attempt_timeout: Duration::from_secs(2),
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(10),
            deadline: Duration::from_secs(5),
            jitter_seed: 1,
        }
    }

    #[test]
    fn clean_call_round_trips() {
        let (server, served) = counting_server(Response::ok(b"ok".to_vec(), "text/plain"));
        let t = Transport::new(fast_policy(), None);
        let resp = t.call(&server, &Request::get("/x"), &PULL).unwrap();
        assert_eq!(resp.status, StatusCode::Ok);
        assert_eq!(served.load(Ordering::Relaxed), 1);
        let snap = t.snapshot();
        assert_eq!((snap.attempts, snap.successes, snap.retries), (1, 1, 0));
    }

    #[test]
    fn repeated_calls_reuse_one_connection() {
        let (server, served) = counting_server(Response::ok(b"ok".to_vec(), "text/plain"));
        let t = Transport::new(fast_policy(), None);
        for _ in 0..10 {
            let resp = t.call(&server, &Request::get("/x"), &PULL).unwrap();
            assert_eq!(resp.status, StatusCode::Ok);
        }
        assert_eq!(served.load(Ordering::Relaxed), 10);
        let pool = t.pool().snapshot();
        assert_eq!(pool.dials, 1, "one dial serves all ten calls");
        assert_eq!(pool.hits, 9);
        assert!(pool.reuse_ratio() >= 0.9);
    }

    #[test]
    fn dropped_first_attempt_is_retried_transparently() {
        let (server, served) = counting_server(Response::ok(b"ok".to_vec(), "text/plain"));
        let inj = Arc::new(FaultInjector::new(
            FaultPlan::new(3).with_fail_first(1, FirstFaultKind::Drop),
        ));
        let t = Transport::new(fast_policy(), Some(inj));
        let resp = t.call(&server, &Request::get("/x"), &PULL).unwrap();
        assert_eq!(resp.status, StatusCode::Ok);
        // Both attempts reached the wire; only the second counted.
        assert_eq!(served.load(Ordering::Relaxed), 2);
        let snap = t.snapshot();
        assert_eq!((snap.attempts, snap.retries, snap.successes), (2, 1, 1));
        // The injected drop evicted the first stream rather than parking it.
        assert_eq!(t.pool().snapshot().evicted_error, 1);
    }

    #[test]
    fn refused_attempts_exhaust_into_giveup() {
        let (server, served) = counting_server(Response::ok(b"ok".to_vec(), "text/plain"));
        let inj = Arc::new(FaultInjector::new(FaultPlan::new(0).with_refuse(1.0)));
        let t = Transport::new(fast_policy(), Some(inj));
        let err = t.call(&server, &Request::get("/x"), &PULL).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        assert_eq!(served.load(Ordering::Relaxed), 0, "never reached the wire");
        let snap = t.snapshot();
        assert_eq!((snap.attempts, snap.giveups), (3, 1));
    }

    #[test]
    fn garbled_body_is_rejected_by_checksum_and_retried() {
        let body = b"important document".to_vec();
        let resp = Response::ok(body.clone(), "text/plain")
            .with_header(CHECKSUM_HEADER, body_checksum(&body));
        let (server, _) = counting_server(resp);
        let inj = Arc::new(FaultInjector::new(
            FaultPlan::new(5).with_fail_first(1, FirstFaultKind::Drop),
        ));
        // Reuse fail-first as a deterministic "first attempt bad" and
        // verify garble detection separately below.
        let t = Transport::new(fast_policy(), Some(inj));
        let got = t.call(&server, &Request::get("/d"), &PULL).unwrap();
        assert_eq!(got.body, body.as_slice());

        // Now a permanently garbling injector: every attempt corrupts,
        // the checksum rejects each one, and the call gives up with
        // InvalidData instead of returning corrupt bytes.
        let resp2 = Response::ok(body.clone(), "text/plain")
            .with_header(CHECKSUM_HEADER, body_checksum(&body));
        let (server2, _) = counting_server(resp2);
        let always_garble = Arc::new(FaultInjector::new(FaultPlan::new(1).with_garble(1.0)));
        let t2 = Transport::new(fast_policy(), Some(always_garble));
        let err = t2.call(&server2, &Request::get("/d"), &PULL).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(t2.snapshot().corrupt, 3);
        // Untrustworthy streams are never parked.
        assert_eq!(t2.pool().idle_total(), 0);
        assert_eq!(t2.pool().snapshot().evicted_error, 3);
    }

    #[test]
    fn large_pull_streams_in_chunks_with_intact_checksum() {
        // A body several STREAM_CHUNKs long: the exchange reads it in
        // pieces, folding the rolling FNV in as each chunk arrives.
        let body: Vec<u8> = (0..300_000u32).map(|i| (i * 31 % 251) as u8).collect();
        let resp = Response::ok(body.clone(), "application/octet-stream")
            .with_header(CHECKSUM_HEADER, body_checksum(&body));
        let (server, served) = counting_server(resp);
        let t = Transport::new(fast_policy(), None);
        let got = t.call(&server, &Request::get("/big"), &PULL).unwrap();
        assert_eq!(got.body, body.as_slice());
        assert_eq!(served.load(Ordering::Relaxed), 1);
        // The stream must be left exactly at the message boundary: a
        // second pull on the same pooled connection still frames.
        let got2 = t.call(&server, &Request::get("/big"), &PULL).unwrap();
        assert_eq!(got2.body, body.as_slice());
        assert_eq!(t.pool().snapshot().dials, 1, "chunked reads must pool");
    }

    #[test]
    fn garbled_transfer_rejected_before_response_exists() {
        // Every attempt garbles a mid-body byte; the incremental digest
        // must reject each transfer without a Response (and thus any
        // installable copy) ever being built — for pulls, validations
        // and pushes alike, since all three share the one exchange.
        for call in POOLED {
            let body = vec![0xa7u8; 200_000];
            let resp = Response::ok(body.clone(), "application/octet-stream")
                .with_header(CHECKSUM_HEADER, body_checksum(&body));
            let (server, _) = counting_server(resp);
            let inj = Arc::new(FaultInjector::new(FaultPlan::new(1).with_garble(1.0)));
            let t = Transport::new(fast_policy(), Some(inj));
            let err = t.call(&server, &Request::get("/big"), &call).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{call:?}");
            assert_eq!(t.snapshot().corrupt, 3, "{call:?}");
            assert_eq!(t.pool().idle_total(), 0, "tainted streams never parked");
        }
    }

    #[test]
    fn dropped_transfer_follows_pinned_fault_schedule() {
        // The chaos-replay contract: one seeded plan against one server
        // content yields one observable schedule — error kind, retry
        // accounting, injector draws — whatever the call. The
        // literals are what the retired buffered exchange and the chunked
        // one both observed for this plan when they were pinned to each
        // other; chunking must never perturb them.
        for call in POOLED {
            let body = vec![0x5au8; 150_000];
            let resp = Response::ok(body.clone(), "application/octet-stream")
                .with_header(CHECKSUM_HEADER, body_checksum(&body));
            let (server, _) = counting_server(resp);
            let inj = Arc::new(FaultInjector::new(FaultPlan::new(77).with_drop(1.0)));
            let t = Transport::new(fast_policy(), Some(inj.clone()));
            let err = t.call(&server, &Request::get("/big"), &call).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{call:?}");
            let io = t.snapshot();
            assert_eq!((io.attempts, io.retries, io.giveups), (3, 2, 1), "{call:?}");
            let faults = inj.snapshot();
            assert_eq!((faults.drops, faults.decisions), (3, 3), "{call:?}");
        }
    }

    #[test]
    fn response_without_checksum_is_accepted() {
        let (server, _) = counting_server(Response::ok(b"plain".to_vec(), "text/plain"));
        let t = Transport::new(fast_policy(), None);
        let resp = t.call(&server, &Request::get("/x"), &Call::Push).unwrap();
        assert_eq!(resp.body, b"plain");
    }

    #[test]
    fn connection_close_response_is_not_pooled() {
        let resp = Response::ok(b"bye".to_vec(), "text/plain").with_header("Connection", "close");
        let (server, _) = counting_server(resp);
        let t = Transport::new(fast_policy(), None);
        t.call(&server, &Request::get("/x"), &PULL).unwrap();
        assert_eq!(t.pool().idle_total(), 0);
        t.call(&server, &Request::get("/x"), &PULL).unwrap();
        let pool = t.pool().snapshot();
        assert_eq!((pool.dials, pool.hits, pool.evicted_close), (2, 0, 2));
    }

    #[test]
    fn ping_uses_single_attempt() {
        // No listener: connection refused instantly, and the ping
        // policy must not retry it.
        let dead = ServerId::new("127.0.0.1:1");
        let t = Transport::new(fast_policy(), None);
        assert!(t.call(&dead, &Request::get("/"), &Call::Ping).is_err());
        let snap = t.snapshot();
        assert_eq!((snap.attempts, snap.retries, snap.giveups), (1, 0, 1));
    }

    #[test]
    fn ping_never_touches_the_pool() {
        let (server, served) = counting_server(Response::ok(b"ok".to_vec(), "text/plain"));
        let t = Transport::new(fast_policy(), None);
        // Warm the pool with a pull.
        t.call(&server, &Request::get("/x"), &PULL).unwrap();
        assert_eq!(t.pool().idle_total(), 1);
        let before = t.pool().snapshot();
        // A ping must neither check out the warm stream nor park its own.
        t.call(&server, &Request::get("/"), &Call::Ping).unwrap();
        let after = t.pool().snapshot();
        assert_eq!(t.pool().idle_total(), 1, "warm stream left untouched");
        assert_eq!((before.hits, before.dials), (after.hits, after.dials));
        assert_eq!(served.load(Ordering::Relaxed), 2);
    }
}
