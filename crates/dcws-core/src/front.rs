//! What a server does with a request its read path declined, and with a
//! peer's reply to any call it made, written once for every host: the
//! engine call; one lazy pull per co-op miss ([`Outcome::FetchNeeded`],
//! §4.2) however many requests wait on it, each follower counted as a
//! coalesced wait; and one door for every reply, [`Front::answered`]. A
//! server's outbound calls — the pull, the T_val revalidation, the ping
//! (§4.5) and the eager push — are one type, [`Call`]; the door settles a
//! pull, handing every waiter the copy it brought in — whether or not the
//! store kept it — or walking the degradation ladder
//! (docs/RESILIENCE.md), and hands any other reply to the engine.
//! Sans-IO, like the engine it drives.
//!
//! A waiter `W` is whatever the host needs to answer later: the TCP spill
//! workers park the spilled job itself, so a follower holds no worker
//! thread; the simulator parks the queued request with its requester. What
//! stays in each host differs on purpose: admission against the socket
//! queue, the read-path offer, `/dcws/*`, retries, and time
//! (docs/SIMULATION.md, "The server model").

use crate::engine::ServerEngine;
use crate::readpath::CoopCopy;
use crate::serve::Outcome;
use dcws_graph::ServerId;
use dcws_http::{Request, Response, StatusCode};
use std::borrow::Cow;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// The `Retry-After` hint (seconds) on every graceful `503`: the ladder's
/// last rung, and the socket-queue drop of both hosts (§5.2). The paper's
/// client backs off from one second.
pub const RETRY_AFTER_SECS: u32 = 1;

/// The graceful `503`: `Retry-After:` [`RETRY_AFTER_SECS`].
pub fn unavailable() -> Response {
    Response::service_unavailable(RETRY_AFTER_SECS)
}

/// What a host parks in a [`Front`] while a pull is in flight.
pub trait Waiter {
    /// The request to hand the engine — built on the spot by a host that
    /// keeps only its parts.
    fn request(&self) -> Cow<'_, Request>;
}

/// What [`Front::serve`] decided for one request.
#[derive(Debug)]
pub enum Step<W> {
    /// The waiter, handed back with its answer: a response, or a large
    /// object's streamed serve — never a miss.
    Answer(W, Outcome),
    /// The waiter is parked as the first for its document: send this
    /// pull, which the engine built with its load reports attached, then
    /// hand the reply to [`Front::answered`].
    Pull(Outbound),
    /// The waiter is parked behind the pull already fetching its document.
    Parked,
}

/// One call a server makes to a peer: the lazy pull (§4.2), the T_val
/// revalidation and the pinger's artificial transfer (§4.5), or the eager
/// push of the ablation. A host sends it as an [`Outbound`]'s request and
/// hands the reply — or `None`, the peer unreachable — to
/// [`Front::answered`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Call {
    /// Lazy pull of a migrated document from its home.
    Pull {
        /// The document's path on the home.
        path: String,
    },
    /// Revalidation of a co-op copy against its home.
    Validate {
        /// The document's path on the home.
        path: String,
    },
    /// Artificial pinger transfer.
    Ping,
    /// Eager-migration push.
    Push,
}

impl Call {
    /// Stable lowercase label; the TCP transport salts its retry jitter
    /// with it.
    pub fn label(&self) -> &'static str {
        match self {
            Call::Pull { .. } => "pull",
            Call::Validate { .. } => "validate",
            Call::Push => "push",
            Call::Ping => "ping",
        }
    }
}

/// A call to send: `req` to `peer`, its reply digested as `call`.
#[derive(Debug)]
pub struct Outbound {
    /// The server to send to.
    pub peer: ServerId,
    /// What the request is for.
    pub call: Call,
    /// The request.
    pub req: Request,
}

/// What a settled pull gives one of its waiters.
#[derive(Debug)]
pub enum Settled<W> {
    /// The copy to answer the waiter from, through [`Front::serve_copy`]:
    /// the one the pull brought in, or — home unreachable — the retained
    /// one, marked stale.
    Copy(W, CoopCopy),
    /// The waiter's answer: the home's reply as-is, or a `503` when the
    /// home is unreachable and no copy is held.
    Answer(W, Response),
}

/// Pull flights so far, for `/dcws/status`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PullFlights {
    /// Pulls led: misses that found no pull in flight for their document.
    pub led: u64,
    /// Misses that parked behind a pull already in flight.
    pub coalesced: u64,
    /// Documents with a pull in flight now.
    pub in_flight: usize,
}

/// The waiters table and the policy around it (see the module docs).
#[derive(Debug)]
pub struct Front<W> {
    /// Ordered, so a host that drops every waiter at once (a simulated
    /// crash) does so in the same order on every run.
    waiting: BTreeMap<(ServerId, String), Vec<W>>,
    flights: PullFlights,
}

impl<W> Default for Front<W> {
    fn default() -> Self {
        Front {
            waiting: BTreeMap::new(),
            flights: PullFlights::default(),
        }
    }
}

impl<W: Waiter> Front<W> {
    /// Hand `waiter`'s request to `engine` at `now_ms`: answered, or
    /// parked on a pull — one it must lead, built here, or one already in
    /// flight.
    pub fn serve(&mut self, engine: &mut ServerEngine, waiter: W, now_ms: u64) -> Step<W> {
        let (home, path) = match handle(engine, &waiter, now_ms) {
            Ok(answer) => return Step::Answer(waiter, answer),
            Err(miss) => miss,
        };
        match self.waiting.entry((home, path)) {
            Entry::Occupied(mut parked) => {
                engine.read.table.record_coalesced_wait();
                self.flights.coalesced += 1;
                parked.get_mut().push(waiter);
                Step::Parked
            }
            Entry::Vacant(slot) => {
                let (peer, path) = slot.key().clone();
                slot.insert(vec![waiter]);
                self.flights.led += 1;
                let req = engine.make_pull_request(&path, now_ms);
                Step::Pull(Outbound {
                    peer,
                    call: Call::Pull { path },
                    req,
                })
            }
        }
    }

    /// Answer a [`Settled::Copy`] waiter from its copy, as the engine
    /// answers from a held one ([`ServerEngine::serve_copy`]).
    pub fn serve_copy(
        &self,
        engine: &mut ServerEngine,
        waiter: W,
        copy: &CoopCopy,
        now_ms: u64,
    ) -> (W, Response) {
        let resp = engine.serve_copy(&waiter.request(), copy, now_ms);
        (waiter, resp)
    }
}

impl<W> Front<W> {
    /// Digest the reply to `call`, sent to `peer` — `None` when the peer
    /// could not be reached — and release the waiters it held. Only a
    /// pull holds any: each is handed the copy a `200` brought in, any
    /// other reply as-is, or — home unreachable — the retained copy, else
    /// a `503`. Any ping reply, a `503` too, proves the peer alive; a
    /// validation reply refreshes, revokes or keeps the copy, and an
    /// unreachable home marks it stale; a push's reply changes nothing.
    pub fn answered(
        &mut self,
        engine: &mut ServerEngine,
        peer: &ServerId,
        call: &Call,
        reply: Option<&Response>,
        now_ms: u64,
    ) -> Vec<Settled<W>> {
        match (call, reply) {
            (Call::Pull { path }, _) => return self.settle(engine, peer, path, reply, now_ms),
            (Call::Validate { path }, Some(resp)) => {
                engine.handle_validation_response(peer, path, resp, now_ms)
            }
            (Call::Validate { path }, None) => engine.validation_failed(peer, path, now_ms),
            (Call::Ping, _) => {
                engine.ping_result(peer, reply.is_some(), reply.map(|r| &r.headers));
            }
            (Call::Push, _) => {}
        }
        Vec::new()
    }

    /// Settle the pull of `home`'s `path` (store a `200`, digest any other
    /// reply, record an unreachable home) and release its waiters.
    fn settle(
        &mut self,
        engine: &mut ServerEngine,
        home: &ServerId,
        path: &str,
        reply: Option<&Response>,
        now_ms: u64,
    ) -> Vec<Settled<W>> {
        let waiters = self
            .waiting
            .remove(&(home.clone(), path.to_string()))
            .unwrap_or_default();
        let copy = match reply {
            Some(resp) if resp.status == StatusCode::Ok => {
                engine.pulled_copy(home, path, resp, now_ms)
            }
            Some(resp) => {
                // Home declined (a 301 to the current host, a 404, its own
                // 503): remember a redirect, relay the answer as-is.
                engine.pull_rejected(home, path, resp, now_ms);
                return waiters
                    .into_iter()
                    .map(|w| Settled::Answer(w, resp.clone()))
                    .collect();
            }
            None => engine.note_pull_failure(home, path, now_ms),
        };
        waiters
            .into_iter()
            .map(|w| match &copy {
                Some(copy) => Settled::Copy(w, copy.clone()),
                None => Settled::Answer(w, unavailable()),
            })
            .collect()
    }

    /// Take every parked waiter, in key order, leaving the table empty —
    /// for a host whose connections all die at once.
    pub fn drain(&mut self) -> impl Iterator<Item = W> {
        std::mem::take(&mut self.waiting).into_values().flatten()
    }

    /// Pull flights so far.
    pub fn flights(&self) -> PullFlights {
        PullFlights {
            in_flight: self.waiting.len(),
            ..self.flights
        }
    }
}

/// The engine's answer to `waiter`'s request, or the `(home, path)` of the
/// co-op copy it misses.
fn handle<W: Waiter>(
    engine: &mut ServerEngine,
    waiter: &W,
    now_ms: u64,
) -> Result<Outcome, (ServerId, String)> {
    match engine.handle_request(&waiter.request(), now_ms) {
        Outcome::FetchNeeded { home, path } => Err((home, path)),
        answer => Ok(answer),
    }
}
