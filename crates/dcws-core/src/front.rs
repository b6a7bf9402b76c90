//! What a server does with a request its read path declined, written once
//! for every host: the engine call; one lazy pull per co-op miss
//! ([`Outcome::FetchNeeded`], §4.2) however many requests wait on it, each
//! follower counted as a coalesced wait; the settle step; the one-retry
//! rule; and the degradation ladder (docs/RESILIENCE.md). Sans-IO, like
//! the engine it drives.
//!
//! A waiter `W` is whatever the host needs to answer later: the TCP spill
//! workers park the spilled job itself, so a follower holds no worker
//! thread; the simulator parks the queued request with its requester. What
//! stays in each host differs on purpose: admission against the socket
//! queue, the read-path offer, `/dcws/*`, how the pull request is built,
//! and time (docs/SIMULATION.md, "The server model").

use crate::engine::ServerEngine;
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
    /// The waiter is parked as the first for its document: pull `path`
    /// from `home`, then report the result to [`Front::settle`].
    Pull {
        /// The home to pull from.
        home: ServerId,
        /// The document's path on the home.
        path: String,
    },
    /// The waiter is parked behind the pull already fetching its document.
    Parked,
}

/// How a pull ended.
#[derive(Debug)]
pub enum Pulled {
    /// The home answered (after the host's own retries, if any).
    Reply(Response),
    /// The home could not be reached.
    Unreachable,
}

/// What a settled pull gives one of its waiters.
#[derive(Debug)]
pub enum Settled<W> {
    /// The copy is in: serve the waiter again, through [`Front::retry`].
    Retry(W),
    /// The waiter's answer: the home's reply, a retained copy, or a `503`.
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
    /// parked on a pull — one it must lead, or one already in flight.
    pub fn serve(&mut self, engine: &mut ServerEngine, waiter: W, now_ms: u64) -> Step<W> {
        let (home, path) = match handle(engine, &waiter, now_ms) {
            Ok(answer) => return Step::Answer(waiter, answer),
            Err(miss) => miss,
        };
        match self.waiting.entry((home, path)) {
            Entry::Occupied(mut parked) => {
                engine.coop_cache().record_coalesced_wait();
                self.flights.coalesced += 1;
                parked.get_mut().push(waiter);
                Step::Parked
            }
            Entry::Vacant(slot) => {
                let (home, path) = slot.key().clone();
                slot.insert(vec![waiter]);
                self.flights.led += 1;
                Step::Pull { home, path }
            }
        }
    }

    /// Serve a [`Settled::Retry`] waiter again. A second miss — the copy
    /// evicted, or a staged oversize body another waiter consumed — is
    /// answered `500` rather than pulled for in a loop.
    pub fn retry(&self, engine: &mut ServerEngine, waiter: W, now_ms: u64) -> (W, Outcome) {
        let answer = handle(engine, &waiter, now_ms)
            .unwrap_or_else(|_| Outcome::Response(Response::new(StatusCode::InternalServerError)));
        (waiter, answer)
    }
}

impl<W> Front<W> {
    /// Settle the pull of `home`'s `path` (store a `200`, digest any other
    /// reply, record an unreachable home) and release its waiters: served
    /// again after a `200`, given any other reply as-is, or — home
    /// unreachable — a retained copy or a `503`.
    pub fn settle(
        &mut self,
        engine: &mut ServerEngine,
        home: &ServerId,
        path: &str,
        pulled: Pulled,
        now_ms: u64,
    ) -> Vec<Settled<W>> {
        let waiters = self
            .waiting
            .remove(&(home.clone(), path.to_string()))
            .unwrap_or_default();
        match pulled {
            Pulled::Reply(resp)
                if resp.status == StatusCode::Ok
                    && engine.store_pulled(home, path, &resp, now_ms) =>
            {
                waiters.into_iter().map(Settled::Retry).collect()
            }
            Pulled::Reply(resp) => {
                // Home declined (a 301 to the current host, a 404, its own
                // 503): remember a redirect, relay the answer as-is.
                engine.pull_rejected(home, path, &resp, now_ms);
                waiters
                    .into_iter()
                    .map(|w| Settled::Answer(w, resp.clone()))
                    .collect()
            }
            Pulled::Unreachable => {
                engine.note_pull_failure(home, path, now_ms);
                waiters
                    .into_iter()
                    .map(|w| {
                        let resp = engine
                            .serve_stale(home, path, now_ms)
                            .unwrap_or_else(unavailable);
                        Settled::Answer(w, resp)
                    })
                    .collect()
            }
        }
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
