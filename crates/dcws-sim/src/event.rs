//! The discrete-event core: virtual time and the event queue.
//!
//! The queue is an index heap: a std [`BinaryHeap`] of 24-byte
//! `(virtual time, insertion sequence, slot)` keys over a slab that holds
//! the events themselves. The sequence number is unique, so the key is a
//! total order and any correct heap pops one sequence: earliest first,
//! **FIFO on equal timestamps** — the property every determinism
//! guarantee in this crate rests on, and the key's promise, not the
//! heap's. Keys and payloads are split because an [`Event`] is 128 bytes:
//! sifting moves keys only, and an event is written once when pushed and
//! read once when popped. `pop` never allocates — it shrinks the key heap
//! and threads the vacated slot onto a free list kept inside the slab —
//! and `push` allocates only when more events are pending than ever
//! before (see `tests/alloc_probe.rs`, which arms the debug-build
//! micro-assert in the run loop with a counting allocator).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use dcws_core::Served;
use dcws_http::{Request, Response, Url};
use dcws_net::walker::Reply;

/// Virtual time in microseconds.
pub type SimTime = u64;

/// Why a server-originated request was sent, so the response can be routed
/// back into the right engine callback. Peers are named by their index in
/// the cluster's server slab, resolved once when the request is sent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Purpose {
    /// Lazy pull of a migrated document from its home (§4.2).
    Pull {
        /// The home server pulled from.
        home: usize,
        /// Original document path on the home server.
        path: String,
    },
    /// Co-op revalidation of a migrated copy (§4.5).
    Validate {
        /// The home server being validated against.
        home: usize,
        /// Original document path on the home server.
        path: String,
    },
    /// Artificial pinger transfer (§4.5).
    Ping {
        /// The peer being pinged.
        peer: usize,
    },
    /// Eager-migration push (ablation); response is ignored.
    Push,
}

/// Who is waiting for a response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Origin {
    /// A benchmark client; `token` matches the response to the right
    /// outstanding fetch (main document or one of the image helpers).
    Client {
        /// Client index.
        id: usize,
        /// Fetch token issued by the client.
        token: u64,
    },
    /// Another server; `peer` is the request's destination (for ping
    /// bookkeeping) and `purpose` selects the engine callback.
    Server {
        /// Issuing server index.
        id: usize,
        /// Why the request was sent.
        purpose: Purpose,
    },
}

/// What reaches a server's front end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Incoming {
    /// A client's plain `GET` of the URL's path. The read path answers it
    /// from the parts; a [`Request`] is built only if the engine must.
    ClientGet(Arc<Url>),
    /// A request the engine handles (every inter-server message).
    Request(Request),
}

/// What landed at a recipient: a real response, or a connection-level
/// failure (crashed peer / refused connection).
#[derive(Debug, Clone)]
pub enum Delivery {
    /// An HTTP response built by the engine.
    Response(Response),
    /// An answer in wire form: the read path's, or a front-end 503.
    Served(Served),
    /// The connection failed outright — no HTTP exchange happened.
    Failed,
}

impl Delivery {
    /// The answer as a client reads it, or `None` for a failure.
    pub fn reply(&self) -> Option<&dyn Reply> {
        match self {
            Delivery::Response(resp) => Some(resp),
            Delivery::Served(served) => Some(served),
            Delivery::Failed => None,
        }
    }

    /// Entity bytes on the wire (none for a failure).
    pub fn body_len(&self) -> usize {
        self.reply().map_or(0, |reply| reply.body().len())
    }

    /// The answer as a [`Response`] (a wire-form one parsed back), or
    /// `None` for a failure.
    pub fn into_response(self) -> Option<Response> {
        match self {
            Delivery::Response(resp) => Some(resp),
            Delivery::Served(served) => Some(served.into_response()),
            Delivery::Failed => None,
        }
    }
}

/// One scheduled occurrence.
#[derive(Debug)]
pub enum Event {
    /// A request reaches server `server`'s front end.
    RequestArrive {
        /// Destination server index (router pseudo-server allowed).
        server: usize,
        /// The request.
        req: Incoming,
        /// Who to answer.
        origin: Origin,
    },
    /// Server `server` finished the CPU service of a request.
    ServiceDone {
        /// The server whose CPU completed.
        server: usize,
    },
    /// A response (or failure) is delivered to whoever asked.
    Deliver {
        /// The requester.
        origin: Origin,
        /// What arrived.
        delivery: Delivery,
    },
    /// Periodic control-plane tick for one server.
    ServerTick {
        /// The server to tick.
        server: usize,
    },
    /// A client becomes runnable (session start, post-overhead, or
    /// back-off expiry).
    ClientWake {
        /// The client.
        client: usize,
    },
    /// Metrics sampling point.
    Sample,
    /// Fire one recorded request during open-loop trace replay.
    ReplayFire {
        /// Index into the replayed trace's events.
        idx: usize,
    },
    /// One shared-bandwidth switch flow finished; its capacity share is
    /// returned to the pool (see [`crate::NetModel::SharedBandwidth`]).
    SwitchRelease,
    /// A crashed server finishes rebooting and rejoins the group cold
    /// (rolling-restart scenarios).
    ServerRestart {
        /// The server coming back.
        server: usize,
    },
}

/// One slab entry: a pending event, or a link of the free list.
enum Slot {
    Full(Event),
    /// Vacant; holds the next vacant slot, if any.
    Free(Option<u32>),
}

/// Earliest-first event queue with deterministic FIFO tie-breaking.
///
/// `pop` is allocation-free; `push` allocates only when the pending
/// population exceeds every earlier peak. [`EventQueue::with_capacity`]
/// pre-sizes for an expected peak so a steady-state loop never grows it.
#[derive(Default)]
pub struct EventQueue {
    /// Min-heap of `(at, seq, slot)`; `seq` is unique, so the order is total.
    keys: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Event storage; a key's `slot` indexes it. Never shrinks: popped
    /// slots are reused, most recently vacated first.
    slab: Vec<Slot>,
    /// Head of the free list threaded through the slab's `Free` slots.
    free: Option<u32>,
    seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty queue with room for `cap` pending events before any growth.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            keys: BinaryHeap::with_capacity(cap),
            slab: Vec::with_capacity(cap),
            ..Self::default()
        }
    }

    /// Schedule `event` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: Event) {
        self.seq += 1;
        let slot = match self.free {
            Some(slot) => {
                let vacant = std::mem::replace(&mut self.slab[slot as usize], Slot::Full(event));
                let Slot::Free(next) = vacant else {
                    unreachable!("free list names a full slot")
                };
                self.free = next;
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("under 2^32 pending events");
                self.slab.push(Slot::Full(event));
                slot
            }
        };
        self.keys.push(Reverse((at, self.seq, slot)));
    }

    /// Pop the earliest event, if any. Never allocates.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let Reverse((at, _, slot)) = self.keys.pop()?;
        let taken = std::mem::replace(&mut self.slab[slot as usize], Slot::Free(self.free));
        let Slot::Full(event) = taken else {
            unreachable!("a key names a vacant slot")
        };
        self.free = Some(slot);
        Some((at, event))
    }

    /// Pending event count.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, Event::Sample);
        q.push(10, Event::ClientWake { client: 1 });
        q.push(20, Event::ServerTick { server: 0 });
        let times: Vec<SimTime> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        q.push(5, Event::ClientWake { client: 1 });
        q.push(5, Event::ClientWake { client: 2 });
        q.push(5, Event::ClientWake { client: 3 });
        let ids: Vec<usize> = std::iter::from_fn(|| {
            q.pop().map(|(_, e)| match e {
                Event::ClientWake { client } => client,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(50, Event::Sample);
        q.push(10, Event::Sample);
        assert_eq!(q.pop().unwrap().0, 10);
        q.push(5, Event::Sample); // earlier than the remaining 50
        q.push(50, Event::Sample); // ties with the older 50: FIFO
        assert_eq!(q.pop().unwrap().0, 5);
        assert_eq!(q.pop().unwrap().0, 50);
        assert_eq!(q.pop().unwrap().0, 50);
        assert!(q.pop().is_none());
    }

    #[test]
    fn len_tracks() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, Event::Sample);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn with_capacity_presizes() {
        let q = EventQueue::with_capacity(1024);
        assert!(q.keys.capacity() >= 1024 && q.slab.capacity() >= 1024);
        assert!(q.is_empty());
    }

    #[test]
    fn slots_are_reused_at_standing_length() {
        // Popped slots are reused — a burst of pops leaves a chain of
        // them for the pushes that follow — so 10^5 push/pop cycles
        // around a standing length never grow the slab past the peak.
        const L: usize = 100;
        let mut q = EventQueue::new();
        (0..L).for_each(|_| q.push(1, Event::Sample));
        for round in 0..25_000 {
            // One over the standing length, then 1..=7 under it and back.
            q.push(2, Event::Sample);
            let burst = 2 + round % 7;
            (0..burst).for_each(|_| assert!(q.pop().is_some()));
            (1..burst).for_each(|_| q.push(2, Event::Sample));
        }
        assert_eq!(q.len(), L);
        assert!(q.slab.len() <= L + 1, "slab crept to {}", q.slab.len());
    }
}
