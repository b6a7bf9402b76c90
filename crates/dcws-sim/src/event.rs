//! The discrete-event core: virtual time and the event queue.
//!
//! The queue is a monotone radix heap over a slab that holds the events
//! themselves. `last` is the time of the latest pop, and every pending
//! event sits in one of 65 FIFO buckets: bucket 0 holds the times equal
//! to `last`, bucket `b` the times whose highest bit differing from
//! `last` is bit `b - 1` — `64 - lzcnt(at ^ last)`. A push appends to its
//! bucket's tail. A pop takes the head of bucket 0; when bucket 0 is
//! empty, the lowest non-empty bucket's minimum becomes `last` first and
//! that bucket's entries are re-appended, in list order, to the buckets
//! they now belong in — all of them lower, its minima in bucket 0.
//!
//! **FIFO on equal timestamps** — the property every determinism
//! guarantee in this crate rests on — is structural: a time's bucket is
//! a function of the time and `last` alone, so equal times always share
//! a bucket, and appending and redistributing both keep a list's order.
//! A push earlier than `last` (the run loop never makes one) lowers
//! `last` and re-buckets every pending event the same way, so the
//! contract holds for any sequence of pushes and pops.
//!
//! Times and list links sit in an array beside the slab, so
//! redistributing touches 16-byte links and an [`Event`] (128 bytes) is
//! written once when pushed and read once when popped. `pop` never
//! allocates — the vacated slot goes onto a free list threaded through
//! the links — and `push` allocates only when more events are pending
//! than ever before (see `tests/alloc_probe.rs`, which arms the
//! debug-build micro-assert in the run loop with a counting allocator).

use std::sync::Arc;

use dcws_core::{Call, Served};
use dcws_http::{Request, Response, Url};
use dcws_net::walker::Reply;

/// Virtual time in microseconds.
pub type SimTime = u64;

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
    /// Another server's call to a peer, named by its index in the
    /// cluster's server slab (resolved once, when the call is sent).
    Server {
        /// Issuing server index.
        id: usize,
        /// The peer called.
        peer: usize,
        /// What the call is for.
        call: Call,
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

/// The end of a list: no slot.
const NIL: u32 = u32::MAX;

/// Buckets: 0 holds the times equal to `last`, `b` in 1..=64 those whose
/// highest bit differing from `last` is bit `b - 1`.
const BUCKETS: usize = 65;

/// A slot's place in the queue: its time and the next slot of its list
/// (a bucket's, or the free list's). Kept apart from the events so that
/// redistributing a bucket walks 16-byte links, not 128-byte events.
#[derive(Clone, Copy)]
struct Link {
    at: SimTime,
    next: u32,
}

/// One bucket: a FIFO list of slots, and the earliest time on it.
#[derive(Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
    min: SimTime,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
        min: SimTime::MAX,
    };
}

/// Earliest-first event queue with deterministic FIFO tie-breaking.
///
/// `pop` is allocation-free; `push` allocates only when the pending
/// population exceeds every earlier peak. [`EventQueue::with_capacity`]
/// pre-sizes for an expected peak so a steady-state loop never grows it.
pub struct EventQueue {
    /// Event storage, one slot per pending event; `None` for a free slot.
    /// Never shrinks: popped slots are reused, most recently vacated
    /// first.
    slab: Vec<Option<Event>>,
    /// Per slot, beside `slab`: its time and its list's next slot.
    links: Vec<Link>,
    /// The buckets, each in push order (see the module docs).
    buckets: [List; BUCKETS],
    /// Bit `b` set when bucket `b` is non-empty.
    nonempty: u128,
    /// The time of the latest pop (or of a push before it).
    last: SimTime,
    /// Head of the free list threaded through the vacant slots' links.
    free: u32,
    len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            slab: Vec::new(),
            links: Vec::new(),
            buckets: [List::EMPTY; BUCKETS],
            nonempty: 0,
            last: 0,
            free: NIL,
            len: 0,
        }
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty queue with room for `cap` pending events before any growth.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            slab: Vec::with_capacity(cap),
            links: Vec::with_capacity(cap),
            ..Self::default()
        }
    }

    /// Schedule `event` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: Event) {
        let slot = if self.free == NIL {
            let slot = u32::try_from(self.slab.len())
                .ok()
                .filter(|&s| s != NIL)
                .expect("under 2^32 - 1 pending events");
            self.slab.push(Some(event));
            self.links.push(Link { at, next: NIL });
            slot
        } else {
            let slot = self.free;
            self.free = self.links[slot as usize].next;
            self.slab[slot as usize] = Some(event);
            self.links[slot as usize].at = at;
            slot
        };
        self.len += 1;
        if at < self.last {
            // Earlier than the latest pop: every pending time is read
            // against the new `last` instead.
            self.last = at;
            self.rebucket_all();
        }
        self.append(slot);
    }

    /// Pop the earliest event, if any. Never allocates.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        if self.nonempty & 1 == 0 {
            if self.nonempty == 0 {
                return None;
            }
            // The lowest non-empty bucket holds the earliest times; its
            // minimum becomes `last`, and every entry moves to a lower
            // bucket, in list order.
            let b = self.nonempty.trailing_zeros() as usize;
            let list = self.take_bucket(b);
            self.last = list.min;
            self.append_list(list);
        }
        let slot = self.buckets[0].head;
        let link = self.links[slot as usize];
        self.buckets[0].head = link.next;
        if link.next == NIL {
            self.take_bucket(0);
        }
        self.links[slot as usize].next = self.free;
        self.free = slot;
        self.len -= 1;
        let event = self.slab[slot as usize]
            .take()
            .expect("a listed slot holds an event");
        Some((link.at, event))
    }

    /// Pending event count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bucket a pending time belongs in, against the current `last`.
    fn bucket_of(&self, at: SimTime) -> usize {
        (u64::BITS - (at ^ self.last).leading_zeros()) as usize
    }

    /// Append `slot` (its time already set) to the tail of its bucket.
    fn append(&mut self, slot: u32) {
        let at = self.links[slot as usize].at;
        let b = self.bucket_of(at);
        self.links[slot as usize].next = NIL;
        let list = &mut self.buckets[b];
        list.min = list.min.min(at);
        if list.tail == NIL {
            list.head = slot;
        } else {
            self.links[list.tail as usize].next = slot;
        }
        list.tail = slot;
        self.nonempty |= 1 << b;
    }

    /// Detach bucket `b` whole, leaving it empty.
    fn take_bucket(&mut self, b: usize) -> List {
        self.nonempty &= !(1 << b);
        std::mem::replace(&mut self.buckets[b], List::EMPTY)
    }

    /// Append every slot of a detached list, in its order.
    fn append_list(&mut self, list: List) {
        let mut slot = list.head;
        while slot != NIL {
            let next = self.links[slot as usize].next;
            self.append(slot);
            slot = next;
        }
    }

    /// Re-bucket every pending slot against a lowered `last`: the buckets
    /// are detached first, then walked in order, each list in its order.
    fn rebucket_all(&mut self) {
        let detached = std::mem::replace(&mut self.buckets, [List::EMPTY; BUCKETS]);
        self.nonempty = 0;
        for list in detached {
            self.append_list(list);
        }
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
        assert!(q.links.capacity() >= 1024 && q.slab.capacity() >= 1024);
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
