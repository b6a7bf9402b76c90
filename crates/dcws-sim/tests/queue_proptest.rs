//! Property tests for the event queue's ordering contract.
//!
//! The scale-out run loop trusts two properties of
//! [`dcws_sim::event::EventQueue`] unconditionally: virtual time never
//! runs backwards across pops, and events scheduled for the same instant
//! pop in insertion (FIFO) order — the tie-break that makes whole-run
//! determinism possible in the first place. These tests state both as
//! properties over arbitrary push sequences, including pushes
//! interleaved with pops the way the simulator actually drives the heap.
//! The last property checks the whole contract at once, step by step
//! against a sorted map, with events that carry payloads: the queue keeps
//! events in reused slab slots, and a slot handed back with another
//! event's payload must fail here, not in a digest three layers up.
//! Another drives the same model over the whole `u64` time range, so
//! that every one of the radix heap's buckets is used, with heavy ties
//! and with pushes both at or after the latest pop and before it.

use dcws_core::Call;
use dcws_http::{Request, Response};
use dcws_sim::event::{Delivery, Event, EventQueue, Incoming, Origin, SimTime};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Drains the queue, returning `(time, client)` per pop. Every event the
/// tests push is a `ClientWake`, with the client id as insertion index.
fn drain(q: &mut EventQueue) -> Vec<(SimTime, usize)> {
    let mut out = Vec::new();
    while let Some((at, ev)) = q.pop() {
        let Event::ClientWake { client } = ev else {
            panic!("queue returned an event that was never pushed");
        };
        out.push((at, client));
    }
    out
}

/// The `id`-th event of the model test. Every field that can hold the id
/// does, across the three shapes the run loop moves most: a request
/// (heap-allocated target), a response (shared body) and a bare wake.
fn event(id: usize) -> Event {
    match id % 3 {
        0 => Event::RequestArrive {
            server: id,
            req: Incoming::Request(Request::get(format!("/doc/{id}"))),
            origin: Origin::Client {
                id,
                token: id as u64,
            },
        },
        1 => Event::Deliver {
            origin: Origin::Server {
                id,
                peer: id,
                call: Call::Pull {
                    path: format!("/doc/{id}"),
                },
            },
            delivery: Delivery::Response(Response::ok(format!("body {id}"), "text/plain")),
        },
        _ => Event::ClientWake { client: id },
    }
}

/// The id [`event`] built `ev` from; panics unless every part of the
/// payload agrees on it.
fn id_of(ev: &Event) -> usize {
    match ev {
        Event::RequestArrive {
            server,
            req,
            origin,
        } => {
            let id = *server;
            assert_eq!(*req, Incoming::Request(Request::get(format!("/doc/{id}"))));
            let token = id as u64;
            assert_eq!(*origin, Origin::Client { id, token });
            id
        }
        Event::Deliver {
            origin,
            delivery: Delivery::Response(resp),
        } => {
            let Origin::Server { id, .. } = *origin else {
                panic!("a delivery to a client was never pushed: {origin:?}");
            };
            assert_eq!(resp.body, format!("body {id}").into_bytes());
            let call = Call::Pull {
                path: format!("/doc/{id}"),
            };
            assert_eq!(*origin, Origin::Server { id, peer: id, call });
            id
        }
        Event::ClientWake { client } => *client,
        other => panic!("queue returned an event that was never pushed: {other:?}"),
    }
}

/// The queue under test beside its reference: a map sorted by
/// `(at, push number)`, which is the order the queue promises.
struct Checked {
    q: EventQueue,
    model: BTreeMap<(SimTime, usize), usize>,
    pushed: usize,
    now: SimTime,
}

impl Checked {
    fn push(&mut self, delta: SimTime) {
        self.push_at(self.now + delta);
    }

    /// Pushes at absolute time `at`, which may precede the latest pop.
    fn push_at(&mut self, at: SimTime) {
        let id = self.pushed;
        self.pushed += 1;
        self.q.push(at, event(id));
        self.model.insert((at, id), id);
    }

    /// Pops both sides; the queue must hand back the model's event, whole.
    fn pop(&mut self) {
        let want = self.model.pop_first().map(|((at, _), id)| (at, id));
        let got = self.q.pop().map(|(at, ev)| (at, id_of(&ev)));
        assert_eq!(got, want);
        assert_eq!(self.q.len(), self.model.len());
        if let Some((at, _)) = got {
            self.now = at;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pops_never_decrease_in_time(times in pvec(0u64..10_000, 1..256)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, Event::ClientWake { client: i });
        }
        let popped = drain(&mut q);
        prop_assert_eq!(popped.len(), times.len(), "no event may be dropped");
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time went backwards: {:?}", w);
        }
    }

    #[test]
    fn equal_timestamps_pop_fifo(times in pvec(0u64..6, 1..256)) {
        // A tiny timestamp domain forces heavy collision: nearly every
        // pop exercises the FIFO tie-break rather than `at` alone.
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, Event::ClientWake { client: i });
        }
        let popped = drain(&mut q);
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            let ((t0, c0), (t1, c1)) = (w[0], w[1]);
            prop_assert!(
                t0 < t1 || (t0 == t1 && c0 < c1),
                "tie at t={} broke FIFO: client {} before {}",
                t1, c0, c1
            );
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered(
        ops in pvec((0u64..1_000, any::<bool>()), 1..256)
    ) {
        // Simulator discipline: nothing is ever scheduled in the past,
        // i.e. pushes happen at `now + delta`. Under that contract pops
        // must be globally non-decreasing even with pushes interleaved.
        let mut q = EventQueue::new();
        let mut now: SimTime = 0;
        let (mut pushed, mut popped_n) = (0usize, 0usize);
        for &(delta, do_pop) in &ops {
            q.push(now + delta, Event::ClientWake { client: pushed });
            pushed += 1;
            if do_pop {
                let (at, _) = q.pop().expect("queue cannot be empty here");
                prop_assert!(at >= now, "pop at {} before now {}", at, now);
                now = at;
                popped_n += 1;
            }
        }
        for (at, _) in drain(&mut q) {
            prop_assert!(at >= now);
            now = at;
            popped_n += 1;
        }
        prop_assert_eq!(popped_n, pushed, "every push must pop exactly once");
        prop_assert!(q.is_empty());
        prop_assert_eq!(q.len(), 0);
    }

    #[test]
    fn presized_queue_behaves_like_grown_one(times in pvec(0u64..100, 1..128)) {
        // with_capacity is a performance hint only: pop order must match
        // a queue that grew organically from empty.
        let mut a = EventQueue::new();
        let mut b = EventQueue::with_capacity(times.len() * 2);
        for (i, &t) in times.iter().enumerate() {
            a.push(t, Event::ClientWake { client: i });
            b.push(t, Event::ClientWake { client: i });
        }
        prop_assert_eq!(drain(&mut a), drain(&mut b));
    }

    #[test]
    fn any_interleaving_matches_a_sorted_model(
        cap in 0usize..48,
        ops in pvec((0u8..10, 0u64..40), 1..384)
    ) {
        // Pushes outnumber pops, so most cases grow past `cap` (and so
        // allocate fresh slots after reusing freed ones); `arg` doubles
        // as the time delta (small: heavy ties) and as a count.
        let mut c = Checked {
            q: EventQueue::with_capacity(cap),
            model: BTreeMap::new(),
            pushed: 0,
            now: 0,
        };
        for &(kind, arg) in &ops {
            match kind {
                0..=3 => c.push(arg),
                4..=6 => c.pop(),
                // Drain to empty (and once past it), then refill.
                7 => {
                    while !c.model.is_empty() {
                        c.pop();
                    }
                    c.pop();
                    for i in 0..arg {
                        c.push(i % 7);
                    }
                }
                // A long run at the standing length: every push lands
                // in the slot the previous pop vacated.
                _ => {
                    for i in 0..arg * 8 {
                        c.push(i % 5);
                        c.pop();
                    }
                }
            }
        }
        while !c.model.is_empty() {
            c.pop();
        }
        prop_assert!(c.q.is_empty());
        prop_assert!(c.q.pop().is_none());
    }

    #[test]
    fn whole_time_range_matches_a_sorted_model(
        anchors in pvec((any::<u64>(), 0u32..64).prop_map(|(x, shift)| x >> shift), 6),
        ops in pvec((0u8..10, 0usize..8, 0u64..3), 1..384)
    ) {
        // Times from 0 to `u64::MAX`, so every bucket is used: eight
        // anchors (0, `u64::MAX` and six of every magnitude), each pushed
        // as it is or a step or two either side, so times tie heavily;
        // an anchor below the latest pop makes a push into the past.
        let anchor = |i: usize| match i {
            0 => 0,
            1 => u64::MAX,
            i => anchors[i - 2],
        };
        let mut c = Checked {
            q: EventQueue::new(),
            model: BTreeMap::new(),
            pushed: 0,
            now: 0,
        };
        for &(kind, i, step) in &ops {
            match kind {
                0..=2 => c.push_at(anchor(i).saturating_add(step)),
                3..=4 => c.push_at(anchor(i).saturating_sub(step)),
                // At or just after the latest pop, as the run loop pushes.
                5 => c.push_at(c.now.saturating_add(step)),
                _ => c.pop(),
            }
        }
        while !c.model.is_empty() {
            c.pop();
        }
        prop_assert!(c.q.is_empty());
        prop_assert!(c.q.pop().is_none());
    }
}
