//! The load generator: `G` threads, each with one op in flight, driven
//! through the warm-up and the measured window of a TCP workload.
//!
//! * warm-up — closed loop from the first request after spawn, nothing
//!   primed, for the first fifth of the run;
//! * measured window — one-second blocks, alternately
//!   * `paced` — open loop at the workload's frozen rate, each op timed
//!     from when it was due, and
//!   * `sat`   — closed loop, back to back.
//!
//! The blocks alternate because the reference box changes speed for
//! seconds at a time: two phases one after the other would each see a
//! different machine, while alternate seconds of one window both see all
//! of it. The first tick of every block is the hand-over from the other
//! kind of loop and is left out of every timed metric.
//!
//! With in-flight capped at `G`, an open-loop ladder above about `G`/RTT
//! turns into the closed loop, so `sat` is the ladder's top rung.
//!
//! In the measured window every fifth exchange of a thread is a round
//! trip to its reference responder (see `reference`) in place of an op: sent
//! from the same loop, on the same grid, timed the same way.

use crate::client::{Client, Fetched, Target};
use crate::probes::Shadow;
use crate::reference::Responder;
use crate::sched::{Clock, Pacer, WallClock};
use crate::source::Source;
use crate::stats::{Slices, FAILED};
use crate::trace::{Span, SpanLog};
use crate::verify::{Corpus, Wrong, DEEP_ONE_IN};
use dcws_net::DcwsServer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

/// One in this many ops of a traced run is probed and keeps its spans.
pub const PROBE_ONE_IN: u64 = 64;
/// Width of the windows `core.balance_s` is read from.
pub const BALANCE_WINDOW_NS: u64 = 500_000_000;
/// One in this many exchanges of the measured window is a reference
/// round trip.
pub const REF_ONE_IN: u64 = 5;
/// Resolution of the throughput curve and of the latency slices.
pub const TICK_NS: u64 = 100_000_000;
/// Ticks in one block of the measured window.
pub const BLOCK_TICKS: usize = 10;
const BLOCK_NS: u64 = TICK_NS * BLOCK_TICKS as u64;
/// The share of the run the measured window takes, rounded down to a
/// whole, even number of blocks; the warm-up takes the rest.
const MEASURED_SHARE: f64 = 0.8;

/// Where in the run an instant lies; blocks count from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Warm,
    Paced(usize),
    Sat(usize),
    Over,
}

/// The run's timeline, ns since the run epoch.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    pub start_ns: u64,
    pub warm_end_ns: u64,
    pub end_ns: u64,
}

impl Phases {
    pub fn new(start_ns: u64, seconds: f64) -> Phases {
        // As many paced blocks as sat blocks, and at least one of each.
        let blocks = ((seconds * MEASURED_SHARE) as u64 / 2).max(1) * 2;
        let warm_ticks = (((seconds - blocks as f64) * 10.0).round() as i64).max(2) as u64;
        let warm_end_ns = start_ns + warm_ticks * TICK_NS;
        Phases {
            start_ns,
            warm_end_ns,
            end_ns: warm_end_ns + blocks * BLOCK_NS,
        }
    }

    pub fn blocks(&self) -> usize {
        ((self.end_ns - self.warm_end_ns) / BLOCK_NS) as usize
    }

    pub fn ticks(&self) -> usize {
        ((self.end_ns - self.start_ns) / TICK_NS) as usize
    }

    pub fn tick_of(&self, t_ns: u64) -> usize {
        (t_ns.saturating_sub(self.start_ns) / TICK_NS) as usize
    }

    pub fn block_start_ns(&self, block: usize) -> u64 {
        self.warm_end_ns + block as u64 * BLOCK_NS
    }

    pub fn at(&self, t_ns: u64) -> Phase {
        if t_ns < self.warm_end_ns {
            Phase::Warm
        } else if t_ns >= self.end_ns {
            Phase::Over
        } else {
            match ((t_ns - self.warm_end_ns) / BLOCK_NS) as usize {
                b if b % 2 == 0 => Phase::Paced(b),
                b => Phase::Sat(b),
            }
        }
    }

    /// The ticks of warm-up, without the very first (spawn and dial).
    pub fn warm_ticks(&self) -> Vec<usize> {
        (1..self.tick_of(self.warm_end_ns)).collect()
    }

    /// The ticks of a block without the first, which is the hand-over
    /// from the other kind of loop.
    pub fn kept_ticks(&self, block: usize) -> Vec<usize> {
        let first = self.tick_of(self.block_start_ns(block));
        (first + 1..first + BLOCK_TICKS).collect()
    }
}

/// A seeded schedule of republishes, executed by whichever generator
/// thread is about to send its next op when one falls due. The rate is
/// set by the clock, so faster reads do not mean more writes.
pub struct Churn {
    /// `(due_ns, document)`, ascending.
    schedule: Vec<(u64, usize)>,
    next: AtomicUsize,
    /// Serialises "note the version, then publish it".
    apply: Mutex<()>,
}

impl Churn {
    pub fn new(schedule: Vec<(u64, usize)>) -> Churn {
        Churn {
            schedule,
            next: AtomicUsize::new(0),
            apply: Mutex::new(()),
        }
    }

    pub fn scheduled(&self) -> usize {
        self.schedule.len()
    }

    pub fn applied(&self) -> usize {
        self.next.load(Ordering::SeqCst).min(self.schedule.len())
    }

    /// Claim the next republish if it is due.
    fn claim(&self, now_ns: u64) -> Option<usize> {
        loop {
            let i = self.next.load(Ordering::SeqCst);
            let &(due, doc) = self.schedule.get(i)?;
            if due > now_ns {
                return None;
            }
            if self
                .next
                .compare_exchange(i, i + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Some(doc);
            }
        }
    }
}

/// What every generator thread shares.
pub struct Shared<'a> {
    pub clock: &'a WallClock,
    pub phases: Phases,
    pub corpus: &'a Corpus,
    pub home: &'a DcwsServer,
    pub churn: Option<&'a Churn>,
    pub rate_ops_per_s: f64,
    pub threads: usize,
    pub traced: bool,
    pub shadow: Option<&'a Mutex<Shadow>>,
    /// Every generator thread and the thread that started them meet here
    /// when the window is over, so that the threads' processor time can
    /// be read while they are all still alive.
    pub finished: &'a Barrier,
}

/// What one generator thread measured.
#[derive(Default)]
pub struct ThreadLog {
    pub attempted: u64,
    pub failed: u64,
    pub wrong_bytes: u64,
    /// Verified ops answered `206 Partial Content`.
    pub partial: u64,
    pub first_failure: Option<String>,
    /// Verified ops and their body bytes per [`TICK_NS`] of the run, by
    /// due time: the run's throughput curve.
    pub ops_by_tick: Vec<u32>,
    pub bytes_by_tick: Vec<u64>,
    /// Time those ops took, ns: in a closed loop, ops over this is the
    /// thread's rate, whatever else the thread did in the tick.
    pub busy_ns_by_tick: Vec<u64>,
    /// Reference round trips, µs, by tick: in paced blocks timed from the
    /// due time like the ops beside them, in sat blocks back to back.
    pub ref_paced: Slices,
    pub ref_sat: Slices,
    /// Bytes those sat round trips brought back, by tick.
    pub ref_sat_bytes_by_tick: Vec<u64>,
    /// Paced ops: latency from the due time, µs, by tick of the due time.
    pub paced_latency: Slices,
    /// Paced ops: due time to first byte of the final response, µs.
    pub paced_ttfb: Slices,
    /// Paced ops that a reference round trip followed: the op's latency,
    /// and its time to first byte, as a multiple of what that round trip
    /// took, which asked for as many bytes as the op brought back; by
    /// tick of the round trip.
    pub paced_cost: Slices,
    pub paced_ttfb_cost: Slices,
    pub paced_lateness_us: Vec<f64>,
    /// Sat ops: latency µs of a 1-in-16 sample.
    pub sat_latency_us: Vec<f64>,
    pub hops: u64,
    pub backoffs: u64,
    /// First byte to last byte of the final response, µs (a 1-in-16 sample).
    pub body_us: Vec<f64>,
    pub publish_us: Vec<f64>,
    /// `[home, co-op]` final serves per [`BALANCE_WINDOW_NS`] window.
    pub served_by: Vec<[u32; 2]>,
    pub sessions: u64,
    pub spans: SpanLog,
}

/// A traced run stores spans and runs probes in the warm-up, in the paced
/// blocks and in every other sat block; the untouched sat blocks between
/// give the untraced rate the tracing overhead is measured against.
pub fn sat_block_is_traced(block: usize) -> bool {
    (block / 2) % 2 == 1
}

/// Run one generator thread to the end of the measured window.
pub fn run_thread(
    shared: &Shared<'_>,
    lane: usize,
    seed: u64,
    mut client: Client,
    mut source: Box<dyn Source + '_>,
) -> ThreadLog {
    // Before pinning: afterwards the thread is allowed one processor and
    // `nproc` would say so.
    let cpu = lane % crate::procfs::nproc();
    crate::sched::pin_thread(0, cpu);
    let mut reference = Responder::start(cpu).expect("reference responder");
    // What the reference is asked for: as many bytes as the op before it
    // brought back.
    let mut last_body_len = 0;
    // Latency and time to first byte of the paced op just before, µs.
    let mut last_paced = None;
    let p = shared.phases;
    let clock = shared.clock;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut log = ThreadLog {
        paced_latency: Slices::new(p.ticks()),
        paced_ttfb: Slices::new(p.ticks()),
        paced_cost: Slices::new(p.ticks()),
        paced_ttfb_cost: Slices::new(p.ticks()),
        ops_by_tick: vec![0; p.ticks()],
        bytes_by_tick: vec![0; p.ticks()],
        busy_ns_by_tick: vec![0; p.ticks()],
        ref_paced: Slices::new(p.ticks()),
        ref_sat: Slices::new(p.ticks()),
        ref_sat_bytes_by_tick: vec![0; p.ticks()],
        served_by: vec![[0; 2]; ((p.end_ns - p.start_ns) / BALANCE_WINDOW_NS) as usize + 1],
        ..ThreadLog::default()
    };
    // The open loop's grid runs through the whole window; the points that
    // fall into sat blocks are dropped as each paced block is left.
    let mut pacer = Pacer::new(
        p.warm_end_ns,
        shared.rate_ops_per_s / shared.threads as f64,
        lane,
        shared.threads,
    );
    let mut op_seq = lane as u64;
    let mut exchanges = 0u64;
    loop {
        let now = clock.now_ns();
        if now >= p.end_ns {
            break;
        }
        if let Some(churn) = shared.churn {
            while let Some(doc) = churn.claim(clock.now_ns()) {
                republish(shared, churn, doc, &mut log);
            }
        }
        // Open loop: due on the pacer's grid, and an op a stall carried
        // past the end of its block is still sent, and still timed from
        // when it was due. Closed loop: due now.
        let grid_ns = pacer.peek_due_ns();
        let (due_ns, sent_ns) = if matches!(p.at(grid_ns), Phase::Paced(_))
            && (grid_ns <= now || p.at(now) == p.at(grid_ns))
        {
            let slot = pacer.wait(clock);
            if let Phase::Sat(b) = p.at(pacer.peek_due_ns()) {
                pacer.skip_to(p.block_start_ns(b + 1));
            }
            log.paced_lateness_us.push(slot.lateness_ns() as f64 / 1e3);
            (slot.due_ns, slot.sent_ns)
        } else if let Phase::Paced(b) = p.at(now) {
            // Nothing more is due in this block.
            clock.wait_until(p.block_start_ns(b + 1));
            continue;
        } else {
            (now, now)
        };
        let phase = p.at(due_ns);
        let tick = p.tick_of(due_ns);
        if phase != Phase::Warm {
            exchanges += 1;
            if exchanges.is_multiple_of(REF_ONE_IN) {
                // Without its reference a run has no timed metric: a round
                // trip that fails is a failed op.
                // Without its reference a run has no timed metric: a round
                // trip that fails is a failed op.
                if let Err(e) = reference.round_trip(last_body_len) {
                    log.attempted += 1;
                    log.failed += 1;
                    log.first_failure
                        .get_or_insert_with(|| format!("reference round trip: {e}"));
                    continue;
                }
                let took_us = (clock.now_ns() - due_ns) as f64 / 1e3;
                match phase {
                    Phase::Paced(_) => {
                        log.ref_paced.record(tick, took_us);
                        if let Some((latency_us, ttfb_us)) = last_paced.take() {
                            log.paced_cost.record(tick, latency_us / took_us);
                            log.paced_ttfb_cost.record(tick, ttfb_us / took_us);
                        }
                    }
                    _ => {
                        log.ref_sat.record(tick, took_us);
                        if let Some(bytes) = log.ref_sat_bytes_by_tick.get_mut(tick) {
                            *bytes += last_body_len.max(1) as u64;
                        }
                    }
                }
                continue;
            }
        }
        let traced = shared.traced
            && match phase {
                Phase::Sat(b) => sat_block_is_traced(b),
                _ => true,
            };
        let sampled = traced && rng.gen_range(0..PROBE_ONE_IN) == 0;
        let deep = rng.gen_range(0..DEEP_ONE_IN) == 0;

        let target = source.next(&mut rng);
        log.attempted += 1;
        let outcome = match client.fetch(clock, sent_ns, &target) {
            Err(f) => Err(format!("{f:?} on {}", target.path)),
            Ok(got) => {
                let checked_ns = clock.now_ns();
                match shared
                    .corpus
                    .check(&target, &got, client.body(), deep, checked_ns)
                {
                    Ok(()) => Ok((got, checked_ns)),
                    Err(wrong) => {
                        log.wrong_bytes += u64::from(wrong != Wrong::Version);
                        Err(format!("{wrong:?} on {} via {}", target.path, got.path))
                    }
                }
            }
        };
        let done_ns = clock.now_ns();

        let latency_us = match &outcome {
            Ok((got, fetched_ns)) => {
                let body = client.body();
                last_body_len = body.len();
                log.hops += got.hops.len() as u64;
                log.backoffs += u64::from(got.backoffs);
                log.partial += u64::from(got.status == 206);
                let window = ((done_ns - p.start_ns) / BALANCE_WINDOW_NS) as usize;
                if let Some(w) = log.served_by.get_mut(window) {
                    w[usize::from(got.server != 0)] += 1;
                }
                if deep {
                    log.body_us
                        .push((fetched_ns - got.first_byte_ns()) as f64 / 1e3);
                }
                if tick < log.ops_by_tick.len() {
                    log.ops_by_tick[tick] += 1;
                    log.bytes_by_tick[tick] += body.len() as u64;
                    log.busy_ns_by_tick[tick] += done_ns - due_ns;
                }
                source.observe(got, body);
                if sampled {
                    record_spans(
                        shared,
                        &mut log,
                        op_seq,
                        due_ns,
                        *fetched_ns,
                        done_ns,
                        &target,
                        got,
                        body,
                    );
                }
                (done_ns - due_ns) as f64 / 1e3
            }
            Err(why) => {
                log.failed += 1;
                log.first_failure.get_or_insert_with(|| why.clone());
                FAILED
            }
        };
        match phase {
            Phase::Paced(_) => {
                let ttfb_us = match &outcome {
                    Ok((got, _)) => (got.first_byte_ns() - due_ns) as f64 / 1e3,
                    Err(_) => FAILED,
                };
                log.paced_latency.record(tick, latency_us);
                log.paced_ttfb.record(tick, ttfb_us);
                last_paced = Some((latency_us, ttfb_us));
            }
            Phase::Sat(_) if deep || !latency_us.is_finite() => log.sat_latency_us.push(latency_us),
            _ => {}
        }
        op_seq += shared.threads as u64;
    }
    shared.finished.wait();
    reference.stop();
    log.sessions = source.sessions();
    log
}

/// Publish the next version of `doc` on the home server, timing the call.
/// A page gets a new version marker; an image is republished with the
/// bytes it had (a `touch`), which bumps its version all the same and so
/// makes a co-op holding it refresh at its next T_val check.
fn republish(shared: &Shared<'_>, churn: &Churn, doc: usize, log: &mut ThreadLog) {
    let _serial = churn.apply.lock().expect("churn lock");
    let d = &shared.corpus.docs[doc];
    let bytes = if d.is_html() {
        let version = shared.corpus.current_version(doc) + 1;
        let bytes = shared.corpus.republished(doc, version);
        shared
            .corpus
            .note_publish(doc, version, shared.clock.now_ns());
        bytes
    } else {
        d.original().into_owned()
    };
    let kind = crate::cluster::doc_kind(d.spec.kind);
    let t0 = shared.clock.now_ns();
    shared
        .home
        .engine()
        .lock()
        .publish(&d.spec.name, bytes, kind, d.spec.entry_point);
    log.publish_us
        .push((shared.clock.now_ns() - t0) as f64 / 1e3);
}

/// Store the op's span tree and, on the shadow objects, time the layers
/// the servers ran to answer it.
#[allow(clippy::too_many_arguments)]
fn record_spans(
    shared: &Shared<'_>,
    log: &mut ThreadLog,
    op: u64,
    due_ns: u64,
    fetched_ns: u64,
    done_ns: u64,
    target: &Target,
    got: &Fetched,
    body: &[u8],
) {
    let root = log
        .spans
        .push(Span::new("client.op", due_ns, done_ns, None, op));
    let mut last_hop = root;
    for h in &got.hops {
        let hop = log.spans.push(
            Span::new("client.hop", h.start_ns, h.done_ns, Some(root), op)
                .with_hop(h.server, h.status),
        );
        for (name, a, b) in [
            ("client.write", h.start_ns, h.written_ns),
            ("client.ttfb", h.written_ns, h.first_byte_ns),
            ("client.body", h.first_byte_ns, h.done_ns),
        ] {
            log.spans.push(Span::new(name, a, b, Some(hop), op));
        }
        last_hop = hop;
    }
    log.spans.push(Span::new(
        "client.verify",
        fetched_ns,
        done_ns,
        Some(root),
        op,
    ));
    if let Some(shadow) = shared.shadow {
        // Skip rather than wait when the other thread holds the shadow:
        // a probe must never become a queue of its own.
        if let Ok(mut shadow) = shadow.try_lock() {
            shadow.probe_op(
                shared.clock,
                target,
                got,
                body,
                last_hop,
                op,
                &mut log.spans,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u64 = 1_000_000_000;

    #[test]
    fn a_run_is_a_warm_up_and_an_even_number_of_alternating_blocks() {
        let p = Phases::new(0, 24.0);
        // 0.8 x 24 s = 19.2 s: 18 whole blocks, and the warm-up takes the
        // other 6 s.
        assert_eq!((p.warm_end_ns, p.end_ns, p.blocks()), (6 * S, 24 * S, 18));
        assert_eq!(p.at(0), Phase::Warm);
        assert_eq!(p.at(6 * S - 1), Phase::Warm);
        assert_eq!(p.at(6 * S), Phase::Paced(0));
        assert_eq!(p.at(7 * S), Phase::Sat(1));
        assert_eq!(p.at(23 * S + 1), Phase::Sat(17));
        assert_eq!(p.at(24 * S), Phase::Over);
        // The shortest run still has one block of each kind.
        let short = Phases::new(0, 1.0);
        assert_eq!((short.blocks(), short.warm_end_ns), (2, 2 * TICK_NS));
    }

    #[test]
    fn a_blocks_first_tick_is_never_kept() {
        let p = Phases::new(5, 24.0);
        assert_eq!(p.ticks(), 240);
        assert_eq!(p.kept_ticks(0), (61..70).collect::<Vec<_>>());
        assert_eq!(p.kept_ticks(17), (231..240).collect::<Vec<_>>());
        assert_eq!(p.warm_ticks(), (1..60).collect::<Vec<_>>());
        assert_eq!(p.tick_of(p.block_start_ns(1)), 70);
    }

    #[test]
    fn every_other_sat_block_of_a_traced_run_is_left_untouched() {
        let traced: Vec<usize> = (1..12)
            .step_by(2)
            .filter(|&b| sat_block_is_traced(b))
            .collect();
        assert_eq!(traced, vec![3, 7, 11]);
    }
}
