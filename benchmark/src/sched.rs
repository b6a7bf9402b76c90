//! Clocks and the open-loop pacer.
//!
//! All harness timestamps are nanoseconds since one run epoch. The pacer
//! hands out due times on a fixed grid that never shifts: when the
//! generator falls behind (a slow response, a publish executed by this
//! thread), the ops that were due meanwhile are sent immediately and
//! timed from when they *were due*, so a stall is charged to every op it
//! delayed and not only to the one that caused it.

use std::time::{Duration, Instant};

pub trait Clock {
    fn now_ns(&self) -> u64;
    /// Return no earlier than `t_ns`.
    fn wait_until(&self, t_ns: u64);
}

/// Wall clock. Waits sleep to within [`SPIN_NS`] of the due time and spin
/// the remainder: a sleep ends late by the timer slack plus a wake-up from
/// idle, which on a virtual machine is tens of microseconds — as long as
/// a small op.
pub struct WallClock {
    epoch: Instant,
}

/// How close to the due time a wait stops sleeping and starts spinning.
const SPIN_NS: u64 = 200_000;

/// Restrict thread `tid` (0 = the caller) to processor `cpu`.
#[cfg(target_os = "linux")]
pub fn pin_thread(tid: i32, cpu: usize) {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    if let Some(word) = mask.get_mut(cpu / 64) {
        *word = 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live, initialised array and the size passed is
    // its size in bytes; the kernel only reads it. A refusal (no such
    // processor in our cpuset) leaves the thread where it was.
    let _ = unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
pub fn pin_thread(_tid: i32, _cpu: usize) {}

/// Fix the receive buffer (`send` false) or the send buffer of a
/// connected socket at `bytes` (the kernel books twice that). Left alone,
/// the kernel tunes the buffers of every connection to what it sees of
/// the traffic, anywhere up to 32 MB on the reference box, and how far it
/// got decides how many pieces a 2 MB body is sent in: the same op took
/// 1.0 or 1.5 ms from one run to the next. A fixed buffer makes every run
/// the same run.
#[cfg(target_os = "linux")]
pub fn fix_socket_buffer(stream: &std::net::TcpStream, send: bool, bytes: i32) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;
    const SO_RCVBUF: i32 = 8;
    // SAFETY: `bytes` lives across the call and the length passed is its
    // size; the kernel only reads it. The descriptor is the stream's own
    // and stays open while `stream` is borrowed. A refusal leaves the
    // socket as it was.
    let _ = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            if send { SO_SNDBUF } else { SO_RCVBUF },
            &bytes,
            std::mem::size_of::<i32>() as u32,
        )
    };
}

#[cfg(not(target_os = "linux"))]
pub fn fix_socket_buffer(_stream: &std::net::TcpStream, _send: bool, _bytes: i32) {}

impl WallClock {
    pub fn new() -> WallClock {
        WallClock {
            epoch: Instant::now(),
        }
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, t_ns: u64) {
        loop {
            let now = self.now_ns();
            if now >= t_ns {
                return;
            }
            if t_ns - now > SPIN_NS {
                std::thread::sleep(Duration::from_nanos(t_ns - now - SPIN_NS));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// One generator thread's share of an open-loop schedule.
pub struct Pacer {
    next_due_ns: u64,
    period_ns: u64,
}

/// When an op was due and when the generator actually got to send it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    pub due_ns: u64,
    pub sent_ns: u64,
}

impl Slot {
    pub fn lateness_ns(&self) -> u64 {
        self.sent_ns - self.due_ns
    }
}

impl Pacer {
    /// `rate_per_s` is this thread's rate; `lane`/`lanes` stagger the
    /// threads evenly across one period.
    pub fn new(start_ns: u64, rate_per_s: f64, lane: usize, lanes: usize) -> Pacer {
        let period_ns = (1e9 / rate_per_s).max(1.0) as u64;
        Pacer {
            next_due_ns: start_ns + period_ns * lane as u64 / lanes.max(1) as u64,
            period_ns,
        }
    }

    /// Due time of the next op, without waiting for it.
    pub fn peek_due_ns(&self) -> u64 {
        self.next_due_ns
    }

    /// Drop the grid points before `t_ns`: the generator was asked for
    /// no ops in that time. The grid itself never shifts.
    pub fn skip_to(&mut self, t_ns: u64) {
        if self.next_due_ns < t_ns {
            let behind = t_ns - self.next_due_ns;
            self.next_due_ns += behind.div_ceil(self.period_ns) * self.period_ns;
        }
    }

    /// Block until the next op is due (not at all when already behind).
    pub fn wait(&mut self, clock: &impl Clock) -> Slot {
        let due_ns = self.next_due_ns;
        self.next_due_ns += self.period_ns;
        clock.wait_until(due_ns);
        Slot {
            due_ns,
            sent_ns: clock.now_ns().max(due_ns),
        }
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to: waits jump it forward and
    /// the test advances it by each op's service time.
    pub struct FakeClock(pub Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn wait_until(&self, t_ns: u64) {
            self.0.set(self.0.get().max(t_ns));
        }
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn a_stall_is_charged_to_every_op_due_during_it() {
        let clock = FakeClock(Cell::new(0));
        let mut pacer = Pacer::new(0, 100.0, 0, 1); // one op per 10 ms
        let mut latency_ms = Vec::new();
        let mut lateness_ms = Vec::new();
        for op in 0..10 {
            let slot = pacer.wait(&clock);
            // Every op takes 1 ms, except op 2, which stalls for 50 ms.
            let service = if op == 2 { 50 * MS } else { MS };
            clock.0.set(clock.0.get() + service);
            latency_ms.push((clock.now_ns() - slot.due_ns) / MS);
            lateness_ms.push(slot.lateness_ns() / MS);
        }
        // Op 2 was due at 20 and finished at 70. Ops 3..6 were due at
        // 30..60, during the stall: each waited for it and is charged
        // the wait, although its own service took 1 ms.
        assert_eq!(latency_ms, vec![1, 1, 50, 41, 32, 23, 14, 5, 1, 1]);
        assert_eq!(lateness_ms, vec![0, 0, 0, 40, 31, 22, 13, 4, 0, 0]);
    }

    #[test]
    fn skipping_keeps_the_grid() {
        let mut p = Pacer::new(0, 100.0, 0, 1); // one op per 10 ms
        p.skip_to(25 * MS);
        assert_eq!(p.peek_due_ns(), 30 * MS);
        p.skip_to(30 * MS);
        assert_eq!(p.peek_due_ns(), 30 * MS, "a point at the instant stays");
        p.skip_to(5 * MS);
        assert_eq!(p.peek_due_ns(), 30 * MS, "never backwards");
    }

    #[test]
    fn lanes_stagger_threads_across_one_period() {
        let a = Pacer::new(1000, 1000.0, 0, 2);
        let b = Pacer::new(1000, 1000.0, 1, 2);
        assert_eq!(a.peek_due_ns(), 1000);
        assert_eq!(b.peek_due_ns(), 1000 + 500_000);
    }
}
