//! The references every timed end-to-end metric is read against.
//!
//! The reference box is two virtual processors of a shared host, and the
//! speed of each drifts by up to a factor of two over seconds and
//! minutes: forty untraced runs of one commit put the median op latency
//! anywhere from 13 to 24 us. A time read off the clock there says more
//! about the neighbours than about the program. What a piece of work
//! costs *as a multiple of a fixed reference measured beside it* repeats
//! from run to run to within a few percent where the time itself does
//! not, and that multiple, times the reference's frozen nominal time, is
//! what the timed end-to-end metrics report: the time the work would
//! have taken had the machine run at its nominal speed throughout. When
//! a reference moves between two runs the machine moved, not the program.
//! Neither reference shares any code with DCWS.
//!
//! * [`Responder`]: a bare `std` TCP responder on the same loopback,
//!   which answers a 64-byte request with as many bytes as it asks for,
//!   staged through a 64 KiB buffer as a server reading a file would.
//!   Every generator thread keeps one of its own, both ends on its own
//!   processor, and makes every fifth exchange of the measured window a
//!   round trip to it in place of an op: in the same loop, on the same
//!   schedule, for as many bytes as the op before it brought back. What
//!   an op costs is then read against the barest way of moving the same
//!   bytes to the same thread at the same moment.
//! * [`Work`]: a fixed piece of single-threaded computation, run before
//!   and after whatever it is the reference for: a set-up, or one
//!   simulation of `sim-lod`.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

const REQUEST: usize = 64;
/// The responder stages its reply through a buffer of this size, as a
/// server that reads a file a chunk at a time does.
const CHUNK: usize = 64 * 1024;
/// A reply sent from one buffer over and over stays in the processor's
/// cache, and how well depends on where the kernel happened to put the
/// buffer: the same 1.5 MB round trip took 620 or 740 us from one run to
/// the next, for the whole run. The bodies the servers send come from a
/// corpus of many documents, so the replies rotate through this many
/// replies' worth of memory,
const POOL_REPLIES: usize = 32;
/// and at most this much, eight times a processor's own cache on the
/// reference box.
const POOL_BYTES: usize = 16 << 20;

pub struct Responder {
    conn: TcpStream,
    server: Option<JoinHandle<()>>,
    reply: Vec<u8>,
}

impl Responder {
    /// Start a responder, its thread pinned to processor `cpu`.
    pub fn start(cpu: usize) -> io::Result<Responder> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let server = std::thread::Builder::new()
            .name("bench-echo".into())
            .spawn(move || {
                crate::sched::pin_thread(0, cpu);
                let Ok((mut s, _)) = listener.accept() else {
                    return;
                };
                let _ = s.set_nodelay(true);
                crate::sched::fix_socket_buffer(&s, true, crate::client::SOCKET_BUFFER);
                let mut request = [0u8; REQUEST];
                let mut staged = vec![0u8; CHUNK];
                // Grows as replies reach further into it.
                let mut pool = Vec::new();
                let mut at = 0;
                'serve: while s.read_exact(&mut request).is_ok() {
                    let wanted = u64::from_le_bytes(request[..8].try_into().expect("8 bytes"));
                    let wanted = (wanted as usize).clamp(1, POOL_BYTES);
                    if at + wanted > (wanted * POOL_REPLIES).min(POOL_BYTES) {
                        at = 0;
                    }
                    if pool.len() < at + wanted {
                        pool.resize(at + wanted, 0x5au8);
                    }
                    for chunk in pool[at..at + wanted].chunks(CHUNK) {
                        let staged = &mut staged[..chunk.len()];
                        staged.copy_from_slice(chunk);
                        if s.write_all(staged).is_err() {
                            break 'serve;
                        }
                    }
                    at += wanted;
                }
            })?;
        let conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        conn.set_read_timeout(Some(crate::client::OP_TIMEOUT))?;
        crate::sched::fix_socket_buffer(&conn, false, crate::client::SOCKET_BUFFER);
        Ok(Responder {
            conn,
            server: Some(server),
            reply: Vec::new(),
        })
    }

    /// One round trip: the request out, a reply of `bytes` bytes (at least
    /// one) back.
    pub fn round_trip(&mut self, bytes: usize) -> io::Result<()> {
        let bytes = bytes.max(1);
        let mut request = [0x5au8; REQUEST];
        request[..8].copy_from_slice(&(bytes as u64).to_le_bytes());
        self.conn.write_all(&request)?;
        if self.reply.len() < bytes {
            self.reply.resize(bytes, 0);
        }
        self.conn.read_exact(&mut self.reply[..bytes])
    }

    /// Close the connection and wait for the responder's thread to end.
    pub fn stop(mut self) {
        let _ = self.conn.shutdown(std::net::Shutdown::Both);
        if let Some(h) = self.server.take() {
            let _ = h.join();
        }
    }
}

/// What one [`Work::run`] takes on the reference box, µs: the median of
/// the definition runs, frozen.
pub const WORK_NOMINAL_US: f64 = 9_000.0;

/// Sort a fixed pseudo-random vector, then add to a million pseudo-random
/// places of an 8 MB table: branches, heap traffic and cache misses on
/// one thread, like publishing a corpus or simulating a cluster, and
/// never changing.
pub struct Work {
    table: Vec<u64>,
}

impl Work {
    pub fn new() -> Work {
        let mut work = Work {
            table: vec![0; 1 << 20],
        };
        // Once unmeasured: the first pass also faults the table in.
        work.run();
        work
    }

    /// Do the work once; the seconds it took.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut v: Vec<u64> = (0..100_000).map(|_| next()).collect();
        v.sort_unstable();
        let mask = self.table.len() - 1;
        for _ in 0..1_000_000 {
            let r = next();
            self.table[r as usize & mask] += r >> 32;
        }
        std::hint::black_box((&v, &self.table));
        t.elapsed().as_secs_f64()
    }
}

/// One job timed against [`Work`].
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// What the clock read, seconds.
    pub raw_s: f64,
    /// The reference just before and just after the job, mean, µs.
    pub ref_us: f64,
}

impl Timing {
    /// How much slower than nominal the machine ran around the job.
    pub fn slowdown(&self) -> f64 {
        self.ref_us / WORK_NOMINAL_US
    }

    /// What the job would have taken at nominal speed, seconds.
    pub fn scaled_s(&self) -> f64 {
        self.raw_s / self.slowdown()
    }
}

/// Times jobs one after the other, the reference running between them:
/// the run after one job is the run before the next.
pub struct Stopwatch {
    work: Work,
    before_s: f64,
}

impl Stopwatch {
    pub fn new() -> Stopwatch {
        let mut work = Work::new();
        let before_s = work.run();
        Stopwatch { work, before_s }
    }

    pub fn time<T>(&mut self, job: impl FnOnce() -> T) -> (T, Timing) {
        let t = Instant::now();
        let out = job();
        let raw_s = t.elapsed().as_secs_f64();
        let after_s = self.work.run();
        let ref_us = (self.before_s + after_s) / 2.0 * 1e6;
        self.before_s = after_s;
        (out, Timing { raw_s, ref_us })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_every_request_with_as_many_bytes_as_it_asks_for() {
        let mut echo = Responder::start(0).expect("start");
        for bytes in [100_000, 3, 1, 200_000] {
            echo.round_trip(bytes).expect("round trip");
            assert!(echo.reply[..bytes].iter().all(|&b| b == 0x5a));
        }
        echo.stop();
    }

    #[test]
    fn work_is_the_same_work_every_time() {
        let mut work = Work::new();
        let after_one = work.table.iter().sum::<u64>();
        work.run();
        // `new` ran it once; every run adds the same amounts.
        assert_eq!(work.table.iter().sum::<u64>(), after_one.wrapping_mul(2));
    }

    #[test]
    fn a_job_is_scaled_by_the_reference_around_it() {
        let (out, t) = Stopwatch::new().time(|| 7);
        assert_eq!(out, 7);
        assert!(t.ref_us > 0.0 && t.raw_s >= 0.0);
        // On a machine at half its nominal speed a job reads twice as long.
        let slow = Timing {
            raw_s: 2.0,
            ref_us: 2.0 * WORK_NOMINAL_US,
        };
        assert_eq!((slow.slowdown(), slow.scaled_s()), (2.0, 1.0));
    }
}
