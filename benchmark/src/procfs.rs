//! Processor time, context switches and memory, read from `/proc/self`.
//!
//! Servers and generator share one process, so cost is attributed by
//! thread name: `dcws-net` names its threads by role, and the generator
//! names its own.

use std::fs;

/// Thread roles the benchmark tells apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Reactor,
    Worker,
    Pinger,
    Frontend,
    Generator,
    Other,
}

pub const GENERATOR_THREAD_PREFIX: &str = "bench-gen-";

fn role_of(comm: &str) -> Role {
    if comm.starts_with("dcws-reactor-") {
        Role::Reactor
    } else if comm.starts_with("dcws-worker-") {
        Role::Worker
    } else if comm == "dcws-pinger" {
        Role::Pinger
    } else if comm == "dcws-frontend" {
        Role::Frontend
    } else if comm.starts_with(GENERATOR_THREAD_PREFIX) {
        Role::Generator
    } else {
        Role::Other
    }
}

/// Processor time and context switches per role, summed over the
/// threads alive at the moment of the reading.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub reactor_ns: u64,
    pub worker_ns: u64,
    pub pinger_ns: u64,
    pub frontend_ns: u64,
    pub generator_ns: u64,
    pub server_ctx_switches: u64,
}

impl Usage {
    pub fn server_ns(&self) -> u64 {
        self.reactor_ns + self.worker_ns + self.pinger_ns + self.frontend_ns
    }

    /// Usage accrued since `earlier`. Both readings must see the same
    /// threads, which holds within one workload's timed phases.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            reactor_ns: self.reactor_ns.saturating_sub(earlier.reactor_ns),
            worker_ns: self.worker_ns.saturating_sub(earlier.worker_ns),
            pinger_ns: self.pinger_ns.saturating_sub(earlier.pinger_ns),
            frontend_ns: self.frontend_ns.saturating_sub(earlier.frontend_ns),
            generator_ns: self.generator_ns.saturating_sub(earlier.generator_ns),
            server_ctx_switches: self
                .server_ctx_switches
                .saturating_sub(earlier.server_ctx_switches),
        }
    }
}

/// On-CPU nanoseconds of one thread: `schedstat` where the kernel keeps
/// it (nanosecond resolution), else `utime + stime` from `stat` in clock
/// ticks, taken as the usual 100 per second.
fn thread_cpu_ns(task_dir: &std::path::Path) -> u64 {
    if let Some(ns) = fs::read_to_string(task_dir.join("schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
    {
        return ns;
    }
    let Ok(stat) = fs::read_to_string(task_dir.join("stat")) else {
        return 0;
    };
    // Fields after the parenthesised name; utime and stime are the 12th
    // and 13th of those.
    let after = stat.rsplit_once(')').map_or("", |(_, a)| a);
    let f: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) * 10_000_000
}

fn thread_ctx_switches(task_dir: &std::path::Path) -> u64 {
    let Ok(status) = fs::read_to_string(task_dir.join("status")) else {
        return 0;
    };
    status
        .lines()
        .filter(|l| l.contains("ctxt_switches"))
        .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        .sum()
}

/// Context switches cost a third file per thread; a reading taken inside
/// the measured window leaves them out.
pub fn usage(with_switches: bool) -> Usage {
    let mut u = Usage::default();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return u;
    };
    for task in tasks.flatten() {
        let dir = task.path();
        let comm = fs::read_to_string(dir.join("comm")).unwrap_or_default();
        let role = role_of(comm.trim());
        let ns = thread_cpu_ns(&dir);
        match role {
            Role::Reactor => u.reactor_ns += ns,
            Role::Worker => u.worker_ns += ns,
            Role::Pinger => u.pinger_ns += ns,
            Role::Frontend => u.frontend_ns += ns,
            Role::Generator => u.generator_ns += ns,
            Role::Other => continue,
        }
        if with_switches && role != Role::Generator {
            u.server_ctx_switches += thread_ctx_switches(&dir);
        }
    }
    u
}

/// Pin every reactor thread of the process to a processor: shard `i` of
/// each server to processor `i mod nproc`. Generator thread `i` pins
/// itself to the same processor and its connections are placed on shard
/// `i`, so a request and its answer change hands on one core. Left to the
/// scheduler, the pairing differs from run to run and flips within a run,
/// and closed-loop throughput with it, by a factor of three on the
/// two-core reference box. Worker and pinger threads are left to float.
pub fn pin_reactors() {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return;
    };
    for task in tasks.flatten() {
        let comm = fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        let shard = comm
            .trim()
            .strip_prefix("dcws-reactor-")
            .and_then(|i| i.parse::<usize>().ok());
        let tid = task.file_name().to_string_lossy().parse::<i32>().ok();
        if let (Some(shard), Some(tid)) = (shard, tid) {
            crate::sched::pin_thread(tid, shard % nproc());
        }
    }
}

/// On-CPU nanoseconds of the calling thread.
pub fn current_thread_cpu_ns() -> u64 {
    thread_cpu_ns(std::path::Path::new("/proc/thread-self"))
}

fn status_kb(key: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))?
                .split_whitespace()
                .nth(1)?
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(0.0)
}

/// Start the peak resident set again from what is resident now. The
/// set-up repeats overlap (a discarded group shuts down behind the next
/// build's back), and how many were alive at once is the harness's doing,
/// not the servers'. Where the kernel refuses, the peak stays what it was.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of the process (`VmHWM`) since the last
/// [`reset_peak_rss`], MB of 10⁶ bytes.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") * 1024.0 / 1e6
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn allowed_cpus() -> String {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Cpus_allowed_list:"))
                .map(|l| l["Cpus_allowed_list:".len()..].trim().to_string())
        })
        .unwrap_or_default()
}

pub fn kernel() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_follow_thread_names() {
        assert_eq!(role_of("dcws-reactor-0"), Role::Reactor);
        assert_eq!(role_of("dcws-worker-11"), Role::Worker);
        assert_eq!(role_of("dcws-pinger"), Role::Pinger);
        assert_eq!(role_of("dcws-frontend"), Role::Frontend);
        assert_eq!(role_of("bench-gen-1"), Role::Generator);
        assert_eq!(role_of("dcws-benchmark"), Role::Other);
    }

    #[test]
    fn a_busy_named_thread_shows_up_under_its_role() {
        let before = usage(true);
        std::thread::Builder::new()
            .name("bench-gen-9".into())
            .spawn(|| {
                let t = std::time::Instant::now();
                let mut x = 0u64;
                while t.elapsed().as_millis() < 60 {
                    x = std::hint::black_box(x.wrapping_add(1));
                }
                // Read while the thread is still alive.
                usage(false)
            })
            .unwrap()
            .join()
            .map(|during| {
                let spent = during.since(&before).generator_ns;
                assert!(spent >= 20_000_000, "saw {spent} ns of a 60 ms spin");
            })
            .unwrap();
        assert!(peak_rss_mb() > 0.0);
    }
}
