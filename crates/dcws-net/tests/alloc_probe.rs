//! The warm keep-alive GET costs no heap allocation and three syscalls.
//!
//! This binary installs a counting global allocator, primes a one-shard
//! reactor, then drives plain keep-alive GETs from a client that itself
//! allocates nothing (constant request bytes, a stack buffer for the
//! replies). Whatever the process allocates meanwhile is the server's:
//! it must not grow with the number of requests. The reactor's own
//! syscall counters must show one `read` and one `writev` per request.
//!
//! The same probe then drives keep-alive GETs of two primed large
//! objects, 1 MB and 2.8 MB: none spills, and what the server allocates
//! per GET does not grow with the object's length — the entity is read
//! into a pooled buffer, slice by slice.
//!
//! Deliberately a **single** `#[test]`: the allocation counter is
//! process-global, and parallel tests would interleave their counts.

use dcws_core::{DiskStore, MemStore, ServerConfig, ServerEngine};
use dcws_graph::{DocKind, ServerId};
use dcws_net::{DcwsServer, NetConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches no memory
// the allocator manages.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed on as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static PROBE: CountingAlloc = CountingAlloc;

const GET: &[u8] = b"GET /doc.html HTTP/1.1\r\nHost: probe\r\n\r\n";

/// One exchange on a keep-alive connection: the reply is `reply_len`
/// bytes long (learned from the priming exchange). No allocation.
fn exchange(stream: &mut TcpStream, buf: &mut [u8], reply_len: usize) {
    stream.write_all(GET).unwrap();
    let mut got = 0;
    while got < reply_len {
        let n = stream.read(&mut buf[got..]).unwrap();
        assert!(n > 0, "server closed mid-reply");
        got += n;
    }
    assert_eq!(got, reply_len, "reply longer than the primed one");
}

/// One exchange of `request` for a large object: write it, then take
/// the `reply_len` bytes of the reply through `buf`. No allocation.
fn fetch_large(stream: &mut TcpStream, request: &[u8], buf: &mut [u8], reply_len: usize) {
    stream.write_all(request).unwrap();
    let mut got = 0;
    while got < reply_len {
        let want = buf.len().min(reply_len - got);
        let n = stream.read(&mut buf[..want]).unwrap();
        assert!(n > 0, "server closed mid-reply");
        got += n;
    }
}

/// After priming, `K` GETs of a 1 MB and of a 2.8 MB object are all
/// served inline, and cost the same number of allocations.
fn large_gets_stay_inline_and_allocate_alike(force_poll: bool) {
    const K: u64 = 40;
    const OBJECTS: [(&[u8], usize); 2] = [
        (b"GET /one.bin HTTP/1.1\r\nHost: probe\r\n\r\n", 1_000_000),
        (b"GET /big.bin HTTP/1.1\r\nHost: probe\r\n\r\n", 2_800_000),
    ];
    let dir = std::env::temp_dir().join(format!(
        "dcws-alloc-probe-{force_poll}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut engine = ServerEngine::new(
        ServerId::new("placeholder:0"),
        ServerConfig::paper_defaults(),
        Box::new(DiskStore::open(&dir).unwrap()),
    );
    engine.publish("/one.bin", vec![1u8; OBJECTS[0].1], DocKind::Image, false);
    engine.publish("/big.bin", vec![2u8; OBJECTS[1].1], DocKind::Image, false);
    let mut net = NetConfig::new(Duration::from_millis(500));
    net.reactor_shards = 1;
    net.reactor_force_poll = force_poll;
    let server = DcwsServer::spawn_with(engine, "127.0.0.1:0", net).unwrap();
    let stats = server.reactor_stats();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 65536];

    // Priming: the first GET of each spills and tells the head's length;
    // a few more warm the refill pool, the hit mailbox and the out queue.
    let mut reply_lens = [0usize; 2];
    for (i, (request, len)) in OBJECTS.iter().enumerate() {
        stream.write_all(request).unwrap();
        let mut got = stream.read(&mut buf).unwrap();
        let head_end = loop {
            if let Some(at) = buf[..got].windows(4).position(|w| w == b"\r\n\r\n") {
                break at + 4;
            }
            got += stream.read(&mut buf[got..]).unwrap();
        };
        assert!(buf.starts_with(b"HTTP/1.1 200"));
        reply_lens[i] = head_end + len;
        while got < reply_lens[i] {
            let want = buf.len().min(reply_lens[i] - got);
            got += stream.read(&mut buf[..want]).unwrap();
        }
        for _ in 0..4 {
            fetch_large(&mut stream, request, &mut buf, reply_lens[i]);
        }
    }

    let mut counts = [0u64; 2];
    for (i, (request, _)) in OBJECTS.iter().enumerate() {
        let spilled0 = stats.spillover_jobs.load(Ordering::Relaxed);
        let inline0 = stats.inline_served.load(Ordering::Relaxed);
        let allocs0 = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..K {
            fetch_large(&mut stream, request, &mut buf, reply_lens[i]);
        }
        counts[i] = ALLOCATIONS.load(Ordering::Relaxed) - allocs0;
        assert_eq!(
            stats.spillover_jobs.load(Ordering::Relaxed) - spilled0,
            0,
            "force_poll={force_poll}: a primed large GET spilled"
        );
        assert_eq!(
            stats.inline_served.load(Ordering::Relaxed) - inline0,
            K,
            "force_poll={force_poll}: every large GET must be served inline"
        );
    }
    // One per GET (the entity's boxed reader) and the same for both, but
    // for the ticks that landed in either window — where an allocation
    // per refill would show as seven more per GET of the larger object.
    assert!(
        counts[0].abs_diff(counts[1]) <= ALLOWANCE && counts[1] <= K + ALLOWANCE,
        "force_poll={force_poll}: {counts:?} allocations over {K} GETs of 1 MB and of 2.8 MB"
    );
    drop(stream);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A pinger tick that lands inside a measured window allocates two or
/// three times (draining the hit mailbox, the load-report snapshot). One
/// request's worth of the old per-request cost (~30) would not fit.
const ALLOWANCE: u64 = 24;

#[test]
fn warm_gets_allocate_nothing_and_cost_one_read_one_writev() {
    // Prove the probe is armed before trusting a low count.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    drop(std::hint::black_box(vec![1u64, 2, 3]));
    assert!(
        ALLOCATIONS.load(Ordering::Relaxed) > before,
        "the counting allocator is not installed"
    );

    for force_poll in [false, true] {
        let mut engine = ServerEngine::new(
            ServerId::new("placeholder:0"),
            ServerConfig::paper_defaults(),
            Box::new(MemStore::new()),
        );
        engine.publish("/doc.html", vec![b'x'; 2048], DocKind::Html, true);
        let mut net = NetConfig::new(Duration::from_millis(500));
        net.reactor_shards = 1;
        net.reactor_force_poll = force_poll;
        let server = DcwsServer::spawn_with(engine, "127.0.0.1:0", net).unwrap();
        let stats = server.reactor_stats();
        // (poller waits, reads + writevs), sampled once the reactor has
        // gone back to sleep: a reply reaches the client a moment before
        // the reactor counts the `writev` that carried it.
        let syscalls = || loop {
            let sample = || {
                (
                    stats.poll_waits.load(Ordering::Relaxed),
                    stats.read_calls.load(Ordering::Relaxed)
                        + stats.writev_calls.load(Ordering::Relaxed),
                )
            };
            let earlier = sample();
            std::thread::sleep(Duration::from_millis(5));
            if sample() == earlier {
                return earlier;
            }
        };

        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = [0u8; 8192];

        // Priming: the first GET spills and primes the serve table; its
        // reply tells us the length of every later one. A few more warm
        // the connection's buffers, the hit mailbox and the out queue.
        stream.write_all(GET).unwrap();
        let mut reply_len = 0;
        loop {
            reply_len += stream.read(&mut buf[reply_len..]).unwrap();
            let head_end = buf[..reply_len].windows(4).position(|w| w == b"\r\n\r\n");
            if head_end.is_some_and(|i| reply_len >= i + 4 + 2048) {
                break;
            }
        }
        assert!(buf.starts_with(b"HTTP/1.1 200"));
        for _ in 0..8 {
            exchange(&mut stream, &mut buf, reply_len);
        }
        let inline_before = stats.inline_served.load(Ordering::Relaxed);

        // Two windows of different length: were allocation per-request,
        // the longer one would show three times the count.
        let mut counts = Vec::new();
        for requests in [1_000u64, 3_000] {
            let (waits0, io0) = syscalls();
            let allocs0 = ALLOCATIONS.load(Ordering::Relaxed);
            for _ in 0..requests {
                exchange(&mut stream, &mut buf, reply_len);
            }
            let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs0;
            let (waits1, io1) = syscalls();
            assert_eq!(
                io1 - io0,
                2 * requests,
                "force_poll={force_poll}: one read and one writev per request"
            );
            // Every request needs a wake; the 250 ms tick adds a few.
            let waits = waits1 - waits0;
            assert!(
                (requests..=requests + 50).contains(&waits),
                "force_poll={force_poll}: {waits} poller waits for {requests} requests"
            );
            counts.push((requests, allocs));
        }
        assert_eq!(
            stats.inline_served.load(Ordering::Relaxed) - inline_before,
            4_000,
            "every measured request must have been served inline"
        );
        for (requests, allocs) in &counts {
            assert!(
                *allocs <= ALLOWANCE,
                "force_poll={force_poll}: {allocs} allocations over {requests} warm GETs ({counts:?})"
            );
        }

        // Teardown costs the one read that sees EOF.
        let (_, io0) = syscalls();
        drop(stream);
        let deadline = Instant::now() + Duration::from_secs(5);
        while stats.registered.load(Ordering::Relaxed) > 0 {
            assert!(Instant::now() < deadline, "connection never reaped");
            std::thread::sleep(Duration::from_millis(5));
        }
        let (_, io1) = syscalls();
        assert_eq!(io1 - io0, 1, "teardown is the read that returns EOF");
        server.shutdown();

        large_gets_stay_inline_and_allocate_alike(force_poll);
    }
}
