//! The c10k sweep: how many concurrent keep-alive clients can one DCWS
//! server actually hold?
//!
//! The paper's §5.1 front end parks one worker thread per connection, so
//! a dozen workers mean a dozen concurrent clients — every further
//! keep-alive connection waits in the socket queue or takes a `503`.
//! The reactor (see `docs/PERFORMANCE.md`, "Reactor & backpressure")
//! multiplexes all client connections over readiness events on one
//! thread, so an *idle* connection costs a file descriptor and a parse
//! buffer, not a thread. This binary measures that directly: a
//! population of slow keep-alive clients (one small GET per think-time
//! interval, connection held open throughout) is pointed at one real
//! [`DcwsServer`], and the key number is **max concurrently open *and
//! served* connections**: a connection counts once it is open and has
//! received at least one `200`. (The A/B against the §5.1 model that
//! retired it is recorded in EXPERIMENTS.md, "C10kpress".)
//!
//! The client side is the same [`Poller`] the reactor
//! uses (one thread, nonblocking sockets, incremental `MsgBuf`
//! parsing), so driving 10 000+ sockets needs no client thread pool.
//! Before opening anything each process raises its `RLIMIT_NOFILE` soft
//! limit ([`raise_nofile_limit`]). Every
//! connection costs **two** descriptors — client end plus server end —
//! so when the fd limit cannot cover both ends in one process (a 10.5k
//! run needs 21k+ fds), the client side re-execs itself as a child
//! process (the hidden `--drive` mode): the server process then holds
//! one fd per connection and the child holds the other.
//!
//! Outputs: `bench_results/c10kpress.csv`,
//! `bench_results/BENCH_c10kpress.json`, and a one-row table on stdout.
//! Full mode targets 10 500 clients and records `pass_10k` (≥ 10 000
//! served concurrent connections). `--quick` / `DCWS_BENCH_QUICK=1` runs
//! 1 000 clients and **exits nonzero** unless the served-concurrency
//! exceeds the worker count with zero accept errors — the CI smoke gate
//! for the event loop itself.

use dcws_bench::{fmt_thousands, quick, write_csv, write_report};
use dcws_core::{MemStore, ServerConfig, ServerEngine};
use dcws_graph::{DocKind, ServerId};
use dcws_http::Method;
use dcws_net::metrics::LatencyHistogram;
use dcws_net::{raise_nofile_limit, DcwsServer, MsgBuf, NetConfig, Poller};
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

struct Params {
    /// Target concurrent client connections.
    conns: usize,
    /// One request per connection per this interval (a "slow" client).
    think: Duration,
    /// Measurement window after the population is open and warmed.
    measure: Duration,
}

fn params() -> Params {
    if quick() {
        Params {
            conns: 1_000,
            think: Duration::from_millis(400),
            measure: Duration::from_millis(2_000),
        }
    } else {
        Params {
            conns: 10_500,
            think: Duration::from_millis(2_000),
            measure: Duration::from_millis(10_000),
        }
    }
}

/// fd headroom beyond the connections themselves (listener, waker pipe,
/// stdio, the binary, the results files...).
const FD_SLACK: usize = 512;

fn spawn_server() -> DcwsServer {
    let id = ServerId::new("placeholder:0");
    let mut engine = ServerEngine::new(
        id,
        ServerConfig::paper_defaults(),
        Box::new(MemStore::new()),
    );
    engine.publish("/doc.html", b"<p>c10k</p>".to_vec(), DocKind::Html, true);
    let mut net = NetConfig::new(Duration::from_millis(500));
    // Single-loop premise: the question is how many connections one
    // event loop holds; sharding would divide them.
    net.reactor_shards = 1;
    DcwsServer::spawn_with(engine, "127.0.0.1:0", net).expect("spawn server")
}

const REQ: &[u8] = b"GET /doc.html HTTP/1.1\r\nHost: bench\r\n\r\n";

enum ClientState {
    /// Parked between requests; sends again at the stored instant.
    Idle(Instant),
    /// Request written; response pending.
    Awaiting(Instant),
}

struct Client {
    stream: Option<TcpStream>,
    mb: MsgBuf,
    state: ClientState,
    ok: u64,
}

impl Client {
    fn open_served(&self) -> bool {
        self.stream.is_some() && self.ok > 0
    }
}

/// Client-side measurements from the drive loop — everything that
/// can be observed without touching the server object, so the loop can
/// run in a separate process when the fd budget demands it.
struct DriveResult {
    conns_opened: usize,
    connect_errors: u64,
    /// Peak of (open ∧ served ≥ 1 response) over the run — the key metric.
    max_concurrent_served: usize,
    open_at_end: usize,
    ok: u64,
    rejected_503: u64,
    closed_by_server: u64,
    cps: f64,
    p50: Duration,
    p99: Duration,
}

impl DriveResult {
    /// One parseable line for the `--drive` child → parent hand-off.
    fn to_wire(&self) -> String {
        format!(
            "DRIVE {},{},{},{},{},{},{},{:.3},{},{}",
            self.conns_opened,
            self.connect_errors,
            self.max_concurrent_served,
            self.open_at_end,
            self.ok,
            self.rejected_503,
            self.closed_by_server,
            self.cps,
            self.p50.as_micros(),
            self.p99.as_micros(),
        )
    }

    fn from_wire(line: &str) -> Option<DriveResult> {
        let f: Vec<&str> = line.strip_prefix("DRIVE ")?.trim().split(',').collect();
        if f.len() != 10 {
            return None;
        }
        Some(DriveResult {
            conns_opened: f[0].parse().ok()?,
            connect_errors: f[1].parse().ok()?,
            max_concurrent_served: f[2].parse().ok()?,
            open_at_end: f[3].parse().ok()?,
            ok: f[4].parse().ok()?,
            rejected_503: f[5].parse().ok()?,
            closed_by_server: f[6].parse().ok()?,
            cps: f[7].parse().ok()?,
            p50: Duration::from_micros(f[8].parse().ok()?),
            p99: Duration::from_micros(f[9].parse().ok()?),
        })
    }
}

/// What the run measured: the client-side drive plus the server's own
/// counters.
struct RunResult {
    conns_target: usize,
    d: DriveResult,
    srv_peak_conns: u64,
    srv_accept_errors: u64,
    srv_inline_served: u64,
    srv_spillover_jobs: u64,
    srv_dropped: u64,
}

/// The client event loop: open `p.conns` keep-alive connections to
/// `addr`, cycle each through think-time → GET → response, and track
/// the peak number of connections that are simultaneously open and have
/// been served. Progress goes to stderr so the `--drive` child's stdout
/// stays machine-readable.
fn drive(addr: SocketAddr, p: &Params) -> DriveResult {
    let mut poller = Poller::new().expect("client poller");
    let mut clients: Vec<Client> = Vec::with_capacity(p.conns);
    let mut connect_errors = 0u64;
    let start = Instant::now();
    for i in 0..p.conns {
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_nonblocking(true).unwrap();
                let _ = s.set_nodelay(true);
                poller
                    .register(s.as_raw_fd(), clients.len() as u64, true, false)
                    .expect("register client");
                clients.push(Client {
                    stream: Some(s),
                    mb: MsgBuf::new(),
                    // Stagger first sends across the think interval so the
                    // population doesn't fire in lockstep (a prime stride
                    // spreads indices roughly uniformly over the window).
                    state: ClientState::Idle(
                        Instant::now()
                            + Duration::from_millis(
                                (i as u64 * 7919) % p.think.as_millis().max(1) as u64,
                            ),
                    ),
                    ok: 0,
                });
            }
            Err(_) => connect_errors += 1,
        }
        // Brief pauses keep the connect burst inside the listener backlog.
        if i % 250 == 249 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let opened = clients.len();
    eprintln!(
        "[drive] opened {opened}/{} conns in {:?} ({connect_errors} connect errors)",
        p.conns,
        start.elapsed()
    );

    let latency = LatencyHistogram::new();
    let mut rejected_503 = 0u64;
    let mut closed_by_server = 0u64;
    let mut max_concurrent_served = 0usize;
    let mut events = Vec::new();
    let mut last_pass = Instant::now() - Duration::from_secs(1);

    // Warmup: one full think interval so every client has sent at least
    // once, then a measurement window.
    let warm_until = Instant::now() + p.think + Duration::from_millis(500);
    let mut measure_from = None::<(Instant, u64)>;
    let mut measured_ok = 0u64;
    let end_by = warm_until + p.measure + Duration::from_secs(30); // hard stop
    loop {
        let now = Instant::now();
        if measure_from.is_none() && now >= warm_until {
            let total_ok: u64 = clients.iter().map(|c| c.ok).sum();
            measure_from = Some((now, total_ok));
        }
        if let Some((t0, ok0)) = measure_from {
            if now.duration_since(t0) >= p.measure {
                measured_ok = clients.iter().map(|c| c.ok).sum::<u64>() - ok0;
                break;
            }
        }
        if now > end_by {
            eprintln!("[drive] hard stop hit");
            break;
        }

        events.clear();
        let _ = poller.wait(&mut events, Some(Duration::from_millis(25)));
        let mut scratch = [0u8; dcws_net::READ_CHUNK];
        for ev in &events {
            let idx = ev.token as usize;
            let c = &mut clients[idx];
            let Some(stream) = c.stream.as_mut() else {
                continue;
            };
            if ev.readable || ev.hangup {
                loop {
                    match c.mb.fill_from(stream, &mut scratch) {
                        Ok(0) => {
                            // Server closed us.
                            let s = c.stream.take().unwrap();
                            let _ = poller.deregister(s.as_raw_fd());
                            closed_by_server += 1;
                            break;
                        }
                        Ok(_) => {
                            let mut dead = false;
                            while let Ok(Some(resp)) = c.mb.try_extract_response(Method::Get) {
                                if resp.status == dcws_http::StatusCode::Ok {
                                    c.ok += 1;
                                    if let ClientState::Awaiting(sent) = c.state {
                                        latency.record(sent.elapsed());
                                    }
                                } else {
                                    rejected_503 += 1;
                                }
                                c.state = ClientState::Idle(Instant::now() + p.think);
                                if resp
                                    .headers
                                    .get("Connection")
                                    .is_some_and(|v| v.eq_ignore_ascii_case("close"))
                                {
                                    dead = true;
                                }
                            }
                            if dead {
                                if let Some(s) = c.stream.take() {
                                    let _ = poller.deregister(s.as_raw_fd());
                                }
                                break;
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            if let Some(s) = c.stream.take() {
                                let _ = poller.deregister(s.as_raw_fd());
                            }
                            closed_by_server += 1;
                            break;
                        }
                    }
                }
            }
        }

        // Send + sample pass, throttled so the per-event loop above is
        // not O(clients) per wakeup.
        if last_pass.elapsed() >= Duration::from_millis(20) {
            last_pass = Instant::now();
            let mut served_open = 0usize;
            for c in clients.iter_mut() {
                if c.open_served() {
                    served_open += 1;
                }
                let Some(stream) = c.stream.as_mut() else {
                    continue;
                };
                if let ClientState::Idle(at) = c.state {
                    if last_pass >= at {
                        match stream.write_all(REQ) {
                            Ok(()) => c.state = ClientState::Awaiting(Instant::now()),
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                            Err(_) => {
                                if let Some(s) = c.stream.take() {
                                    let _ = poller.deregister(s.as_raw_fd());
                                }
                                closed_by_server += 1;
                            }
                        }
                    }
                }
            }
            max_concurrent_served = max_concurrent_served.max(served_open);
        }
    }

    let elapsed = measure_from
        .map(|(t0, _)| t0.elapsed())
        .unwrap_or(p.measure);
    let open_at_end = clients.iter().filter(|c| c.stream.is_some()).count();
    let snap = latency.snapshot();
    DriveResult {
        conns_opened: opened,
        connect_errors,
        max_concurrent_served,
        open_at_end,
        ok: measured_ok,
        rejected_503,
        closed_by_server,
        cps: measured_ok as f64 / elapsed.as_secs_f64(),
        p50: snap.percentile(50.0),
        p99: snap.percentile(99.0),
    }
}

/// Run the drive loop in a child process (re-exec of this binary with
/// `--drive`), so client fds and server fds come out of two separate
/// `RLIMIT_NOFILE` budgets.
fn drive_subprocess(addr: SocketAddr, p: &Params) -> DriveResult {
    let exe = std::env::current_exe().expect("current_exe");
    let out = std::process::Command::new(exe)
        .args([
            "--drive",
            &addr.to_string(),
            &p.conns.to_string(),
            &p.think.as_millis().to_string(),
            &p.measure.as_millis().to_string(),
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("spawn --drive child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .rev()
        .find_map(DriveResult::from_wire)
        .unwrap_or_else(|| {
            panic!(
                "--drive child produced no result (status {:?}): {stdout}",
                out.status
            )
        })
}

/// Entry point for the hidden `--drive` child mode:
/// `c10kpress --drive <addr> <conns> <think_ms> <measure_ms>`.
fn drive_main(args: &[String]) -> ! {
    let addr: SocketAddr = args[0].parse().expect("drive addr");
    let p = Params {
        conns: args[1].parse().expect("drive conns"),
        think: Duration::from_millis(args[2].parse().expect("drive think_ms")),
        measure: Duration::from_millis(args[3].parse().expect("drive measure_ms")),
    };
    raise_nofile_limit((p.conns + FD_SLACK) as u64);
    let r = drive(addr, &p);
    println!("{}", r.to_wire());
    std::process::exit(0);
}

fn run(p: &Params, split: bool) -> RunResult {
    let server = spawn_server();
    let addr = server.addr();

    // Prime the serve table so steady-state GETs are read-path hits.
    {
        let mut s = TcpStream::connect(addr).expect("prime connect");
        s.write_all(b"GET /doc.html HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        use std::io::Read;
        let mut sink = Vec::new();
        let _ = s.read_to_end(&mut sink);
    }

    let d = if split {
        drive_subprocess(addr, p)
    } else {
        drive(addr, p)
    };

    let rs = server.reactor_stats();
    let result = RunResult {
        conns_target: p.conns,
        d,
        srv_peak_conns: rs.peak.load(Ordering::Relaxed),
        srv_accept_errors: rs.accept_errors.load(Ordering::Relaxed),
        srv_inline_served: rs.inline_served.load(Ordering::Relaxed),
        srv_spillover_jobs: rs.spillover_jobs.load(Ordering::Relaxed),
        srv_dropped: server.dropped_connections(),
    };
    server.shutdown();
    result
}

fn run_json(a: &RunResult) -> dcws_core::Json {
    use dcws_core::Json;
    Json::obj(vec![
        ("conns_target", Json::from(a.conns_target as u64)),
        ("conns_opened", Json::from(a.d.conns_opened as u64)),
        ("connect_errors", Json::from(a.d.connect_errors)),
        (
            "max_concurrent_served",
            Json::from(a.d.max_concurrent_served as u64),
        ),
        ("open_at_end", Json::from(a.d.open_at_end as u64)),
        ("ok", Json::from(a.d.ok)),
        ("rejected_503", Json::from(a.d.rejected_503)),
        ("closed_by_server", Json::from(a.d.closed_by_server)),
        ("cps", Json::from(a.d.cps)),
        ("p50_us", Json::from(a.d.p50.as_micros() as u64)),
        ("p99_us", Json::from(a.d.p99.as_micros() as u64)),
        (
            "server",
            Json::obj(vec![
                ("peak_conns", Json::from(a.srv_peak_conns)),
                ("accept_errors", Json::from(a.srv_accept_errors)),
                ("inline_served", Json::from(a.srv_inline_served)),
                ("spillover_jobs", Json::from(a.srv_spillover_jobs)),
                ("dropped_503", Json::from(a.srv_dropped)),
            ]),
        ),
    ])
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--drive") {
        drive_main(&argv[2..]);
    }

    let mut p = params();
    let n_workers = ServerConfig::paper_defaults().n_workers;

    // Every connection costs two fds: its client end and its server end.
    // Prefer one process (simpler, what --quick uses); when the limit
    // cannot cover both ends, split the client side into a --drive child
    // so each process only pays one fd per connection.
    let both = (2 * p.conns + FD_SLACK) as u64;
    let one = |conns: usize| (conns + FD_SLACK) as u64;
    let limit = raise_nofile_limit(both);
    let split = limit < both;
    if split && limit < one(p.conns) {
        let fit = (limit as usize).saturating_sub(FD_SLACK).max(64);
        eprintln!("warning: fd limit {limit} caps even a split run; scaling to {fit} conns");
        p.conns = fit;
    }

    println!(
        "c10k sweep: {} keep-alive clients, 1 GET/{:?} each, {:?} measure{}{}",
        fmt_thousands(p.conns as f64),
        p.think,
        p.measure,
        if split { " [split client process]" } else { "" },
        if quick() { " [quick]" } else { "" }
    );
    println!(
        "{:>9} {:>11} {:>9} {:>9} {:>9} {:>10} {:>10}",
        "opened", "max_served", "cps", "ok", "503s", "p50", "p99"
    );

    let r = run(&p, split);
    println!(
        "{:>9} {:>11} {:>9} {:>9} {:>9} {:>10} {:>10}",
        fmt_thousands(r.d.conns_opened as f64),
        fmt_thousands(r.d.max_concurrent_served as f64),
        fmt_thousands(r.d.cps),
        fmt_thousands(r.d.ok as f64),
        r.d.rejected_503 + r.srv_dropped,
        format!("{:?}", r.d.p50),
        format!("{:?}", r.d.p99),
    );

    let pass_10k = r.d.max_concurrent_served >= 10_000;
    println!(
        "\nreactor held {} served conns concurrently (worker pool: {n_workers}){}",
        fmt_thousands(r.d.max_concurrent_served as f64),
        if quick() {
            String::new()
        } else {
            format!(" — 10k target: {}", if pass_10k { "PASS" } else { "MISS" })
        }
    );

    let csv = vec![
        vec![
            "conns_target".into(),
            "conns_opened".into(),
            "connect_errors".into(),
            "max_concurrent_served".into(),
            "open_at_end".into(),
            "ok".into(),
            "rejected_503".into(),
            "closed_by_server".into(),
            "cps".into(),
            "p50_us".into(),
            "p99_us".into(),
            "srv_peak_conns".into(),
            "srv_accept_errors".into(),
            "srv_inline_served".into(),
            "srv_spillover_jobs".into(),
            "srv_dropped_503".into(),
        ],
        vec![
            r.conns_target.to_string(),
            r.d.conns_opened.to_string(),
            r.d.connect_errors.to_string(),
            r.d.max_concurrent_served.to_string(),
            r.d.open_at_end.to_string(),
            r.d.ok.to_string(),
            r.d.rejected_503.to_string(),
            r.d.closed_by_server.to_string(),
            format!("{:.1}", r.d.cps),
            r.d.p50.as_micros().to_string(),
            r.d.p99.as_micros().to_string(),
            r.srv_peak_conns.to_string(),
            r.srv_accept_errors.to_string(),
            r.srv_inline_served.to_string(),
            r.srv_spillover_jobs.to_string(),
            r.srv_dropped.to_string(),
        ],
    ];
    write_csv("c10kpress", &csv);

    use dcws_core::Json;
    write_report(
        "c10kpress",
        vec![
            ("conns", Json::from(p.conns as u64)),
            ("think_ms", Json::from(p.think.as_millis() as u64)),
            ("measure_ms", Json::from(p.measure.as_millis() as u64)),
            ("n_workers", Json::from(n_workers as u64)),
            ("nofile_limit", Json::from(limit)),
        ],
        vec![
            ("split_client_process", Json::from(split)),
            ("reactor", run_json(&r)),
            ("pass_10k", Json::from(pass_10k)),
        ],
    );

    // Quick mode is the CI smoke gate: the reactor must demonstrably
    // hold more served connections than the worker pool could, with a
    // clean accept loop.
    if quick() {
        let mut fail = Vec::new();
        if r.d.max_concurrent_served <= n_workers {
            fail.push(format!(
                "served concurrency {} <= worker count {n_workers}",
                r.d.max_concurrent_served
            ));
        }
        if r.srv_accept_errors > 0 {
            fail.push(format!("{} accept errors", r.srv_accept_errors));
        }
        if !fail.is_empty() {
            eprintln!("FAIL: {}", fail.join("; "));
            std::process::exit(1);
        }
    }
}
