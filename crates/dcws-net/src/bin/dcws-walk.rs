//! `dcws-walk` — the paper's custom client benchmark (Algorithm 2, Fig. 5)
//! as a real load generator over TCP.
//!
//! ```bash
//! dcws-walk --entry http://127.0.0.1:8000/index.html \
//!           --clients 8 --duration 30 [--max-steps 25] [--seed 42]
//! ```
//!
//! Each client thread drives one [`Walker`] — the same state machine the
//! simulator's clients are — through [`dcws_net::walk`]: reset its cache,
//! jump to a random entry point, walk `random(1..max-steps)` hyperlinks
//! (fetching embedded images through four helper threads, following
//! 301s, backing off 1 s, 2 s, 4 s … ±25 % on 503), and report aggregate
//! CPS/BPS — the §5.3 measures. A page already in the session cache is
//! walked without a fetch (only its uncached images are fetched), and a
//! refused connection ends the session after a back-off instead of
//! retrying the dead host at once.
//!
//! With `--status`, after the run each entry-point server's
//! `GET /dcws/status` document is fetched and a one-line server-side
//! summary (counters, migrations, service-time p95) is printed next to
//! the client-side totals.

use dcws_graph::ServerId;
use dcws_http::{Request, StatusCode, Url};
use dcws_net::{fetch_from, walk, ClientModel, WalkTally, Walker};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::num::{NonZeroU32, ParseIntError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    entries: Vec<Arc<Url>>,
    clients: usize,
    duration: Duration,
    max_steps: u32,
    seed: u64,
    status: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        entries: Vec::new(),
        clients: 4,
        duration: Duration::from_secs(30),
        max_steps: 25,
        seed: 42,
        status: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        let bad = |e: ParseIntError| format!("bad {a}: {e}");
        match a.as_str() {
            "--entry" => {
                let url = Url::parse(&val()?).map_err(|e| format!("bad --entry: {e}"))?;
                args.entries.push(Arc::new(url));
            }
            "--clients" => args.clients = val()?.parse().map_err(bad)?,
            "--duration" => args.duration = Duration::from_secs(val()?.parse().map_err(bad)?),
            "--max-steps" => args.max_steps = val()?.parse::<NonZeroU32>().map_err(bad)?.get(),
            "--seed" => args.seed = val()?.parse().map_err(bad)?,
            "--status" => args.status = true,
            "--help" | "-h" => {
                return Err("usage: dcws-walk --entry URL [--entry URL]... \
                            [--clients N] [--duration SECS] [--max-steps N] [--seed N] \
                            [--status]"
                    .into())
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    if args.entries.is_empty() {
        return Err("at least one --entry URL is required (try --help)".into());
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    println!(
        "dcws-walk: {} clients, {} entry point(s), up to {} steps/session, {:?}",
        args.clients,
        args.entries.len(),
        args.max_steps,
        args.duration
    );
    let model = ClientModel {
        max_steps: args.max_steps,
        ..ClientModel::default()
    };
    let tally = WalkTally::default();
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for i in 0..args.clients {
            let rng = StdRng::seed_from_u64(args.seed ^ (0x9e37_79b9 * (i as u64 + 1)));
            let mut walker: Walker = Walker::new(model.clone(), rng);
            let (entries, tally, stop) = (&args.entries, &tally, &stop);
            scope.spawn(move || walk(&mut walker, entries, tally, stop, |_| {}));
        }
        let (mut last_c, mut last_b) = (0u64, 0u64);
        while start.elapsed() < args.duration {
            std::thread::sleep(Duration::from_secs(5).min(args.duration));
            let c = tally.completed.load(Ordering::Relaxed);
            let b = tally.bytes.load(Ordering::Relaxed);
            println!(
                "t={:>4.0}s  cps={:>8.1}  bps={:>12.0}  drops={}  redirects={}",
                start.elapsed().as_secs_f64(),
                (c - last_c) as f64 / 5.0,
                (b - last_b) as f64 / 5.0,
                tally.drops.load(Ordering::Relaxed),
                tally.redirects.load(Ordering::Relaxed),
            );
            (last_c, last_b) = (c, b);
        }
        stop.store(true, Ordering::Relaxed);
    });
    let secs = start.elapsed().as_secs_f64();
    let completed = tally.completed.load(Ordering::Relaxed);
    let bytes = tally.bytes.load(Ordering::Relaxed);
    println!(
        "total: {completed} transfers ({:.1} CPS), {bytes} bytes ({:.0} BPS), {} drops, \
         {} redirects, {} failures, {} sessions, mean response {:.1} ms",
        completed as f64 / secs,
        bytes as f64 / secs,
        tally.drops.load(Ordering::Relaxed),
        tally.redirects.load(Ordering::Relaxed),
        tally.failures.load(Ordering::Relaxed),
        tally.sessions.load(Ordering::Relaxed),
        tally.latency_us.load(Ordering::Relaxed) as f64 / completed.max(1) as f64 / 1_000.0,
    );
    if args.status {
        print_server_status(&args.entries);
    }
}

/// Fetch and summarize `GET /dcws/status` from every distinct entry host.
fn print_server_status(entries: &[Arc<Url>]) {
    let mut seen = HashSet::new();
    for url in entries {
        let Some(host) = url.host() else { continue };
        let server = ServerId::new(format!("{host}:{}", url.port()));
        if !seen.insert(server.to_string()) {
            continue;
        }
        let resp = match fetch_from(&server, &Request::get(dcws_http::STATUS_PATH)) {
            Ok(r) if r.status == StatusCode::Ok => r,
            Ok(r) => {
                println!("status {server}: HTTP {}", r.status.code());
                continue;
            }
            Err(e) => {
                println!("status {server}: unreachable ({e})");
                continue;
            }
        };
        let doc = match dcws_core::Json::parse(&String::from_utf8_lossy(&resp.body)) {
            Ok(d) => d,
            Err(e) => {
                println!("status {server}: bad JSON ({e})");
                continue;
            }
        };
        let field = |path: &[&str]| path.iter().try_fold(&doc, |d, key| d.get(key));
        let num = |path: &[&str]| field(path).and_then(|v| v.as_u64()).unwrap_or(0);
        let (stat, cache) = (|k| num(&["stats", k]), |k| num(&["cache", k]));
        println!(
            "status {server}: served_home={} served_coop={} redirects={} migrations={} \
             pulls={} regens={} service_p95={}us",
            stat("served_home"),
            stat("served_coop"),
            stat("redirects"),
            stat("migrations"),
            stat("pulls_served"),
            stat("regenerations"),
            num(&["transport", "service_time", "p95_us"]),
        );
        let hit_ratio = field(&["cache", "hit_ratio"]).and_then(|v| v.as_f64());
        println!(
            "cache  {server}: hit_ratio={:.3} bytes_resident={} evictions={} \
             coalesced_waits={} conditional_304s={}",
            hit_ratio.unwrap_or(0.0),
            cache("bytes_resident"),
            cache("evictions"),
            cache("coalesced_waits"),
            stat("conditional_not_modified"),
        );
    }
}
