//! The five named workloads and the code that runs one of them.

use crate::client::Client;
use crate::cluster::{Cluster, Counters, Layout};
use crate::gen::{self, Churn, Phase, Phases, Shared, ThreadLog, BALANCE_WINDOW_NS, TICK_NS};
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::probes::{Samples, Shadow};
use crate::procfs;
use crate::reference::{Stopwatch, Timing};
use crate::sched::{Clock, WallClock};
use crate::source::{Flat, Source, Walker};
use crate::stats::{self, Slices, Summary};
use crate::trace;
use crate::verify::Corpus;
use dcws_graph::ServerId;
use dcws_workloads::{materialize::materialize, Dataset};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::path::PathBuf;
use std::sync::{Barrier, Mutex};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    LodWarm,
    LodCluster,
    LodChurn,
    SeqStream,
    SimLod,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// One line on why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Open-loop rate of the paced blocks, frozen; changing it redefines
    /// `p50_us`, `client.p99_us` and `ttfb_p50_us`. Set from the
    /// `sat_ops_per_s` of the definition runs on the reference box, to two
    /// significant digits: about 20 % of it. With one op in flight per
    /// thread, 40 % leaves less than one p99 service time between two ops
    /// of a thread, and when the host slows down for a few seconds the
    /// backlog, not the servers, sets the latency (on `seq-stream` at
    /// 40 % the paced median moved by a factor of three between runs).
    pub rate_ops_per_s: f64,
    /// What one round trip to the reference responder (see `reference`)
    /// takes on the reference box, in a paced block and in a sat block, as
    /// the median of the definition runs, to two significant digits.
    /// Frozen: the timed end-to-end metrics are multiples of the reference
    /// measured in the run, times these. On `sim-lod` the reference is the
    /// fixed piece of computation that set-ups are timed against.
    pub reference: Reference,
    /// Build-to-ready repeats whose median is `setup_s`.
    pub setup_repeats: usize,
}

#[derive(Debug, Clone, Copy)]
pub struct Reference {
    pub paced_us: f64,
    pub sat_us: f64,
    /// Bytes per second the sat round trips move.
    pub sat_mb_per_s: f64,
}

const LOD_REFERENCE: Reference = Reference {
    paced_us: 12.0,
    sat_us: 11.0,
    sat_mb_per_s: 210.0,
};

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "lod-warm",
        kind: Kind::LodWarm,
        why: "one server, 349 small LOD docs, uniform flat GETs, nearly all answered inline on the read path: reactor and HTTP per-request cost undiluted; engine lock, html, graph and transport bypassed",
        rate_ops_per_s: 24_000.0,
        reference: LOD_REFERENCE,
        setup_repeats: 15,
    },
    Workload {
        name: "lod-cluster",
        kind: Kind::LodCluster,
        why: "the paper's experiment: home + two empty co-ops, Table-1 timers / 100, Algorithm-2 walkers from cold start through migration; tick, Algorithm 1, regeneration, pulls and piggyback do the work",
        rate_ops_per_s: 24_000.0,
        reference: LOD_REFERENCE,
        setup_repeats: 15,
    },
    Workload {
        name: "lod-churn",
        kind: Kind::LodChurn,
        why: "lod-cluster plus 50 republishes/s beside the reads: read-path invalidation, spills, engine-lock waits, regeneration, T_val refresh; a read-side gain bought with heavier priming shows as a loss",
        rate_ops_per_s: 20_000.0,
        reference: LOD_REFERENCE,
        setup_repeats: 15,
    },
    Workload {
        name: "seq-stream",
        kind: Kind::SeqStream,
        why: "one server, 24 Sequoia rasters of 1-2.8 MB in a DiskStore, a quarter of the GETs ranged: bytes dominate, so streaming and writev do the work and per-request parsing is negligible",
        rate_ops_per_s: 300.0,
        reference: Reference {
            paced_us: 1_550.0,
            sat_us: 1_250.0,
            sat_mb_per_s: 1_150.0,
        },
        setup_repeats: 11,
    },
    Workload {
        name: "sim-lod",
        kind: Kind::SimLod,
        why: "SimCluster on the paper configuration (LOD, 64 servers, 1024 clients, 100 virtual s) run back to back: the only workload where dcws-sim does the work; one op is one whole simulation",
        rate_ops_per_s: 0.0,
        reference: Reference {
            paced_us: crate::reference::WORK_NOMINAL_US,
            sat_us: crate::reference::WORK_NOMINAL_US,
            sat_mb_per_s: 0.0,
        },
        setup_repeats: 25,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Generator threads: `min(nproc, 4)`, one op in flight each.
pub fn generator_threads() -> usize {
    procfs::nproc().min(4)
}

/// Republishes per second of `lod-churn`.
pub const CHURN_PER_S: f64 = 50.0;

pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Scratch and output directory (`benchmark/target/`).
    pub out_dir: PathBuf,
}

/// Everything one run of one workload produced.
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Every end-to-end and per-layer metric (zero where the workload
    /// does not exercise the layer).
    pub values: Values,
    pub threads: usize,
    pub reactor_shards: Vec<usize>,
    pub rate_ops_per_s: f64,
    /// Free-form facts for the run file (digests, span file).
    pub detail: Vec<(String, String)>,
}

pub fn zeroed_values() -> Values {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|d| (d.name, Summary::single(0.0)))
        .collect()
}

fn set(values: &mut Values, name: &'static str, v: Summary) {
    debug_assert!(crate::metrics::def(name).is_some(), "unknown metric {name}");
    values.insert(name, v);
}

fn set1(values: &mut Values, name: &'static str, v: f64) {
    set(values, name, Summary::single(v));
}

/// `setup_s` and what it was read against, from the run's set-ups.
pub fn set_setup_metrics(values: &mut Values, setups: &[Timing]) {
    let over =
        |f: &dyn Fn(&Timing) -> f64| Summary::of(&setups.iter().map(f).collect::<Vec<f64>>());
    set(values, "setup_s", over(&|t| t.scaled_s()));
    set(values, "client.raw_setup_s", over(&|t| t.raw_s));
    set(values, "client.ref_work_us", over(&|t| t.ref_us));
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn mix(seed: u64, lane: u64) -> u64 {
    // splitmix64 of (seed, lane): independent streams per thread. Not
    // `dcws_sim::seed`: a change to a crate under test must not change
    // the requests the benchmark generates.
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(lane + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Rasters of the Sequoia corpus that `seq-stream` publishes. The whole
/// corpus is 130 rasters, 250 MB; writing that to the reference box's
/// disk took anything from 0.3 to 17 s from one set-up to the next. The
/// streamed path never enters the document cache, so beyond "more than one
/// raster" the count changes what set-up writes, not what a GET does.
pub const SEQUOIA_RASTERS: usize = 24;

fn dataset_for(kind: Kind, seed: u64) -> Dataset {
    match kind {
        Kind::SeqStream => {
            // Of the corpus in order of size, evenly spaced rasters: the
            // seed decides names, bytes and the order of requests, but a
            // draw of 24 sizes between 1 and 2.8 MB would also move the
            // mean body, and every rate with it, by a tenth.
            let mut rasters = Dataset::sequoia(seed).docs;
            let mut index = rasters.remove(0);
            rasters.sort_by_key(|d| d.size);
            let step = rasters.len() as f64 / SEQUOIA_RASTERS as f64;
            let mut docs: Vec<_> = (0..SEQUOIA_RASTERS)
                .map(|i| rasters[((i as f64 + 0.5) * step) as usize].clone())
                .collect();
            docs.sort_by(|a, b| a.name.cmp(&b.name));
            index.anchors = docs.iter().map(|d| d.name.clone()).collect();
            docs.insert(0, index);
            Dataset::new("sequoia", docs)
        }
        _ => Dataset::lod(seed),
    }
}

fn layout_for(kind: Kind, out_dir: &std::path::Path) -> Layout {
    match kind {
        Kind::LodWarm => Layout {
            servers: 1,
            accelerated: false,
            disk_root: None,
        },
        Kind::SeqStream => Layout {
            servers: 1,
            accelerated: false,
            disk_root: Some(out_dir.join("seq-stream-docroot")),
        },
        _ => Layout {
            servers: 3,
            accelerated: true,
            disk_root: None,
        },
    }
}

struct Ready {
    dataset: Dataset,
    cluster: Cluster,
    clients: Vec<Client>,
    generate_ms: f64,
}

/// One build-to-ready pass: generate, materialise, publish, spawn, place.
fn set_up(kind: Kind, seed: u64, layout: &Layout, threads: usize) -> io::Result<Ready> {
    let t = Instant::now();
    let dataset = dataset_for(kind, seed);
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    let cluster = Cluster::build(layout, &dataset)?;
    let mut clients: Vec<Client> = (0..threads)
        .map(|_| Client::new(cluster.addrs.clone()))
        .collect();
    cluster.place(&mut clients)?;
    procfs::pin_reactors();
    Ok(Ready {
        dataset,
        cluster,
        clients,
        generate_ms,
    })
}

/// Run a TCP workload: set up (several times, for `setup_s`), drive the
/// three phases, read the counters, derive every metric.
pub fn run_tcp(w: &Workload, opts: &RunOpts) -> io::Result<RunResult> {
    let threads = generator_threads();
    let layout = layout_for(w.kind, &opts.out_dir);
    let mut values = zeroed_values();

    // Build the group several times and keep the last. A server's
    // shutdown waits out its pinger's sleep (a second, unaccelerated), so
    // the discarded groups shut down behind the next build's back.
    let mut stopwatch = Stopwatch::new();
    let mut setups = Vec::new();
    let mut ready = None;
    let mut discarded = Vec::new();
    for _ in 0..w.setup_repeats {
        if let Some(Ready {
            cluster, clients, ..
        }) = ready.take()
        {
            drop(clients);
            discarded.push(std::thread::spawn(move || cluster.shutdown()));
        }
        let (built, timing) = stopwatch.time(|| set_up(w.kind, opts.seed, &layout, threads));
        ready = Some(built?);
        setups.push(timing);
    }
    for h in discarded {
        h.join().expect("shutdown thread panicked");
    }
    let Ready {
        dataset,
        cluster,
        clients,
        generate_ms,
    } = ready.expect("at least one set-up");
    procfs::reset_peak_rss();
    set_setup_metrics(&mut values, &setups);
    set1(&mut values, "workloads.generate_ms", generate_ms);
    let placement_dials: u64 = clients.iter().map(|c| c.dials).sum();

    // The harness's own view of the corpus. A co-op revalidates every
    // T_val; allow a superseded version for two and a half of them.
    let stale_window_ns = cluster.config.validation_interval_ms * 2_500_000;
    let corpus = Corpus::new(&dataset, stale_window_ns);

    let shadow = if opts.traced {
        let t = Instant::now();
        let bytes: usize = dataset
            .docs
            .iter()
            .filter(|d| d.size < 256 * 1024)
            .map(|d| materialize(d).len())
            .sum();
        if bytes > 0 {
            set1(
                &mut values,
                "workloads.materialize_mb_per_s",
                bytes as f64 / 1e6 / t.elapsed().as_secs_f64(),
            );
        }
        let coop_id = cluster
            .addrs
            .get(1)
            .map_or(ServerId::new("127.0.0.1:9"), |a| {
                ServerId::new(a.to_string())
            });
        Some(Mutex::new(Shadow::new(
            &dataset,
            &cluster.config,
            ServerId::new(cluster.addrs[0].to_string()),
            coop_id,
            layout.disk_root.as_deref(),
        )?))
    } else {
        None
    };

    let clock = WallClock::new();
    let phases = Phases::new(clock.now_ns() + 2_000_000, opts.seconds);
    let churn = (w.kind == Kind::LodChurn).then(|| {
        // Any document that embeds nothing: images and plain pages. A
        // table page republished after its 40 thumbnails have migrated is
        // served with its links pointing home again until the next of
        // them migrates, and every view of it then costs 40 redirects
        // (the README has the numbers). Whether a run meets that depends
        // on the order of a few events, and runs of one commit then
        // differ by a sixth: a finding, not a workload to gate on.
        let republishable: Vec<usize> = (0..corpus.docs.len())
            .filter(|&d| corpus.docs[d].spec.embeds.is_empty())
            .collect();
        let mut rng = StdRng::seed_from_u64(mix(opts.seed, 1_000));
        let period = (1e9 / CHURN_PER_S) as u64;
        let n = (phases.end_ns - phases.warm_end_ns) / period;
        Churn::new(
            (0..n)
                .map(|k| {
                    (
                        phases.warm_end_ns + k * period,
                        republishable[rng.gen_range(0..republishable.len())],
                    )
                })
                .collect(),
        )
    });
    let finished = Barrier::new(threads + 1);
    let shared = Shared {
        clock: &clock,
        phases,
        corpus: &corpus,
        home: &cluster.servers[0],
        churn: churn.as_ref(),
        rate_ops_per_s: w.rate_ops_per_s,
        threads,
        traced: opts.traced,
        shadow: shadow.as_ref(),
        finished: &finished,
    };

    let c_start = cluster.counters();
    let (logs, marks) = std::thread::scope(|scope| -> io::Result<_> {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(lane, client)| {
                let shared = &shared;
                let addrs = cluster.addrs.clone();
                let kind = w.kind;
                let seed = mix(opts.seed, lane as u64);
                std::thread::Builder::new()
                    .name(format!("{}{lane}", procfs::GENERATOR_THREAD_PREFIX))
                    .spawn_scoped(scope, move || {
                        let source: Box<dyn Source> = match kind {
                            Kind::LodWarm => Box::new(Flat::all(shared.corpus)),
                            Kind::SeqStream => {
                                Box::new(Flat::images(shared.corpus, 0.25, (64 * 1024, 256 * 1024)))
                            }
                            _ => Box::new(Walker::new(addrs, shared.corpus)),
                        };
                        gen::run_thread(shared, lane, seed, client, source)
                    })
            })
            .collect::<io::Result<_>>()?;

        // Meanwhile this thread reads the servers' clocks around every
        // sat block, from its second tick, like every timed metric.
        clock.wait_until(phases.warm_end_ns);
        let u_warm = procfs::usage(true);
        let c_warm = cluster.counters();
        let mut c_half = c_warm.clone();
        let mut sat_cpu = Vec::new();
        for block in 0..phases.blocks() {
            let start_ns = phases.block_start_ns(block);
            if block == phases.blocks() / 2 {
                clock.wait_until(start_ns);
                c_half = cluster.counters();
            }
            if phases.at(start_ns) == Phase::Sat(block) {
                clock.wait_until(start_ns + TICK_NS);
                let before = procfs::usage(false);
                // The last block ends with the run, and the generator
                // threads wait at `finished` to be read.
                clock.wait_until(phases.block_start_ns(block + 1));
                sat_cpu.push((block, procfs::usage(false).since(&before)));
            }
        }
        let u_end = procfs::usage(true);
        finished.wait();
        let logs: Vec<ThreadLog> = handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect();
        Ok((
            logs,
            Marks {
                c_warm,
                c_half,
                window_usage: u_end.since(&u_warm),
                sat_cpu,
            },
        ))
    })?;
    let c_end = cluster.counters();
    let peer_rtt_us = cluster.peer_rtt_us();
    let reactor_shards = cluster.shards();

    if let Some(shadow) = &shadow {
        shadow.lock().expect("shadow lock").probe_batch();
    }
    let probe_samples = shadow.map(|s| s.into_inner().expect("shadow lock").samples);

    let mut detail = Vec::new();
    if opts.traced {
        let path = opts.out_dir.join(format!("trace-{}.jsonl", w.name));
        let span_logs: Vec<&trace::SpanLog> = logs.iter().map(|l| &l.spans).collect();
        trace::write_jsonl(&path, &span_logs)?;
        detail.push(("trace_file".to_string(), path.display().to_string()));
    }

    derive(
        &mut values,
        opts,
        &phases,
        &logs,
        &Deltas {
            all: c_end.since(&c_start),
            window: c_end.since(&marks.c_warm),
            second_half: c_end.since(&marks.c_half),
            window_usage: marks.window_usage,
            sat_cpu: marks.sat_cpu,
            reference: w.reference,
        },
        probe_samples.as_ref(),
        churn.as_ref(),
    );
    set1(&mut values, "net.peer_rtt_us", peer_rtt_us);
    set1(
        &mut values,
        "client.placement_tries",
        placement_dials as f64,
    );
    set1(&mut values, "peak_rss_mb", procfs::peak_rss_mb());
    cluster.shutdown();
    if let Some(root) = &layout.disk_root {
        let _ = std::fs::remove_dir_all(root);
    }

    let attempted = logs.iter().map(|l| l.attempted).sum();
    let failed = logs.iter().map(|l| l.failed).sum();
    Ok(RunResult {
        workload: w.name,
        seed: opts.seed,
        seconds: opts.seconds,
        traced: opts.traced,
        attempted,
        failed,
        first_failure: logs.iter().find_map(|l| l.first_failure.clone()),
        values,
        threads,
        reactor_shards,
        rate_ops_per_s: w.rate_ops_per_s,
        detail,
    })
}

/// What the main thread noted while the generator ran.
struct Marks {
    c_warm: Counters,
    /// Counters half-way through the measured window.
    c_half: Counters,
    window_usage: procfs::Usage,
    /// Per sat block: processor time from its second tick to its end.
    sat_cpu: Vec<(usize, procfs::Usage)>,
}

/// Counter and processor-time differences of one run.
struct Deltas {
    /// The whole run, warm-up included.
    all: Counters,
    /// The measured window.
    window: Counters,
    second_half: Counters,
    window_usage: procfs::Usage,
    sat_cpu: Vec<(usize, procfs::Usage)>,
    reference: Reference,
}

/// Turn the threads' logs and the counter deltas into metric values.
fn derive(
    values: &mut Values,
    opts: &RunOpts,
    phases: &Phases,
    logs: &[ThreadLog],
    d: &Deltas,
    probes: Option<&Samples>,
    churn: Option<&Churn>,
) {
    let all = &d.all;
    let attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    let verified = attempted - failed;

    // --- end to end -----------------------------------------------------
    // Every timed metric is read block by block and thread by thread, as
    // a multiple of the reference round trips the thread made in the same
    // block, and reported in the time the nominal reference takes.
    let nominal = d.reference;
    let sum = |by_tick: &[u64], ticks: &[usize]| -> f64 {
        ticks.iter().map(|&t| by_tick[t] as f64).sum()
    };
    let count = |l: &ThreadLog, ticks: &[usize]| -> f64 {
        ticks.iter().map(|&t| f64::from(l.ops_by_tick[t])).sum()
    };

    // Sat blocks: a thread's rate is its ops over the time they took. In
    // a traced run only the untouched blocks are comparable with an
    // untraced run; the traced blocks give the overhead.
    struct SatBlock {
        block: usize,
        ops_per_s: f64,
        scaled_ops_per_s: f64,
        scaled_mb_per_s: f64,
        /// Mean over the threads of their reference round trip, µs, and
        /// of the bytes per second those round trips moved, MB/s.
        ref_us: f64,
        ref_mb_per_s: f64,
    }
    let sat_blocks = |want_traced: bool| -> Vec<SatBlock> {
        (0..phases.blocks())
            .filter(|&b| phases.at(phases.block_start_ns(b)) == Phase::Sat(b))
            .filter(|&b| (opts.traced && gen::sat_block_is_traced(b)) == want_traced)
            .filter_map(|block| {
                let ticks = phases.kept_ticks(block);
                let mut out = SatBlock {
                    block,
                    ops_per_s: 0.0,
                    scaled_ops_per_s: 0.0,
                    scaled_mb_per_s: 0.0,
                    ref_us: 0.0,
                    ref_mb_per_s: 0.0,
                };
                for l in logs {
                    let busy_s = sum(&l.busy_ns_by_tick, &ticks) / 1e9;
                    let round_trips = l.ref_sat.pooled(&ticks);
                    let ref_us = stats::mean(&round_trips);
                    if busy_s == 0.0 || ref_us == 0.0 {
                        return None;
                    }
                    // Bytes per µs are MB per second.
                    let ref_mb_per_s =
                        sum(&l.ref_sat_bytes_by_tick, &ticks) / round_trips.iter().sum::<f64>();
                    let mb_per_s = sum(&l.bytes_by_tick, &ticks) / 1e6 / busy_s;
                    out.ops_per_s += count(l, &ticks) / busy_s;
                    out.scaled_ops_per_s += count(l, &ticks) / busy_s * ref_us / nominal.sat_us;
                    out.scaled_mb_per_s += mb_per_s / ref_mb_per_s * nominal.sat_mb_per_s;
                    out.ref_us += ref_us / logs.len() as f64;
                    out.ref_mb_per_s += ref_mb_per_s / logs.len() as f64;
                }
                Some(out)
            })
            .collect()
    };
    let over = |blocks: &[SatBlock], f: &dyn Fn(&SatBlock) -> f64| -> Summary {
        Summary::of(&blocks.iter().map(f).collect::<Vec<f64>>())
    };
    let plain = sat_blocks(false);
    set(
        values,
        "sat_ops_per_s",
        over(&plain, &|b| b.scaled_ops_per_s),
    );
    set(values, "sat_mb_per_s", over(&plain, &|b| b.scaled_mb_per_s));
    set(
        values,
        "client.raw_sat_ops_per_s",
        over(&plain, &|b| b.ops_per_s),
    );
    set(values, "client.ref_sat_us", over(&plain, &|b| b.ref_us));
    set(
        values,
        "client.ref_sat_mb_per_s",
        over(&plain, &|b| b.ref_mb_per_s),
    );
    let traced = sat_blocks(true);
    if !traced.is_empty() && !plain.is_empty() {
        let u = over(&plain, &|b| b.scaled_ops_per_s).median;
        let t = over(&traced, &|b| b.scaled_ops_per_s).median;
        if u > 0.0 {
            set1(values, "client.trace_overhead_share", (u - t) / u);
        }
    }

    // Processor time per op: the servers' threads' time over a sat block
    // by the generator's own count of the ops it sent in those ticks.
    let per_op = |f: &dyn Fn(&procfs::Usage) -> u64| -> Vec<f64> {
        d.sat_cpu
            .iter()
            .filter_map(|(b, u)| {
                let block = plain.iter().find(|s| s.block == *b)?;
                let ops: f64 = logs.iter().map(|l| count(l, &phases.kept_ticks(*b))).sum();
                (ops > 0.0).then(|| f(u) as f64 / 1e3 / ops * nominal.sat_us / block.ref_us)
            })
            .collect()
    };
    set(
        values,
        "server_cpu_us_per_op",
        Summary::of(&per_op(&|u| u.server_ns())),
    );
    set(
        values,
        "client.cpu_us_per_op",
        Summary::of(&per_op(&|u| u.generator_ns)),
    );

    // Paced blocks: an op's latency over that of the reference round trip
    // right after it, which brought back as many bytes on the same grid;
    // the median over every such pair of the run.
    let paced_blocks: Vec<Vec<usize>> = (0..phases.blocks())
        .filter(|&b| phases.at(phases.block_start_ns(b)) == Phase::Paced(b))
        .map(|b| phases.kept_ticks(b))
        .collect();
    let paced_ticks: Vec<usize> = paced_blocks.iter().flatten().copied().collect();
    let pairs = |of: &dyn Fn(&ThreadLog) -> &Slices, nominal_us: f64| -> Summary {
        let costs: Vec<f64> = logs
            .iter()
            .flat_map(|l| of(l).pooled(&paced_ticks))
            .map(|cost| cost * nominal_us)
            .collect();
        Summary::of(&costs)
    };
    set(
        values,
        "p50_us",
        pairs(&|l| &l.paced_cost, nominal.paced_us),
    );
    set(
        values,
        "ttfb_p50_us",
        pairs(&|l| &l.paced_ttfb_cost, nominal.paced_us),
    );
    let (mut raw_p50, mut ref_paced) = (vec![], vec![]);
    for ticks in &paced_blocks {
        for l in logs {
            let latency = l.paced_latency.pooled(ticks);
            let reference = l.ref_paced.pooled(ticks);
            if latency.is_empty() || reference.is_empty() {
                continue;
            }
            raw_p50.push(stats::median(&latency));
            ref_paced.push(stats::median(&reference));
        }
    }
    set(values, "client.raw_p50_us", Summary::of(&raw_p50));
    set(values, "client.ref_paced_us", Summary::of(&ref_paced));
    let mut latency = Slices::default();
    for l in logs {
        latency.merge(&l.paced_latency);
    }
    set(
        values,
        "client.p99_us",
        latency.grouped(&paced_blocks).tail(0.99),
    );

    // The warm-up's throughput curve: verified ops per 100 ms.
    let cold: Vec<f64> = phases
        .warm_ticks()
        .iter()
        .map(|&t| {
            logs.iter()
                .map(|l| f64::from(l.ops_by_tick[t]))
                .sum::<f64>()
                * 1e9
                / TICK_NS as f64
        })
        .collect();
    set(values, "client.cold_ops_per_s", Summary::of(&cold));

    let usage = &d.window_usage;
    let server_ns = usage.server_ns().max(1);
    set1(
        values,
        "net.cpu_reactor_share",
        ratio(usage.reactor_ns, server_ns),
    );
    set1(
        values,
        "net.cpu_worker_share",
        ratio(usage.worker_ns, server_ns),
    );
    set1(
        values,
        "net.cpu_pinger_share",
        ratio(usage.pinger_ns, server_ns),
    );
    let window_engine = d.window.engine();
    set1(
        values,
        "net.ctx_switches_per_op",
        ratio(
            usage.server_ctx_switches,
            (window_engine.served_home + window_engine.served_coop).max(1),
        ),
    );
    let late_engine = d.second_half.engine();

    // --- live counters, warm-up and measured window ---------------------
    let e = all.engine();
    set1(values, "core.migrations", e.migrations as f64);
    set1(values, "core.remigrations", e.remigrations as f64);
    set1(values, "core.revocations", e.revocations as f64);
    set1(values, "core.regenerations", e.regenerations as f64);
    set1(values, "core.pulls_served", e.pulls_served as f64);
    set1(
        values,
        "core.validations_refreshed",
        e.validations_refreshed as f64,
    );
    set1(values, "core.streamed_serves", e.streamed_serves as f64);
    set1(values, "core.stale_serves", e.stale_serves as f64);
    set1(
        values,
        "core.redirect_share",
        ratio(e.redirects, e.requests),
    );
    set1(
        values,
        "core.coop_serve_share",
        ratio(
            late_engine.served_coop,
            late_engine.served_home + late_engine.served_coop,
        ),
    );
    set1(
        values,
        "core.readpath_fallback_share",
        ratio(all.readpath_fallbacks, e.requests),
    );
    set1(values, "cache.hit_ratio", all.cache.hit_ratio());
    set1(values, "cache.evictions", all.cache.evictions as f64);
    set1(
        values,
        "cache.admission_rejects",
        all.cache.admission_rejects as f64,
    );
    set1(
        values,
        "cache.coalesced_waits",
        all.cache.coalesced_waits as f64,
    );
    set1(
        values,
        "net.inline_ratio",
        ratio(all.inline_served, all.inline_served + all.spill_jobs),
    );
    set1(
        values,
        "net.spill_jobs_per_op",
        ratio(all.spill_jobs, verified),
    );
    set1(values, "net.rejected_503", all.rejected_503 as f64);
    set1(
        values,
        "net.queue_wait_p50_us",
        all.queue_wait.quantile_us(0.5),
    );
    set1(
        values,
        "net.queue_wait_p99_us",
        all.queue_wait.quantile_us(0.99),
    );
    set1(values, "net.service_p50_us", all.service.quantile_us(0.5));
    set1(values, "net.service_p99_us", all.service.quantile_us(0.99));
    set1(
        values,
        "net.ready_batch_mean",
        ratio(all.batch_events, all.batches),
    );
    set1(values, "net.accepted", all.accepted as f64);
    set1(values, "net.accept_errors", all.accept_errors as f64);
    set1(
        values,
        "net.writev_calls_per_op",
        ratio(all.writev_calls, verified),
    );
    set1(
        values,
        "net.writev_segments_per_call",
        ratio(all.writev_segments, all.writev_calls),
    );
    set1(values, "net.body_copies", all.body_copies as f64);
    set1(values, "net.pull_attempts", all.pull_attempts as f64);
    set1(values, "net.retries", all.retries as f64);
    set1(
        values,
        "net.stale_reuse_retries",
        all.stale_reuse_retries as f64,
    );
    set1(
        values,
        "net.pool_reuse_ratio",
        ratio(all.pool_hits, all.pool_hits + all.pool_dials),
    );

    // --- the harness ----------------------------------------------------
    let mut lateness: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.paced_lateness_us.clone())
        .collect();
    stats::sort(&mut lateness);
    let late =
        stats::tail(&lateness, 0.99).unwrap_or_else(|| lateness.last().copied().unwrap_or(0.0));
    set(
        values,
        "client.lateness_p99_us",
        Summary {
            n: lateness.len(),
            ..Summary::single(late)
        },
    );
    let hops: u64 = logs.iter().map(|l| l.hops).sum();
    set1(values, "client.hops_per_op", ratio(hops, verified));
    let backoffs: u64 = logs.iter().map(|l| l.backoffs).sum();
    set1(values, "client.backoffs_per_op", ratio(backoffs, verified));
    let body_us: Vec<f64> = logs.iter().flat_map(|l| l.body_us.clone()).collect();
    set(values, "client.body_us", Summary::of(&body_us));
    let wrong: u64 = logs.iter().map(|l| l.wrong_bytes).sum();
    set1(values, "client.wrong_bytes", wrong as f64);
    set1(values, "client.fail_share", ratio(failed, attempted));
    let partial: u64 = logs.iter().map(|l| l.partial).sum();
    set1(values, "client.partial_share", ratio(partial, verified));
    let sat_us: Vec<f64> = logs.iter().flat_map(|l| l.sat_latency_us.clone()).collect();
    set(values, "client.sat_p50_us", Summary::of(&sat_us));
    set1(
        values,
        "client.sessions",
        logs.iter().map(|l| l.sessions).sum::<u64>() as f64,
    );
    let publish_us: Vec<f64> = logs.iter().flat_map(|l| l.publish_us.clone()).collect();
    set(values, "core.publish_us", Summary::of(&publish_us));
    set1(
        values,
        "core.republish_applied_share",
        churn.map_or(1.0, |c| ratio(c.applied() as u64, c.scheduled() as u64)),
    );

    // First half-second window in which co-ops answered most ops.
    let windows = logs.first().map_or(0, |l| l.served_by.len());
    let run_s = (phases.end_ns - phases.start_ns) as f64 / 1e9;
    let balanced = (0..windows).find(|&i| {
        let (home, coop) = logs.iter().fold((0u32, 0u32), |(h, c), l| {
            (h + l.served_by[i][0], c + l.served_by[i][1])
        });
        coop > 0 && coop >= home
    });
    set1(
        values,
        "core.balance_s",
        balanced.map_or(run_s, |i| (i + 1) as f64 * BALANCE_WINDOW_NS as f64 / 1e9),
    );

    // --- probes (traced run) ---------------------------------------------
    if let Some(samples) = probes {
        for (name, v) in samples {
            if !v.is_empty() {
                set(values, name, Summary::of(v));
            }
        }
        let us = |name: &str| values.get(name).map_or(0.0, |s| s.median) / 1e3;
        let serve = if us("core.try_serve_ns") > 0.0 {
            us("core.try_serve_ns")
        } else {
            us("core.handle_hit_ns")
        };
        let accounted = us("http.parse_ns") + serve + us("http.head_ns");
        // Clock against clock: the probes are not scaled, `p50_us` is.
        let p50 = values["client.raw_p50_us"].median;
        if p50.is_finite() {
            set1(values, "net.residual_us", p50 - accounted);
        }
    }
}
