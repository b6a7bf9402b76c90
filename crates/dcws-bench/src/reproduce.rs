//! §5 as data: every run the paper's evaluation needs, and every shape it
//! claims, as one table that the `reproduce` binary runs.
//!
//! A [`Cell`] is one simulation — or, for §5.3's parse costs, one timing
//! pass over a corpus — and runs once per seed of [`SEEDS`]. A [`Check`]
//! is a statistic over one seed's cells with the paper's value, the band
//! its median over the seeds must fall in, and where in the paper that
//! band comes from. A check outside its band is a `fail`, or a `known gap`
//! when it names the ROADMAP item that owns the divergence: 12(a), the
//! re-run at Table 1's timers, for an accelerated cell, and 12(c) for
//! MAPUG. A check names a gap only for a divergence that the seven
//! per-figure binaries this table replaced had already shown on seed 42.
//!
//! [`reproduce`] runs the cells, writes one CSV per artifact (a `seed`
//! column first, one seed's rows after another) and `checks.csv`, prints
//! the checks and returns the exit status ([`exit_status`]).

use crate::{dump_status, fmt_thousands, results_dir, write_csv};
use dcws_baselines::Strategy;
use dcws_core::HotReplication;
use dcws_graph::BalanceMetric;
use dcws_sim::{run_sim, Sample, SimConfig, SimResult};
use dcws_workloads::{analyze, materialize::materialize, Dataset, PageKind};
use std::time::Instant;

/// The seeds of a full run; every figure was first run on 42 alone. A
/// quick run uses 42 only.
pub const SEEDS: [u64; 5] = [42, 43, 44, 45, 46];

/// Each artifact — the driver's argument and its CSV's stem — and its CSV
/// header after the `seed` column.
pub const ARTIFACTS: [(&str, &str); 6] = [
    ("fig6", "servers,clients,cps,bps,drops_per_sec,migrations"),
    ("fig7", "dataset,servers,cps,bps,migrations,imbalance"),
    ("fig8", "t_s,cps,bps,migrations_total,home_cps"),
    ("table2", "param,factor,steady_cps,time_to_balance_ms,migrations,remigrations+revocations,regenerations,redirects"),
    ("overhead", "corpus,docs,avg_bytes,parse_us,reconstruct_us"),
    ("ablation", "config,cps,bps,drops_per_sec,redirects,migrations,imbalance"),
];

/// Fig. 6's peaks, 7,150 → 15,150 CPS from 8 to 16 servers, are what the
/// paper calls "improved proportionally": 2× within the paper's own 0.12.
const PROPORTIONAL: (f64, f64) = (1.88, 2.12);

/// The hot-spot replication the ablation switches on.
const REPLICATION: HotReplication = HotReplication {
    hot_fraction: 0.15,
    max_replicas: 4,
};

/// What a cell changes in [`SimConfig::paper`] beyond size and timers.
#[derive(Clone, Debug)]
pub enum Edit {
    /// Nothing.
    None,
    /// Another request-distribution architecture (§2's baselines).
    Strategy(Strategy),
    /// Push documents at migration time instead of pulling them lazily.
    Eager,
    /// Balance on this metric.
    Metric(BalanceMetric),
    /// Hottest-first selection instead of Algorithm 1.
    Naive,
    /// §6's hot-spot replication.
    Replicate,
    /// One Table 1 timer (`T_st`, `T_pi`, `T_val`, `T_home`, `T_coop`)
    /// scaled by a factor, floored at 250 ms.
    Timer(&'static str, f64),
}

/// The simulation a cell runs.
#[derive(Clone, Debug)]
pub struct Sim {
    /// Servers in the group.
    pub servers: usize,
    /// Algorithm-2 clients.
    pub clients: usize,
    /// Timer acceleration ([`SimConfig::accelerate`]); 1 is Table 1's.
    pub accelerate: u64,
    /// Simulated run length, ms.
    pub duration_ms: u64,
    /// The configuration change under test.
    pub edit: Edit,
}

/// One row of the table.
#[derive(Clone, Debug)]
pub struct Cell {
    /// The artifact it belongs to (a name of [`ARTIFACTS`]).
    pub artifact: &'static str,
    /// The CSV columns naming the cell (`8,176`, `sblog,16`, `T_st,x4`,
    /// `strategy:dcws`, `lod`); empty for Fig. 8, whose rows are samples.
    pub key: String,
    /// The dataset.
    pub dataset: &'static str,
    /// The simulation; `None` times §4.3's parse and reconstruction over
    /// the dataset's HTML pages instead.
    pub sim: Option<Sim>,
}

/// Every cell, at full size or at `quick` size.
pub fn cells(quick: bool) -> Vec<Cell> {
    let q = |full: u64, small: u64| if quick { small } else { full };
    let mut out = Vec::new();
    let mut add = |artifact, key: String, dataset, sim: Option<(usize, u64, u64, u64, Edit)>| {
        let sim = sim.map(|(servers, clients, accelerate, duration_ms, edit)| Sim {
            servers,
            clients: clients as usize,
            accelerate,
            duration_ms,
            edit,
        });
        out.push(Cell {
            artifact,
            key,
            dataset,
            sim,
        })
    };
    let groups: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8, 16] };
    let fig6_clients: &[u64] = if quick {
        &[16, 64, 128]
    } else {
        &[16, 48, 80, 112, 144, 176, 240, 304, 368, 400]
    };
    for &n in groups {
        for &m in fig6_clients {
            let run = (n, m, 20, q(420_000, 90_000), Edit::None);
            add("fig6", format!("{n},{m}"), "lod", Some(run));
        }
    }
    for ds in ["lod", "sblog", "mapug", "sequoia"] {
        for &n in groups {
            let run = (n, q(400, 64), 8, q(1_200_000, 90_000), Edit::None);
            add("fig7", format!("{ds},{n}"), ds, Some(run));
        }
    }
    let run = (8, q(300, 60), 1, q(1_800_000, 180_000), Edit::None);
    add("fig8", String::new(), "lod", Some(run));
    let sweep = |edit| Some((4, 96, 10, q(360_000, 60_000), edit));
    add("table2", "base,x1".into(), "lod", sweep(Edit::None));
    for t in ["T_st", "T_pi", "T_val", "T_home", "T_coop"] {
        for f in [0.25, 4.0] {
            let key = format!("{t},x{f}");
            add("table2", key, "lod", sweep(Edit::Timer(t, f)));
        }
    }
    for ds in ["mapug", "sblog", "lod"] {
        add("overhead", ds.into(), ds, None);
    }
    let run = (8, q(200, 48), 1, q(600_000, 60_000), Edit::None);
    add("overhead", "lod-run".into(), "lod", Some(run));
    use {BalanceMetric::*, Edit::Strategy as By, Strategy::*};
    let rr = RoundRobinDns { ttl_ms: 30_000 };
    let router = CentralRouter {
        forward_cpu_us: 150,
    };
    let (lod, seq, mapug, sblog) = (("lod", 8), ("sequoia", 4), ("mapug", 8), ("sblog", 8));
    let (m8, m4) = (q(300, 48), q(64, 24));
    let arms = [
        ("strategy:dcws", lod, m8, By(Dcws)),
        ("strategy:rr-dns", lod, m8, By(rr)),
        ("strategy:router", lod, m8, By(router)),
        ("strategy:single", lod, m8, By(Single)),
        ("migration:lazy", lod, m8, Edit::None),
        ("migration:eager", lod, m8, Edit::Eager),
        ("metric:Cps", seq, m4, Edit::Metric(Cps)),
        ("metric:Bps", seq, m4, Edit::Metric(Bps)),
        ("selection:algorithm-1", mapug, m8, Edit::None),
        ("selection:hottest-first", mapug, m8, Edit::Naive),
        ("replication:off", sblog, m8, Edit::None),
        ("replication:on", sblog, m8, Edit::Replicate),
    ];
    for (key, (ds, n), m, edit) in arms {
        let run = (n, m, 20, q(420_000, 90_000), edit);
        add("ablation", key.into(), ds, Some(run));
    }
    out
}

/// A timing pass over one corpus's HTML pages.
#[derive(Clone, Copy, Debug)]
pub struct Parse {
    /// Pages timed.
    pub docs: usize,
    /// Their mean size, bytes.
    pub avg_bytes: f64,
    /// Link extraction, µs per page.
    pub parse_us: f64,
    /// Link rewriting and re-serialisation, µs per page.
    pub reconstruct_us: f64,
}

/// What one cell produced on one seed.
#[derive(Debug)]
pub enum Outcome {
    /// A simulation, its event trace dropped once dumped.
    Sim(Box<SimResult>),
    /// A timing pass.
    Parse(Parse),
}

impl Cell {
    fn config(&self, sim: &Sim, seed: u64) -> SimConfig {
        let dataset = Dataset::by_name(self.dataset, 1).expect("known dataset");
        let mut cfg = SimConfig::paper(dataset, sim.servers, sim.clients);
        if sim.accelerate > 1 {
            cfg = cfg.accelerate(sim.accelerate);
        }
        cfg.duration_ms = sim.duration_ms;
        cfg.sample_interval_ms = 10_000;
        cfg.seed = seed;
        let c = &mut cfg.server_config;
        match &sim.edit {
            Edit::None => {}
            Edit::Strategy(s) => cfg.strategy = s.clone(),
            Edit::Eager => c.eager_migration = true,
            Edit::Metric(m) => c.balance_metric = *m,
            Edit::Naive => c.naive_selection = true,
            Edit::Replicate => c.hot_replication = Some(REPLICATION),
            Edit::Timer(name, f) => {
                let v = match *name {
                    "T_st" => &mut c.stat_interval_ms,
                    "T_pi" => &mut c.pinger_interval_ms,
                    "T_val" => &mut c.validation_interval_ms,
                    "T_home" => &mut c.remigration_interval_ms,
                    "T_coop" => &mut c.coop_migration_interval_ms,
                    _ => panic!("no timer {name}"),
                };
                *v = ((*v as f64 * f) as u64).max(250);
            }
        }
        cfg
    }

    fn label(&self) -> String {
        format!("{} {}", self.artifact, self.key)
    }

    /// Run the cell on `seed` and print one line of what it did.
    fn run(&self, seed: u64) -> Outcome {
        let label = format!("{} seed={seed}", self.label());
        let Some(sim) = &self.sim else {
            let p = parse_cost(self.dataset);
            eprintln!("  {label}: {p:?}");
            return Outcome::Parse(p);
        };
        let mut r = run_sim(self.config(sim, seed));
        let tag = format!("{}_{}_seed{seed}", self.artifact, self.key);
        dump_status(&tag.replace("__", "_"), &r);
        eprintln!("  {label}: {}", r.digest());
        r.engine_events = Vec::new();
        Outcome::Sim(Box::new(r))
    }

    /// The cell's CSV rows on one seed, after the `seed` column.
    fn rows(&self, out: &Outcome, seed: &Seed) -> Vec<String> {
        let key = &self.key;
        let r = match out {
            Outcome::Parse(p) => {
                let (avg, parse, recon) = (p.avg_bytes, p.parse_us, p.reconstruct_us);
                return vec![format!("{key},{},{avg:.0},{parse:.2},{recon:.2}", p.docs)];
            }
            Outcome::Sim(r) => &**r,
        };
        let (cps, bps, drops) = (r.steady_cps(), r.steady_bps(), r.steady_drop_rate());
        let (migrations, imbalance) = (r.migrations, r.final_load_imbalance());
        match self.artifact {
            "fig6" => vec![format!("{key},{cps:.1},{bps:.1},{drops:.1},{migrations}")],
            "fig7" => vec![format!(
                "{key},{cps:.1},{bps:.1},{migrations},{imbalance:.3}"
            )],
            "fig8" => r
                .samples
                .iter()
                .map(|s| {
                    let home = s.per_server_cps.first().copied().unwrap_or(0.0);
                    let t = s.t_ms / 1000;
                    let m = s.migrations_total;
                    format!("{t},{:.1},{:.0},{m},{home:.1}", s.cps, s.bps)
                })
                .collect(),
            "table2" => {
                let base = seed.sim("table2", "base,x1").unwrap_or(r);
                let ttb = time_to_balance(&r.samples, 0.8 * base.steady_cps(), r.duration_ms);
                let (rev, regen) = (r.revocations, r.regenerations);
                let redirects = r.totals.redirects;
                vec![format!(
                    "{key},{cps:.1},{ttb},{migrations},{rev},{regen},{redirects}"
                )]
            }
            "ablation" => vec![format!(
                "{key},{cps:.1},{bps:.1},{drops:.1},{},{migrations},{imbalance:.3}",
                r.totals.redirects
            )],
            // The overhead run's regenerations feed a check, not a row.
            _ => Vec::new(),
        }
    }
}

/// Time §4.3's two jobs over `dataset`'s HTML pages: one scan for every
/// link (what the LDG build needs), and the full reconstruction — find
/// every link, rewrite it, write the document out again.
fn parse_cost(dataset: &str) -> Parse {
    let ds = Dataset::by_name(dataset, 1).expect("known dataset");
    let docs: Vec<String> = ds
        .docs
        .iter()
        .filter(|d| d.kind == PageKind::Html)
        .map(|d| String::from_utf8(materialize(d)).expect("html is utf-8"))
        .collect();
    let n = docs.len() as f64;
    let t0 = Instant::now();
    let links: usize = docs.iter().map(|d| dcws_html::extract_links(d).len()).sum();
    let parse_us = t0.elapsed().as_secs_f64() * 1e6 / n;
    let t0 = Instant::now();
    let rewrite = |u: &str| Some(format!("http://coop:8001/~migrate/home/80{u}"));
    let out: usize = docs
        .iter()
        .map(|d| dcws_html::rewrite_links(d, rewrite).0.len())
        .sum();
    let reconstruct_us = t0.elapsed().as_secs_f64() * 1e6 / n;
    let bytes: usize = docs.iter().map(String::len).sum();
    assert!(out >= bytes && links > 0);
    Parse {
        docs: docs.len(),
        avg_bytes: bytes as f64 / n,
        parse_us,
        reconstruct_us,
    }
}

/// When a run first reaches `target` CPS — 80 % of the base arm's plateau
/// in Table 2, the "delay to balance load" T_st and T_coop govern — or
/// the run's length if it never does.
pub fn time_to_balance(samples: &[Sample], target: f64, duration_ms: u64) -> u64 {
    samples
        .iter()
        .find(|s| s.cps >= target)
        .map_or(duration_ms, |s| s.t_ms)
}

/// One seed's outcomes, cell by cell.
pub struct Seed<'a> {
    cells: &'a [Cell],
    outcomes: &'a [Outcome],
}

impl Seed<'_> {
    fn sims<'a>(&'a self, artifact: &'a str) -> impl Iterator<Item = (&'a Sim, &'a SimResult)> {
        let outcomes = self.cells.iter().zip(self.outcomes);
        outcomes.filter_map(move |(c, o)| match (&c.sim, o) {
            (Some(s), Outcome::Sim(r)) if c.artifact == artifact => Some((s, &**r)),
            _ => None,
        })
    }

    fn sim(&self, artifact: &str, key: &str) -> Option<&SimResult> {
        let mut cells = self.cells.iter().zip(self.outcomes);
        match cells
            .find(|(c, _)| c.artifact == artifact && c.key == key)?
            .1
        {
            Outcome::Sim(r) => Some(r),
            Outcome::Parse(_) => None,
        }
    }

    fn fig6_peak(&self, servers: usize) -> Option<f64> {
        let group = self.sims("fig6").filter(|(s, _)| s.servers == servers);
        group.map(|(_, r)| r.steady_cps()).reduce(f64::max)
    }

    fn fig7(&self, ds: &str, servers: usize) -> Option<f64> {
        Some(self.sim("fig7", &format!("{ds},{servers}"))?.steady_cps())
    }

    fn fig7_gain(&self, ds: &str) -> Option<f64> {
        Some(100.0 * (self.fig7(ds, 16)? / self.fig7(ds, 8)?.max(1.0) - 1.0))
    }

    /// 1 if fig7's 16-server cells of `order` fall in that order by
    /// `metric`, 0 if not.
    fn fig7_order(&self, order: [&str; 4], metric: fn(&SimResult) -> f64) -> Option<f64> {
        let at16 = |ds: &&str| Some(metric(self.sim("fig7", &format!("{ds},16"))?));
        let v = order.iter().map(at16).collect::<Option<Vec<f64>>>()?;
        Some(f64::from(u8::from(v.windows(2).all(|w| w[0] > w[1]))))
    }

    /// The group size at which `ds`'s fig7 CPS first gains less than the
    /// proportional floor for a doubling — from 2 servers up, since with
    /// one more the entry-point home is half the group — or 32 if no
    /// doubling up to 16 does.
    fn fig7_knee(&self, ds: &str) -> Option<f64> {
        for n in [2, 4, 8] {
            if self.fig7(ds, 2 * n)? / self.fig7(ds, n)?.max(1.0) < PROPORTIONAL.0 {
                return Some(2.0 * n as f64);
            }
        }
        Some(32.0)
    }

    /// `what` of Table 2's `key` arm over the base arm's.
    fn table2(&self, key: &str, what: &str) -> Option<f64> {
        let base = self.sim("table2", "base,x1")?;
        let stat = |r: &SimResult| match what {
            "time to balance" => {
                time_to_balance(&r.samples, 0.8 * base.steady_cps(), r.duration_ms) as f64
            }
            "regenerations" => r.regenerations as f64,
            "pings sent" => r.gossip.pings_sent as f64,
            "pulls" => r.pulls as f64,
            "redirects" => r.totals.redirects as f64,
            "migrations" => r.migrations as f64,
            _ => panic!("no Table 2 statistic {what}"),
        };
        Some(stat(self.sim("table2", key)?) / stat(base).max(1.0))
    }

    /// µs to parse, or to reconstruct, a 6.5 KB page: the timed corpora's
    /// total time over their total bytes.
    fn per_page_us(&self, cost: fn(&Parse) -> f64) -> Option<f64> {
        let (mut us, mut bytes) = (0.0, 0.0);
        for o in self.outcomes {
            if let Outcome::Parse(p) = o {
                us += cost(p) * p.docs as f64;
                bytes += p.avg_bytes * p.docs as f64;
            }
        }
        (bytes > 0.0).then(|| us / bytes * 6_500.0)
    }
}

/// The band a check's median over seeds must fall in.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Want {
    /// `lo ≤ x ≤ hi`.
    Between(f64, f64),
    /// `x > v`.
    Above(f64),
    /// `x < v`.
    Below(f64),
}

impl Want {
    fn holds(self, x: f64) -> bool {
        match self {
            Want::Between(lo, hi) => (lo..=hi).contains(&x),
            Want::Above(v) => x > v,
            Want::Below(v) => x < v,
        }
    }
}

/// A check's verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The median is in the band.
    Pass,
    /// It is not, and no ROADMAP item owns the divergence.
    Fail,
    /// It is not, and the named ROADMAP item owns the divergence.
    KnownGap(&'static str),
    /// The run had none of the check's cells (an artifact left out, or a
    /// quick run's smaller grid).
    NoData,
}

type Stat = Box<dyn Fn(&Seed) -> Option<f64>>;

/// A statistic over one seed's cells, against the paper.
pub struct Check {
    /// What it measures; the first word names its artifact.
    pub name: String,
    /// The paper's value or claim.
    pub paper: String,
    /// The band the median over seeds must fall in.
    pub want: Want,
    /// The ROADMAP item that owns a divergence known before the run.
    pub gap: Option<&'static str>,
    /// Where the band comes from.
    pub source: &'static str,
    stat: Stat,
}

impl Check {
    /// The verdict on `median`, the check's median over seeds.
    pub fn verdict(&self, median: Option<f64>) -> Verdict {
        match (median, self.gap) {
            (None, _) => Verdict::NoData,
            (Some(m), _) if self.want.holds(m) => Verdict::Pass,
            (_, Some(item)) => Verdict::KnownGap(item),
            (_, None) => Verdict::Fail,
        }
    }
}

/// Every check, each band written down before the five-seed run.
pub fn checks() -> Vec<Check> {
    let mut out = Vec::new();
    let mut add = |name: String, paper: &str, want, gap, source, stat: Stat| {
        let paper = paper.into();
        out.push(Check {
            name,
            paper,
            want,
            gap,
            source,
            stat,
        })
    };
    let (lo, hi) = PROPORTIONAL;
    let gap_a = Some("12(a)");
    for (a, b, gap) in [(1, 2, gap_a), (2, 4, gap_a), (4, 8, None), (8, 16, None)] {
        add(
            format!("fig6 peak CPS, {b} / {a} servers"),
            "~2x",
            Want::Between(lo, hi),
            gap,
            "Fig. 6: 7,150 -> 15,150 CPS from 8 to 16 servers (2.12x) is 'improved proportionally'",
            Box::new(move |s: &Seed| Some(s.fig6_peak(b)? / s.fig6_peak(a)?.max(1.0))),
        );
    }
    let linear = "Fig. 7: LOD and Sequoia scale 'very close to linear up to 16 servers'";
    let flat = "§5.3: 8 -> 16 servers buys SBLog and MAPUG only ~5-7%; above 0, under twice 7%";
    let (lin, few) = (Want::Between(88.0, 112.0), Want::Between(0.0, 14.0));
    for (ds, paper, want, gap, source) in [
        ("lod", "~+100%", lin, gap_a, linear),
        ("sequoia", "~+100%", lin, None, linear),
        ("sblog", "+5-7%", few, gap_a, flat),
        ("mapug", "+5-7%", few, Some("12(c)"), flat),
    ] {
        let name = format!("fig7 {ds} CPS gain 8 -> 16 servers, %");
        let stat = Box::new(move |s: &Seed| s.fig7_gain(ds));
        add(name, paper, want, gap, source, stat);
    }
    let by_size =
        "§5.3: average document size orders BPS Sequoia > SBLog > MAPUG > LOD, CPS reversed";
    let bps = ["sequoia", "sblog", "mapug", "lod"];
    let (mut cps, what) = (bps, [SimResult::steady_bps, SimResult::steady_cps]);
    cps.reverse();
    for ((order, metric), unit) in [bps, cps].into_iter().zip(what).zip(["BPS", "CPS"]) {
        let name = format!("fig7 {unit} {} at 16 servers", order.join(" > "));
        let stat = Box::new(move |s: &Seed| s.fig7_order(order, metric));
        add(name, "true", Want::Above(0.5), Some("12(c)"), by_size, stat);
    }
    let bound = analyze(&Dataset::sblog(1), 50).useful_servers_bound() as f64;
    add(
        "fig7 sblog knee (servers) vs analyze's bound".into(),
        &format!("bound {bound}"),
        Want::Between(bound, 2.0 * bound - 1.0),
        None,
        "§5.3: SBLog flattens between 8 and 16 servers; `analyze` puts the first sub-proportional doubling in [bound, 2 bound)",
        Box::new(|s: &Seed| s.fig7_knee("sblog")),
    );
    add(
        "fig8 late minus early gain, CPS per quarter".into(),
        "accelerating",
        Want::Above(0.0),
        None,
        "§5.3: performance 'improved slowly at first, then at a seemingly exponential rate'",
        Box::new(|s: &Seed| {
            let (_, r) = s.sims("fig8").next()?;
            let (n, q) = (r.samples.len(), r.samples.len() / 4);
            let avg = |lo: usize, hi: usize| {
                r.samples[lo..hi].iter().map(|x| x.cps).sum::<f64>() / (hi - lo) as f64
            };
            (n >= 8).then(|| {
                let (q1, q2, q4) = (avg(0, q), avg(q, 2 * q), avg(3 * q, n));
                (q4 - q2) / 2.0 - (q2 - q1)
            })
        }),
    );
    // Table 2's words for each arm; the band is the direction they give.
    let words = [
        "longer delay to balance load",
        "overhead from frequent migration",
        "more forced pinger requests",
        "more retransmission of unchanged docs",
        "more migration/redirect overhead",
        "less often migration",
        "shorter delay to balance load",
    ];
    let (more, less) = (Want::Above(1.0), Want::Below(1.0));
    let arms = [
        ("T_st,x4", "time to balance", more),
        ("T_st,x0.25", "regenerations", more),
        ("T_pi,x0.25", "pings sent", more),
        ("T_val,x0.25", "pulls", more),
        ("T_home,x0.25", "redirects", more),
        ("T_coop,x4", "migrations", less),
        ("T_coop,x0.25", "time to balance", less),
    ];
    for ((key, what, want), paper) in arms.into_iter().zip(words) {
        let name = format!("table2 {} {what} / base", key.replace(',', " "));
        let gap = (key == "T_home,x0.25").then_some("12(a)");
        let stat = Box::new(move |s: &Seed| s.table2(key, what));
        add(name, paper, want, gap, "Table 2", stat);
    }
    let negligible =
        "§5.3: ~3 ms to parse and ~20 ms to reconstruct a ~6.5 KB page, called negligible";
    let parse: fn(&Parse) -> f64 = |p| p.parse_us;
    for (job, paper, limit, cost) in [
        ("parse", "~3,000 us", 3_000.0, parse),
        ("reconstruct", "~20,000 us", 20_000.0, |p| p.reconstruct_us),
    ] {
        let name = format!("overhead {job}, us per 6.5 KB page");
        let stat = Box::new(move |s: &Seed| s.per_page_us(cost));
        add(name, paper, Want::Below(limit), None, negligible, stat);
    }
    add(
        "overhead LOD reconstructions per second".into(),
        "1.3/s avg",
        Want::Below(1.3),
        None,
        "§5.3: LOD's reconstruction rate at Table 1 pace was 1.3/s average (17.2/s peak), called negligible",
        Box::new(|s: &Seed| {
            let r = s.sim("overhead", "lod-run")?;
            Some(r.regenerations as f64 * 1_000.0 / r.duration_ms as f64)
        }),
    );
    add(
        "ablation mapug regenerations, hottest-first / Algorithm 1".into(),
        "more",
        Want::Above(1.0),
        None,
        "§4.1: Algorithm 1's steps 4-5 pick documents whose links stay local, so a migration dirties fewer pages",
        Box::new(|s: &Seed| {
            let regens = |key| Some(s.sim("ablation", key)?.regenerations as f64);
            Some(regens("selection:hottest-first")? / regens("selection:algorithm-1")?.max(1.0))
        }),
    );
    out
}

/// The driver's exit status: 1 when a CSV is missing or a cell completed
/// no fetch (`broken`), or — in full mode — when a check failed with no
/// known gap; 0 otherwise.
pub fn exit_status(quick: bool, broken: bool, verdicts: &[Verdict]) -> i32 {
    i32::from(broken || (!quick && verdicts.contains(&Verdict::Fail)))
}

/// A CSV field, quoted when it holds a comma or a quote.
fn field(s: &str) -> String {
    if s.contains([',', '"']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Run the table's cells — `only`'s, or every artifact's — over the
/// seeds (42 alone and every cell smaller when `quick`), write each
/// artifact's CSV and `checks.csv`, print the checks, and return the
/// exit status (2 for an unknown artifact).
pub fn reproduce(only: Option<&str>, quick: bool) -> i32 {
    let names = ARTIFACTS.map(|(name, _)| name);
    if let Some(name) = only.filter(|a| !names.contains(a)) {
        eprintln!("unknown artifact {name:?}: one of {}", names.join(", "));
        return 2;
    }
    let seeds = if quick { &SEEDS[..1] } else { &SEEDS[..] };
    let cells: Vec<Cell> = cells(quick)
        .into_iter()
        .filter(|c| only.is_none_or(|a| c.artifact == a))
        .collect();
    println!("{} cells x seeds {seeds:?}", cells.len());
    let run = |&seed: &u64| cells.iter().map(|c| c.run(seed)).collect();
    let outcomes: Vec<Vec<Outcome>> = seeds.iter().map(run).collect();
    let seed = |outcomes| Seed {
        cells: &cells,
        outcomes,
    };
    let views: Vec<Seed> = outcomes.iter().map(|o| seed(o)).collect();

    let mut broken = false;
    for (artifact, header) in ARTIFACTS {
        let mut rows = vec![vec![format!("seed,{header}")]];
        for (view, seed) in views.iter().zip(seeds) {
            for (cell, out) in cells.iter().zip(view.outcomes) {
                if cell.artifact != artifact {
                    continue;
                }
                for row in cell.rows(out, view) {
                    rows.push(vec![format!("{seed},{row}")]);
                }
                if matches!(out, Outcome::Sim(r) if r.totals.completed == 0) {
                    eprintln!("{} seed={seed}: no fetch completed", cell.label());
                    broken = true;
                }
            }
        }
        if cells.iter().any(|c| c.artifact == artifact) {
            write_csv(artifact, &rows);
            let path = results_dir().join(format!("{artifact}.csv"));
            broken |= !std::fs::metadata(path).is_ok_and(|m| m.len() > 0);
        }
    }
    if let Some((_, r)) = views.first().and_then(|v| v.sims("fig8").next()) {
        let cps: Vec<f64> = r.samples.iter().map(|s| s.cps).collect();
        println!("\nFig. 8, CPS vs time (seed {}):", seeds[0]);
        print!("{}", crate::ascii_chart(&[("CPS", &cps)], 12));
    }

    let head = ["check", "paper", "want", "median", "min", "max"];
    let [a, b, c, d, e, f] = head;
    println!("\n{a:<56} {b:<37} {c:<20} {d:>9} {e:>9} {f:>9}  verdict");
    let mut table = vec![vec![format!("{},seeds,verdict,gap,source", head.join(","))]];
    let mut verdicts = Vec::new();
    for check in checks() {
        let artifact = check.name.split(' ').next();
        if cells.iter().all(|c| Some(c.artifact) != artifact) {
            continue;
        }
        let mut vals: Vec<f64> = views.iter().filter_map(|v| (check.stat)(v)).collect();
        vals.sort_by(f64::total_cmp);
        let mid = vals.len() / 2;
        let median = match vals.len() {
            0 => None,
            n if n % 2 == 1 => Some(vals[mid]),
            _ => Some((vals[mid - 1] + vals[mid]) / 2.0),
        };
        let verdict = check.verdict(median);
        verdicts.push(verdict);
        let word = match verdict {
            Verdict::Pass => "pass",
            Verdict::Fail => "FAIL",
            Verdict::KnownGap(_) => "known gap",
            Verdict::NoData => "n/a",
        };
        let stats = [median, vals.first().copied(), vals.last().copied()];
        let [m, lo, hi] = stats.map(|x| match x {
            Some(x) if x.abs() >= 100.0 => fmt_thousands(x),
            Some(x) => format!("{x:.2}"),
            None => "-".into(),
        });
        let gap = check.gap.unwrap_or_default();
        let (name, paper, want) = (&check.name, &check.paper, format!("{:?}", check.want));
        println!("{name:<56} {paper:<37} {want:<20} {m:>9} {lo:>9} {hi:>9}  {word} {gap}");
        let nums = stats.map(|x| x.map_or(String::new(), |x| format!("{x:.4}")));
        let (n, word, source) = (vals.len(), word.to_lowercase(), field(check.source));
        let text = [name, paper, &want].map(|s| field(s)).join(",");
        let row = format!("{text},{},{n},{word},{gap},{source}", nums.join(","));
        table.push(vec![row]);
    }
    write_csv("checks", &table);
    let status = exit_status(quick, broken, &verdicts);
    println!("exit status {status}");
    status
}
