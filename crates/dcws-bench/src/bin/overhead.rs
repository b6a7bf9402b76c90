//! §5.3 "Overhead for parsing and reconstruction".
//!
//! The paper reports, for ~6.5 KB average documents on 200 MHz hardware:
//! ~3 ms to parse hyperlinks, ~20 ms to reconstruct a document, and an
//! observed LOD reconstruction rate of 1.3/s average and 17.2/s peak —
//! concluding the overhead is negligible. This harness measures the same
//! three numbers: real parse/reconstruct times of our HTML substrate over
//! the generated corpora, and the reconstruction rate of a simulated LOD
//! run.

use dcws_bench::write_csv;
use dcws_sim::{run_sim, SimConfig};
use dcws_workloads::{materialize::materialize, Dataset, PageKind};
use std::time::Instant;

fn measure_corpus(name: &str) -> (usize, f64, f64, f64) {
    let ds = Dataset::by_name(name, 1).expect("known dataset");
    let docs: Vec<String> = ds
        .docs
        .iter()
        .filter(|d| d.kind == PageKind::Html)
        .map(|d| String::from_utf8(materialize(d)).expect("html is utf-8"))
        .collect();
    let total_bytes: usize = docs.iter().map(|d| d.len()).sum();

    // Parse (one scan for every link, what the LDG build needs).
    let t0 = Instant::now();
    let mut links = 0usize;
    for d in &docs {
        links += dcws_html::extract_links(d).len();
    }
    let parse_us = t0.elapsed().as_secs_f64() * 1e6 / docs.len() as f64;

    // Reconstruct (the full §4.3 job: find every link, rewrite it, and
    // write the document out again).
    let t0 = Instant::now();
    let mut out_bytes = 0usize;
    for d in &docs {
        let (out, _) =
            dcws_html::rewrite_links(d, |u| Some(format!("http://coop:8001/~migrate/home/80{u}")));
        out_bytes += out.len();
    }
    let recon_us = t0.elapsed().as_secs_f64() * 1e6 / docs.len() as f64;
    assert!(out_bytes >= total_bytes);
    let _ = links;
    (
        docs.len(),
        total_bytes as f64 / docs.len() as f64,
        parse_us,
        recon_us,
    )
}

fn main() {
    println!("§5.3 parsing and reconstruction overhead\n");
    println!(
        "{:<10} {:>6} {:>12} {:>14} {:>18}",
        "corpus", "docs", "avg bytes", "parse (us/doc)", "reconstruct (us/doc)"
    );
    let mut csv = vec![vec![
        "corpus".into(),
        "docs".into(),
        "avg_bytes".into(),
        "parse_us".into(),
        "reconstruct_us".into(),
    ]];
    for name in ["mapug", "sblog", "lod"] {
        let (n, avg, parse, recon) = measure_corpus(name);
        println!("{name:<10} {n:>6} {avg:>12.0} {parse:>14.1} {recon:>18.1}");
        csv.push(vec![
            name.into(),
            n.to_string(),
            format!("{avg:.0}"),
            format!("{parse:.2}"),
            format!("{recon:.2}"),
        ]);
    }
    println!("\npaper (200 MHz Pentium, ~6.5 KB docs): parse ~3,000 us, reconstruct ~20,000 us");
    println!("(modern hardware is orders of magnitude faster; the simulator still charges");
    println!("the paper's 23 ms per regeneration so simulated results match 1998 economics)\n");

    // Reconstruction rate in a live LOD run (paper: 1.3/s avg, 17.2/s peak).
    let mut cfg = SimConfig::paper(Dataset::lod(1), 8, dcws_bench::scaled(200, 48) as usize);
    cfg.duration_ms = dcws_bench::scaled(600_000, 60_000);
    cfg.sample_interval_ms = 10_000;
    let r = run_sim(cfg);
    dcws_bench::dump_status("overhead_lod", &r);
    let secs = r.duration_ms as f64 / 1000.0;
    println!(
        "LOD run (paper timers, {} s): {} reconstructions total = {:.2}/s average",
        secs,
        r.regenerations,
        r.regenerations as f64 / secs
    );
    println!("paper observed: 1.3/s average, 17.2/s peak — negligible either way");
    write_csv("overhead", &csv);
}
