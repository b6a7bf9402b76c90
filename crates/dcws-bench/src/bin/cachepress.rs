//! Cache-pressure sweep: steady-state performance vs document-cache byte
//! budget, the dcws-cache counterpart to the paper's capacity figures.
//!
//! Each run gives every server the same `cache_budget_bytes` (half to its
//! co-op cache, the rest to its home side's store of routes and
//! regenerated pages) and drives the standard Algorithm-2 client workload
//! against a DCWS group. As the budget drops below the working set,
//! evictions force repeat pulls and regenerations, the cluster-wide hit
//! ratio falls, and the mean client-observed response time climbs — the
//! budget-vs-hit-ratio curve this binary emits as CSV. Its `regenerations`
//! and `store_evictions` columns say how much of each row's cost is §4.3
//! work the store could not keep.
//!
//! Budgets are expressed as fractions of the dataset's corpus size so the
//! sweep stays meaningful if the dataset generator changes.
//!
//! The sweep crashes no server, so a client failure in any row is a
//! defect: the binary exits non-zero after writing its CSV.

use dcws_bench::{fmt_thousands, scaled, write_csv};
use dcws_sim::{run_sim, SimConfig};
use dcws_workloads::{materialize::materialize, Dataset};

fn main() {
    let dataset = Dataset::lod(1);
    let corpus_bytes: u64 = dataset
        .docs
        .iter()
        .map(|d| materialize(d).len() as u64)
        .sum();

    let n_servers = if dcws_bench::quick() { 2 } else { 4 };
    let n_clients = if dcws_bench::quick() { 16 } else { 64 };
    let duration_ms = scaled(180_000, 45_000);
    // Denominators of corpus fractions; 0 encodes "unbounded".
    let denominators: Vec<u64> = if dcws_bench::quick() {
        vec![0, 2, 8]
    } else {
        vec![0, 1, 2, 4, 8, 16, 32]
    };

    println!(
        "Cache pressure sweep: {} servers, {} clients, corpus {} bytes",
        n_servers,
        n_clients,
        fmt_thousands(corpus_bytes as f64)
    );
    let mut csv = vec![vec![
        "budget_bytes".into(),
        "corpus_frac".into(),
        "hit_ratio".into(),
        "evictions".into(),
        "oversize_rejects".into(),
        "coalesced_waits".into(),
        "regenerations".into(),
        "store_evictions".into(),
        "mean_resp_ms".into(),
        "cps".into(),
        "failures".into(),
    ]];
    println!(
        "{:>12} {:>11} {:>9} {:>10} {:>10} {:>7} {:>10} {:>12} {:>8} {:>9}",
        "budget",
        "corpus_frac",
        "hit_ratio",
        "evictions",
        "coalesced",
        "regens",
        "store_evict",
        "mean_resp_ms",
        "cps",
        "failures"
    );
    let mut failed = 0;
    for &den in &denominators {
        let (budget, label, frac) = match corpus_bytes.checked_div(den) {
            // den == 0 encodes "unbounded".
            None => (u64::MAX, "unbounded".to_string(), "inf".to_string()),
            Some(b) => {
                let b = b.max(1);
                (b, b.to_string(), format!("1/{den}"))
            }
        };
        let mut cfg = SimConfig::paper(dataset.clone(), n_servers, n_clients).accelerate(20);
        cfg.duration_ms = duration_ms;
        cfg.server_config.cache_budget_bytes = budget;
        let r = run_sim(cfg);
        dcws_bench::dump_status(&format!("cachepress_{frac}"), &r);
        let hit_ratio = r.cache.hit_ratio();
        let cps = r.steady_cps();
        let failures = r.totals.failures;
        println!(
            "{:>12} {:>11} {:>9.3} {:>10} {:>10} {:>7} {:>10} {:>12.2} {:>8} {:>9}",
            label,
            frac,
            hit_ratio,
            r.cache.evictions,
            r.cache.coalesced_waits,
            r.regenerations,
            r.store.evictions,
            r.mean_response_ms,
            fmt_thousands(cps),
            failures
        );
        failed += failures;
        csv.push(vec![
            label,
            frac,
            format!("{hit_ratio:.4}"),
            r.cache.evictions.to_string(),
            r.cache.oversize_rejects.to_string(),
            r.cache.coalesced_waits.to_string(),
            r.regenerations.to_string(),
            r.store.evictions.to_string(),
            format!("{:.3}", r.mean_response_ms),
            format!("{cps:.1}"),
            failures.to_string(),
        ]);
    }
    write_csv("cachepress", &csv);
    if failed > 0 {
        eprintln!("FAIL: {failed} client failures (see the failures column)");
        std::process::exit(1);
    }
}
