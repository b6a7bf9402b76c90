//! Behavioural tests of the simulated cluster.

use dcws_baselines::Strategy;
use dcws_sim::{run_sim, SimCluster, SimConfig};
use dcws_workloads::{uniform_site, Dataset, SyntheticConfig};

fn small_lod(n_servers: usize, n_clients: usize, duration_ms: u64) -> SimConfig {
    let mut cfg = SimConfig::paper(Dataset::lod(1), n_servers, n_clients);
    cfg.duration_ms = duration_ms;
    cfg.sample_interval_ms = 5_000;
    cfg
}

/// As [`small_lod`] but with 10x-accelerated control-plane timers, so the
/// cluster reaches migration steady state within the test budget (the
/// paper's Table-1 timers take ~30 simulated minutes to warm up, which is
/// exactly the Figure 8 experiment and too slow for unit tests).
fn warm_lod(n_servers: usize, n_clients: usize, duration_ms: u64) -> SimConfig {
    small_lod(n_servers, n_clients, duration_ms).accelerate(10)
}

#[test]
fn clients_complete_requests() {
    let r = run_sim(small_lod(2, 4, 20_000));
    assert!(r.totals.completed > 100, "completed={}", r.totals.completed);
    assert!(r.totals.bytes > 10_000);
    assert!(r.totals.sessions > 5);
    assert_eq!(r.samples.len(), 4);
}

#[test]
fn migrations_happen_under_load() {
    let r = run_sim(warm_lod(4, 16, 60_000));
    assert!(r.migrations > 0, "no migrations in a loaded 4-server run");
    // Migration implies regeneration of dirtied sources sooner or later.
    assert!(r.regenerations > 0);
    // And clients follow some redirects for stale links.
    assert!(r.totals.redirects > 0);
}

#[test]
fn single_server_never_migrates() {
    let r = run_sim(small_lod(1, 8, 20_000));
    assert_eq!(r.migrations, 0);
    assert!(r.totals.completed > 100);
    assert_eq!(r.totals.redirects, 0);
}

#[test]
fn more_servers_more_throughput() {
    // Enough clients to saturate one server but not four. The 4-server
    // run needs most of the dataset migrated before it balances (240
    // images at ~1 migration/s accelerated), hence the longer warm-up.
    let r1 = run_sim(warm_lod(1, 48, 60_000));
    let r4 = run_sim(small_lod(4, 48, 360_000).accelerate(20));
    assert!(
        r4.steady_cps() > r1.steady_cps() * 1.5,
        "1 server: {:.0} cps, 4 servers: {:.0} cps",
        r1.steady_cps(),
        r4.steady_cps()
    );
}

#[test]
fn saturated_cluster_drops_gracefully() {
    // Overwhelm a single server: drops must appear, and throughput must
    // plateau near the server's capacity rather than collapsing.
    let r = run_sim(small_lod(1, 120, 60_000));
    assert!(r.totals.drops > 0, "expected 503 drops under overload");
    let cps = r.steady_cps();
    assert!(
        (300.0..1200.0).contains(&cps),
        "steady CPS should sit near single-server capacity: {cps}"
    );
}

#[test]
fn deterministic_given_seed() {
    let a = run_sim(small_lod(2, 8, 20_000));
    let b = run_sim(small_lod(2, 8, 20_000));
    assert_eq!(a.totals, b.totals);
    assert_eq!(a.migrations, b.migrations);
    assert!(a.queue_peak > 0, "no event was ever pending");
    assert_eq!(a.queue_peak, b.queue_peak);
    let mut cfg = small_lod(2, 8, 20_000);
    cfg.seed = 1234;
    let c = run_sim(cfg);
    assert_ne!(a.totals, c.totals, "different seed, different run");
}

#[test]
fn round_robin_dns_baseline_runs() {
    let mut cfg = small_lod(4, 16, 20_000);
    cfg.strategy = Strategy::RoundRobinDns { ttl_ms: 30_000 };
    let r = run_sim(cfg);
    assert!(r.totals.completed > 100);
    assert_eq!(r.migrations, 0, "baseline must not migrate");
    assert_eq!(r.totals.redirects, 0);
}

#[test]
fn central_router_baseline_bottlenecks() {
    // Router at 1 ms/conn caps the cluster near 1000 CPS no matter how
    // many backends exist.
    let mut cfg = small_lod(8, 120, 40_000);
    cfg.strategy = Strategy::CentralRouter {
        forward_cpu_us: 1_000,
    };
    let router = run_sim(cfg);
    let mut cfg = small_lod(8, 120, 40_000);
    cfg.strategy = Strategy::RoundRobinDns { ttl_ms: 10_000 };
    let dns = run_sim(cfg);
    assert!(
        dns.steady_cps() > router.steady_cps() * 1.3,
        "router {:.0} cps should trail replicated DNS {:.0} cps",
        router.steady_cps(),
        dns.steady_cps()
    );
}

#[test]
fn coop_crash_recalls_documents_and_service_continues() {
    let cfg = warm_lod(3, 16, 60_000);
    // Crash server 2 at t=30 s.
    let r = SimCluster::with_crashes(cfg, vec![(30_000, 2)]).run();
    assert!(r.revocations > 0, "crash should trigger recalls");
    // Clients keep completing after the crash (last-quarter samples).
    let tail = &r.samples[r.samples.len() - 2..];
    assert!(tail.iter().all(|s| s.cps > 0.0), "service died after crash");
}

#[test]
fn fault_plan_blackout_maps_to_crash() {
    // The same seeded FaultPlan vocabulary the real transport uses
    // drives the simulator: a blackout of s2 becomes a fail-stop crash
    // at its from_ms, triggering the §4.5 recall path.
    let plan = dcws_net::FaultPlan::new(1999)
        .with_blackout("s2:80", 30_000, 60_000)
        .with_blackout("nonexistent:80", 1_000, 2_000);
    let r = SimCluster::with_fault_plan(warm_lod(3, 16, 60_000), &plan).run();
    assert!(r.revocations > 0, "blackout crash should trigger recalls");
    let tail = &r.samples[r.samples.len() - 2..];
    assert!(tail.iter().all(|s| s.cps > 0.0), "service died after crash");
}

#[test]
fn load_spreads_across_servers() {
    let r = run_sim(warm_lod(4, 64, 120_000));
    let last = r.samples.last().unwrap();
    let busy = last.per_server_cps.iter().filter(|&&c| c > 1.0).count();
    assert!(
        busy >= 3,
        "expected ≥3 busy servers, got {:?}",
        last.per_server_cps
    );
    assert!(
        r.final_load_imbalance() < 1.5,
        "imbalance {}",
        r.final_load_imbalance()
    );
}

#[test]
fn synthetic_hotspot_concentrates_load() {
    // One shared image: whichever co-op hosts it saturates first.
    let site = uniform_site(
        &SyntheticConfig {
            pages: 60,
            images: 1,
            embeds: 3,
            fanout: 4,
            ..Default::default()
        },
        7,
    );
    let mut cfg = SimConfig::paper(site, 4, 48).accelerate(10);
    cfg.duration_ms = 60_000;
    cfg.sample_interval_ms = 5_000;
    let r = run_sim(cfg);
    assert!(r.totals.completed > 100);
    // The hot image forces skew: imbalance should be visible.
    assert!(
        r.final_load_imbalance() > 0.1,
        "imbalance {}",
        r.final_load_imbalance()
    );
}

#[test]
fn sequoia_is_bps_heavy_and_lod_is_cps_heavy() {
    let mut lod = SimConfig::paper(Dataset::lod(1), 2, 12);
    lod.duration_ms = 30_000;
    lod.sample_interval_ms = 5_000;
    let lod_r = run_sim(lod);
    let mut seq = SimConfig::paper(Dataset::sequoia(1), 2, 12);
    seq.duration_ms = 30_000;
    seq.sample_interval_ms = 5_000;
    let seq_r = run_sim(seq);
    assert!(
        lod_r.steady_cps() > seq_r.steady_cps() * 3.0,
        "LOD cps {:.0} vs Sequoia cps {:.0}",
        lod_r.steady_cps(),
        seq_r.steady_cps()
    );
    assert!(
        seq_r.steady_bps() > lod_r.steady_bps() * 3.0,
        "Sequoia bps {:.0} vs LOD bps {:.0}",
        seq_r.steady_bps(),
        lod_r.steady_bps()
    );
}

#[test]
fn think_time_lowers_offered_load() {
    let quick = run_sim(small_lod(2, 8, 20_000));
    let mut cfg = small_lod(2, 8, 20_000);
    cfg.client.think_time_ms = 2_000; // ~2 s of reading per step
    let thoughtful = run_sim(cfg);
    assert!(
        (thoughtful.steady_cps() as f64) < quick.steady_cps() * 0.3,
        "think time should slash per-client request rate: {} vs {}",
        thoughtful.steady_cps(),
        quick.steady_cps()
    );
    assert!(thoughtful.totals.completed > 0);
}

#[test]
fn trace_record_then_replay() {
    // Record an access log from an Algorithm-2 run...
    let mut rec = small_lod(2, 6, 20_000);
    rec.record_trace = true;
    let recorded = run_sim(rec);
    let trace = recorded.trace.expect("trace recorded");
    assert!(trace.len() > 100, "trace has {} events", trace.len());
    assert!(trace.span_ms() <= 20_000);

    // ...then replay it open-loop against a fresh cluster: every recorded
    // request is answered (200 directly, or via a 301 for URLs recorded
    // after migrations the fresh cluster hasn't made yet).
    let mut rep = small_lod(2, 6, 21_000);
    rep.replay = Some(trace.clone());
    let replayed = run_sim(rep);
    let answered = replayed.totals.completed + replayed.totals.drops + replayed.totals.failures;
    assert!(
        answered as f64 > 0.95 * trace.len() as f64,
        "answered {answered} of {} trace events",
        trace.len()
    );
    assert!(replayed.totals.completed > 0);
    // Replay is open-loop: no sessions are simulated.
    assert_eq!(replayed.totals.sessions, 0);
}
