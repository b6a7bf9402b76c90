//! Behaviour identity across representation changes.
//!
//! The constants below were captured from the commit *before* the GLT
//! became an ordered table read by reference, `ServerId` a refcounted
//! string, `MemStore` a store of shared bodies and the simulated client
//! string-free. Those are representation changes only: every protocol
//! decision — which document migrates where and when, which peer is
//! pinged, which rows are gossiped, what each sample reads — must stay
//! exactly what it was. A later change that *means* to alter the protocol
//! (e.g. freshness-ordered piggyback, see docs/SIMULATION.md) re-captures
//! the constants in the same commit and says so.
//!
//! Re-captured once since: seed 1999 on the constant-bandwidth model moved
//! when a co-op's T_val scan began emitting its due validations in the
//! store's key order (the canonical `~migrate` path) instead of the old
//! co-op cache's shard order. The previous tree with only that scan
//! sorted the same way gives these two constants exactly; the other three
//! runs did not move.
//!
//! `digest` is [`SimResult::digest`]; `trace` is FNV-1a (the workspace's
//! `RollingChecksum`) over the ordered engine events (time, server, kind,
//! detail) and every sample (counts and the bit patterns of its rates,
//! per-server rates included).

use dcws_http::RollingChecksum;
use dcws_sim::{run_sim, NetModel, SimConfig, SimResult};
use dcws_workloads::Dataset;

fn trace_hash(r: &SimResult) -> String {
    let mut h = RollingChecksum::new();
    for (server, rec) in &r.engine_events {
        h.update(&rec.t_ms.to_le_bytes());
        h.update(&(*server as u64).to_le_bytes());
        h.update(rec.event.kind().as_bytes());
        h.update(rec.event.detail().as_bytes());
    }
    for s in &r.samples {
        h.update(&s.t_ms.to_le_bytes());
        h.update(&s.migrations_total.to_le_bytes());
        let rates = [s.cps, s.bps, s.drops_per_sec, s.redirects_per_sec];
        for v in rates.iter().chain(&s.per_server_cps) {
            h.update(&v.to_bits().to_le_bytes());
        }
    }
    h.digest()
}

/// LOD, 16 servers, 256 clients, 60 virtual seconds, Table-1 timers / 10
/// so pings, validations and re-migrations all fire inside the run; the
/// dataset seed is the run seed, as in the benchmark's `sim-lod`.
fn run(seed: u64, net: NetModel) -> SimResult {
    let mut cfg = SimConfig::paper(Dataset::lod(seed), 16, 256).accelerate(10);
    cfg.duration_ms = 60_000;
    cfg.seed = seed;
    cfg.net_model = net;
    run_sim(cfg)
}

fn check(seed: u64, net: NetModel, digest: &str, trace: &str) {
    let r = run(seed, net);
    assert!(r.migrations > 0, "the pinned run must exercise migration");
    assert_eq!(r.digest(), digest, "seed {seed} {net:?}: digest moved");
    assert_eq!(
        trace_hash(&r),
        trace,
        "seed {seed} {net:?}: engine events or samples moved"
    );
}

#[test]
fn seed_1999_constant_bandwidth_is_unchanged() {
    check(
        1999,
        NetModel::ConstantBandwidth,
        "completed=61930 bytes=151060144 drops=35048 redirects=522 failures=0 sessions=698 \
         migrations=60 revocations=0 regenerations=62 events=300241 samples=6 \
         latencies=61930 p99_us=131071 engine_events=252",
        "6b7a3612ae632155",
    );
}

#[test]
fn seed_1999_shared_bandwidth_is_unchanged() {
    check(
        1999,
        NetModel::SharedBandwidth,
        "completed=61772 bytes=150162771 drops=37040 redirects=382 failures=0 sessions=750 \
         migrations=60 revocations=0 regenerations=60 events=371437 samples=6 \
         latencies=61772 p99_us=131071 engine_events=253",
        "6031f84b878d58c6",
    );
}

#[test]
fn seed_2024_constant_bandwidth_is_unchanged() {
    check(
        2024,
        NetModel::ConstantBandwidth,
        "completed=61297 bytes=150358186 drops=33783 redirects=449 failures=0 sessions=674 \
         migrations=60 revocations=0 regenerations=60 events=294555 samples=6 \
         latencies=61297 p99_us=131071 engine_events=251",
        "b110b12f26a8ab6e",
    );
}

#[test]
fn seed_2024_shared_bandwidth_is_unchanged() {
    check(
        2024,
        NetModel::SharedBandwidth,
        "completed=61661 bytes=151270843 drops=36284 redirects=434 failures=0 sessions=718 \
         migrations=60 revocations=0 regenerations=61 events=368033 samples=6 \
         latencies=61661 p99_us=131071 engine_events=251",
        "62bb60cb3956a844",
    );
}
