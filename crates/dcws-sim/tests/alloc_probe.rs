//! Arms the event-loop allocation micro-asserts.
//!
//! The run loop in `dcws_sim::cluster` carries a debug-build assertion
//! that popping the event queue performs **zero** heap allocations (see
//! `dcws_sim::alloc`). That assertion is vacuous unless some harness
//! installs [`CountingAlloc`] as the process's global allocator — which
//! is exactly what this integration test binary does. Running any
//! simulation here therefore turns every queue pop into a checked claim;
//! a regression that reintroduces per-event allocation (a `format!` in
//! the routing path, a map rebuilt per pop) fails this test immediately.
//!
//! It also holds the messages' share: a whole run of the paper's
//! configuration may allocate only so often per handled event, so a
//! header name or constant copied back into a `String`, or a shared row
//! copied per message, shows up as a count.
//!
//! Deliberately a **single** `#[test]`: the allocation counter is
//! process-global, and parallel tests would interleave their counts.

use dcws_sim::alloc::{allocations, CountingAlloc};
use dcws_sim::event::{Event, EventQueue};
use dcws_sim::{NetModel, Scenario, ScenarioKind, SimCluster, SimConfig};
use dcws_workloads::Dataset;

#[global_allocator]
static PROBE: CountingAlloc = CountingAlloc;

#[test]
fn event_loop_pops_never_allocate() {
    // Prove the probe is armed before trusting any assertion downstream.
    let before = dcws_sim::alloc::allocations();
    let v: Vec<u64> = vec![1, 2, 3];
    drop(v);
    assert!(
        dcws_sim::alloc::allocations() > before,
        "CountingAlloc is not installed; the micro-asserts are vacuous"
    );

    // The bare queue, grown well past its presize (so both the links and
    // the slab have reallocated): popping it empty leaves the counter
    // where it was. Freed slots go onto a list inside the links, not into
    // a side vector that could grow. One push lands before the latest
    // pop, so every pending event is re-bucketed, in place, on the way.
    let mut q = EventQueue::with_capacity(64);
    for i in 0..10_000u64 {
        q.push(i.wrapping_mul(0x9e37_79b9) % 1_000, Event::Sample);
    }
    let before = dcws_sim::alloc::allocations();
    let mut pops = 0;
    while let Some((at, _)) = q.pop() {
        pops += 1;
        if pops == 5_000 {
            q.push(at / 2, Event::Sample);
        }
    }
    assert_eq!(pops, 10_001);
    assert_eq!(
        dcws_sim::alloc::allocations(),
        before,
        "10,001 pops and a past push of a bare queue allocated"
    );

    // A fault scenario covers the hottest pop paths: request routing,
    // service completion, delivery, restarts — under both switch models.
    // With the probe armed, the run loop's debug_assert verifies every
    // single pop; reaching the end without a panic is the test.
    for net in [NetModel::ConstantBandwidth, NetModel::SharedBandwidth] {
        let scenario = Scenario::quick(ScenarioKind::RollingRestart, 7).with_net_model(net);
        let (result, _) = scenario.run();
        assert!(
            result.totals.sessions > 0 && result.events > 0,
            "{net:?}: probe run must have exercised the event loop"
        );
    }

    // LOD, 16 servers, 256 clients, 30 virtual seconds at Table-1 timers,
    // seed 1999: what one run allocates per handled event, set-up
    // excluded. 0.178 measured (the count is deterministic; 0.187 while
    // every received gossip row was decoded into a `String`); 1.038 while
    // every client GET was a `Request` and every answer a `Response`
    // built by the engine, 503s included; 2.957 while header names and
    // constants were `String`s, every gossiped row a copy and the request
    // path a parse.
    let mut cfg = SimConfig::paper(Dataset::lod(1999), 16, 256).accelerate(1);
    cfg.duration_ms = 30_000;
    cfg.seed = 1999;
    let cluster = SimCluster::new(cfg);
    let before = allocations();
    let result = cluster.run();
    let per_event = (allocations() - before) as f64 / result.events as f64;
    assert!(result.events > 100_000, "{} events", result.events);
    assert!(
        per_event < 0.24,
        "{per_event:.3} allocations per event (ceiling 0.24)"
    );
}
