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
//! Deliberately a **single** `#[test]`: the allocation counter is
//! process-global, and parallel tests would interleave their counts.

use dcws_sim::alloc::CountingAlloc;
use dcws_sim::event::{Event, EventQueue};
use dcws_sim::{NetModel, Scenario, ScenarioKind};

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

    // The bare queue, grown well past its presize (so both the key heap
    // and the slab have reallocated): popping it empty leaves the counter
    // where it was. Freed slots go onto a list inside the slab, not into
    // a side vector that could grow.
    let mut q = EventQueue::with_capacity(64);
    for i in 0..10_000u64 {
        q.push(i.wrapping_mul(0x9e37_79b9) % 1_000, Event::Sample);
    }
    let before = dcws_sim::alloc::allocations();
    let mut pops = 0;
    while q.pop().is_some() {
        pops += 1;
    }
    assert_eq!(pops, 10_000);
    assert_eq!(
        dcws_sim::alloc::allocations(),
        before,
        "10,000 pops of a bare queue allocated"
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
}
