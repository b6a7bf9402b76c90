//! Allocation accounting for the event core.
//!
//! The scale-out contract (docs/SIMULATION.md) is that the steady-state
//! event loop's *infrastructure* — queue pop, server/client slab access,
//! request routing — performs no heap allocation per event; only protocol
//! payloads (request/response bodies, rewritten HTML) may allocate. The
//! run loop carries a debug-build micro-assert around every queue pop to
//! hold that line.
//!
//! Counting every allocation requires a global allocator hook, which a
//! library must not install for its hosts. So the lib only exposes
//! [`CountingAlloc`] plus a counter; the probe harness
//! (`tests/alloc_probe.rs`) installs it as its `#[global_allocator]`,
//! which **arms** the micro-asserts: in any build without the probe
//! allocator the counter never moves and the asserts are vacuous, and in
//! release builds they compile out entirely. It is the one counting
//! allocator of the workspace: `dcws-core`'s `cost_probe` and
//! `dcws-net`'s `alloc_probe` install it too, through a dev-dependency.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Number of allocator calls (alloc, alloc_zeroed, realloc) observed so
/// far. Always 0
/// unless [`CountingAlloc`] is the process's global allocator.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// A counting wrapper around the system allocator. Install in a test or
/// bench harness as `#[global_allocator]` to arm the event-loop
/// allocation micro-asserts.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches no memory
// the allocator manages.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed on as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed on as received.
        unsafe { System.alloc_zeroed(layout) }
    }
}
