//! The engine lock, instrumented so socket I/O can prove it is not held.
//!
//! The paper's §5.1 design shares the LDG/GLT between worker threads and
//! the statistics module through one lock. That is faithful — but holding
//! it across a *network round-trip* (a lazy pull, a ping, a validation)
//! would stall every worker for a peer's RTT. [`EngineLock`] wraps the
//! engine mutex with a thread-local held-count so the transport can
//! `debug_assert` the invariant at every socket call site:
//! **no thread performs inter-server I/O while holding the engine lock**.
//!
//! The counter is thread-local rather than a global flag because a global
//! "is locked" bit cannot distinguish *this* thread holding the lock
//! (a bug at an I/O site) from another thread briefly serving a request
//! (normal operation).

use dcws_core::ServerEngine;
use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard};

thread_local! {
    /// How many [`EngineGuard`]s the current thread holds.
    static HELD: Cell<u32> = const { Cell::new(0) };
}

/// A mutex over the [`ServerEngine`] that tracks, per thread, whether the
/// current thread is inside the critical section.
pub struct EngineLock(Mutex<ServerEngine>);

impl EngineLock {
    /// Wrap `engine`.
    pub fn new(engine: ServerEngine) -> EngineLock {
        EngineLock(Mutex::new(engine))
    }

    /// Acquire the exclusive engine lock.
    pub fn lock(&self) -> EngineGuard<'_> {
        let guard = self.0.lock().unwrap_or_else(|e| e.into_inner());
        HELD.with(|h| h.set(h.get() + 1));
        EngineGuard { guard }
    }

    /// True when the *current thread* holds the engine lock.
    pub fn held_by_current_thread() -> bool {
        HELD.with(|h| h.get() > 0)
    }
}

/// Assert (debug builds) that the calling thread does not hold the engine
/// lock — called immediately before every inter-server socket operation.
#[inline]
#[track_caller]
pub fn assert_engine_unlocked(context: &str) {
    debug_assert!(
        !EngineLock::held_by_current_thread(),
        "engine lock held across socket I/O: {context}"
    );
}

/// RAII guard for [`EngineLock`]; derefs to the engine.
pub struct EngineGuard<'a> {
    guard: MutexGuard<'a, ServerEngine>,
}

impl Drop for EngineGuard<'_> {
    fn drop(&mut self) {
        HELD.with(|h| h.set(h.get() - 1));
    }
}

impl Deref for EngineGuard<'_> {
    type Target = ServerEngine;
    fn deref(&self) -> &ServerEngine {
        &self.guard
    }
}

impl DerefMut for EngineGuard<'_> {
    fn deref_mut(&mut self) -> &mut ServerEngine {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcws_core::{MemStore, ServerConfig};
    use dcws_graph::ServerId;

    fn engine() -> ServerEngine {
        ServerEngine::new(
            ServerId::new("a:1"),
            ServerConfig::paper_defaults(),
            Box::new(MemStore::new()),
        )
    }

    #[test]
    fn held_tracks_guard_lifetime() {
        let lock = EngineLock::new(engine());
        assert!(!EngineLock::held_by_current_thread());
        {
            let g = lock.lock();
            assert!(EngineLock::held_by_current_thread());
            drop(g);
        }
        assert!(!EngineLock::held_by_current_thread());
        assert_engine_unlocked("test");
    }

    #[test]
    fn held_is_per_thread() {
        let lock = std::sync::Arc::new(EngineLock::new(engine()));
        let _g = lock.lock();
        assert!(EngineLock::held_by_current_thread());
        let lock2 = lock.clone();
        std::thread::spawn(move || {
            // Another thread holding nothing sees "not held" even while
            // this thread is inside the critical section.
            assert!(!EngineLock::held_by_current_thread());
            drop(lock2);
        })
        .join()
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "engine lock held across socket I/O")]
    #[cfg(debug_assertions)]
    fn assert_fires_under_lock() {
        let lock = EngineLock::new(engine());
        let _g = lock.lock();
        assert_engine_unlocked("unit test");
    }
}
