//! Sliding-window load measurement.
//!
//! §5.3 of the paper settles on connections per second (CPS) and bytes per
//! second (BPS) as the two measures that matter, and discusses when each is
//! the better *balancing* metric (CPS for small-file sites like LOD, BPS
//! for large-file sites like Sequoia). [`RateWindow`] measures both over a
//! bucketed sliding window; [`BalanceMetric`] picks which one drives
//! migration decisions.

use std::collections::VecDeque;

/// Which measurement drives load-balancing decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BalanceMetric {
    /// Connections per second — the paper's default, because real-world
    /// web transfers are small and connection overhead dominates.
    Cps,
    /// Bytes per second — better when file sizes are large enough to
    /// amortize connection setup/teardown (the Sequoia regime).
    Bps,
}

/// A bucketed sliding-window counter for connections and bytes.
///
/// The window is divided into fixed-width buckets; events land in the
/// bucket containing their timestamp and rates are computed over the full
/// window. Timestamps must be non-decreasing per instance (they come from
/// one server's clock).
#[derive(Debug, Clone)]
pub struct RateWindow {
    bucket_ms: u64,
    n_buckets: usize,
    /// Front = oldest. Each entry: (bucket index, connections, bytes).
    buckets: VecDeque<(u64, u64, u64)>,
}

impl RateWindow {
    /// A window of `window_ms` total span split into `n_buckets` buckets.
    ///
    /// # Panics
    /// Panics if either argument is zero or `window_ms < n_buckets`.
    pub fn new(window_ms: u64, n_buckets: usize) -> Self {
        assert!(window_ms > 0 && n_buckets > 0, "degenerate window");
        let bucket_ms = (window_ms / n_buckets as u64).max(1);
        RateWindow {
            bucket_ms,
            n_buckets,
            buckets: VecDeque::new(),
        }
    }

    /// Total window span in milliseconds.
    pub fn window_ms(&self) -> u64 {
        self.bucket_ms * self.n_buckets as u64
    }

    fn bucket_index(&self, now_ms: u64) -> u64 {
        now_ms / self.bucket_ms
    }

    fn evict(&mut self, now_bucket: u64) {
        let oldest_keep = now_bucket.saturating_sub(self.n_buckets as u64 - 1);
        while self
            .buckets
            .front()
            .is_some_and(|(b, _, _)| *b < oldest_keep)
        {
            self.buckets.pop_front();
        }
    }

    /// Record one completed connection that transferred `bytes`.
    pub fn record(&mut self, now_ms: u64, bytes: u64) {
        self.record_n(now_ms, 1, bytes);
    }

    /// Record `conns` connections totalling `bytes`.
    pub fn record_n(&mut self, now_ms: u64, conns: u64, bytes: u64) {
        let b = self.bucket_index(now_ms);
        self.evict(b);
        match self.buckets.back_mut() {
            Some((back, c, by)) if *back == b => {
                *c += conns;
                *by += bytes;
            }
            _ => self.buckets.push_back((b, conns, bytes)),
        }
    }

    /// `(cps, bps)` over the window ending at `now_ms`.
    pub fn rates(&mut self, now_ms: u64) -> (f64, f64) {
        let b = self.bucket_index(now_ms);
        self.evict(b);
        let (conns, bytes) = self
            .buckets
            .iter()
            .fold((0u64, 0u64), |(c, by), (_, bc, bby)| (c + bc, by + bby));
        let secs = self.window_ms() as f64 / 1000.0;
        (conns as f64 / secs, bytes as f64 / secs)
    }

    /// Total connections currently inside the window.
    pub fn connections(&mut self, now_ms: u64) -> u64 {
        self.evict(self.bucket_index(now_ms));
        self.buckets.iter().map(|(_, c, _)| *c).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_is_zero() {
        let mut w = RateWindow::new(1000, 10);
        assert_eq!(w.rates(0), (0.0, 0.0));
        assert_eq!(w.connections(5000), 0);
    }

    #[test]
    fn steady_rate_measured() {
        let mut w = RateWindow::new(1000, 10);
        // 10 connections of 100 bytes spread over one second.
        for i in 0..10 {
            w.record(i * 100, 100);
        }
        let (cps, bps) = w.rates(999);
        assert!((cps - 10.0).abs() < 1e-9, "cps={cps}");
        assert!((bps - 1000.0).abs() < 1e-9, "bps={bps}");
    }

    #[test]
    fn old_events_age_out() {
        let mut w = RateWindow::new(1000, 10);
        w.record(0, 100);
        assert_eq!(w.connections(500), 1);
        assert_eq!(w.connections(2000), 0, "event older than window evicted");
    }

    #[test]
    fn partial_aging() {
        let mut w = RateWindow::new(1000, 10);
        w.record(0, 100); // bucket 0
        w.record(900, 100); // bucket 9
                            // At t=1050 (bucket 10), bucket 0 is out, bucket 9 still in.
        assert_eq!(w.connections(1050), 1);
    }

    #[test]
    fn record_n_batches() {
        let mut w = RateWindow::new(2000, 4);
        w.record_n(100, 50, 5_000);
        let (cps, bps) = w.rates(100);
        assert!((cps - 25.0).abs() < 1e-9);
        assert!((bps - 2500.0).abs() < 1e-9);
    }

    #[test]
    fn same_bucket_coalesces() {
        let mut w = RateWindow::new(1000, 10);
        w.record(10, 1);
        w.record(20, 1);
        w.record(99, 1);
        assert_eq!(w.buckets.len(), 1);
        assert_eq!(w.connections(99), 3);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_window_panics() {
        RateWindow::new(0, 10);
    }

    #[test]
    fn rates_after_long_idle_are_zero() {
        let mut w = RateWindow::new(1000, 10);
        w.record_n(0, 100, 10_000);
        let (cps, _) = w.rates(100);
        assert!(cps > 0.0);
        let (cps, bps) = w.rates(1_000_000);
        assert_eq!((cps, bps), (0.0, 0.0));
    }
}
