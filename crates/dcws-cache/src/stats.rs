//! Point-in-time cache statistics.

/// Snapshot of a store's counters and residency — a server's
/// `dcws_core::ServeTable` or one role of it, or a [`crate::DocCache`] —
/// as surfaced in the `cache` section of `GET /dcws/status`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry (including negative entries).
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Subset of `hits` that landed on a negative (revoked) entry.
    pub negative_hits: u64,
    /// Entries stored (inserts and replacements that fit the budget).
    pub insertions: u64,
    /// Entries pushed out by LRU pressure (not explicit removes).
    pub evictions: u64,
    /// Inserts rejected because the entry exceeded its shard's slice
    /// of the budget.
    pub oversize_rejects: u64,
    /// Inserts refused although the entry fit its shard's slice: the
    /// room could not be made without evicting what the insert may not.
    pub admission_rejects: u64,
    /// Requests that waited on another request's in-flight pull
    /// instead of pulling themselves.
    pub coalesced_waits: u64,
    /// Current residency in budget-cost bytes (bodies + keys +
    /// per-entry overhead). Never exceeds `budget_bytes`.
    pub bytes_resident: u64,
    /// Current number of resident entries.
    pub entries: u64,
    /// Configured global byte budget.
    pub budget_bytes: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache; 0.0 when idle.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Combine two snapshots (e.g. the home and co-op roles of one
    /// server's store, or one store across a simulated cluster).
    /// Counters and residency add; budgets saturate rather than wrap,
    /// since "unbounded" is modelled as `u64::MAX`.
    pub fn merged(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            negative_hits: self.negative_hits + other.negative_hits,
            insertions: self.insertions + other.insertions,
            evictions: self.evictions + other.evictions,
            oversize_rejects: self.oversize_rejects + other.oversize_rejects,
            admission_rejects: self.admission_rejects + other.admission_rejects,
            coalesced_waits: self.coalesced_waits + other.coalesced_waits,
            bytes_resident: self.bytes_resident + other.bytes_resident,
            entries: self.entries + other.entries,
            budget_bytes: self.budget_bytes.saturating_add(other.budget_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_edges() {
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
        let s = CacheStats {
            hits: 3,
            misses: 1,
            ..CacheStats::default()
        };
        assert!((s.hit_ratio() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn merged_adds_and_saturates() {
        let a = CacheStats {
            hits: 1,
            misses: 2,
            evictions: 3,
            bytes_resident: 10,
            entries: 1,
            budget_bytes: u64::MAX,
            ..CacheStats::default()
        };
        let b = CacheStats {
            hits: 4,
            misses: 1,
            bytes_resident: 5,
            entries: 2,
            budget_bytes: 100,
            ..CacheStats::default()
        };
        let m = a.merged(&b);
        assert_eq!((m.hits, m.misses, m.evictions), (5, 3, 3));
        assert_eq!((m.bytes_resident, m.entries), (15, 3));
        assert_eq!(m.budget_bytes, u64::MAX);
    }
}
