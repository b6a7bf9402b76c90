//! Sharded, byte-budgeted document cache for DCWS servers.
//!
//! The paper's lazy physical migration (§4.2) turns every co-op server
//! into a cache of pulled document copies, and §4.3 regeneration turns
//! every home server into a cache of rewritten bodies. This crate gives
//! both a real cache subsystem instead of unbounded `HashMap`s:
//!
//! * **[`DocCache`]** — power-of-two shards keyed by an FNV-1a hash of
//!   the document name, each shard a slab-backed LRU list with its own
//!   slice of the global byte budget. Because every shard enforces
//!   `budget_bytes / n_shards` locally, the global residency can never
//!   exceed the configured budget (a property the crate's proptest
//!   checks against arbitrary operation sequences).
//! * **Versioned entries** — each [`CachedDoc`] carries the document
//!   version and `fetched_at` timestamp used by the T_val consistency
//!   check (§4.5), plus the home's `Last-Modified` time so revalidation
//!   can ride a real HTTP conditional GET.
//! * **Negative entries** — a revoked co-op copy flips to `negative`
//!   rather than being dropped, so the §4.5 crash-insurance path can
//!   still serve stale bytes when the home is dead.
//! * **[`CacheStats`]** / **[`SizeHistogram`]** — cheap snapshots for
//!   the `/dcws/status` observability endpoint.
//!
//! The crate depends only on `dcws-http` (for the shared [`Body`]
//! type) and every public method is `&self`: shards are internally
//! locked, so one `DocCache` can be shared by a worker pool without an
//! outer lock. Because bodies are `Arc<[u8]>`-backed, a cache hit
//! clones a refcount, never the document bytes.
//!
//! ```
//! use dcws_cache::{CacheConfig, CachedDoc, DocCache};
//!
//! let cache = DocCache::new(CacheConfig::new(4096));
//! cache.insert("/a.html", CachedDoc::new(b"<html>a</html>".to_vec(), "text/html", 1, 0));
//! assert!(cache.get("/a.html").is_some());
//! assert!(cache.bytes_resident() <= 4096);
//! let stats = cache.stats();
//! assert_eq!(stats.hits, 1);
//! ```

#![warn(missing_docs)]

mod histogram;
mod shard;
mod stats;

pub use histogram::{SizeHistogram, N_SIZE_BUCKETS};
pub use stats::CacheStats;

use dcws_http::{fnv1a, Body};
use shard::Shard;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Fixed per-entry bookkeeping charge (map slot, LRU links, metadata),
/// added to the key and body lengths when computing an entry's cost.
pub const ENTRY_OVERHEAD: u64 = 64;

/// Sizing knobs for a [`DocCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Global byte budget across all shards. Each shard enforces
    /// `budget_bytes / shards` locally; entries whose cost exceeds the
    /// per-shard slice are rejected rather than cached, so residency
    /// can never exceed this value.
    pub budget_bytes: u64,
    /// Shard count; rounded up to the next power of two, minimum 1.
    pub shards: usize,
}

impl CacheConfig {
    /// Default shard count: enough to keep worker threads off each
    /// other's locks without fragmenting small budgets.
    pub const DEFAULT_SHARDS: usize = 8;

    /// A config with the given byte budget and the default shard count.
    pub fn new(budget_bytes: u64) -> CacheConfig {
        CacheConfig {
            budget_bytes,
            shards: Self::DEFAULT_SHARDS,
        }
    }

    /// An effectively unlimited cache (budget `u64::MAX`), matching the
    /// pre-cache behaviour of the unbounded engine maps.
    pub fn unbounded() -> CacheConfig {
        CacheConfig::new(u64::MAX)
    }
}

/// One cached document body plus the metadata the consistency
/// machinery (§4.5) needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedDoc {
    /// The (possibly regenerated) response body, shared zero-copy
    /// with every response that serves it.
    pub bytes: Body,
    /// MIME type the body should be served with.
    pub content_type: String,
    /// Document version this body was generated from or pulled at.
    pub version: u64,
    /// Engine time (ms) the copy was fetched or last revalidated;
    /// drives the T_val due-check.
    pub fetched_at: u64,
    /// Home-server modification time (engine ms) carried in the
    /// `Last-Modified` header; echoed back in `If-Modified-Since`.
    pub modified_ms: u64,
    /// Negative entry: the copy was revoked and must not be served
    /// normally, but its bytes are retained as crash insurance.
    pub negative: bool,
    /// Stale entry: the last T_val revalidation could not be completed
    /// (home unreachable), so freshness is no longer guaranteed. The
    /// copy keeps being served — counted as a stale serve — until a
    /// later revalidation succeeds and clears the flag.
    pub stale: bool,
}

impl CachedDoc {
    /// A positive entry with `modified_ms == fetched_at`.
    pub fn new(
        bytes: impl Into<Body>,
        content_type: impl Into<String>,
        version: u64,
        fetched_at: u64,
    ) -> CachedDoc {
        CachedDoc {
            bytes: bytes.into(),
            content_type: content_type.into(),
            version,
            fetched_at,
            modified_ms: fetched_at,
            negative: false,
            stale: false,
        }
    }

    /// Budget cost of this entry under `key`.
    fn cost(&self, key: &str) -> u64 {
        key.len() as u64 + self.bytes.len() as u64 + self.content_type.len() as u64 + ENTRY_OVERHEAD
    }
}

/// Metadata-only view of a cached entry, as returned by
/// [`DocCache::entries_meta`] for the T_val due-scan (no body clone).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryMeta {
    /// Document version of the cached copy.
    pub version: u64,
    /// Engine time (ms) the copy was fetched or last revalidated.
    pub fetched_at: u64,
    /// Home-server modification time (engine ms).
    pub modified_ms: u64,
    /// Whether the entry is negative (revoked).
    pub negative: bool,
    /// Whether the entry is stale (last revalidation failed).
    pub stale: bool,
    /// Body length in bytes.
    pub bytes: u64,
}

/// A record of one entry pushed out by LRU eviction, so callers can
/// emit observability events for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evicted {
    /// Key of the evicted entry.
    pub key: String,
    /// Body length of the evicted entry in bytes.
    pub bytes: u64,
}

/// Result of a [`DocCache::insert`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct InsertResult {
    /// Whether the entry is now resident. `false` means its cost
    /// exceeded the per-shard budget slice and it was rejected.
    pub stored: bool,
    /// Entries evicted to make room, in eviction order.
    pub evicted: Vec<Evicted>,
}

/// Monotonic operation counters shared by all shards.
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    negative_hits: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    oversize_rejects: AtomicU64,
    admission_rejects: AtomicU64,
    coalesced_waits: AtomicU64,
}

/// The sharded, byte-budgeted LRU document cache.
///
/// All methods take `&self`; each shard is guarded by its own mutex.
#[derive(Debug)]
pub struct DocCache {
    shards: Box<[Mutex<Shard>]>,
    mask: u64,
    budget_bytes: AtomicU64,
    /// Admission fraction as `f64` bits (see [`Self::set_admit_fraction`]).
    admit_fraction_bits: AtomicU64,
    counters: Counters,
}

impl DocCache {
    /// Build a cache with `cfg.shards` (rounded up to a power of two)
    /// shards sharing `cfg.budget_bytes`.
    pub fn new(cfg: CacheConfig) -> DocCache {
        let n = cfg.shards.max(1).next_power_of_two();
        let per_shard = cfg.budget_bytes / n as u64;
        let shards = (0..n)
            .map(|_| Mutex::new(Shard::new(per_shard)))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        DocCache {
            shards,
            mask: n as u64 - 1,
            budget_bytes: AtomicU64::new(cfg.budget_bytes),
            admit_fraction_bits: AtomicU64::new(1.0f64.to_bits()),
            counters: Counters::default(),
        }
    }

    /// The admission cap for one shard's `budget` slice under `fraction`.
    fn admit_limit(per_shard: u64, fraction: f64) -> u64 {
        if fraction >= 1.0 {
            per_shard
        } else {
            (per_shard as f64 * fraction) as u64
        }
    }

    /// Set the byte-budgeted admission rule: entries costing more than
    /// `fraction` of one shard's budget slice bypass the LRU entirely
    /// (rejected, counted as `admission_rejects`) instead of evicting
    /// the shard's working set — one Sequoia-class image can no longer
    /// flush a shard of LOD documents. `1.0` (the default) admits
    /// anything that fits a shard; values are clamped to `(0, 1]`.
    pub fn set_admit_fraction(&self, fraction: f64) {
        let fraction = if fraction.is_finite() && fraction > 0.0 {
            fraction.min(1.0)
        } else {
            1.0
        };
        self.admit_fraction_bits
            .store(fraction.to_bits(), Ordering::Relaxed);
        let per_shard = self.budget_bytes() / self.shards.len() as u64;
        let limit = Self::admit_limit(per_shard, fraction);
        for shard in self.shards.iter() {
            shard
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .set_admit_limit(limit);
        }
    }

    /// The configured admission fraction (see [`Self::set_admit_fraction`]).
    pub fn admit_fraction(&self) -> f64 {
        f64::from_bits(self.admit_fraction_bits.load(Ordering::Relaxed))
    }

    fn shard(&self, key: &str) -> std::sync::MutexGuard<'_, Shard> {
        // FNV-1a: the same cheap hash the engine already uses for
        // jitter, good enough to spread document names over shards.
        let i = (fnv1a(key.as_bytes()) & self.mask) as usize;
        self.shards[i].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Look up `key`, promoting it to most-recently-used. Counts a hit
    /// (or negative hit) or a miss. Returns a clone of the entry —
    /// including negative ones, so the caller can apply its own policy
    /// to revoked copies.
    pub fn get(&self, key: &str) -> Option<CachedDoc> {
        let hit = self.shard(key).get(key).cloned();
        match &hit {
            Some(doc) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                if doc.negative {
                    self.counters.negative_hits.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        hit
    }

    /// Look up `key` without touching LRU order or hit/miss counters.
    pub fn peek(&self, key: &str) -> Option<CachedDoc> {
        self.shard(key).peek(key).cloned()
    }

    /// Insert (or replace) `key`, evicting least-recently-used entries
    /// in its shard until the new entry fits. An entry whose cost
    /// exceeds the shard's budget slice is rejected (`stored: false`)
    /// and any stale entry under the same key is dropped.
    pub fn insert(&self, key: &str, doc: CachedDoc) -> InsertResult {
        let cost = doc.cost(key);
        let mut shard = self.shard(key);
        let over_budget = cost > shard.budget();
        let result = shard.insert(key, doc);
        drop(shard);
        if result.stored {
            self.counters.insertions.fetch_add(1, Ordering::Relaxed);
        } else if over_budget {
            self.counters
                .oversize_rejects
                .fetch_add(1, Ordering::Relaxed);
        } else {
            self.counters
                .admission_rejects
                .fetch_add(1, Ordering::Relaxed);
        }
        self.counters
            .evictions
            .fetch_add(result.evicted.len() as u64, Ordering::Relaxed);
        result
    }

    /// Drop `key`; returns `true` if it was resident. Not counted as
    /// an eviction (the caller chose to invalidate).
    pub fn remove(&self, key: &str) -> bool {
        self.shard(key).remove(key).is_some()
    }

    /// Refresh `fetched_at` on an existing entry (a 304-validated
    /// copy). Returns `false` if `key` is not resident.
    pub fn touch(&self, key: &str, fetched_at: u64) -> bool {
        self.shard(key)
            .with_entry(key, |doc| doc.fetched_at = fetched_at)
    }

    /// Flip the negative flag on an existing entry (revocation or
    /// resurrection). Returns `false` if `key` is not resident.
    pub fn set_negative(&self, key: &str, negative: bool) -> bool {
        self.shard(key)
            .with_entry(key, |doc| doc.negative = negative)
    }

    /// Flip the stale flag on an existing entry (failed or recovered
    /// revalidation). Returns `false` if `key` is not resident.
    pub fn set_stale(&self, key: &str, stale: bool) -> bool {
        self.shard(key).with_entry(key, |doc| doc.stale = stale)
    }

    /// Metadata snapshot of every resident entry (no body clones), for
    /// the T_val due-scan and status reporting.
    pub fn entries_meta(&self) -> Vec<(String, EntryMeta)> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            shard
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .collect_meta(&mut out);
        }
        out
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// `true` when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total cost of resident entries (bodies + keys + overhead).
    /// Never exceeds [`Self::budget_bytes`].
    pub fn bytes_resident(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).bytes())
            .sum()
    }

    /// The configured global byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes.load(Ordering::Relaxed)
    }

    /// Change the global budget, evicting down to the new per-shard
    /// slices; returns everything evicted. Lets a server size its
    /// cache after the corpus is published (e.g. corpus/4).
    pub fn set_budget(&self, budget_bytes: u64) -> Vec<Evicted> {
        self.budget_bytes.store(budget_bytes, Ordering::Relaxed);
        let per_shard = budget_bytes / self.shards.len() as u64;
        let limit = Self::admit_limit(per_shard, self.admit_fraction());
        let mut evicted = Vec::new();
        for shard in self.shards.iter() {
            let mut s = shard.lock().unwrap_or_else(|e| e.into_inner());
            s.set_budget(per_shard, &mut evicted);
            s.set_admit_limit(limit);
        }
        self.counters
            .evictions
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
        evicted
    }

    /// Record that a request waited on another request's in-flight
    /// pull instead of pulling itself (a follower parked in
    /// `dcws_core::Front`'s waiter table).
    pub fn record_coalesced_wait(&self) {
        self.counters
            .coalesced_waits
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time stats snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            negative_hits: self.counters.negative_hits.load(Ordering::Relaxed),
            insertions: self.counters.insertions.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            oversize_rejects: self.counters.oversize_rejects.load(Ordering::Relaxed),
            admission_rejects: self.counters.admission_rejects.load(Ordering::Relaxed),
            coalesced_waits: self.counters.coalesced_waits.load(Ordering::Relaxed),
            bytes_resident: self.bytes_resident(),
            entries: self.len() as u64,
            budget_bytes: self.budget_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(body: &str) -> CachedDoc {
        CachedDoc::new(body.as_bytes().to_vec(), "text/html", 1, 0)
    }

    #[test]
    fn insert_get_roundtrip_and_stats() {
        let c = DocCache::new(CacheConfig::unbounded());
        assert!(c.get("/a").is_none());
        let r = c.insert("/a", doc("hello"));
        assert!(r.stored && r.evicted.is_empty());
        let got = c.get("/a").unwrap();
        assert_eq!(got.bytes, b"hello");
        assert_eq!(got.content_type, "text/html");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert_eq!(s.entries, 1);
        assert!(s.bytes_resident > 5);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn replacement_updates_cost_without_eviction_count() {
        let c = DocCache::new(CacheConfig::unbounded());
        c.insert("/a", doc("short"));
        let before = c.bytes_resident();
        c.insert("/a", doc("a much longer body than before"));
        assert_eq!(c.len(), 1);
        assert!(c.bytes_resident() > before);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn lru_evicts_oldest_first_within_budget() {
        // One shard so the LRU order is global and deterministic.
        let c = DocCache::new(CacheConfig {
            budget_bytes: 3 * (ENTRY_OVERHEAD + 2 + 9 + 10),
            shards: 1,
        });
        let body = "123456789";
        for k in ["/a", "/b", "/c"] {
            assert!(c.insert(k, CachedDoc::new(body, "text/plain", 1, 0)).stored);
        }
        // Touch /a so /b is the LRU victim.
        assert!(c.get("/a").is_some());
        let r = c.insert("/d", CachedDoc::new(body, "text/plain", 1, 0));
        assert!(r.stored);
        assert_eq!(r.evicted.len(), 1);
        assert_eq!(r.evicted[0].key, "/b");
        assert!(c.peek("/a").is_some() && c.peek("/b").is_none());
        assert!(c.bytes_resident() <= c.budget_bytes());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn oversize_entry_rejected_and_stale_copy_dropped() {
        let c = DocCache::new(CacheConfig {
            budget_bytes: 256,
            shards: 1,
        });
        assert!(c.insert("/a", doc("tiny")).stored);
        let huge = "x".repeat(1024);
        let r = c.insert("/a", CachedDoc::new(huge, "text/plain", 2, 0));
        assert!(!r.stored);
        assert!(c.peek("/a").is_none(), "stale copy must not survive");
        assert_eq!(c.stats().oversize_rejects, 1);
        assert_eq!(c.bytes_resident(), 0);
    }

    #[test]
    fn admission_rule_bypasses_large_entries() {
        // Shard budget 4096; with a 0.25 admission fraction anything
        // costing more than 1024 bypasses the LRU.
        let c = DocCache::new(CacheConfig {
            budget_bytes: 4096,
            shards: 1,
        });
        c.set_admit_fraction(0.25);
        assert!((c.admit_fraction() - 0.25).abs() < 1e-12);
        // A working set of small entries...
        for i in 0..8 {
            assert!(c.insert(&format!("/s{i}"), doc("small")).stored);
        }
        let resident = c.len();
        // ...survives an entry that fits the budget but not the rule.
        let big = "x".repeat(2000);
        let r = c.insert("/big", CachedDoc::new(big, "image/gif", 1, 0));
        assert!(!r.stored);
        assert!(r.evicted.is_empty(), "bypass must not evict");
        assert_eq!(c.len(), resident);
        let s = c.stats();
        assert_eq!(s.admission_rejects, 1);
        assert_eq!(s.oversize_rejects, 0);
        // Truly over-budget entries still count as oversize.
        let huge = "x".repeat(8192);
        assert!(
            !c.insert("/huge", CachedDoc::new(huge, "image/gif", 1, 0))
                .stored
        );
        assert_eq!(c.stats().oversize_rejects, 1);
        // Restoring the default fraction admits the big entry again.
        c.set_admit_fraction(1.0);
        let big = "x".repeat(2000);
        assert!(
            c.insert("/big", CachedDoc::new(big, "image/gif", 1, 0))
                .stored
        );
    }

    #[test]
    fn admit_fraction_tracks_budget_changes() {
        let c = DocCache::new(CacheConfig {
            budget_bytes: 8192,
            shards: 1,
        });
        c.set_admit_fraction(0.5);
        // Fits under 0.5 * 8192.
        let body = "x".repeat(3000);
        assert!(
            c.insert("/a", CachedDoc::new(body, "text/plain", 1, 0))
                .stored
        );
        // After shrinking the budget the same entry no longer passes
        // the (recomputed) admission cap.
        c.set_budget(4096);
        let body = "x".repeat(3000);
        assert!(
            !c.insert("/b", CachedDoc::new(body, "text/plain", 1, 0))
                .stored
        );
        assert_eq!(c.stats().admission_rejects, 1);
    }

    #[test]
    fn negative_entries_survive_and_are_counted() {
        let c = DocCache::new(CacheConfig::unbounded());
        c.insert("/a", doc("stale"));
        assert!(c.set_negative("/a", true));
        let got = c.get("/a").unwrap();
        assert!(got.negative);
        assert_eq!(got.bytes, b"stale");
        let s = c.stats();
        assert_eq!((s.hits, s.negative_hits), (1, 1));
        assert!(c.set_negative("/a", false));
        assert!(!c.get("/a").unwrap().negative);
    }

    #[test]
    fn stale_flag_flips_without_cost_change() {
        let c = DocCache::new(CacheConfig::unbounded());
        c.insert("/a", doc("body"));
        assert!(!c.peek("/a").unwrap().stale);
        assert!(c.set_stale("/a", true));
        assert!(c.peek("/a").unwrap().stale);
        assert!(c.entries_meta()[0].1.stale);
        assert!(c.set_stale("/a", false));
        assert!(!c.peek("/a").unwrap().stale);
        assert!(!c.set_stale("/missing", true));
    }

    #[test]
    fn touch_updates_fetched_at() {
        let c = DocCache::new(CacheConfig::unbounded());
        c.insert("/a", doc("x"));
        assert!(c.touch("/a", 99));
        assert_eq!(c.peek("/a").unwrap().fetched_at, 99);
        assert!(!c.touch("/missing", 1));
    }

    #[test]
    fn set_budget_evicts_down() {
        let c = DocCache::new(CacheConfig {
            budget_bytes: u64::MAX,
            shards: 1,
        });
        for i in 0..10 {
            c.insert(&format!("/doc{i}"), doc(&"y".repeat(100)));
        }
        let evicted = c.set_budget(2 * (ENTRY_OVERHEAD + 6 + 100 + 9));
        assert!(!evicted.is_empty());
        assert!(c.bytes_resident() <= c.budget_bytes());
        assert_eq!(c.len(), 2);
        // Survivors are the most recently used (the last inserted).
        assert!(c.peek("/doc9").is_some() && c.peek("/doc8").is_some());
    }

    #[test]
    fn entries_meta_reports_without_bodies() {
        let c = DocCache::new(CacheConfig::unbounded());
        c.insert(
            "/a",
            CachedDoc {
                bytes: b"body".to_vec().into(),
                content_type: "text/html".into(),
                version: 7,
                fetched_at: 123,
                modified_ms: 100,
                negative: false,
                stale: false,
            },
        );
        let meta = c.entries_meta();
        assert_eq!(meta.len(), 1);
        let (key, m) = &meta[0];
        assert_eq!(key, "/a");
        assert_eq!((m.version, m.fetched_at, m.modified_ms), (7, 123, 100));
        assert_eq!(m.bytes, 4);
        assert!(!m.negative);
    }

    #[test]
    fn keys_spread_over_shards() {
        let c = DocCache::new(CacheConfig {
            budget_bytes: u64::MAX,
            shards: 8,
        });
        for i in 0..64 {
            c.insert(&format!("/doc{i}.html"), doc("z"));
        }
        assert_eq!(c.len(), 64);
        let occupied = c
            .shards
            .iter()
            .filter(|s| s.lock().unwrap().len() > 0)
            .count();
        assert!(occupied >= 4, "FNV should use most shards, got {occupied}");
    }
}
