//! Property test: the byte budget is a hard invariant. Across
//! arbitrary insert / get / touch / mark-stale / re-budget sequences,
//! `bytes_resident` never exceeds the configured budget.

use dcws_cache::{CacheConfig, CachedDoc, DocCache};
use proptest::prelude::*;

/// One cache operation, generated from a compact tuple encoding.
#[derive(Debug, Clone)]
enum Op {
    Insert { key: usize, size: usize },
    Get { key: usize },
    Touch { key: usize, at: u64 },
    SetStale { key: usize },
    SetBudget { bytes: u64 },
}

fn decode(op: (u8, usize, usize)) -> Op {
    let (kind, key, size) = op;
    match kind % 5 {
        0 => Op::Insert { key, size },
        1 => Op::Get { key },
        2 => Op::Touch {
            key,
            at: size as u64,
        },
        3 => Op::SetStale { key },
        _ => Op::SetBudget {
            bytes: (size as u64) * 8,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bytes_resident_never_exceeds_budget(
        budget in 0u64..8192,
        shards in 1usize..8,
        raw_ops in proptest::collection::vec(
            (0u8..5, 0usize..12, 0usize..2048), 1..120),
    ) {
        let cache = DocCache::new(CacheConfig { budget_bytes: budget, shards });
        let mut budget_now = budget;
        for raw in raw_ops {
            match decode(raw) {
                Op::Insert { key, size } => {
                    let doc = CachedDoc::new(
                        vec![0xAB; size], "application/octet-stream", 1, 0);
                    let r = cache.insert(&format!("/doc{key}.bin"), doc);
                    // Evictions must carry real keys.
                    for e in &r.evicted {
                        prop_assert!(e.key.starts_with("/doc"));
                    }
                }
                Op::Get { key } => { let _ = cache.get(&format!("/doc{key}.bin")); }
                Op::Touch { key, at } => { let _ = cache.touch(&format!("/doc{key}.bin"), at); }
                Op::SetStale { key } => {
                    let _ = cache.set_stale(&format!("/doc{key}.bin"), true);
                }
                Op::SetBudget { bytes } => {
                    budget_now = bytes;
                    let _ = cache.set_budget(bytes);
                }
            }
            // The invariant under test, checked after every single op.
            prop_assert!(
                cache.bytes_resident() <= budget_now,
                "resident {} exceeds budget {}",
                cache.bytes_resident(),
                budget_now,
            );
        }
        // Snapshot consistency at the end of the sequence.
        let stats = cache.stats();
        prop_assert_eq!(stats.bytes_resident, cache.bytes_resident());
        prop_assert_eq!(stats.entries as usize, cache.len());
        prop_assert!(stats.bytes_resident <= stats.budget_bytes);
    }
}
