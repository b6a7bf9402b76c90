//! Per-component seeded PRNG streams.
//!
//! Every random consumer in the simulator — each Algorithm-2 client, each
//! scenario's load-shape draws, each fault schedule — owns its own RNG,
//! derived from the master seed through a *named, indexed* stream:
//! `stream(master, "client", 7)` is always the same generator, no matter
//! what else the run contains. Adding a scenario (or another thousand
//! clients) therefore never perturbs an existing component's draws, which
//! is what keeps A/B comparisons honest: the only differences between two
//! runs are the ones the configuration asked for.
//!
//! The derivation hashes `(domain, index)` into the master seed with FNV-1a
//! and finishes through two rounds of splitmix64, so adjacent indices and
//! similarly-named domains land far apart in seed space.

use dcws_http::fnv1a;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// splitmix64 finalizer — a cheap, well-dispersed 64-bit mix.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The derived seed for stream `(domain, index)` under `master`.
pub fn stream_seed(master: u64, domain: &str, index: u64) -> u64 {
    let d = fnv1a(domain.as_bytes());
    splitmix64(splitmix64(master ^ d).wrapping_add(index))
}

/// A deterministic RNG for component `(domain, index)` under `master`.
///
/// Streams are independent: draws from one never consume another's state.
pub fn stream(master: u64, domain: &str, index: u64) -> StdRng {
    StdRng::seed_from_u64(stream_seed(master, domain, index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_name_same_stream() {
        let mut ra = stream(42, "client", 3);
        let mut rb = stream(42, "client", 3);
        let a: Vec<u64> = (0..8).map(|_| ra.gen_range(0..u64::MAX)).collect();
        let b: Vec<u64> = (0..8).map(|_| rb.gen_range(0..u64::MAX)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn domains_and_indices_separate_streams() {
        let base = stream_seed(42, "client", 3);
        assert_ne!(base, stream_seed(42, "client", 4));
        assert_ne!(base, stream_seed(42, "scenario", 3));
        assert_ne!(base, stream_seed(43, "client", 3));
    }

    #[test]
    fn adjacent_indices_disperse() {
        // Not a statistical test — just guards against a derivation bug
        // that would map adjacent indices to adjacent (correlated) seeds.
        let s0 = stream_seed(7, "client", 0);
        let s1 = stream_seed(7, "client", 1);
        assert!(s0.abs_diff(s1) > 1 << 20);
    }
}
