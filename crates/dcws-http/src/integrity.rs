//! End-to-end body integrity for inter-server transfers.
//!
//! A lazy pull or push that loses its TCP connection mid-body is
//! detected by the framing layer (`Content-Length` short read), but a
//! body that arrives *garbled* — proxy damage, a fault injector, a
//! buggy peer — would otherwise parse cleanly and be installed as a
//! corrupt document copy. Inter-server responses therefore carry an
//! [`CHECKSUM_HEADER`] extension header holding an FNV-1a hash of the
//! body bytes; the receiving transport recomputes it and treats a
//! mismatch as a retryable I/O failure instead of storing the bytes.
//!
//! FNV-1a is not cryptographic — the threat model is accidental
//! corruption between cooperating servers, not an adversary — but it
//! is cheap, dependency-free, and already the hash idiom used across
//! the workspace (cache sharding, jitter).

/// Extension header carrying the FNV-1a hash of the message body,
/// as 16 lowercase hex digits.
pub const CHECKSUM_HEADER: &str = "X-DCWS-Body-FNV";

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Fold `bytes` into the running FNV-1a state `h`.
#[inline]
fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over `bytes` — the one copy of the workspace's hash idiom
/// (checksums, shard placement, PRNG stream seeds, jitter).
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_OFFSET_BASIS, bytes)
}

/// Incremental FNV-1a over a body that arrives in pieces.
///
/// Fold each chunk in with [`RollingChecksum::update`] as it comes off
/// the wire; [`RollingChecksum::digest`] after the last chunk equals
/// [`body_checksum`] over the concatenation. This is what lets a
/// chunked inter-server pull verify integrity without ever holding the
/// whole body just to hash it.
#[derive(Debug, Clone)]
pub struct RollingChecksum {
    h: u64,
}

impl RollingChecksum {
    /// Start a fresh hash (the FNV-1a offset basis).
    pub fn new() -> RollingChecksum {
        RollingChecksum {
            h: FNV_OFFSET_BASIS,
        }
    }

    /// Fold `chunk` into the running hash.
    pub fn update(&mut self, chunk: &[u8]) {
        self.h = fnv1a_fold(self.h, chunk);
    }

    /// The hash so far ([`fnv1a`] over everything folded in).
    pub fn value(&self) -> u64 {
        self.h
    }

    /// The digest so far, as 16 lowercase hex digits.
    pub fn digest(&self) -> String {
        format!("{:016x}", self.h)
    }

    /// Check the digest so far against a [`CHECKSUM_HEADER`] value
    /// (case-insensitive, whitespace-tolerant).
    pub fn matches(&self, header_value: &str) -> bool {
        header_value.trim().eq_ignore_ascii_case(&self.digest())
    }
}

impl Default for RollingChecksum {
    fn default() -> RollingChecksum {
        RollingChecksum::new()
    }
}

/// FNV-1a over `body`, rendered as 16 lowercase hex digits — the
/// value carried in [`CHECKSUM_HEADER`].
pub fn body_checksum(body: &[u8]) -> String {
    let mut sum = RollingChecksum::new();
    sum.update(body);
    sum.digest()
}

/// Check `body` against a checksum header value previously produced by
/// [`body_checksum`]. Comparison is case-insensitive on the hex digits.
pub fn checksum_matches(body: &[u8], header_value: &str) -> bool {
    header_value
        .trim()
        .eq_ignore_ascii_case(&body_checksum(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_16_hex_digits_and_deterministic() {
        let a = body_checksum(b"hello");
        assert_eq!(a.len(), 16);
        assert!(a.bytes().all(|b| b.is_ascii_hexdigit()));
        assert_eq!(a, body_checksum(b"hello"));
        assert_ne!(a, body_checksum(b"hellp"));
    }

    /// Known answers: every shard placement, stream seed and jitter in
    /// the workspace is derived from these values.
    #[test]
    fn fnv1a_known_answers() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn empty_body_has_a_checksum() {
        assert_eq!(body_checksum(b""), "cbf29ce484222325");
    }

    #[test]
    fn matches_ignores_case_and_whitespace() {
        let sum = body_checksum(b"doc");
        assert!(checksum_matches(b"doc", &sum));
        assert!(checksum_matches(
            b"doc",
            &format!(" {} ", sum.to_uppercase())
        ));
        assert!(!checksum_matches(b"dox", &sum));
        assert!(!checksum_matches(b"doc", "not-hex"));
    }

    #[test]
    fn rolling_checksum_matches_whole_body_hash() {
        let body = b"split across many chunk boundaries".to_vec();
        for cut in 0..=body.len() {
            let mut sum = RollingChecksum::new();
            sum.update(&body[..cut]);
            sum.update(&body[cut..]);
            assert_eq!(sum.digest(), body_checksum(&body), "cut={cut}");
            assert!(sum.matches(&body_checksum(&body)));
        }
        assert!(!RollingChecksum::new().matches(&body_checksum(&body)));
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let body = b"the quick brown fox".to_vec();
        let sum = body_checksum(&body);
        for i in 0..body.len() {
            let mut garbled = body.clone();
            garbled[i] ^= 0x01;
            assert!(!checksum_matches(&garbled, &sum), "flip at {i} undetected");
        }
    }
}
