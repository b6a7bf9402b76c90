//! The `X-DCWS-Load` piggyback extension header (§3.3).
//!
//! DCWS servers gossip their load by attaching extension headers to HTTP
//! transfers that are happening anyway (migration pulls, validations,
//! redirect chatter). Per RFC 2616 §7.1, unknown extension headers are
//! ignored by servers that don't understand them, so the mechanism is fully
//! compatible with stock HTTP software.
//!
//! A message may carry several `X-DCWS-Load` headers — the sender includes
//! its own fresh measurement plus its view of other servers, letting load
//! information propagate transitively through the server group.
//!
//! Wire format (one header per report):
//!
//! ```text
//! X-DCWS-Load: server=host:port; cps=123.4; bps=56789.0; ts=1234567
//! ```
//!
//! `ts` is the sender's measurement timestamp in milliseconds of the
//! cluster-wide clock; receivers keep the report with the largest `ts` per
//! server (best-effort, last-writer-wins).

use crate::error::{HttpError, Result};
use crate::headers::Headers;
use std::sync::Arc;

/// Header name used for piggybacked load reports.
pub const PIGGYBACK_HEADER: &str = "X-DCWS-Load";

/// One server's load measurement, as carried in an `X-DCWS-Load` header.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// The measured server's identity, `host:port`.
    pub server: String,
    /// Connections per second over the measurement window.
    pub cps: f64,
    /// Bytes per second over the measurement window.
    pub bps: f64,
    /// Measurement timestamp, milliseconds.
    pub ts_ms: u64,
}

impl LoadReport {
    /// Encode as the header value.
    pub fn encode(&self) -> String {
        Self::encode_fields(&self.server, self.cps, self.bps, self.ts_ms)
    }

    /// [`Self::encode`] for a caller that holds the fields apart (a load
    /// table row) and would otherwise copy the id into a `LoadReport`
    /// only to format it. The one place the wire text is produced.
    pub fn encode_fields(server: &str, cps: f64, bps: f64, ts_ms: u64) -> String {
        format!("server={server}; cps={cps:.3}; bps={bps:.3}; ts={ts_ms}")
    }

    /// The fields a value carries, read by slice — no float is parsed
    /// and nothing allocated — when the value has exactly the shape
    /// [`Self::encode`] emits: `(server, cps text, bps text, ts)`. `None`
    /// for anything else (reordered, repeated or unknown keys, other
    /// spacing, a `ts` that is not a `u64`).
    ///
    /// A receiver merges last-writer-wins on `(server, ts)`, so it can
    /// drop its own row, or one no newer than the row it holds, on this
    /// answer alone, and merge any other from these fields. Whenever this
    /// returns `Some((server, cps, bps, ts))`, [`Self::decode`] of the
    /// same value succeeds exactly when `cps.trim()` and `bps.trim()` both
    /// parse as finite, non-negative `f64`s, and then yields `server`,
    /// those two rates and `ts`.
    pub fn peek(value: &str) -> Option<(&str, &str, &str, u64)> {
        // `decode` splits on every `;`, so the canonical value is the one
        // with exactly three, each followed by the next key.
        let (server, rest) = field(value, "server=")?;
        let (cps, rest) = field(rest, " cps=")?;
        let (bps, rest) = field(rest, " bps=")?;
        let ts = rest.strip_prefix(" ts=")?;
        // An id `decode` would trim is not the id it would report.
        if server.len() != server.trim().len() {
            return None;
        }
        Some((server, cps, bps, ts.parse().ok()?))
    }

    /// Decode from a header value.
    pub fn decode(value: &str) -> Result<Self> {
        let mut server = None;
        let mut cps = None;
        let mut bps = None;
        let mut ts = None;
        for part in value.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| HttpError::BadPiggyback(value.to_string()))?;
            match k.trim() {
                "server" => server = Some(v.trim().to_string()),
                "cps" => {
                    cps = Some(
                        v.trim()
                            .parse::<f64>()
                            .map_err(|_| HttpError::BadPiggyback(value.to_string()))?,
                    )
                }
                "bps" => {
                    bps = Some(
                        v.trim()
                            .parse::<f64>()
                            .map_err(|_| HttpError::BadPiggyback(value.to_string()))?,
                    )
                }
                "ts" => {
                    ts = Some(
                        v.trim()
                            .parse::<u64>()
                            .map_err(|_| HttpError::BadPiggyback(value.to_string()))?,
                    )
                }
                // Forward compatibility: ignore unknown keys.
                _ => {}
            }
        }
        match (server, cps, bps, ts) {
            (Some(server), Some(cps), Some(bps), Some(ts_ms))
                if cps.is_finite() && bps.is_finite() && cps >= 0.0 && bps >= 0.0 =>
            {
                Ok(LoadReport {
                    server,
                    cps,
                    bps,
                    ts_ms,
                })
            }
            _ => Err(HttpError::BadPiggyback(value.to_string())),
        }
    }

    /// Attach this report to a header map.
    pub fn attach(&self, headers: &mut Headers) {
        headers
            .push(PIGGYBACK_HEADER, self.encode())
            .expect("encoded report is a valid header value");
    }

    /// Attach a value [`Self::encode`] produced earlier and kept shared
    /// (a load-table row's text): a refcount, nothing copied or
    /// formatted. The text is still checked for line breaks.
    pub fn attach_encoded(headers: &mut Headers, encoded: Arc<str>) {
        headers
            .push(PIGGYBACK_HEADER, encoded)
            .expect("encoded report is a valid header value");
    }

    /// Extract every well-formed report from a header map, silently
    /// skipping malformed ones (best-effort gossip must not fail a
    /// request).
    pub fn extract_all(headers: &Headers) -> Vec<LoadReport> {
        headers
            .get_all(PIGGYBACK_HEADER)
            .filter_map(|v| LoadReport::decode(v).ok())
            .collect()
    }
}

/// `rest` after `key`, split at its first `;`: the field's text, and
/// what follows the `;`.
fn field<'a>(rest: &'a str, key: &str) -> Option<(&'a str, &'a str)> {
    let rest = rest.strip_prefix(key)?;
    let end = rest.bytes().position(|b| b == b';')?;
    // `;` is ASCII, so both sides of it are character boundaries.
    Some((&rest[..end], &rest[end + 1..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LoadReport {
        LoadReport {
            server: "h1:8001".into(),
            cps: 123.456,
            bps: 9_876_543.25,
            ts_ms: 42_000,
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let r = sample();
        let d = LoadReport::decode(&r.encode()).unwrap();
        assert_eq!(d.server, r.server);
        assert!((d.cps - r.cps).abs() < 1e-3);
        assert!((d.bps - r.bps).abs() < 1e-3);
        assert_eq!(d.ts_ms, r.ts_ms);
    }

    #[test]
    fn decode_tolerates_whitespace_and_unknown_keys() {
        let d = LoadReport::decode(" server = h:1 ;  cps=1.0;bps=2.0; ts=3 ; future=xyz ").unwrap();
        assert_eq!(d.server, "h:1");
        assert_eq!(d.ts_ms, 3);
    }

    #[test]
    fn decode_rejects_missing_fields() {
        assert!(LoadReport::decode("server=h:1; cps=1.0; bps=2.0").is_err());
        assert!(LoadReport::decode("cps=1.0; bps=2.0; ts=1").is_err());
        assert!(LoadReport::decode("").is_err());
    }

    #[test]
    fn decode_rejects_non_numeric() {
        assert!(LoadReport::decode("server=h; cps=x; bps=2.0; ts=1").is_err());
        assert!(LoadReport::decode("server=h; cps=1; bps=2; ts=1.5").is_err());
    }

    #[test]
    fn decode_rejects_negative_or_nonfinite() {
        assert!(LoadReport::decode("server=h; cps=-1; bps=2; ts=1").is_err());
        assert!(LoadReport::decode("server=h; cps=NaN; bps=2; ts=1").is_err());
        assert!(LoadReport::decode("server=h; cps=inf; bps=2; ts=1").is_err());
    }

    #[test]
    fn attach_and_extract_multiple() {
        let mut h = Headers::new();
        let a = sample();
        let mut b = sample();
        b.server = "h2:8002".into();
        a.attach(&mut h);
        b.attach(&mut h);
        let out = LoadReport::extract_all(&h);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].server, "h1:8001");
        assert_eq!(out[1].server, "h2:8002");
    }

    #[test]
    fn extract_skips_malformed_entries() {
        let mut h = Headers::new();
        sample().attach(&mut h);
        h.insert(PIGGYBACK_HEADER, "garbage").unwrap();
        let out = LoadReport::extract_all(&h);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn encode_fields_is_encode() {
        let r = sample();
        assert_eq!(
            LoadReport::encode_fields(&r.server, r.cps, r.bps, r.ts_ms),
            r.encode()
        );
    }

    /// `peek`'s `(server, ts)`, the pair the early drop reads.
    fn peek_pair(value: &str) -> Option<(&str, u64)> {
        LoadReport::peek(value).map(|(server, _, _, ts)| (server, ts))
    }

    #[test]
    fn peek_reads_what_encode_wrote() {
        let r = sample();
        assert_eq!(peek_pair(&r.encode()), Some(("h1:8001", 42_000)));
        // Rates `decode` will refuse are not peek's business: the pair
        // is read, and the row dropped or handed to `decode` on it.
        let odd = LoadReport::encode_fields("h:1", f64::NAN, -1.0, u64::MAX);
        assert_eq!(peek_pair(&odd), Some(("h:1", u64::MAX)));
        assert_eq!(peek_pair("server=; cps=; bps=; ts=0"), Some(("", 0)));
        assert_eq!(
            peek_pair("server=a=b; cps=1; bps=2; ts=7"),
            Some(("a=b", 7))
        );
    }

    #[test]
    fn peek_hands_back_the_rates_as_written() {
        assert_eq!(
            LoadReport::peek(&sample().encode()),
            Some(("h1:8001", "123.456", "9876543.250", 42_000))
        );
        let odd = LoadReport::encode_fields("h:1", f64::NAN, -1.0, 7);
        assert_eq!(LoadReport::peek(&odd), Some(("h:1", "NaN", "-1.000", 7)));
        // Untrimmed, and unchecked: `decode`'s rules are the merge's.
        assert_eq!(
            LoadReport::peek("server=h; cps= 1 ; bps=x=y; ts=+5"),
            Some(("h", " 1 ", "x=y", 5))
        );
        assert_eq!(
            LoadReport::peek("server=h; cps=; bps=\u{a0}2; ts=5"),
            Some(("h", "", "\u{a0}2", 5))
        );
    }

    #[test]
    fn peek_declines_anything_but_the_canonical_shape() {
        for v in [
            "",
            "garbage",
            "server=h:1; cps=1.000; bps=2.000",
            "server=h:1; cps=1.000; bps=2.000; ts=",
            "server=h:1; cps=1.000; bps=2.000; ts=-5",
            "server=h:1; cps=1.000; bps=2.000; ts= 5",
            "server=h:1; cps=1.000; bps=2.000; ts=5 ",
            "server=h:1; cps=1.000; bps=2.000; ts=5;",
            "server=h:1; cps=1.000; bps=2.000; ts=18446744073709551616",
            "server=h:1; cps=1.000; bps=2.000; ts=5; future=x",
            "server=h:1; cps=1.000; bps=2.000; ts=5; ts=9",
            "server=h:1; server=h:2; cps=1.000; bps=2.000; ts=5",
            "server=h:1;cps=1.000;bps=2.000;ts=5",
            " server=h:1; cps=1.000; bps=2.000; ts=5",
            "server= h:1; cps=1.000; bps=2.000; ts=5",
            "server=h:1 ; cps=1.000; bps=2.000; ts=5",
            "server=h:1\u{a0}; cps=1.000; bps=2.000; ts=5",
            "server=h:1; bps=2.000; cps=1.000; ts=5",
            "ts=5; server=h:1; cps=1.000; bps=2.000",
            "Server=h:1; cps=1.000; bps=2.000; ts=5",
        ] {
            assert_eq!(LoadReport::peek(v), None, "{v:?}");
        }
    }

    #[test]
    fn attach_encoded_is_attach() {
        let (mut a, mut b) = (Headers::new(), Headers::new());
        sample().attach(&mut a);
        LoadReport::attach_encoded(&mut b, sample().encode().into());
        assert_eq!(a, b);
        // The name, kept by reference, behaves as an owned one does.
        let mut owned = Headers::new();
        owned.insert("X-DCWS-Load", sample().encode()).unwrap();
        assert_eq!(a, owned);
        assert_eq!(a.get("x-dcws-load"), Some(sample().encode().as_str()));
        let (mut wire, mut owned_wire) = (Vec::new(), Vec::new());
        a.write_to(&mut wire);
        owned.write_to(&mut owned_wire);
        assert_eq!(wire, owned_wire);
        assert_eq!(wire.len(), a.wire_len());
        assert_eq!(a.remove("X-DCWS-LOAD"), 1);
    }

    #[test]
    #[should_panic(expected = "valid header value")]
    fn attach_encoded_refuses_a_line_break() {
        LoadReport::attach_encoded(&mut Headers::new(), "server=h\r\nEvil: 1".into());
    }

    #[test]
    fn extract_from_empty_headers() {
        assert!(LoadReport::extract_all(&Headers::new()).is_empty());
    }
}
