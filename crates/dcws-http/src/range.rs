//! `Range: bytes=` request handling (RFC 7233, single ranges).
//!
//! The streaming subsystem serves Sequoia-class objects (1–2.8 MB) in
//! chunks; clients resuming an interrupted transfer send a byte range.
//! DCWS supports exactly the subset a media-serving tier needs:
//!
//! * one `bytes=first-last`, `bytes=first-`, or `bytes=-suffix` spec,
//!   answered `206 Partial Content` with a `Content-Range` header;
//! * a range entirely past the entity's end, answered
//!   `416 Range Not Satisfiable` with `Content-Range: bytes */len`;
//! * anything else — multiple ranges, a malformed spec, a non-`bytes`
//!   unit — ignored, falling back to the full `200` (RFC 7233 §3.1
//!   allows a server to ignore the header entirely).
//!
//! Conditional requests win: [`apply_range`] only transforms a `200`,
//! so an `If-Modified-Since` hit that already produced a `304` passes
//! through untouched.

use crate::body::Body;
use crate::method::Method;
use crate::request::Request;
use crate::response::Response;
use crate::status::StatusCode;

/// The request header carrying a byte-range spec.
pub const RANGE_HEADER: &str = "Range";

/// One parsed `bytes=` range spec, before resolution against an
/// entity length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeSpec {
    /// `first-last` — both ends given, inclusive.
    Bounded(u64, u64),
    /// `first-` — from an offset to the end.
    From(u64),
    /// `-suffix` — the final `suffix` bytes.
    Suffix(u64),
}

/// A [`RangeSpec`] resolved against a concrete entity length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedRange {
    /// The half-open byte window `[start, end)` to serve as `206`.
    Slice {
        /// First byte offset (inclusive).
        start: u64,
        /// One past the last byte offset.
        end: u64,
    },
    /// No byte of the entity satisfies the spec — answer `416`.
    Unsatisfiable,
}

/// Parse a `Range` header value. `None` means the header should be
/// ignored (multi-range, malformed, or a non-`bytes` unit) and the
/// request served as a full `200`.
pub fn parse_range(value: &str) -> Option<RangeSpec> {
    let value = value.trim();
    let rest = value
        .get(..6)
        .filter(|p| p.eq_ignore_ascii_case("bytes="))
        .map(|_| &value[6..])?;
    // Multi-range responses (multipart/byteranges) are deliberately
    // unsupported; serve the whole entity instead.
    if rest.contains(',') {
        return None;
    }
    let rest = rest.trim();
    let dash = rest.find('-')?;
    let (first, last) = (rest[..dash].trim(), rest[dash + 1..].trim());
    match (first.is_empty(), last.is_empty()) {
        (true, true) => None,
        (true, false) => last.parse().ok().map(RangeSpec::Suffix),
        (false, true) => first.parse().ok().map(RangeSpec::From),
        (false, false) => {
            let (a, b): (u64, u64) = (first.parse().ok()?, last.parse().ok()?);
            if a > b {
                return None;
            }
            Some(RangeSpec::Bounded(a, b))
        }
    }
}

impl RangeSpec {
    /// Resolve against an entity of `total` bytes.
    pub fn resolve(&self, total: u64) -> ResolvedRange {
        match *self {
            RangeSpec::Bounded(first, last) if first < total => ResolvedRange::Slice {
                start: first,
                end: last.saturating_add(1).min(total),
            },
            RangeSpec::From(first) if first < total => ResolvedRange::Slice {
                start: first,
                end: total,
            },
            RangeSpec::Suffix(n) if n > 0 && total > 0 => ResolvedRange::Slice {
                start: total.saturating_sub(n),
                end: total,
            },
            _ => ResolvedRange::Unsatisfiable,
        }
    }
}

/// The `Content-Range` value for a satisfied slice.
pub fn content_range(start: u64, end: u64, total: u64) -> String {
    format!("bytes {}-{}/{}", start, end.saturating_sub(1), total)
}

/// The `Content-Range` value for a `416` (no satisfiable byte).
pub fn content_range_unsatisfied(total: u64) -> String {
    format!("bytes */{total}")
}

/// The byte window `req` asks for over an entity of `total` bytes, or
/// `None` when the request carries no (usable) range and should get the
/// full entity. Only `GET` requests carry ranges (RFC 7233 §3.1).
pub fn requested_range(req: &Request, total: u64) -> Option<ResolvedRange> {
    Some(range_spec(req.method, req.headers.get(RANGE_HEADER))?.resolve(total))
}

/// The usable range a request with this method and `Range` value asks
/// for — [`requested_range`] before the entity length is known, for
/// callers holding a borrowed head instead of a [`Request`].
pub fn range_spec(method: Method, range: Option<&str>) -> Option<RangeSpec> {
    if method != Method::Get {
        return None;
    }
    parse_range(range?)
}

/// Transform a buffered `200` into the ranged response `req` asked for:
/// a `206` with the body sliced and `Content-Range` set, a `416` with
/// `Content-Range: bytes */len` when nothing is satisfiable, or the
/// response unchanged when no usable range is present. Non-`200`
/// responses (304 conditional hits, redirects, errors) pass through
/// untouched, so `If-Modified-Since` always wins over `Range`.
pub fn apply_range(req: &Request, resp: Response) -> Response {
    apply_range_spec(range_spec(req.method, req.headers.get(RANGE_HEADER)), resp)
}

/// [`apply_range`] for an already extracted [`range_spec`].
pub fn apply_range_spec(spec: Option<RangeSpec>, mut resp: Response) -> Response {
    if resp.status != StatusCode::Ok {
        return resp;
    }
    let total = resp.body.len() as u64;
    match spec.map(|s| s.resolve(total)) {
        None => resp,
        Some(ResolvedRange::Unsatisfiable) => {
            resp.status = StatusCode::RangeNotSatisfiable;
            resp.body = Body::empty();
            resp.headers
                .set("Content-Length", "0")
                .expect("valid header");
            resp.headers
                .set("Content-Range", content_range_unsatisfied(total))
                .expect("valid header");
            resp
        }
        Some(ResolvedRange::Slice { start, end }) => {
            resp.status = StatusCode::PartialContent;
            resp.body = Body::from(&resp.body[start as usize..end as usize]);
            resp.headers
                .set("Content-Length", (end - start).to_string())
                .expect("valid header");
            resp.headers
                .set("Content-Range", content_range(start, end, total))
                .expect("valid header");
            resp
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_forms() {
        assert_eq!(parse_range("bytes=0-499"), Some(RangeSpec::Bounded(0, 499)));
        assert_eq!(parse_range("bytes=500-"), Some(RangeSpec::From(500)));
        assert_eq!(parse_range("bytes=-500"), Some(RangeSpec::Suffix(500)));
        assert_eq!(parse_range(" bytes = 0-1 "), None); // space before '='
        assert_eq!(parse_range("bytes=0 - 9"), Some(RangeSpec::Bounded(0, 9)));
    }

    #[test]
    fn parse_rejects_unusable() {
        assert_eq!(parse_range("bytes=0-1,5-9"), None); // multi-range
        assert_eq!(parse_range("bytes=9-1"), None); // inverted
        assert_eq!(parse_range("bytes=-"), None);
        assert_eq!(parse_range("bytes=abc-def"), None);
        assert_eq!(parse_range("items=0-5"), None); // non-bytes unit
        assert_eq!(parse_range("bytes=0"), None); // no dash
    }

    #[test]
    fn resolve_clamps_and_rejects() {
        let total = 100;
        assert_eq!(
            RangeSpec::Bounded(0, 49).resolve(total),
            ResolvedRange::Slice { start: 0, end: 50 }
        );
        // last beyond the end clamps to the entity.
        assert_eq!(
            RangeSpec::Bounded(90, 500).resolve(total),
            ResolvedRange::Slice {
                start: 90,
                end: 100
            }
        );
        assert_eq!(
            RangeSpec::From(99).resolve(total),
            ResolvedRange::Slice {
                start: 99,
                end: 100
            }
        );
        // suffix longer than the entity means the whole entity.
        assert_eq!(
            RangeSpec::Suffix(500).resolve(total),
            ResolvedRange::Slice { start: 0, end: 100 }
        );
        assert_eq!(
            RangeSpec::Bounded(100, 200).resolve(total),
            ResolvedRange::Unsatisfiable
        );
        assert_eq!(
            RangeSpec::From(100).resolve(total),
            ResolvedRange::Unsatisfiable
        );
        assert_eq!(
            RangeSpec::Suffix(0).resolve(total),
            ResolvedRange::Unsatisfiable
        );
        assert_eq!(
            RangeSpec::Suffix(5).resolve(0),
            ResolvedRange::Unsatisfiable
        );
    }

    #[test]
    fn apply_range_slices_200() {
        let req = Request::get("/big.bin").with_header("Range", "bytes=2-5");
        let resp = Response::ok(b"0123456789".to_vec(), "application/octet-stream")
            .with_header("Last-Modified", "Thu, 01 Jan 1970 00:00:00 GMT");
        let out = apply_range(&req, resp);
        assert_eq!(out.status, StatusCode::PartialContent);
        assert_eq!(&out.body[..], b"2345");
        assert_eq!(out.headers.get("Content-Range"), Some("bytes 2-5/10"));
        assert_eq!(out.headers.get("Content-Length"), Some("4"));
        // Entity headers survive the transformation.
        assert!(out.headers.get("Last-Modified").is_some());
        assert_eq!(
            out.headers.get("Content-Type"),
            Some("application/octet-stream")
        );
    }

    #[test]
    fn apply_range_416_names_entity_length() {
        let req = Request::get("/big.bin").with_header("Range", "bytes=10-20");
        let resp = Response::ok(b"0123456789".to_vec(), "text/plain");
        let out = apply_range(&req, resp);
        assert_eq!(out.status, StatusCode::RangeNotSatisfiable);
        assert_eq!(out.headers.get("Content-Range"), Some("bytes */10"));
        assert!(out.body.is_empty());
        assert_eq!(out.headers.get("Content-Length"), Some("0"));
    }

    #[test]
    fn apply_range_ignores_multi_and_non_200() {
        let req = Request::get("/x").with_header("Range", "bytes=0-1,3-4");
        let resp = Response::ok(b"0123456789".to_vec(), "text/plain");
        let out = apply_range(&req, resp);
        assert_eq!(out.status, StatusCode::Ok);
        assert_eq!(out.body.len(), 10);

        let req = Request::get("/x").with_header("Range", "bytes=0-1");
        let out = apply_range(&req, Response::not_modified());
        assert_eq!(out.status, StatusCode::NotModified);
    }
}
