//! HTTP/1.x protocol substrate for the DCWS system.
//!
//! The DCWS paper (Baker & Moon, ICDE 1999) relies on plain HTTP/1.x with
//! *extension headers* for inter-server gossip ("piggybacking" load
//! information, §3.3) and on `301 Moved Permanently` responses for requests
//! that arrive at a home server after the document migrated (§4.4), plus
//! graceful `503` drops when the socket queue overflows (§5.2).
//!
//! This crate implements just enough of HTTP/1.0 and HTTP/1.1, from scratch,
//! to serve those needs faithfully:
//!
//! * [`Request`] / [`Response`] message types with ordered,
//!   case-insensitive [`Headers`],
//! * an incremental, allocation-light [`parser`] that accepts byte chunks as
//!   they arrive from a socket,
//! * a serializer that produces wire-exact output,
//! * a [`Url`] type with the parsing rules the DCWS naming convention needs
//!   (§3.4),
//! * the [`piggyback`] codec for the `X-DCWS-Load` extension header.
//!
//! # Example
//!
//! ```
//! use dcws_http::{Request, Method, Response, StatusCode};
//!
//! let req = Request::get("/index.html").with_header("Host", "home.example:8080");
//! let wire = req.to_bytes();
//! let parsed = dcws_http::parse_request(&wire).unwrap().unwrap();
//! assert_eq!(parsed.message.method, Method::Get);
//!
//! let resp = Response::new(StatusCode::Ok).with_body(b"hello".to_vec(), "text/plain");
//! assert_eq!(resp.status, StatusCode::Ok);
//! ```

#![warn(missing_docs)]

pub mod body;
pub mod error;
pub mod headers;
pub mod integrity;
pub mod method;
pub mod parser;
pub mod piggyback;
pub mod range;
pub mod request;
pub mod reserved;
pub mod response;
pub mod source;
pub mod status;
pub mod url;

pub use body::Body;
pub use error::{HttpError, Result};
pub use headers::{http_date, parse_http_date, HeaderValue, Headers};
pub use integrity::{body_checksum, checksum_matches, fnv1a, RollingChecksum, CHECKSUM_HEADER};
pub use method::Method;
pub use parser::{
    parse_request, parse_response, parse_response_head, response_wire_len, Parsed, RequestHead,
    ResponseHead,
};
pub use piggyback::{LoadReport, PIGGYBACK_HEADER};
pub use range::{
    apply_range, apply_range_spec, content_range, content_range_unsatisfied, parse_range,
    range_spec, requested_range, RangeSpec, ResolvedRange, RANGE_HEADER,
};
pub use request::Request;
pub use reserved::{is_reserved_path, RESERVED_PREFIX, STATUS_PATH};
pub use response::Response;
pub use source::{BodySource, StreamBody, STREAM_CHUNK};
pub use status::StatusCode;
pub use url::Url;

/// The HTTP version spoken by a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Version {
    /// HTTP/1.0 — one request per connection.
    Http10,
    /// HTTP/1.1 — persistent connections by default.
    #[default]
    Http11,
}

impl Version {
    /// The wire form, e.g. `HTTP/1.1`.
    pub fn as_str(&self) -> &'static str {
        match self {
            Version::Http10 => "HTTP/1.0",
            Version::Http11 => "HTTP/1.1",
        }
    }

    /// Parse the wire form.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "HTTP/1.0" => Ok(Version::Http10),
            "HTTP/1.1" => Ok(Version::Http11),
            other => Err(HttpError::BadVersion(other.to_string())),
        }
    }
}

impl std::fmt::Display for Version {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_round_trip() {
        for v in [Version::Http10, Version::Http11] {
            assert_eq!(Version::parse(v.as_str()).unwrap(), v);
        }
    }

    #[test]
    fn version_rejects_garbage() {
        assert!(Version::parse("HTTP/2.0").is_err());
        assert!(Version::parse("").is_err());
        assert!(Version::parse("http/1.1").is_err());
    }

    #[test]
    fn version_default_is_11() {
        assert_eq!(Version::default(), Version::Http11);
    }

    #[test]
    fn version_display_matches_as_str() {
        assert_eq!(Version::Http10.to_string(), "HTTP/1.0");
        assert_eq!(Version::Http11.to_string(), "HTTP/1.1");
    }
}
