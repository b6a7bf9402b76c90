//! HTTP request methods.

use crate::error::{HttpError, Result};

/// The subset of HTTP methods the DCWS prototype needs.
///
/// `GET` and `HEAD` carry the whole protocol in the paper: clients fetch
/// documents with `GET`, co-op servers validate migrated copies with
/// conditional `GET`s, and the pinger thread uses `HEAD` for its artificial
/// keep-alive transfers (§4.5). `POST` is accepted so CGI-style entry points
/// don't break the front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Retrieve a document.
    Get,
    /// Retrieve headers only — used by the pinger thread.
    Head,
    /// Submit an entity; accepted for completeness.
    Post,
}

impl Method {
    /// The wire token for this method.
    pub fn as_str(&self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Head => "HEAD",
            Method::Post => "POST",
        }
    }

    /// Parse a wire token (case-sensitive, per RFC 2616 §5.1.1).
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "GET" => Ok(Method::Get),
            "HEAD" => Ok(Method::Head),
            "POST" => Ok(Method::Post),
            other => Err(HttpError::BadMethod(other.to_string())),
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        for m in [Method::Get, Method::Head, Method::Post] {
            assert_eq!(Method::parse(m.as_str()).unwrap(), m);
        }
    }

    #[test]
    fn parse_is_case_sensitive() {
        assert!(Method::parse("get").is_err());
        assert!(Method::parse("Get").is_err());
    }

    #[test]
    fn unknown_method_rejected() {
        assert_eq!(
            Method::parse("BREW"),
            Err(HttpError::BadMethod("BREW".into()))
        );
    }
}
