//! A small URL type covering what DCWS needs.
//!
//! DCWS rewrites hyperlinks between absolute `http://host:port/path` forms
//! and server-relative `/path` forms, and encodes migrated-document origins
//! into the path per the §3.4 naming convention. This type supports exactly
//! that: `http` scheme, host, optional port, absolute path — no query
//! strings, fragments, userinfo, or percent-decoding beyond pass-through.

use crate::error::{HttpError, Result};
use std::borrow::Cow;

/// Default port for the `http` scheme.
pub const DEFAULT_HTTP_PORT: u16 = 80;

/// An absolute or server-relative HTTP URL.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Url {
    /// Host name or IP, `None` for a server-relative URL like `/a/b.html`.
    host: Option<String>,
    /// TCP port; only meaningful when `host` is set.
    port: u16,
    /// Absolute path, always beginning with `/`.
    path: String,
}

impl Url {
    /// Build an absolute URL.
    pub fn absolute(host: impl Into<String>, port: u16, path: impl Into<String>) -> Result<Self> {
        let path = normalize_path(path.into())?;
        let host = host.into();
        if host.is_empty() || host.contains('/') || host.contains(':') {
            return Err(HttpError::BadUrl(format!("bad host {host:?}")));
        }
        Ok(Url {
            host: Some(host),
            port,
            path,
        })
    }

    /// Build a server-relative URL (path only).
    pub fn relative(path: impl Into<String>) -> Result<Self> {
        Ok(Url {
            host: None,
            port: DEFAULT_HTTP_PORT,
            path: normalize_path(path.into())?,
        })
    }

    /// Parse either `http://host[:port]/path` or `/path`.
    pub fn parse(s: &str) -> Result<Self> {
        if let Some(rest) = s.strip_prefix("http://") {
            let (authority, path) = match rest.find('/') {
                Some(i) => (&rest[..i], &rest[i..]),
                None => (rest, "/"),
            };
            let (host, port) = match authority.rsplit_once(':') {
                Some((h, p)) => {
                    let port = p
                        .parse::<u16>()
                        .map_err(|_| HttpError::BadUrl(format!("bad port in {s:?}")))?;
                    (h, port)
                }
                None => (authority, DEFAULT_HTTP_PORT),
            };
            if host.is_empty() {
                return Err(HttpError::BadUrl(s.to_string()));
            }
            Url::absolute(host, port, path)
        } else if s.starts_with('/') {
            Url::relative(s)
        } else {
            Err(HttpError::BadUrl(s.to_string()))
        }
    }

    /// The path [`Url::parse`]`(target)` would yield, borrowed when the
    /// target is an origin-form path that needs no dot-normalization —
    /// the per-request case, which then costs no allocation.
    pub fn request_path(target: &str) -> Result<Cow<'_, str>> {
        if is_normal_path(target) {
            return Ok(Cow::Borrowed(target));
        }
        Url::parse(target).map(|u| Cow::Owned(u.path))
    }

    /// Host, if absolute.
    pub fn host(&self) -> Option<&str> {
        self.host.as_deref()
    }

    /// Port (meaningful only when [`Url::host`] is `Some`).
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The absolute path, always starting with `/`.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Whether this URL names a host.
    pub fn is_absolute(&self) -> bool {
        self.host.is_some()
    }

    /// `host:port` if absolute, suitable for a `Host` header.
    pub fn authority(&self) -> Option<String> {
        self.host.as_ref().map(|h| {
            if self.port == DEFAULT_HTTP_PORT {
                h.clone()
            } else {
                format!("{h}:{}", self.port)
            }
        })
    }

    /// Path segments, excluding empty leading segment.
    pub fn segments(&self) -> impl Iterator<Item = &str> {
        self.path.split('/').filter(|s| !s.is_empty())
    }

    /// Resolve `reference` against this URL as base (RFC 1808 subset):
    /// absolute URLs pass through, `/rooted` paths replace the base path,
    /// and relative paths are joined to the base's directory with `.`/`..`
    /// normalization.
    pub fn join(&self, reference: &str) -> Result<Url> {
        if reference.starts_with("http://") {
            return Url::parse(reference);
        }
        if reference.starts_with('/') {
            return Ok(Url {
                host: self.host.clone(),
                port: self.port,
                path: normalize_path(reference.to_string())?,
            });
        }
        // Relative to the base document's directory.
        let dir = match self.path.rfind('/') {
            Some(i) => &self.path[..=i],
            None => "/",
        };
        let joined = format!("{dir}{reference}");
        Ok(Url {
            host: self.host.clone(),
            port: self.port,
            path: normalize_path(joined)?,
        })
    }
}

/// Whether `path` is a valid absolute path with nothing to normalize.
fn is_normal_path(path: &str) -> bool {
    let b = path.as_bytes();
    b.first() == Some(&b'/')
        && !b.iter().any(|&c| matches!(c, b' ' | b'\r' | b'\n' | 0))
        && !b.windows(2).any(|w| w == b"/.")
}

/// Validate and dot-normalize an absolute path.
fn normalize_path(path: String) -> Result<String> {
    if is_normal_path(&path) {
        return Ok(path);
    }
    if !path.starts_with('/') {
        return Err(HttpError::BadUrl(format!(
            "path must start with '/': {path:?}"
        )));
    }
    if path
        .bytes()
        .any(|b| b == b' ' || b == b'\r' || b == b'\n' || b == 0)
    {
        return Err(HttpError::BadUrl(format!(
            "path contains whitespace: {path:?}"
        )));
    }
    let trailing_slash = path.ends_with('/') || path.ends_with("/.") || path.ends_with("/..");
    let mut out: Vec<&str> = Vec::new();
    for seg in path.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                // Popping past the root clamps at root, like browsers do.
                out.pop();
            }
            s => out.push(s),
        }
    }
    let mut p = String::with_capacity(path.len());
    for seg in &out {
        p.push('/');
        p.push_str(seg);
    }
    if p.is_empty() || trailing_slash {
        p.push('/');
    }
    Ok(p)
}

impl std::fmt::Display for Url {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.host {
            Some(h) => {
                if self.port == DEFAULT_HTTP_PORT {
                    write!(f, "http://{h}{}", self.path)
                } else {
                    write!(f, "http://{h}:{}{}", self.port, self.path)
                }
            }
            None => f.write_str(&self.path),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_absolute_with_port() {
        let u = Url::parse("http://coop1.example:8080/a/b.html").unwrap();
        assert_eq!(u.host(), Some("coop1.example"));
        assert_eq!(u.port(), 8080);
        assert_eq!(u.path(), "/a/b.html");
        assert!(u.is_absolute());
        assert_eq!(u.to_string(), "http://coop1.example:8080/a/b.html");
    }

    #[test]
    fn parse_absolute_default_port() {
        let u = Url::parse("http://www.example.com/index.html").unwrap();
        assert_eq!(u.port(), 80);
        assert_eq!(u.to_string(), "http://www.example.com/index.html");
        assert_eq!(u.authority().unwrap(), "www.example.com");
    }

    #[test]
    fn parse_host_only() {
        let u = Url::parse("http://example.com").unwrap();
        assert_eq!(u.path(), "/");
    }

    #[test]
    fn parse_relative() {
        let u = Url::parse("/docs/foo.html").unwrap();
        assert!(!u.is_absolute());
        assert_eq!(u.to_string(), "/docs/foo.html");
        assert_eq!(u.authority(), None);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Url::parse("ftp://x/").is_err());
        assert!(Url::parse("foo.html").is_err());
        assert!(Url::parse("http:///nohost").is_err());
        assert!(Url::parse("http://h:notaport/").is_err());
        assert!(Url::parse("/has space").is_err());
    }

    #[test]
    fn segments_iterate() {
        let u = Url::parse("/a/b/c.html").unwrap();
        assert_eq!(u.segments().collect::<Vec<_>>(), ["a", "b", "c.html"]);
    }

    #[test]
    fn join_absolute_reference() {
        let base = Url::parse("http://h/a/b.html").unwrap();
        let j = base.join("http://other/c.html").unwrap();
        assert_eq!(j.to_string(), "http://other/c.html");
    }

    #[test]
    fn join_rooted_reference() {
        let base = Url::parse("http://h:81/a/b.html").unwrap();
        let j = base.join("/img/x.gif").unwrap();
        assert_eq!(j.to_string(), "http://h:81/img/x.gif");
    }

    #[test]
    fn join_relative_reference() {
        let base = Url::parse("http://h/a/b/c.html").unwrap();
        assert_eq!(base.join("d.html").unwrap().path(), "/a/b/d.html");
        assert_eq!(base.join("../up.html").unwrap().path(), "/a/up.html");
        assert_eq!(base.join("./same.html").unwrap().path(), "/a/b/same.html");
        assert_eq!(base.join("x/y.html").unwrap().path(), "/a/b/x/y.html");
    }

    #[test]
    fn join_relative_on_relative_base() {
        let base = Url::parse("/a/b.html").unwrap();
        let j = base.join("c.html").unwrap();
        assert_eq!(j.to_string(), "/a/c.html");
    }

    #[test]
    fn dot_dot_clamps_at_root() {
        let base = Url::parse("/a.html").unwrap();
        let j = base.join("../../x.html").unwrap();
        assert_eq!(j.path(), "/x.html");
    }

    #[test]
    fn normalize_keeps_plain_paths_intact() {
        // Fast path must not mangle ordinary paths.
        let u = Url::parse("/a/b/c-d_e.f.html").unwrap();
        assert_eq!(u.path(), "/a/b/c-d_e.f.html");
    }

    #[test]
    fn request_path_matches_parse() {
        for t in [
            "/a/b.html",
            "/",
            "/a/./b",
            "/a/../b/",
            "/a/.hidden",
            "http://h:81/x/./y.html",
            "http://h",
            "/has space",
            "relative.html",
            "",
        ] {
            let want = Url::parse(t).map(|u| u.path().to_string());
            assert_eq!(Url::request_path(t).map(Cow::into_owned), want, "{t:?}");
        }
        assert!(matches!(
            Url::request_path("/a/b.html"),
            Ok(Cow::Borrowed("/a/b.html"))
        ));
    }

    #[test]
    fn trailing_slash_preserved() {
        let base = Url::parse("http://h/dir/sub/").unwrap();
        assert_eq!(base.path(), "/dir/sub/");
        assert_eq!(base.join("x.html").unwrap().path(), "/dir/sub/x.html");
    }
}
