//! The §3.4 naming convention for migrated documents.
//!
//! A document `http://h_name:h_port/dir1/.../foo.html` migrated to a co-op
//! server is addressed as
//!
//! ```text
//! http://c_name:c_port/~migrate/h_name/h_port/dir1/.../foo.html
//! ```
//!
//! so the co-op can recover the home server and original URL purely from
//! the request path — no out-of-band migration directory is needed, which
//! is what keeps lazy migration stateless until the first request arrives.

use dcws_graph::ServerId;
use dcws_http::{HttpError, Result, Url};
use std::fmt::Write;

/// First path component marking a migrated-document URL.
pub const MIGRATE_PREFIX: &str = "~migrate";

/// Build the absolute migrated-document URL for `doc_path` (home-relative,
/// starting with `/`) hosted for `home` on co-op `coop`.
pub fn migrate_url(coop: &ServerId, home: &ServerId, doc_path: &str) -> Result<Url> {
    if !doc_path.starts_with('/') {
        return Err(HttpError::BadUrl(doc_path.to_string()));
    }
    let (c_host, c_port) = coop.host_port();
    Url::absolute(c_host, c_port, migrate_path(home, doc_path))
}

/// The path of [`migrate_url`]: `/~migrate/h_name/h_port` + `doc_path`.
/// A co-op keeps its copy of the document under it — the canonical
/// spelling, whichever one a request used.
pub(crate) fn migrate_path(home: &ServerId, doc_path: &str) -> String {
    let (h_host, h_port) = home.host_port();
    // Sized up front (a port is at most five digits): one allocation.
    let mut path = String::with_capacity(MIGRATE_PREFIX.len() + h_host.len() + doc_path.len() + 8);
    write!(path, "/{MIGRATE_PREFIX}/{h_host}/{h_port}{doc_path}").expect("a String takes any text");
    path
}

/// Decoded form of a `~migrate` path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrateTarget {
    /// The home server the document originated from.
    pub home: ServerId,
    /// The original home-relative document path.
    pub path: String,
}

/// If `path` is a `~migrate` path, recover the home server and original
/// document path; `Ok(None)` for ordinary paths, `Err` for a malformed
/// `~migrate` path.
pub fn decode_migrate_path(path: &str) -> Result<Option<MigrateTarget>> {
    let Some(rest) = path
        .strip_prefix('/')
        .and_then(|p| p.strip_prefix(MIGRATE_PREFIX))
        .and_then(|p| p.strip_prefix('/'))
    else {
        return Ok(None);
    };
    // rest = "h_name/h_port/dir1/.../foo.html"
    let mut parts = rest.splitn(3, '/');
    let (host, port, doc) = match (parts.next(), parts.next(), parts.next()) {
        (Some(h), Some(p), Some(d)) if !h.is_empty() && !d.is_empty() => (h, p, d),
        _ => return Err(HttpError::BadUrl(path.to_string())),
    };
    let port: u16 = port
        .parse()
        .map_err(|_| HttpError::BadUrl(path.to_string()))?;
    Ok(Some(MigrateTarget {
        home: ServerId::new(format!("{host}:{port}")),
        path: format!("/{doc}"),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_matches_paper_form() {
        let u = migrate_url(
            &ServerId::new("c_name:8001"),
            &ServerId::new("h_name:80"),
            "/dir1/dir2/foo.html",
        )
        .unwrap();
        assert_eq!(
            u.to_string(),
            "http://c_name:8001/~migrate/h_name/80/dir1/dir2/foo.html"
        );
    }

    #[test]
    fn decode_recovers_original() {
        let t = decode_migrate_path("/~migrate/h_name/80/dir1/dir2/foo.html")
            .unwrap()
            .unwrap();
        assert_eq!(t.home, ServerId::new("h_name:80"));
        assert_eq!(t.path, "/dir1/dir2/foo.html");
    }

    #[test]
    fn round_trip() {
        let coop = ServerId::new("coop.example:9000");
        let home = ServerId::new("home.example:8080");
        for p in ["/x.html", "/a/b/c.html", "/buttons/next.gif"] {
            let u = migrate_url(&coop, &home, p).unwrap();
            let t = decode_migrate_path(u.path()).unwrap().unwrap();
            assert_eq!(t.home, home);
            assert_eq!(t.path, p);
        }
    }

    #[test]
    fn ordinary_paths_pass_through() {
        assert_eq!(decode_migrate_path("/index.html").unwrap(), None);
        assert_eq!(decode_migrate_path("/").unwrap(), None);
        assert_eq!(decode_migrate_path("/~migrateish/x").unwrap(), None);
    }

    #[test]
    fn malformed_migrate_paths_error() {
        assert!(decode_migrate_path("/~migrate/").is_err());
        assert!(decode_migrate_path("/~migrate/host").is_err());
        assert!(decode_migrate_path("/~migrate/host/80").is_err());
        assert!(decode_migrate_path("/~migrate/host/notaport/x.html").is_err());
        assert!(decode_migrate_path("/~migrate//80/x.html").is_err());
    }

    #[test]
    fn nested_migrate_does_not_confuse() {
        // A document whose path itself contains "~migrate" deeper down.
        let t = decode_migrate_path("/~migrate/h/80/~migrate/x.html")
            .unwrap()
            .unwrap();
        assert_eq!(t.path, "/~migrate/x.html");
    }

    #[test]
    fn relative_doc_path_rejected() {
        assert!(migrate_url(&ServerId::new("c:1"), &ServerId::new("h:1"), "x.html").is_err());
    }
}
