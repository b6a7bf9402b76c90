//! Document-graph substrate for DCWS: the two key data structures of §3.3
//! and the migration-selection policy of §4.1.
//!
//! * [`ldg`] — the **Local Document Graph**: one tuple
//!   `(Name, Location, Size, Hits, LinkTo, LinkFrom, Dirty)` per document
//!   hosted by a server, hash-indexed by name because the tuple is touched
//!   on every request.
//! * [`glt`] — the **Global Load Table**: each server's best-effort local
//!   view of every cooperating server's load, merged last-writer-wins from
//!   piggybacked reports.
//! * [`metrics`] — sliding-window connections-per-second and
//!   bytes-per-second counters feeding the GLT (§5.3 discusses when each is
//!   the better balancing metric).
//! * [`select`] — **Algorithm 1**, the document-selection procedure, plus a
//!   naive hottest-first variant used as an ablation baseline.
//!
//! # Example
//!
//! ```
//! use dcws_graph::{LocalDocGraph, DocKind, Location, ServerId, select_for_migration};
//!
//! let mut ldg = LocalDocGraph::new();
//! ldg.insert_doc("/index.html", 2048, DocKind::Html, vec!["/d.html".into()], true);
//! ldg.insert_doc("/d.html", 4096, DocKind::Html, vec![], false);
//! ldg.record_hit("/d.html", 4096);
//! ldg.rotate_hits();
//!
//! // /index.html is an entry point, so Algorithm 1 must pick /d.html.
//! let pick = select_for_migration(&ldg, 1).unwrap();
//! assert_eq!(pick, "/d.html");
//!
//! let coop = ServerId::new("coop1:8001");
//! let dirtied = ldg.migrate("/d.html", coop.clone(), 0);
//! assert_eq!(dirtied, vec!["/index.html".to_string()]);
//! assert_eq!(ldg.get("/d.html").unwrap().location, Location::Coop(coop));
//! ```

#![warn(missing_docs)]

pub mod glt;
pub mod ldg;
pub mod metrics;
pub mod select;

pub use glt::{GlobalLoadTable, LoadInfo};
pub use ldg::{DocEntry, DocKind, DocName, LocalDocGraph, Location};
pub use metrics::{BalanceMetric, RateWindow};
pub use select::{select_for_migration, select_hottest};
use std::sync::Arc;

/// Identity of a cooperating server, conventionally `host:port`.
///
/// The text is refcounted: ids are copied into every GLT row, LDG
/// location, event record and peer map, and a clone is a counter bump,
/// never a string copy. Equality, ordering and hashing are the text's.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(Arc<str>);

impl ServerId {
    /// Wrap a `host:port` string.
    pub fn new(s: impl Into<String>) -> Self {
        ServerId(Arc::from(s.into()))
    }

    /// The `host:port` text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Split into host and port. Port defaults to 80 when absent or
    /// unparsable (best-effort, identities are operator-supplied).
    pub fn host_port(&self) -> (&str, u16) {
        match self.0.rsplit_once(':') {
            Some((h, p)) => (h, p.parse().unwrap_or(80)),
            None => (&self.0, 80),
        }
    }
}

impl std::fmt::Display for ServerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ServerId {
    fn from(s: &str) -> Self {
        ServerId(s.into())
    }
}

/// Maps and sets keyed by `ServerId` answer lookups by the id's text, so
/// a caller holding only a `&str` need not build a `ServerId` to ask.
/// (Sound because equality, ordering and hashing are the text's.)
impl std::borrow::Borrow<str> for ServerId {
    fn borrow(&self) -> &str {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_id_host_port() {
        assert_eq!(ServerId::new("h:8080").host_port(), ("h", 8080));
        assert_eq!(ServerId::new("h").host_port(), ("h", 80));
        assert_eq!(ServerId::new("h:bad").host_port(), ("h", 80));
        assert_eq!(ServerId::new("10.0.0.1:99").host_port(), ("10.0.0.1", 99));
    }

    #[test]
    fn server_id_display() {
        assert_eq!(ServerId::new("x:1").to_string(), "x:1");
    }
}
