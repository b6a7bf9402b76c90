//! The DCWS engine: the paper's primary contribution as a reusable,
//! transport-agnostic library.
//!
//! A [`ServerEngine`] implements everything §3–§4 of *"Scalable Web Server
//! Design for Distributed Data Management"* (Baker & Moon, 1998/ICDE 1999)
//! describes:
//!
//! * the **home-server** data plane — serving documents, lazily
//!   regenerating dirty ones with rewritten hyperlinks (§4.3), answering
//!   pulls and validations, and issuing `301` redirects for migrated
//!   documents (§4.4);
//! * the **co-op** data plane — serving `~migrate` URLs (§3.4), pulling
//!   content lazily on first request, one pull however many wait
//!   ([`Front`], §4.2), revalidating on the T_val timer and honoring
//!   revocations (§4.5);
//! * the **control plane** — windowed CPS/BPS measurement, gossip via
//!   piggybacked `X-DCWS-Load` headers (§3.3), the Algorithm 1 migration
//!   decision under the Table 1 rate limits, T_home re-migration, and the
//!   pinger/dead-peer protocol (§4.5);
//! * **observability** — monotonic counters ([`EngineStats`]) with derived
//!   rates, a bounded structured event log ([`events`]) recording *which*
//!   document moved *where* and *why*, and a JSON status snapshot
//!   ([`status`]) that transport hosts expose at `/dcws/status`.
//!
//! The engine is *sans-IO*: hosts pass the time (`now_ms`) to every call
//! that needs it and perform the network actions it returns. `dcws-net`
//! hosts it on real TCP threads; `dcws-sim` hosts it inside a
//! discrete-event cluster simulator — the same engine code runs in both,
//! which is what makes the simulated experiments faithful.
//!
//! # Quickstart
//!
//! ```
//! use dcws_core::{ServerEngine, ServerConfig, MemStore, Outcome};
//! use dcws_graph::{DocKind, ServerId};
//! use dcws_http::Request;
//!
//! let home_id = ServerId::new("home:8000");
//! let mut home = ServerEngine::new(home_id, ServerConfig::paper_defaults(),
//!                                  Box::new(MemStore::new()));
//! home.publish("/index.html",
//!              br#"<a href="/d.html">D</a>"#.to_vec(), DocKind::Html, true);
//! home.publish("/d.html", b"<p>doc D</p>".to_vec(), DocKind::Html, false);
//!
//! let out = home.handle_request(&Request::get("/d.html"), 0);
//! let resp = out.into_response().unwrap();
//! assert!(resp.status.is_success());
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod events;
pub mod front;
pub mod json;
pub mod naming;
pub mod readpath;
pub mod regen;
pub mod serve;
pub mod stats;
pub mod status;
pub mod store;
pub mod stream;

pub use config::{HotReplication, ServerConfig};
pub use engine::{ServerEngine, TickOutput};
pub use events::{EngineEvent, EventLog, EventRecord, RevokeReason};
pub use front::{
    unavailable, Call, Front, Outbound, PullFlights, Settled, Step, Waiter, RETRY_AFTER_SECS,
};
pub use json::{Json, JsonError};
pub use naming::{decode_migrate_path, migrate_url, MigrateTarget, MIGRATE_PREFIX};
pub use readpath::{CoopCopy, ReadPath, ReadPathStats, ServeTable, Served, StoreView};
pub use serve::Outcome;
pub use stats::EngineStats;
pub use status::{HotDoc, PeerSummary, STATUS_HOT_DOCS, STATUS_RECENT_EVENTS};
pub use store::{DiskStore, DocStore, MemStore};
pub use stream::DocReader;
