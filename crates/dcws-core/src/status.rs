//! Engine introspection — the data behind the `/dcws/status` endpoint.
//!
//! [`ServerEngine::status_json`] renders everything an operator needs to
//! see what the control plane is doing: the full counter set, derived
//! rates, this server's view of the GLT (including dead-listed peers),
//! standing migrations with their replica sets, the hottest documents,
//! and the tail of the structured event log. The transport host
//! (`dcws-net`) wraps this object with its own section (latency
//! histograms, queue drops) to form the complete endpoint body.
//!
//! ```
//! use dcws_core::{MemStore, ServerConfig, ServerEngine};
//! use dcws_graph::{DocKind, ServerId};
//!
//! let mut engine = ServerEngine::new(
//!     ServerId::new("a:8080"),
//!     ServerConfig::paper_defaults(),
//!     Box::new(MemStore::new()),
//! );
//! engine.publish("/index.html", b"<p>hi</p>".to_vec(), DocKind::Html, true);
//! let status = engine.status_json();
//! assert_eq!(status.get("server").and_then(|v| v.as_str()), Some("a:8080"));
//! assert!(status.get("stats").is_some());
//! ```

use crate::engine::ServerEngine;
use crate::json::Json;
use dcws_cache::CacheStats;
use dcws_graph::{Location, ServerId};

/// Render one cache's stats snapshot as a JSON object.
fn cache_stats_json(s: &CacheStats) -> Json {
    Json::obj(vec![
        ("hits", Json::from(s.hits)),
        ("misses", Json::from(s.misses)),
        ("hit_ratio", Json::from(s.hit_ratio())),
        ("negative_hits", Json::from(s.negative_hits)),
        ("insertions", Json::from(s.insertions)),
        ("evictions", Json::from(s.evictions)),
        ("oversize_rejects", Json::from(s.oversize_rejects)),
        ("coalesced_waits", Json::from(s.coalesced_waits)),
        ("bytes_resident", Json::from(s.bytes_resident)),
        ("entries", Json::from(s.entries)),
        ("budget_bytes", Json::from(s.budget_bytes)),
    ])
}

/// How many recent event records `status_json` embeds.
pub const STATUS_RECENT_EVENTS: usize = 64;

/// How many hottest documents `status_json` lists.
pub const STATUS_HOT_DOCS: usize = 10;

/// One row of the hottest-documents summary.
#[derive(Debug, Clone, PartialEq)]
pub struct HotDoc {
    /// Document name.
    pub name: String,
    /// Hits in the last completed accounting window (what Algorithm 1
    /// compares against its threshold).
    pub hits_window: u64,
    /// Lifetime hits.
    pub hits_total: u64,
    /// Content size in bytes.
    pub size: u64,
    /// `None` when home-resident, the co-op's id when migrated.
    pub coop: Option<ServerId>,
}

/// One row of the per-peer summary.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerSummary {
    /// Peer identity.
    pub id: ServerId,
    /// Last reported connections/second.
    pub cps: f64,
    /// Last reported bytes/second.
    pub bps: f64,
    /// Timestamp of that report (engine ms).
    pub ts_ms: u64,
    /// Currently on the dead list (§4.5).
    pub dead: bool,
    /// Documents of ours this peer hosts as a co-op.
    pub docs_hosted: usize,
}

impl ServerEngine {
    /// The hottest `n` documents by last-window hits (ties broken by
    /// lifetime hits, then name for determinism).
    pub fn hot_docs(&self, n: usize) -> Vec<HotDoc> {
        let mut docs: Vec<HotDoc> = self
            .ldg
            .iter()
            .map(|e| HotDoc {
                name: e.name.clone(),
                hits_window: e.hits,
                hits_total: e.hits_total,
                size: e.size,
                coop: match &e.location {
                    Location::Home => None,
                    Location::Coop(c) => Some(c.clone()),
                },
            })
            .collect();
        docs.sort_by(|a, b| {
            b.hits_window
                .cmp(&a.hits_window)
                .then(b.hits_total.cmp(&a.hits_total))
                .then(a.name.cmp(&b.name))
        });
        docs.truncate(n);
        docs
    }

    /// Per-peer view: GLT load report, dead-list state, and how many of
    /// our documents each peer hosts as a co-op.
    pub fn peer_summaries(&self) -> Vec<PeerSummary> {
        // The GLT walks in id order, which is the order reported.
        self.glt
            .iter()
            .filter(|(sid, _)| **sid != self.id)
            .map(|(sid, info)| PeerSummary {
                dead: self.dead_peers.contains(sid),
                docs_hosted: self.ldg.migrated_to(sid).len(),
                cps: info.cps,
                bps: info.bps,
                ts_ms: info.ts_ms,
                id: sid.clone(),
            })
            .collect()
    }

    /// The engine section of the `/dcws/status` document. Pure
    /// inspection: takes `&self` and changes nothing.
    pub fn status_json(&self) -> Json {
        let stats = self.stats();
        let stats_json = Json::Obj(
            stats
                .fields()
                .iter()
                .map(|(name, value)| (name.to_string(), Json::U64(*value)))
                .collect(),
        );
        let rates = Json::obj(vec![
            ("success_ratio", Json::from(stats.success_ratio())),
            ("coop_serve_share", Json::from(stats.coop_serve_share())),
            ("redirect_ratio", Json::from(stats.redirect_ratio())),
            (
                "validation_hit_ratio",
                Json::from(stats.validation_hit_ratio()),
            ),
            ("mean_body_bytes", Json::from(stats.mean_body_bytes())),
        ]);

        let self_info = self.glt.self_info();
        let load = Json::obj(vec![
            ("cps", Json::from(self_info.cps)),
            ("bps", Json::from(self_info.bps)),
            ("ts_ms", Json::from(self_info.ts_ms)),
        ]);

        let glt = Json::Arr(
            self.peer_summaries()
                .into_iter()
                .map(|p| {
                    Json::obj(vec![
                        ("server", Json::from(p.id.as_str())),
                        ("cps", Json::from(p.cps)),
                        ("bps", Json::from(p.bps)),
                        ("ts_ms", Json::from(p.ts_ms)),
                        ("dead", Json::from(p.dead)),
                        ("docs_hosted", Json::from(p.docs_hosted)),
                    ])
                })
                .collect(),
        );

        let migrations = Json::Arr(
            self.ldg
                .all_migrated()
                .into_iter()
                .map(|(doc, coop)| {
                    let migrated_at = self.ldg.get(&doc).and_then(|e| e.migrated_at);
                    let replicas = self.replicas.get(&doc).map(|reps| {
                        Json::Arr(reps.iter().map(|r| Json::from(r.as_str())).collect())
                    });
                    Json::obj(vec![
                        ("doc", Json::from(doc.as_str())),
                        ("coop", Json::from(coop.as_str())),
                        ("migrated_at_ms", migrated_at.map_or(Json::Null, Json::U64)),
                        ("replicas", replicas.unwrap_or(Json::Null)),
                    ])
                })
                .collect(),
        );

        let hot = Json::Arr(
            self.hot_docs(STATUS_HOT_DOCS)
                .into_iter()
                .map(|d| {
                    Json::obj(vec![
                        ("doc", Json::from(d.name.as_str())),
                        ("hits_window", Json::from(d.hits_window)),
                        ("hits_total", Json::from(d.hits_total)),
                        ("size", Json::from(d.size)),
                        (
                            "coop",
                            d.coop
                                .as_ref()
                                .map_or(Json::Null, |c| Json::from(c.as_str())),
                        ),
                    ])
                })
                .collect(),
        );

        let coop_meta = self.coop_cache.entries_meta();
        let revoked_coop_docs = coop_meta.iter().filter(|(_, m)| m.negative).count();
        let coop_role = Json::obj(vec![
            ("docs_held", Json::from(coop_meta.len())),
            ("docs_revoked", Json::from(revoked_coop_docs)),
            ("moved_tombstones", Json::from(self.coop_moved.len())),
        ]);

        let regen_stats = self.regen_cache.stats();
        let coop_stats = self.coop_cache.stats();
        let merged = regen_stats.merged(&coop_stats);
        let pulled_sizes = Json::obj(vec![
            ("count", Json::from(self.pull_sizes.count())),
            ("sum_bytes", Json::from(self.pull_sizes.sum())),
            ("max_bytes", Json::from(self.pull_sizes.max())),
            ("mean_bytes", Json::from(self.pull_sizes.mean())),
            (
                "buckets",
                Json::Arr(
                    self.pull_sizes
                        .buckets()
                        .iter()
                        .map(|c| Json::from(*c))
                        .collect(),
                ),
            ),
        ]);
        let cache = Json::obj(vec![
            ("hit_ratio", Json::from(merged.hit_ratio())),
            ("bytes_resident", Json::from(merged.bytes_resident)),
            ("budget_bytes", Json::from(merged.budget_bytes)),
            ("evictions", Json::from(merged.evictions)),
            ("coalesced_waits", Json::from(merged.coalesced_waits)),
            ("oversize_rejects", Json::from(merged.oversize_rejects)),
            ("pending_serve", Json::from(self.pending_serve.len())),
            ("regen", cache_stats_json(&regen_stats)),
            ("coop", cache_stats_json(&coop_stats)),
            ("pulled_body_sizes", pulled_sizes),
        ]);

        let events = Json::obj(vec![
            ("total", Json::from(self.events.total_recorded())),
            ("dropped", Json::from(self.events.dropped())),
            ("capacity", Json::from(self.events.capacity())),
            (
                "recent",
                Json::Arr(
                    self.recent_events(STATUS_RECENT_EVENTS)
                        .iter()
                        .map(|r| r.to_json())
                        .collect(),
                ),
            ),
        ]);

        let r = self.read.snapshot();
        let read_path = Json::obj(vec![
            ("requests", Json::from(r.requests)),
            ("served_home", Json::from(r.served_home)),
            ("served_coop", Json::from(r.served_coop)),
            ("redirects", Json::from(r.redirects)),
            (
                "conditional_not_modified",
                Json::from(r.conditional_not_modified),
            ),
            ("bytes_sent", Json::from(r.bytes_sent)),
            ("streamed_serves", Json::from(r.streamed_serves)),
            ("stale_serves", Json::from(r.stale_serves)),
            ("fallbacks", Json::from(r.fallbacks)),
            ("shard_clears", Json::from(r.shard_clears)),
            ("reports_deferred", Json::from(r.reports_deferred)),
            ("reports_dropped", Json::from(r.reports_dropped)),
            ("table_entries", Json::from(r.table_entries)),
            ("table_bytes", Json::from(r.table_bytes)),
            ("stream_routes", Json::from(r.stream_routes)),
        ]);

        Json::obj(vec![
            ("server", Json::from(self.id.as_str())),
            ("now_ms", Json::from(self.now_ms)),
            ("docs_published", Json::from(self.ldg.len())),
            ("stats", stats_json),
            ("rates", rates),
            ("load", load),
            ("glt", glt),
            ("active_migrations", migrations),
            ("hot_docs", hot),
            ("coop_role", coop_role),
            ("cache", cache),
            ("read_path", read_path),
            ("events", events),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemStore, Outcome, ServerConfig};
    use dcws_graph::DocKind;
    use dcws_http::Request;

    fn engine(id: &str) -> ServerEngine {
        let cfg = ServerConfig {
            stat_interval_ms: 100,
            selection_threshold: 1,
            min_cps_to_migrate: 0.0,
            ..ServerConfig::paper_defaults()
        };
        ServerEngine::new(ServerId::new(id), cfg, Box::new(MemStore::new()))
    }

    #[test]
    fn status_contains_all_counters_and_sections() {
        let mut e = engine("home:8080");
        e.add_peer(ServerId::new("peer:8081"));
        e.publish(
            "/a.html",
            b"<a href=\"/b.html\">b</a>".to_vec(),
            DocKind::Html,
            true,
        );
        e.publish("/b.html", b"<p>b</p>".to_vec(), DocKind::Html, false);
        for t in 0..5 {
            let out = e.handle_request(&Request::get("/b.html"), t * 10);
            assert!(out.into_response().unwrap().status.is_success());
        }
        let status = e.status_json();
        // Every counter appears under "stats".
        let stats = status.get("stats").expect("stats section");
        for (name, value) in e.stats().fields() {
            assert_eq!(
                stats.get(name).and_then(|v| v.as_u64()),
                Some(value),
                "counter {name} missing or wrong in status"
            );
        }
        for section in [
            "rates",
            "load",
            "glt",
            "active_migrations",
            "hot_docs",
            "coop_role",
            "cache",
            "events",
        ] {
            assert!(status.get(section).is_some(), "missing section {section}");
        }
        // The acceptance keys of the cache section are present.
        let cache = status.get("cache").unwrap();
        for key in [
            "hit_ratio",
            "bytes_resident",
            "evictions",
            "coalesced_waits",
        ] {
            assert!(cache.get(key).is_some(), "missing cache.{key}");
        }
        for sub in ["regen", "coop"] {
            assert!(
                cache.get(sub).and_then(|s| s.get("hit_ratio")).is_some(),
                "missing cache.{sub}.hit_ratio"
            );
        }
        // Round-trips through the serializer and parser.
        let text = status.to_string();
        let back = Json::parse(&text).expect("status JSON parses");
        assert_eq!(
            back.get("server").and_then(|v| v.as_str()),
            Some("home:8080")
        );
    }

    #[test]
    fn hot_docs_sorted_and_truncated() {
        let mut e = engine("home:8080");
        for i in 0..15 {
            e.publish(
                &format!("/d{i}.html"),
                b"<p>x</p>".to_vec(),
                DocKind::Html,
                false,
            );
        }
        // d3 gets the most hits, then d7.
        for _ in 0..9 {
            e.handle_request(&Request::get("/d3.html"), 0);
        }
        for _ in 0..5 {
            e.handle_request(&Request::get("/d7.html"), 0);
        }
        // Hits promote into the window on rotation (via tick).
        e.tick(200);
        let hot = e.hot_docs(10);
        assert_eq!(hot.len(), 10);
        assert_eq!(hot[0].name, "/d3.html");
        assert_eq!(hot[0].hits_window, 9);
        assert_eq!(hot[1].name, "/d7.html");
        assert!(hot[0].coop.is_none());
    }

    #[test]
    fn peer_summary_tracks_migration_and_death() {
        let mut e = engine("home:8080");
        let peer = ServerId::new("peer:8081");
        e.add_peer(peer.clone());
        e.publish("/hot.html", b"<p>hot</p>".to_vec(), DocKind::Html, false);
        // Drive load so the migration gate opens, then tick to migrate.
        for t in 0..30 {
            e.handle_request(&Request::get("/hot.html"), t);
        }
        let out = e.tick(150);
        assert_eq!(out.migrated.len(), 1, "expected a migration");
        let peers = e.peer_summaries();
        assert_eq!(peers.len(), 1);
        assert_eq!(peers[0].id, peer);
        assert_eq!(peers[0].docs_hosted, 1);
        assert!(!peers[0].dead);
        // Events recorded the migration with its driving loads.
        let evs = e.recent_events(16);
        assert!(evs.iter().any(|r| r.event.kind() == "migration_started"));

        e.declare_peer_dead(&peer);
        let peers = e.peer_summaries();
        assert!(peers[0].dead);
        assert_eq!(peers[0].docs_hosted, 0, "docs recalled from dead peer");
        let evs = e.recent_events(16);
        assert!(evs.iter().any(|r| r.event.kind() == "peer_declared_dead"));
        assert!(evs.iter().any(|r| r.event.kind() == "migration_revoked"));
    }

    #[test]
    fn drain_events_empties_ring_but_status_counts_persist() {
        let mut e = engine("home:8080");
        e.publish(
            "/a.html",
            b"<a href=\"/b.html\">b</a>".to_vec(),
            DocKind::Html,
            true,
        );
        e.publish("/b.html", b"<p>b</p>".to_vec(), DocKind::Html, false);
        // First serve of /a.html regenerates (publish marks dirty via
        // link bookkeeping only when needed); force one by serving the
        // linking page after its target's location could have changed.
        match e.handle_request(&Request::get("/a.html"), 1) {
            Outcome::Response(r) => assert!(r.status.is_success()),
            Outcome::Stream { .. } => panic!("small HTML doc never streams"),
            Outcome::FetchNeeded { .. } => panic!("home doc needs no fetch"),
        }
        let drained = e.drain_events();
        let total = e.events().total_recorded();
        assert_eq!(total as usize, drained.len());
        assert!(e.events().is_empty());
        let status = e.status_json();
        let events = status.get("events").unwrap();
        assert_eq!(events.get("total").and_then(|v| v.as_u64()), Some(total));
        assert_eq!(
            events
                .get("recent")
                .and_then(|v| v.as_arr())
                .map(|a| a.len()),
            Some(0)
        );
    }
}
