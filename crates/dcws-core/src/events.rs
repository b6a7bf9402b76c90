//! Structured engine event log.
//!
//! [`EngineStats`](crate::EngineStats) tells you *how many* migrations,
//! revocations, or regenerations happened; it cannot tell you *which
//! document* moved, *which co-op* was chosen, or *what loads* drove the
//! Algorithm 1 decision. This module records those facts as
//! [`EngineEvent`]s in a bounded ring buffer ([`EventLog`]) inside the
//! engine, timestamped with the same injected milliseconds clock the
//! sans-IO engine already uses — so the log works identically under the
//! real TCP server and the discrete-event simulator.
//!
//! ```
//! use dcws_core::{EngineEvent, EventLog};
//! use dcws_graph::ServerId;
//!
//! let mut log = EventLog::new(2);
//! log.record(10, EngineEvent::DocRegenerated { doc: "a.html".into(), at_home: true });
//! log.record(20, EngineEvent::PeerDeclaredDead {
//!     peer: ServerId::new("b:80"),
//!     docs_recalled: 3,
//! });
//! log.record(30, EngineEvent::DocRegenerated { doc: "c.html".into(), at_home: false });
//! // Bounded: the oldest record fell off, sequence numbers keep counting.
//! assert_eq!(log.len(), 2);
//! assert_eq!(log.dropped(), 1);
//! assert_eq!(log.iter().next().unwrap().seq, 1);
//! ```

use crate::json::Json;
use dcws_graph::ServerId;
use std::collections::VecDeque;

/// Why a standing migration was revoked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RevokeReason {
    /// The co-op server stopped answering pings and was declared dead.
    DeadCoop,
    /// The document is being re-targeted to a better co-op (T_home).
    Remigration,
}

impl RevokeReason {
    /// Stable lowercase label used in JSON and CSV output.
    pub fn as_str(&self) -> &'static str {
        match self {
            RevokeReason::DeadCoop => "dead_coop",
            RevokeReason::Remigration => "remigration",
        }
    }
}

/// One notable thing the engine did, with the context that drove it.
///
/// Counters in [`EngineStats`](crate::EngineStats) answer "how many";
/// events answer "which, where, and why".
#[derive(Debug, Clone, PartialEq)]
pub enum EngineEvent {
    /// Algorithm 1 selected `doc` and migrated it to `coop`. The load
    /// figures are the GLT values (in the configured balance metric)
    /// that justified the move: ours versus the least-loaded peer's.
    MigrationStarted {
        /// Document that migrated.
        doc: String,
        /// Chosen co-op server.
        coop: ServerId,
        /// Our own load at decision time.
        self_load: f64,
        /// The chosen co-op's load at decision time.
        coop_load: f64,
    },
    /// A standing migration of `doc` to `coop` was revoked.
    MigrationRevoked {
        /// Document whose migration ended.
        doc: String,
        /// Co-op that had been serving it.
        coop: ServerId,
        /// Why it was revoked.
        reason: RevokeReason,
    },
    /// `doc` was re-targeted from one co-op to a better-loaded one
    /// after T_home elapsed.
    Remigrated {
        /// Document that moved again.
        doc: String,
        /// Previous co-op.
        from: ServerId,
        /// New co-op.
        to: ServerId,
        /// Previous co-op's load at decision time.
        from_load: f64,
        /// New co-op's load at decision time.
        to_load: f64,
    },
    /// The hot-spot extension registered an extra replica of `doc`.
    ReplicaCreated {
        /// Replicated document.
        doc: String,
        /// Co-op holding the new replica.
        coop: ServerId,
    },
    /// A dirty document was re-parsed and its hyperlinks rewritten.
    DocRegenerated {
        /// Regenerated document.
        doc: String,
        /// `true` when regenerated for home serving, `false` when
        /// regenerated to answer a co-op's pull.
        at_home: bool,
    },
    /// A peer failed `ping_failure_limit` consecutive pings; all
    /// documents migrated to it were recalled.
    PeerDeclaredDead {
        /// The dead peer.
        peer: ServerId,
        /// How many standing migrations were revoked as a result.
        docs_recalled: u64,
    },
    /// A previously-dead peer sent (or was reported with) a fresh GLT
    /// entry and is considered alive again.
    PeerResurrected {
        /// The peer that came back.
        peer: ServerId,
    },
    /// A co-op's validation request was answered with fresh content
    /// (the migrated copy had gone stale).
    ValidationRefreshed {
        /// Document whose migrated copy was refreshed.
        doc: String,
        /// The validating co-op, when the request identified itself.
        coop: Option<ServerId>,
    },
    /// A pull request was served, physically transferring `doc` to the
    /// co-op (lazy migration's data movement).
    PullServed {
        /// Document transferred.
        doc: String,
        /// Requesting co-op, when the request identified itself.
        coop: Option<ServerId>,
    },
    /// An entry of the store (`cache` `store` in the event's JSON) was
    /// pushed out by byte-budget pressure.
    CacheEvict {
        /// Store key of the evicted entry: a document path, or a co-op
        /// copy's `~migrate` path.
        key: String,
        /// Bytes the eviction freed: the entry's whole budget cost.
        bytes: u64,
    },
    /// A pull brought in a copy for the co-op role (lazy migration's
    /// receive side).
    CachePull {
        /// Original document path on the home server.
        doc: String,
        /// Home server the copy was pulled from.
        home: ServerId,
        /// Body bytes received.
        bytes: u64,
    },
    /// A T_val revalidation could not reach the home server after
    /// retries; the cached copy was marked stale and keeps serving.
    ValidationFailed {
        /// Document whose revalidation failed.
        doc: String,
        /// Unreachable home server.
        home: ServerId,
    },
    /// A lazy pull failed after retries; the request falls back to a
    /// stale retained copy or a 503 + Retry-After.
    PullFailed {
        /// Document whose pull failed.
        doc: String,
        /// Unreachable home server.
        home: ServerId,
    },
}

impl EngineEvent {
    /// Stable snake_case label for the event type, used as the JSON
    /// `"kind"` field and the CSV event column.
    pub fn kind(&self) -> &'static str {
        match self {
            EngineEvent::MigrationStarted { .. } => "migration_started",
            EngineEvent::MigrationRevoked { .. } => "migration_revoked",
            EngineEvent::Remigrated { .. } => "remigrated",
            EngineEvent::ReplicaCreated { .. } => "replica_created",
            EngineEvent::DocRegenerated { .. } => "doc_regenerated",
            EngineEvent::PeerDeclaredDead { .. } => "peer_declared_dead",
            EngineEvent::PeerResurrected { .. } => "peer_resurrected",
            EngineEvent::ValidationRefreshed { .. } => "validation_refreshed",
            EngineEvent::PullServed { .. } => "pull_served",
            EngineEvent::CacheEvict { .. } => "cache_evict",
            EngineEvent::CachePull { .. } => "cache_pull",
            EngineEvent::ValidationFailed { .. } => "validation_failed",
            EngineEvent::PullFailed { .. } => "pull_failed",
        }
    }

    /// One-line human-readable detail string (no commas, so it embeds
    /// cleanly in CSV).
    pub fn detail(&self) -> String {
        match self {
            EngineEvent::MigrationStarted {
                doc,
                coop,
                self_load,
                coop_load,
            } => format!(
                "{doc} -> {} (self {self_load:.3} vs coop {coop_load:.3})",
                coop.as_str()
            ),
            EngineEvent::MigrationRevoked { doc, coop, reason } => {
                format!("{doc} from {} ({})", coop.as_str(), reason.as_str())
            }
            EngineEvent::Remigrated {
                doc,
                from,
                to,
                from_load,
                to_load,
            } => format!(
                "{doc}: {} ({from_load:.3}) -> {} ({to_load:.3})",
                from.as_str(),
                to.as_str()
            ),
            EngineEvent::ReplicaCreated { doc, coop } => {
                format!("{doc} replicated to {}", coop.as_str())
            }
            EngineEvent::DocRegenerated { doc, at_home } => {
                format!("{doc} ({})", if *at_home { "home" } else { "pull" })
            }
            EngineEvent::PeerDeclaredDead {
                peer,
                docs_recalled,
            } => {
                format!("{} ({docs_recalled} docs recalled)", peer.as_str())
            }
            EngineEvent::PeerResurrected { peer } => peer.as_str().to_string(),
            EngineEvent::ValidationRefreshed { doc, coop } => match coop {
                Some(c) => format!("{doc} for {}", c.as_str()),
                None => doc.clone(),
            },
            EngineEvent::PullServed { doc, coop } => match coop {
                Some(c) => format!("{doc} to {}", c.as_str()),
                None => doc.clone(),
            },
            EngineEvent::CacheEvict { key, bytes } => {
                format!("{key} from store cache ({bytes}B)")
            }
            EngineEvent::CachePull { doc, home, bytes } => {
                format!("{doc} from {} ({bytes}B)", home.as_str())
            }
            EngineEvent::ValidationFailed { doc, home } => {
                format!("{doc} home {} unreachable (marked stale)", home.as_str())
            }
            EngineEvent::PullFailed { doc, home } => {
                format!("{doc} from {} unreachable", home.as_str())
            }
        }
    }

    /// Flat JSON object with a `"kind"` discriminator plus the
    /// variant's fields.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&str, Json)> = vec![("kind", Json::from(self.kind()))];
        match self {
            EngineEvent::MigrationStarted {
                doc,
                coop,
                self_load,
                coop_load,
            } => {
                pairs.push(("doc", Json::from(doc.as_str())));
                pairs.push(("coop", Json::from(coop.as_str())));
                pairs.push(("self_load", Json::from(*self_load)));
                pairs.push(("coop_load", Json::from(*coop_load)));
            }
            EngineEvent::MigrationRevoked { doc, coop, reason } => {
                pairs.push(("doc", Json::from(doc.as_str())));
                pairs.push(("coop", Json::from(coop.as_str())));
                pairs.push(("reason", Json::from(reason.as_str())));
            }
            EngineEvent::Remigrated {
                doc,
                from,
                to,
                from_load,
                to_load,
            } => {
                pairs.push(("doc", Json::from(doc.as_str())));
                pairs.push(("from", Json::from(from.as_str())));
                pairs.push(("to", Json::from(to.as_str())));
                pairs.push(("from_load", Json::from(*from_load)));
                pairs.push(("to_load", Json::from(*to_load)));
            }
            EngineEvent::ReplicaCreated { doc, coop } => {
                pairs.push(("doc", Json::from(doc.as_str())));
                pairs.push(("coop", Json::from(coop.as_str())));
            }
            EngineEvent::DocRegenerated { doc, at_home } => {
                pairs.push(("doc", Json::from(doc.as_str())));
                pairs.push(("at_home", Json::from(*at_home)));
            }
            EngineEvent::PeerDeclaredDead {
                peer,
                docs_recalled,
            } => {
                pairs.push(("peer", Json::from(peer.as_str())));
                pairs.push(("docs_recalled", Json::from(*docs_recalled)));
            }
            EngineEvent::PeerResurrected { peer } => {
                pairs.push(("peer", Json::from(peer.as_str())));
            }
            EngineEvent::ValidationRefreshed { doc, coop } => {
                pairs.push(("doc", Json::from(doc.as_str())));
                pairs.push((
                    "coop",
                    coop.as_ref().map_or(Json::Null, |c| Json::from(c.as_str())),
                ));
            }
            EngineEvent::PullServed { doc, coop } => {
                pairs.push(("doc", Json::from(doc.as_str())));
                pairs.push((
                    "coop",
                    coop.as_ref().map_or(Json::Null, |c| Json::from(c.as_str())),
                ));
            }
            EngineEvent::CacheEvict { key, bytes } => {
                pairs.push(("cache", Json::from("store")));
                pairs.push(("key", Json::from(key.as_str())));
                pairs.push(("bytes", Json::from(*bytes)));
            }
            EngineEvent::CachePull { doc, home, bytes } => {
                pairs.push(("doc", Json::from(doc.as_str())));
                pairs.push(("home", Json::from(home.as_str())));
                pairs.push(("bytes", Json::from(*bytes)));
            }
            EngineEvent::ValidationFailed { doc, home } | EngineEvent::PullFailed { doc, home } => {
                pairs.push(("doc", Json::from(doc.as_str())));
                pairs.push(("home", Json::from(home.as_str())));
            }
        }
        Json::obj(pairs)
    }
}

/// An [`EngineEvent`] stamped with its position in the stream and the
/// engine clock at emission.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Zero-based position in the event stream (monotonic, survives
    /// ring overflow — gaps never occur, but old records do drop).
    pub seq: u64,
    /// Engine clock (injected milliseconds) when the event fired.
    pub t_ms: u64,
    /// The event itself.
    pub event: EngineEvent,
}

impl EventRecord {
    /// JSON object: `{"seq": .., "t_ms": .., "kind": .., ...fields}`.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("seq".to_string(), Json::U64(self.seq)),
            ("t_ms".to_string(), Json::U64(self.t_ms)),
        ];
        if let Json::Obj(event_pairs) = self.event.to_json() {
            pairs.extend(event_pairs);
        }
        Json::Obj(pairs)
    }
}

/// Bounded ring buffer of [`EventRecord`]s.
///
/// Recording is O(1); when full, the oldest record is discarded and
/// counted in [`dropped`](EventLog::dropped). A capacity of zero
/// disables retention entirely (events are still counted, never
/// stored), which lets latency-critical deployments opt out.
#[derive(Debug, Clone)]
pub struct EventLog {
    buf: VecDeque<EventRecord>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

impl EventLog {
    /// Creates a log retaining at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        EventLog {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Appends an event at engine time `t_ms`, evicting the oldest
    /// record if the ring is full.
    pub fn record(&mut self, t_ms: u64, event: EngineEvent) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(EventRecord { seq, t_ms, event });
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The retention limit this log was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever recorded (including dropped ones).
    pub fn total_recorded(&self) -> u64 {
        self.next_seq
    }

    /// Events evicted (or never stored, for capacity 0).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates retained records oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &EventRecord> {
        self.buf.iter()
    }

    /// The most recent `n` records, oldest-first.
    pub fn recent(&self, n: usize) -> Vec<EventRecord> {
        let skip = self.buf.len().saturating_sub(n);
        self.buf.iter().skip(skip).cloned().collect()
    }

    /// Removes and returns all retained records, oldest-first. The
    /// sequence counter keeps running, so a consumer draining
    /// periodically sees a gapless `seq` stream (unless the ring
    /// overflowed between drains, visible via [`dropped`](EventLog::dropped)).
    pub fn drain(&mut self) -> Vec<EventRecord> {
        self.buf.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regen(doc: &str) -> EngineEvent {
        EngineEvent::DocRegenerated {
            doc: doc.to_string(),
            at_home: true,
        }
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        let mut log = EventLog::new(3);
        for i in 0..10 {
            log.record(i * 100, regen(&format!("d{i}")));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.total_recorded(), 10);
        assert_eq!(log.dropped(), 7);
        let seqs: Vec<u64> = log.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
        let times: Vec<u64> = log.iter().map(|r| r.t_ms).collect();
        assert_eq!(times, vec![700, 800, 900]);
    }

    #[test]
    fn drain_empties_but_seq_continues() {
        let mut log = EventLog::new(8);
        log.record(1, regen("a"));
        log.record(2, regen("b"));
        let first = log.drain();
        assert_eq!(first.len(), 2);
        assert!(log.is_empty());
        log.record(3, regen("c"));
        let second = log.drain();
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].seq, 2);
    }

    #[test]
    fn zero_capacity_counts_without_storing() {
        let mut log = EventLog::new(0);
        log.record(1, regen("a"));
        assert!(log.is_empty());
        assert_eq!(log.total_recorded(), 1);
        assert_eq!(log.dropped(), 1);
    }

    #[test]
    fn recent_returns_tail_oldest_first() {
        let mut log = EventLog::new(10);
        for i in 0..5 {
            log.record(i, regen(&format!("d{i}")));
        }
        let tail = log.recent(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].seq, 3);
        assert_eq!(tail[1].seq, 4);
        assert_eq!(log.recent(100).len(), 5);
    }

    #[test]
    fn event_json_has_kind_and_fields() {
        let ev = EngineEvent::MigrationStarted {
            doc: "hot.html".into(),
            coop: ServerId::new("coop:8081"),
            self_load: 12.0,
            coop_load: 3.0,
        };
        let rec = EventRecord {
            seq: 5,
            t_ms: 1234,
            event: ev,
        };
        let json = rec.to_json();
        assert_eq!(json.get("seq").and_then(|v| v.as_u64()), Some(5));
        assert_eq!(json.get("t_ms").and_then(|v| v.as_u64()), Some(1234));
        assert_eq!(
            json.get("kind").and_then(|v| v.as_str()),
            Some("migration_started")
        );
        assert_eq!(json.get("coop").and_then(|v| v.as_str()), Some("coop:8081"));
        assert_eq!(json.get("self_load").and_then(|v| v.as_f64()), Some(12.0));
        // Serializes to parseable JSON.
        assert!(crate::json::Json::parse(&json.to_string()).is_ok());
    }

    #[test]
    fn details_have_no_commas() {
        let events = [
            EngineEvent::MigrationStarted {
                doc: "a".into(),
                coop: ServerId::new("c:1"),
                self_load: 1.0,
                coop_load: 2.0,
            },
            EngineEvent::MigrationRevoked {
                doc: "a".into(),
                coop: ServerId::new("c:1"),
                reason: RevokeReason::DeadCoop,
            },
            EngineEvent::Remigrated {
                doc: "a".into(),
                from: ServerId::new("c:1"),
                to: ServerId::new("c:2"),
                from_load: 9.0,
                to_load: 1.0,
            },
            EngineEvent::PeerDeclaredDead {
                peer: ServerId::new("c:1"),
                docs_recalled: 2,
            },
            EngineEvent::ValidationRefreshed {
                doc: "a".into(),
                coop: None,
            },
            EngineEvent::PullServed {
                doc: "a".into(),
                coop: Some(ServerId::new("c:1")),
            },
            EngineEvent::CacheEvict {
                key: "/~migrate/h/1/a".into(),
                bytes: 100,
            },
            EngineEvent::CachePull {
                doc: "a".into(),
                home: ServerId::new("h:1"),
                bytes: 100,
            },
            EngineEvent::ValidationFailed {
                doc: "a".into(),
                home: ServerId::new("h:1"),
            },
            EngineEvent::PullFailed {
                doc: "a".into(),
                home: ServerId::new("h:1"),
            },
        ];
        for ev in &events {
            assert!(
                !ev.detail().contains(','),
                "detail embeds in CSV: {:?}",
                ev.detail()
            );
            assert!(!ev.kind().is_empty());
        }
    }
}
