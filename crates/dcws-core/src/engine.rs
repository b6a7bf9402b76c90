//! The DCWS server engine — state and control plane.
//!
//! [`ServerEngine`] is *sans-IO*: it never touches sockets or the system
//! clock. A host (the TCP server in `dcws-net`, or the
//! discrete-event simulator in `dcws-sim`) feeds it parsed requests and
//! timestamps, sends the calls it emits ([`TickOutput`]), hands each reply
//! to [`Front::answered`](crate::Front::answered), and ships its
//! responses. This one engine plays both roles of the paper's fully
//! symmetric design: *home server* for the documents it was given via
//! [`ServerEngine::publish`], and *co-op server* for documents other homes
//! migrate to it.

use crate::config::ServerConfig;
use crate::events::{EngineEvent, EventLog, EventRecord, RevokeReason};
use crate::front::{Call, Outbound};
use crate::naming::{decode_migrate_path, migrate_url, MigrateTarget};
use crate::readpath::{ReadPath, Role, StoreView};
use crate::stats::EngineStats;
use crate::store::DocStore;
use dcws_cache::{Evicted, SizeHistogram};
use dcws_graph::{
    select_for_migration, DocKind, GlobalLoadTable, LoadInfo, LocalDocGraph, Location, RateWindow,
    ServerId,
};
use dcws_http::{
    fnv1a, http_date, Body, HeaderValue, Headers, LoadReport, Request, PIGGYBACK_HEADER,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Key for a co-op-held document: `(home server, original path)`.
pub(crate) type CoopKey = (ServerId, String);

/// Overload test: migrate when our metric exceeds the least-loaded
/// peer's by this ratio.
const OVERLOAD_RATIO: f64 = 1.5;

/// Structured engine events retained in the in-memory ring buffer (see
/// `dcws_core::events`); older ones are counted, not kept.
const EVENT_LOG_CAPACITY: usize = 512;

/// When a home document last changed (engine ms), with the
/// `Last-Modified` text of that time — formatted once, when the time is
/// set, so a serve copies it instead of redoing the calendar arithmetic.
#[derive(Debug, Clone)]
pub(crate) struct Modified {
    pub(crate) ms: u64,
    pub(crate) http_date: Arc<str>,
}

impl Modified {
    pub(crate) fn at(ms: u64) -> Modified {
        Modified {
            ms,
            http_date: http_date(ms).into(),
        }
    }
}

/// Network actions the host must perform after a [`ServerEngine::tick`].
#[derive(Debug, Default)]
pub struct TickOutput {
    /// Documents logically migrated this tick: `(doc, co-op)`.
    pub migrated: Vec<(String, ServerId)>,
    /// Migrations revoked this tick: `(doc, former co-op)`.
    pub revoked: Vec<(String, ServerId)>,
    /// Calls to send, in this order: pinger transfers and co-op
    /// validations (§4.5), then eager-migration pushes (ablation).
    pub calls: Vec<Outbound>,
}

impl TickOutput {
    /// Whether the tick produced no work for the host.
    pub fn is_empty(&self) -> bool {
        self.migrated.is_empty() && self.revoked.is_empty() && self.calls.is_empty()
    }
}

/// The DCWS engine for one server.
pub struct ServerEngine {
    pub(crate) id: ServerId,
    pub(crate) cfg: ServerConfig,
    pub(crate) ldg: LocalDocGraph,
    pub(crate) glt: GlobalLoadTable,
    /// Permanent original copies of home documents (§3.2). Regeneration
    /// always starts from these, so link rewrites never compound.
    pub(crate) originals: Box<dyn DocStore>,
    /// Content version per home document; bumped on publish/regenerate.
    pub(crate) versions: HashMap<String, u64>,
    /// Last-Modified time per home document, carried on the wire as an
    /// RFC 1123 `Last-Modified` header.
    pub(crate) modified: HashMap<String, Modified>,
    /// Home documents whose current served form has rewritten links: an
    /// evicted body must be regenerated, while a never-dirtied document
    /// serves its pristine original without touching the cache.
    pub(crate) rewritten: HashSet<String>,
    /// Sizes of bodies received by this server's co-op role pulls.
    pub(crate) pull_sizes: SizeHistogram,
    /// Moved tombstones: a pull was answered with a redirect, so requests
    /// for this key 301 straight to the current location until the
    /// tombstone expires (T_val) and we re-check with the home.
    pub(crate) coop_moved: HashMap<CoopKey, (dcws_http::Url, u64)>,
    /// Hot-replication extension: extra co-ops per migrated document.
    pub(crate) replicas: HashMap<String, Vec<ServerId>>,
    pub(crate) window: RateWindow,
    last_stat_ms: u64,
    last_migration_ms: u64,
    coop_last_migration: HashMap<ServerId, u64>,
    last_ping_ms: HashMap<ServerId, u64>,
    ping_failures: HashMap<ServerId, u32>,
    pub(crate) dead_peers: HashSet<ServerId>,
    /// The concurrent read-mostly serve path: primed/invalidated by this
    /// engine under its exclusive lock, read by transport workers without
    /// it. Its mailboxes are drained every [`tick`](Self::tick).
    pub(crate) read: Arc<ReadPath>,
    pub(crate) stats: EngineStats,
    pub(crate) events: EventLog,
    /// Last timestamp injected via [`handle_request`](crate::serve) or
    /// [`tick`](Self::tick); stamps event records emitted from paths that
    /// carry no explicit time parameter.
    pub(crate) now_ms: u64,
}

impl ServerEngine {
    /// Create an engine for server `id` with the given configuration and
    /// original-document store (usually empty; fill via [`Self::publish`]).
    pub fn new(id: ServerId, cfg: ServerConfig, originals: Box<dyn DocStore>) -> Self {
        let window_ms = cfg.stat_interval_ms.max(1_000);
        let read = Arc::new(ReadPath::new(id.clone(), cfg.cache_budget_bytes));
        ServerEngine {
            glt: GlobalLoadTable::new(id.clone()),
            id,
            ldg: LocalDocGraph::new(),
            originals,
            versions: HashMap::new(),
            modified: HashMap::new(),
            rewritten: HashSet::new(),
            read,
            pull_sizes: SizeHistogram::new(),
            coop_moved: HashMap::new(),
            replicas: HashMap::new(),
            window: RateWindow::new(window_ms, 10),
            last_stat_ms: 0,
            last_migration_ms: 0,
            coop_last_migration: HashMap::new(),
            last_ping_ms: HashMap::new(),
            ping_failures: HashMap::new(),
            dead_peers: HashSet::new(),
            stats: EngineStats::default(),
            events: EventLog::new(EVENT_LOG_CAPACITY),
            now_ms: 0,
            cfg,
        }
    }

    /// This server's identity.
    pub fn id(&self) -> &ServerId {
        &self.id
    }

    /// The configuration in force.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Counter snapshot: the exclusive path's counters folded together
    /// with the read path's, so totals stay whole no matter which path
    /// served a request.
    pub fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        let r = self.read.snapshot();
        s.requests += r.requests;
        s.served_home += r.served_home;
        s.served_coop += r.served_coop;
        s.redirects += r.redirects;
        s.conditional_not_modified += r.conditional_not_modified;
        s.bytes_sent += r.bytes_sent;
        s.streamed_serves += r.streamed_serves;
        s.stale_serves += r.stale_serves;
        s
    }

    /// Documents regenerated so far (§4.3): `stats().regenerations`
    /// without the snapshot — only the exclusive path regenerates, so
    /// there is no read-path share to fold in. The simulator reads this
    /// around every request it services to charge regeneration CPU.
    pub fn regenerations(&self) -> u64 {
        self.stats.regenerations
    }

    /// The shared read-mostly serve path. Transport hosts clone the `Arc`
    /// and call [`ReadPath::serve`] before taking the engine lock.
    pub fn read_path(&self) -> &Arc<ReadPath> {
        &self.read
    }

    /// Read access to the structured event log (see [`EventLog`]).
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Removes and returns all retained event records, oldest-first.
    /// Harnesses that archive the full causal trace (e.g. the simulator)
    /// call this periodically; `seq` numbers keep running across drains.
    pub fn drain_events(&mut self) -> Vec<EventRecord> {
        self.events.drain()
    }

    /// The most recent `n` event records, oldest-first, without
    /// disturbing the ring (used by the `/dcws/status` endpoint).
    pub fn recent_events(&self, n: usize) -> Vec<EventRecord> {
        self.events.recent(n)
    }

    /// Record an event at the engine's current injected time.
    pub(crate) fn emit(&mut self, event: EngineEvent) {
        self.events.record(self.now_ms, event);
    }

    /// Read access to the local document graph.
    pub fn ldg(&self) -> &LocalDocGraph {
        &self.ldg
    }

    /// Read access to the global load table.
    pub fn glt(&self) -> &GlobalLoadTable {
        &self.glt
    }

    /// Number of documents currently held in the co-op role (including
    /// revoked copies retained as crash insurance).
    pub fn coop_doc_count(&self) -> usize {
        self.read.table.view(Role::Coop).stats().entries as usize
    }

    /// The home role's share of the store ([`ReadPath::table`]): routes
    /// and regenerated bodies, under the name the benchmark reads.
    pub fn regen_cache(&self) -> StoreView<'_> {
        self.read.table.view(Role::Home)
    }

    /// The co-op role's share of the store: the copies held, under the
    /// name the benchmark reads.
    pub fn coop_cache(&self) -> StoreView<'_> {
        self.read.table.view(Role::Coop)
    }

    /// Total bytes of permanent original documents (the corpus size),
    /// as reported by the backing store.
    pub fn corpus_bytes(&self) -> u64 {
        self.originals.total_bytes()
    }

    /// Re-budget the store to `total` bytes and evict down to it. Lets a
    /// server pick its budget after the corpus is published (e.g.
    /// corpus/4).
    pub fn set_cache_budget(&mut self, total: u64) {
        self.cfg.cache_budget_bytes = total;
        let evicted = self.read.table.set_budget(total);
        self.note_evictions(evicted);
    }

    /// Record an eviction event for every entry the store pushed out.
    pub(crate) fn note_evictions(&mut self, evicted: Vec<Evicted>) {
        for e in evicted {
            self.emit(EngineEvent::CacheEvict {
                key: e.key,
                bytes: e.bytes,
            });
        }
    }

    /// Last-Modified time (engine ms) of home document `name`; zero for
    /// documents never published here.
    pub fn doc_modified_ms(&self, name: &str) -> u64 {
        self.modified.get(name).map_or(0, |m| m.ms)
    }

    /// [`Self::doc_modified_ms`] together with its `Last-Modified` text.
    pub(crate) fn doc_modified(&self, name: &str) -> Modified {
        self.modified
            .get(name)
            .cloned()
            .unwrap_or_else(|| Modified::at(0))
    }

    /// Register a peer server in the group (static membership, as in the
    /// paper's experiments).
    pub fn add_peer(&mut self, peer: ServerId) {
        if peer != self.id {
            self.glt.add_peer(peer);
        }
    }

    /// Publish a document on this (home) server: store the permanent
    /// original, parse hyperlinks if HTML, and insert the LDG tuple. This
    /// is the "scanning its disk and parsing the documents" initialization
    /// of §3.3, and also the author-update path (§4.5 case 1):
    /// republishing bumps the content version so co-op validation picks up
    /// the change.
    pub fn publish(&mut self, name: &str, bytes: Vec<u8>, kind: DocKind, entry_point: bool) {
        let link_to = if kind == DocKind::Html {
            self.extract_site_links(name, &bytes)
        } else {
            Vec::new()
        };
        let size = bytes.len() as u64;
        if self.originals.put(name, bytes).is_err() {
            // The permanent original could not be stored durably (§3.2's
            // robustness copy). Serving continues from caches; the counter
            // makes the loss visible instead of silent.
            self.stats.store_put_failures += 1;
        }
        self.read.table.drop_entry(name);
        // The fresh original is the current form again (until a
        // migration dirties it); its change time is now.
        self.rewritten.remove(name);
        self.modified
            .insert(name.to_string(), Modified::at(self.now_ms));
        *self.versions.entry(name.to_string()).or_insert(0) += 1;
        let was_migrated = self
            .ldg
            .get(name)
            .map(|e| e.location.clone())
            .filter(|l| !l.is_home());
        self.ldg.insert_doc(name, size, kind, link_to, entry_point);
        // Republishing a migrated document: restore its migrated location;
        // the version bump makes the co-op refresh at next validation.
        if let Some(loc) = was_migrated {
            if let Some(e) = self.ldg.get_mut(name) {
                e.location = loc;
            }
        }
    }

    /// Resolve a document's outgoing references to site-local paths.
    fn extract_site_links(&self, name: &str, bytes: &[u8]) -> Vec<String> {
        let html = String::from_utf8_lossy(bytes);
        let base = match dcws_http::Url::relative(name) {
            Ok(u) => u,
            Err(_) => return Vec::new(),
        };
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        for l in dcws_html::extract_links(&html) {
            let Ok(u) = base.join(&l.url) else { continue };
            // Absolute links to other hosts are external; absolute links to
            // ourselves collapse to their path.
            if let Some(host) = u.host() {
                let target = ServerId::new(format!("{host}:{}", u.port()));
                if target != self.id {
                    continue;
                }
            }
            let p = u.path().to_string();
            if p != name && seen.insert(p.clone()) {
                out.push(p);
            }
        }
        out
    }

    /// Ingest piggybacked load reports from any received message (§3.3).
    /// Hearing from a dead-listed peer resurrects it.
    ///
    /// Most rows of most messages say nothing new — they are this
    /// server's own row, or no newer than the one the table holds — and
    /// the merge would discard them after parsing. They are discarded
    /// before it instead, on the `(server, ts)` read off the value by
    /// slice; only a row that would change the table, or one not in the
    /// canonical form, is decoded.
    pub fn ingest_reports(&mut self, headers: &Headers) {
        for value in headers.get_all(PIGGYBACK_HEADER) {
            if let Some((server, ts_ms)) = LoadReport::peek(value) {
                if server == self.id.as_str() || !self.glt.would_accept(server, ts_ms) {
                    self.stats.reports_skipped += 1;
                    continue;
                }
            }
            // Malformed reports are skipped: best-effort gossip must not
            // fail a request.
            if let Ok(r) = LoadReport::decode(value) {
                self.ingest_report(&r);
            }
        }
    }

    /// Merge one decoded load report into the GLT.
    pub fn ingest_report(&mut self, r: &LoadReport) {
        if r.server == self.id.as_str() {
            return;
        }
        let sid = ServerId::from(r.server.as_str());
        if self.glt.update(
            sid.clone(),
            LoadInfo {
                cps: r.cps,
                bps: r.bps,
                ts_ms: r.ts_ms,
            },
        ) {
            self.stats.reports_merged += 1;
            if self.dead_peers.remove(&sid) {
                self.emit(EngineEvent::PeerResurrected { peer: sid.clone() });
            }
            self.ping_failures.remove(&sid);
        }
    }

    /// Attach up to `piggyback_max` load reports (own entry first) to an
    /// outgoing inter-server message: the own row's fresh text, then each
    /// peer row's cached text by refcount.
    pub fn attach_reports(&mut self, headers: &mut Headers, now_ms: u64) {
        headers.reserve(self.cfg.piggyback_max.min(self.glt.len()));
        let (own, peers) = self.reports(now_ms);
        headers
            .push(PIGGYBACK_HEADER, own)
            .expect("encoded report is a valid header value");
        for row in peers {
            LoadReport::attach_encoded(headers, row.clone());
        }
    }

    /// The load reports an outgoing message carries at `now_ms`, as
    /// `X-DCWS-Load` values: own entry first, freshly measured (its `ts`
    /// is `now_ms`, so it is encoded every time), then other GLT rows
    /// **in id order** until there are `piggyback_max` in all. A peer's
    /// row is encoded by the first message sent after it last changed and
    /// shared by every later one (the table keeps the text beside the row
    /// and drops it on every write), and the walk stops at
    /// `piggyback_max`, so the cost grows with neither the group nor the
    /// message rate. (Id order, not freshness — unchanged here: in a
    /// group larger than `piggyback_max` the same lowest ids are gossiped
    /// every time — see "freshness-ordered piggyback" in
    /// docs/SIMULATION.md.)
    fn reports(&mut self, now_ms: u64) -> (String, impl Iterator<Item = &Arc<str>> + '_) {
        let (cps, bps) = self.window.rates(now_ms);
        self.glt.set_self(cps, bps, now_ms);
        let encoded = &mut self.stats.reports_encoded;
        *encoded += 1;
        let own = LoadReport::encode_fields(self.id.as_str(), cps, bps, now_ms);
        let peers = self
            .glt
            .encoded_peers(move |sid, info| {
                *encoded += 1;
                LoadReport::encode_fields(sid.as_str(), info.cps, info.bps, info.ts_ms).into()
            })
            .take(self.cfg.piggyback_max.saturating_sub(1));
        (own, peers)
    }

    /// Periodic control-plane work. Call at least every few hundred
    /// simulated/real milliseconds; internal timers gate the actual work.
    pub fn tick(&mut self, now_ms: u64) -> TickOutput {
        self.now_ms = self.now_ms.max(now_ms);
        // Fold in everything the read path did since the last tick —
        // traffic into the rate window, hits into the LDG — *before* the
        // statistics branch below reads either.
        self.drain_read_path(now_ms);
        let mut out = TickOutput::default();
        // Statistics recalculation + migration, every T_st.
        if now_ms.saturating_sub(self.last_stat_ms) >= self.cfg.stat_interval_ms {
            self.last_stat_ms = now_ms;
            self.ldg.rotate_hits();
            let (cps, bps) = self.window.rates(now_ms);
            self.glt.set_self(cps, bps, now_ms);
            self.consider_remigration(now_ms, &mut out);
            self.consider_migration(now_ms, &mut out);
        }
        // The pushes a migration queued go out after the pings and
        // validations.
        let pushes = std::mem::take(&mut out.calls);
        // Pinger: artificial transfers toward stale peers, every T_pi.
        // Only the peers actually due are copied out of the table (a
        // refcount each); an idle tick walks it and allocates nothing.
        let interval = self.cfg.pinger_interval_ms;
        let due: Vec<ServerId> = self
            .glt
            .stale(now_ms, interval)
            .filter(|&peer| {
                let last = self.last_ping_ms.get(peer).copied().unwrap_or(0);
                !self.dead_peers.contains(peer) && now_ms.saturating_sub(last) >= interval
            })
            .cloned()
            .collect();
        for peer in due {
            self.last_ping_ms.insert(peer.clone(), now_ms);
            self.stats.pings_sent += 1;
            let mut req = Request::head("/").with_header("X-DCWS-Ping", "1");
            self.attach_reports(&mut req.headers, now_ms);
            out.calls.push(Outbound {
                peer,
                call: Call::Ping,
                req,
            });
        }
        // Co-op validation: re-request copies older than T_val, in the
        // store's key order.
        let interval = self.cfg.validation_interval_ms;
        let due = (self.read.table)
            .copies_where(|c| !c.negative && now_ms.saturating_sub(c.fetched_at) >= interval);
        for (key, copy) in due {
            let Ok(Some(MigrateTarget { home, path })) = decode_migrate_path(&key) else {
                continue;
            };
            // Re-arm so the request isn't re-emitted every tick while the
            // response is in flight; a lost response retries next T_val.
            // A per-document jitter de-synchronizes the re-arm: without
            // it, every copy validated in the same tick stays in lockstep
            // forever, and the periodic wave of validations can swamp the
            // home server's socket queue.
            let jitter = fnv1a(path.as_bytes()) % (interval / 4).max(1);
            let rearmed = now_ms.saturating_sub(jitter);
            self.read.table.with_copy(&key, |c| c.fetched_at = rearmed);
            let mut req = Request::get(path.as_str())
                .with_header("X-DCWS-Validate", HeaderValue::decimal(copy.version))
                .with_header("X-DCWS-Coop", self.id.to_string())
                .with_header("If-Modified-Since", copy.modified.http_date);
            self.attach_reports(&mut req.headers, now_ms);
            out.calls.push(Outbound {
                peer: home,
                call: Call::Validate { path },
                req,
            });
        }
        out.calls.extend(pushes);
        out
    }

    /// Fold the connections and bytes the read path served since the last
    /// fold into the CPS/BPS rate window at `now_ms` — which is also the
    /// engine's time from here on, as if the serves had gone through
    /// [`handle_request`](Self::handle_request). A host that answers on the
    /// read path and wants every load report stamped exactly as the
    /// exclusive path would have stamped it (the simulator) calls this at
    /// each serve's own time; TCP front ends leave it to [`Self::tick`].
    pub fn fold_read_traffic(&mut self, now_ms: u64) {
        self.now_ms = self.now_ms.max(now_ms);
        let (conns, bytes) = self.read.take_traffic();
        if conns > 0 {
            self.window.record_n(now_ms, conns, bytes);
        }
    }

    /// Drain the read path's mailboxes into the engine's own state.
    fn drain_read_path(&mut self, now_ms: u64) {
        self.fold_read_traffic(now_ms);
        for (path, hits, bytes) in self.read.take_hits() {
            self.ldg.record_hits(&path, hits, bytes);
        }
    }

    /// T_home: periodically reassess standing migrations. A document on a
    /// dead co-op is revoked home; a document on a badly overloaded co-op
    /// is **re-targeted** directly to the least-loaded server (the paper's
    /// "abandon a migration and re-migrate the file to a different co-op
    /// server"). At most one re-target per statistics tick — re-migration
    /// dirties every linking document, so storms of them would melt the
    /// home server in regeneration work.
    fn consider_remigration(&mut self, now_ms: u64, out: &mut TickOutput) {
        let metric = self.cfg.balance_metric;
        let mut due: Vec<(String, ServerId, f64)> = self
            .ldg
            .all_migrated()
            .into_iter()
            .filter_map(|(name, coop)| {
                let at = self.ldg.get(&name)?.migrated_at?;
                if now_ms.saturating_sub(at) < self.cfg.remigration_interval_ms {
                    return None;
                }
                let load = self.glt.get(&coop).map(|i| i.value(metric)).unwrap_or(0.0);
                Some((name, coop, load))
            })
            .collect();
        if due.is_empty() {
            return;
        }
        // Worst-loaded co-op's documents first.
        due.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
        let mut exclude: Vec<ServerId> = self.dead_peers.iter().cloned().collect();
        for (coop, t) in &self.coop_last_migration {
            if now_ms.saturating_sub(*t) < self.cfg.coop_migration_interval_ms {
                exclude.push(coop.clone());
            }
        }
        let mut acted = false;
        for (name, coop, coop_load) in due {
            if self.dead_peers.contains(&coop) {
                self.revoke_doc(&name, out, RevokeReason::DeadCoop);
                continue;
            }
            let mut done = false;
            if !acted {
                let mut excl = exclude.clone();
                excl.push(coop.clone());
                if let Some(target) = self.glt.least_loaded(metric, &excl) {
                    let target_load = self
                        .glt
                        .get(&target)
                        .map(|i| i.value(metric))
                        .unwrap_or(0.0);
                    if coop_load > 2.0 * OVERLOAD_RATIO * target_load.max(0.001) {
                        let dirtied = self.ldg.migrate(&name, target.clone(), now_ms);
                        self.invalidate_routes(&name, &dirtied);
                        self.coop_last_migration.insert(target.clone(), now_ms);
                        self.stats.remigrations += 1;
                        self.emit(EngineEvent::Remigrated {
                            doc: name.clone(),
                            from: coop.clone(),
                            to: target.clone(),
                            from_load: coop_load,
                            to_load: target_load,
                        });
                        if self.cfg.eager_migration {
                            out.calls
                                .push(self.push_call(target.clone(), &name, now_ms));
                        }
                        out.migrated.push((name.clone(), target));
                        out.revoked.push((name.clone(), coop.clone()));
                        acted = true;
                        done = true;
                    }
                }
            }
            if !done {
                // Keep the migration; re-arm the T_home timer.
                if let Some(e) = self.ldg.get_mut(&name) {
                    e.migrated_at = Some(now_ms);
                }
            }
        }
    }

    /// Revoke one migration: LDG back to Home, sources dirtied, stats.
    fn revoke_doc(&mut self, name: &str, out: &mut TickOutput, reason: RevokeReason) {
        let coop = match self.ldg.get(name).map(|e| e.location.clone()) {
            Some(Location::Coop(c)) => c,
            _ => return,
        };
        let dirtied = self.ldg.revoke(name);
        self.invalidate_routes(name, &dirtied);
        self.replicas.remove(name);
        self.stats.revocations += 1;
        self.emit(EngineEvent::MigrationRevoked {
            doc: name.to_string(),
            coop: coop.clone(),
            reason,
        });
        out.revoked.push((name.to_string(), coop));
    }

    /// The migration decision (§4.2): when overloaded relative to the
    /// least-loaded peer, run Algorithm 1 and migrate one document —
    /// respecting the one-per-T_st home rate and one-per-T_coop per-co-op
    /// rate limits of Table 1.
    fn consider_migration(&mut self, now_ms: u64, out: &mut TickOutput) {
        if now_ms.saturating_sub(self.last_migration_ms) < self.cfg.stat_interval_ms
            && self.last_migration_ms != 0
        {
            return;
        }
        let me = self.glt.self_info();
        if me.cps < self.cfg.min_cps_to_migrate {
            return;
        }
        let metric = self.cfg.balance_metric;
        // Exclude dead peers and co-ops inside their T_coop window.
        let mut exclude: Vec<ServerId> = self.dead_peers.iter().cloned().collect();
        for (coop, t) in &self.coop_last_migration {
            if now_ms.saturating_sub(*t) < self.cfg.coop_migration_interval_ms {
                exclude.push(coop.clone());
            }
        }
        let Some(target) = self.glt.least_loaded(metric, &exclude) else {
            return;
        };
        let target_load = self
            .glt
            .get(&target)
            .map(|i| i.value(metric))
            .unwrap_or(0.0);
        if me.value(metric) <= OVERLOAD_RATIO * target_load {
            return;
        }
        let selected = if self.cfg.naive_selection {
            dcws_graph::select_hottest(&self.ldg)
        } else {
            select_for_migration(&self.ldg, self.cfg.selection_threshold)
        };
        let Some(doc) = selected else {
            return;
        };
        let hits = self.ldg.get(&doc).map(|e| e.hits).unwrap_or(0);
        let dirtied = self.ldg.migrate(&doc, target.clone(), now_ms);
        self.invalidate_routes(&doc, &dirtied);
        self.coop_last_migration.insert(target.clone(), now_ms);
        self.last_migration_ms = now_ms;
        self.stats.migrations += 1;
        self.emit(EngineEvent::MigrationStarted {
            doc: doc.clone(),
            coop: target.clone(),
            self_load: me.value(metric),
            coop_load: target_load,
        });
        if self.cfg.eager_migration {
            out.calls.push(self.push_call(target.clone(), &doc, now_ms));
        }
        out.migrated.push((doc.clone(), target.clone()));

        // Hot-replication extension (§6 future work): a document drawing a
        // large fraction of our hits gets extra replicas at once.
        if let Some(hr) = self.cfg.hot_replication.clone() {
            let total: u64 = self.ldg.iter().map(|e| e.hits).sum();
            if total > 0 && hits as f64 / total as f64 >= hr.hot_fraction {
                let mut replicas = vec![target.clone()];
                let mut excl = exclude.clone();
                excl.push(target.clone());
                while replicas.len() < hr.max_replicas {
                    let Some(extra) = self.glt.least_loaded(metric, &excl) else {
                        break;
                    };
                    excl.push(extra.clone());
                    self.coop_last_migration.insert(extra.clone(), now_ms);
                    self.stats.replicas_created += 1;
                    self.emit(EngineEvent::ReplicaCreated {
                        doc: doc.clone(),
                        coop: extra.clone(),
                    });
                    if self.cfg.eager_migration {
                        out.calls.push(self.push_call(extra.clone(), &doc, now_ms));
                    }
                    out.migrated.push((doc.clone(), extra.clone()));
                    replicas.push(extra);
                }
                if replicas.len() > 1 {
                    self.replicas.insert(doc, replicas);
                }
            }
        }
    }

    /// Which co-op serves `doc` for a link appearing in `source` — spreads
    /// replica load deterministically by source document.
    pub(crate) fn replica_for(&self, doc: &str, source_key: &str) -> Option<ServerId> {
        match self.ldg.get(doc).map(|e| e.location.clone()) {
            Some(Location::Coop(primary)) => match self.replicas.get(doc) {
                Some(reps) if !reps.is_empty() => {
                    let h = fnv1a(source_key.as_bytes());
                    Some(reps[(h % reps.len() as u64) as usize].clone())
                }
                _ => Some(primary),
            },
            _ => None,
        }
    }

    /// The eager-migration push carrying `doc` to `coop`.
    fn push_call(&mut self, coop: ServerId, doc: &str, now_ms: u64) -> Outbound {
        let (bytes, version, content_type) = self.pull_content(doc);
        let mut req = Request {
            method: dcws_http::Method::Post,
            target: doc.to_string(),
            version: dcws_http::Version::Http11,
            headers: Headers::new(),
            body: Body::empty(),
        }
        .with_header("X-DCWS-Push", "1")
        .with_header("X-DCWS-Home", self.id.to_string())
        .with_header("X-DCWS-Version", HeaderValue::decimal(version))
        .with_header("Last-Modified", self.doc_modified(doc).http_date)
        .with_header("Content-Type", content_type)
        .with_header(dcws_http::CHECKSUM_HEADER, dcws_http::body_checksum(&bytes))
        .with_body(bytes);
        self.attach_reports(&mut req.headers, now_ms);
        Outbound {
            peer: coop,
            call: Call::Push,
            req,
        }
    }

    /// Build the lazy pull request a co-op sends to fetch a migrated
    /// document from its home (§4.2 case 1).
    pub fn make_pull_request(&mut self, path: &str, now_ms: u64) -> Request {
        let mut req = Request::get(path)
            .with_header("X-DCWS-Pull", "1")
            .with_header("X-DCWS-Coop", self.id.to_string());
        self.attach_reports(&mut req.headers, now_ms);
        req
    }

    /// Record a ping outcome. After `ping_failure_limit` consecutive
    /// failures the peer is declared dead: its documents are revoked and it
    /// stops being a migration target until heard from again.
    pub fn ping_result(
        &mut self,
        peer: &ServerId,
        ok: bool,
        headers: Option<&Headers>,
    ) -> Vec<String> {
        if ok {
            self.ping_failures.remove(peer);
            if let Some(h) = headers {
                self.ingest_reports(h);
            }
            return Vec::new();
        }
        let n = self.ping_failures.entry(peer.clone()).or_insert(0);
        *n += 1;
        if *n < self.cfg.ping_failure_limit {
            return Vec::new();
        }
        self.declare_peer_dead(peer)
    }

    /// Declare a peer dead (§4.5 case 3): recall every document migrated
    /// there. Returns the recalled document names.
    pub fn declare_peer_dead(&mut self, peer: &ServerId) -> Vec<String> {
        if self.dead_peers.insert(peer.clone()) {
            self.stats.peers_declared_dead += 1;
        }
        let docs = self.ldg.migrated_to(peer);
        for d in &docs {
            let dirtied = self.ldg.revoke(d);
            self.invalidate_routes(d, &dirtied);
            self.replicas.remove(d);
            self.stats.revocations += 1;
            self.emit(EngineEvent::MigrationRevoked {
                doc: d.clone(),
                coop: peer.clone(),
                reason: RevokeReason::DeadCoop,
            });
        }
        self.emit(EngineEvent::PeerDeclaredDead {
            peer: peer.clone(),
            docs_recalled: docs.len() as u64,
        });
        docs
    }

    /// Migrated-document URL (naming convention of §3.4) for `doc` as seen
    /// from `source_key` (replica spreading).
    pub(crate) fn migrated_doc_url(&self, doc: &str, source_key: &str) -> Option<dcws_http::Url> {
        let coop = self.replica_for(doc, source_key)?;
        migrate_url(&coop, &self.id, doc).ok()
    }

    /// Drop the routes a location change staled: the moved document
    /// itself plus every linking source the LDG dirtied. Their variants
    /// stay: the moved document's version is unchanged, and a dirtied
    /// source's are dropped when its Dirty bit settles.
    pub(crate) fn invalidate_routes(&self, doc: &str, dirtied: &[String]) {
        self.read.table.drop_route(doc);
        for d in dirtied {
            self.read.table.drop_route(d);
        }
    }

    /// Export the standing migration state as `doc<TAB>coop` lines, for
    /// persisting across a restart. Replica sets are exported as multiple
    /// lines per document (primary first).
    pub fn export_migrations(&self) -> String {
        let mut out = String::new();
        for (doc, coop) in self.ldg.all_migrated() {
            match self.replicas.get(&doc) {
                Some(reps) => {
                    for r in reps {
                        out.push_str(&format!("{doc}\t{r}\n"));
                    }
                }
                None => out.push_str(&format!("{doc}\t{coop}\n")),
            }
        }
        out
    }

    /// Restore migration state exported by [`Self::export_migrations`]
    /// after the documents have been re-published (a warm restart:
    /// without this, a restarted home forgets every migration and recalls
    /// the whole site). Unknown documents and malformed lines are
    /// skipped; sources are re-dirtied so regenerated pages point at the
    /// co-ops again. Returns how many documents were restored.
    pub fn restore_migrations(&mut self, exported: &str, now_ms: u64) -> usize {
        let mut per_doc: HashMap<String, Vec<ServerId>> = HashMap::new();
        let mut order: Vec<String> = Vec::new();
        for line in exported.lines() {
            let Some((doc, coop)) = line.split_once('\t') else {
                continue;
            };
            if doc.is_empty() || coop.is_empty() || !self.ldg.contains(doc) {
                continue;
            }
            let entry = per_doc.entry(doc.to_string()).or_default();
            if entry.is_empty() {
                order.push(doc.to_string());
            }
            entry.push(ServerId::new(coop));
        }
        let mut restored = 0;
        for doc in order {
            let reps = per_doc.remove(&doc).expect("inserted above");
            let primary = reps[0].clone();
            let dirtied = self.ldg.migrate(&doc, primary, now_ms);
            self.invalidate_routes(&doc, &dirtied);
            if reps.len() > 1 {
                self.replicas.insert(doc, reps);
            }
            restored += 1;
        }
        restored
    }
}
