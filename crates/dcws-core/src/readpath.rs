//! The read-mostly serve path — lock-shedding for the common case.
//!
//! The paper's §5.1 architecture shares the LDG/GLT between worker
//! threads and the statistics module through one lock; faithfully
//! reproduced, that lock serializes *every* request. [`ReadPath`] is the
//! escape hatch: a snapshot of exactly the state the common case needs —
//! GET of a local, non-dirty, non-migrated document, or a warm co-op
//! copy — readable by any number of worker threads concurrently, while
//! everything rare (migration, regeneration, pulls, pushes, validations,
//! tick) still goes through the exclusive [`ServerEngine`](crate::ServerEngine) lock.
//!
//! Three pieces:
//!
//! * a **sharded serve table** (`RwLock` per shard) mapping home-document
//!   paths to prebuilt routes: the wire head serialized once at prime
//!   time plus the shared entity [`Body`], for a document's `200` or a
//!   migrated document's `301` — or, for an object at or over
//!   `stream_threshold_bytes`, plus a shared positional [`DocReader`]
//!   over the store's copy, which every hit clones into the
//!   [`StreamBody`] a front end drains. The table is *primed* by the
//!   engine's exclusive serve path on first serve and *invalidated* by
//!   every mutation (publish, dirty settlement, migrate/revoke —
//!   including the link-sources those dirty). Readers therefore see
//!   either the current route or a vacancy, never a stale body;
//! * the shared co-op [`DocCache`] (internally sharded already), so warm
//!   co-op hits need no engine lock either;
//! * **mailboxes** for the write-side effects a serve produces: per-doc
//!   hit counts (LDG accounting) and connection/byte totals (the CPS/BPS
//!   window). The engine drains both at [`tick`](crate::ServerEngine::tick),
//!   so read-path requests update migration statistics within one tick
//!   without ever taking the write lock themselves.
//!
//! Any `X-DCWS-*` header declines: every inter-server message, load
//! reports included, is the engine's, which merges the rows it carries
//! and attaches fresh ones while it answers.
//!
//! Heads and bodies are [`Body`] (`Arc<[u8]>`): a plain `GET`/`HEAD` hit
//! clones two refcounts into a [`Served`] and allocates nothing. Only the
//! rare variants (`If-Modified-Since`, `Range`) build a [`Response`] and
//! serialize a head of their own.

use crate::engine::{coop_cache_key, Modified};
use crate::naming::decode_migrate_path;
use crate::serve::{copy_answer, unmodified_since};
use crate::stream::{stream_answer, DocReader};
use dcws_cache::DocCache;
use dcws_graph::ServerId;
use dcws_http::{
    apply_range_spec, fnv1a, http_date, is_reserved_path, parse_response_head, range_spec, Body,
    Method, RangeSpec, Request, RequestHead, Response, StatusCode, StreamBody, Url, RANGE_HEADER,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Serve-table shard count (power of two). Mirrors the co-op cache's
/// default sharding: enough to keep a worker pool off shared lines.
const N_SHARDS: usize = 8;

/// Fixed per-route bookkeeping charge against the table budget.
const ROUTE_OVERHEAD: u64 = 64;

/// What a stream route's resident reader is charged against the table
/// budget, whatever its object's length: it pins no bytes, but it may pin
/// a descriptor, and the budget is what bounds those — one per 64 KiB,
/// so the default table (32 MiB) holds at most 512 of them, half the
/// usual soft limit of 1024 open files.
const STREAM_ROUTE_COST: u64 = 64 * 1024;

/// A read-path answer in wire form: the serialized head (status line,
/// headers, blank line) and the entity that follows it. A front end sends
/// `head` then `body` — for a `HEAD` request, `head` alone.
#[derive(Debug, Clone)]
pub struct Served {
    /// Status line, headers and terminating blank line.
    pub head: Body,
    /// The entity; empty for bodyless statuses.
    pub body: Body,
}

impl Served {
    /// The wire form of `resp`.
    pub fn from_response(resp: Response) -> Served {
        Served {
            head: resp.head_bytes().into(),
            body: if resp.status.bodyless() {
                Body::empty()
            } else {
                resp.body
            },
        }
    }

    /// The status of the head's status line.
    pub fn status(&self) -> StatusCode {
        // "HTTP/1.1 200 ...": the code is the three digits after the
        // version, which `Response::head_bytes` always writes.
        std::str::from_utf8(&self.head[9..12])
            .ok()
            .and_then(|code| code.parse().ok())
            .and_then(|code| StatusCode::from_code(code).ok())
            .expect("a Served head is a serialized Response head")
    }

    /// The value of the head's first `name` field (ASCII case-insensitive),
    /// read in place.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.head.split(|&b| b == b'\n').skip(1).find_map(|line| {
            let colon = line.iter().position(|&b| b == b':')?;
            let (field, value) = line.split_at(colon);
            if !field.eq_ignore_ascii_case(name.as_bytes()) {
                return None;
            }
            let value = value[1..].trim_ascii();
            std::str::from_utf8(value).ok()
        })
    }

    /// Back to the message form, for callers that work on [`Response`]s.
    pub fn into_response(self) -> Response {
        // `Head` framing: the entity is `self.body`, not wire bytes to wait for.
        let mut resp = parse_response_head(&self.head, Method::Head)
            .ok()
            .flatten()
            .expect("a Served head is a serialized Response head")
            .message
            .resp;
        resp.body = self.body;
        resp
    }

    /// Append `Connection: close`, as `Response::with_header` would have
    /// before serialization.
    pub fn close_connection(&mut self) {
        let fields = &self.head[..self.head.len() - 2];
        self.head = [fields, b"Connection: close\r\n\r\n"].concat().into();
    }
}

/// One primed route in the serve table.
enum ServeRoute {
    /// A home-resident document's `200`, its head (`Content-Length`,
    /// `Content-Type`, `Last-Modified`) serialized at prime time, plus the
    /// modification time (engine ms) `If-Modified-Since` compares against.
    Doc { served: Served, modified_ms: u64 },
    /// A migrated document: the prebuilt `301` to its co-op.
    Moved(Served),
    /// A home-resident object too large to buffer (boxed: a table of
    /// small documents should not pay for its fields in every entry).
    Stream(Box<StreamRoute>),
}

/// What the table keeps of a large object: the head of its plain `200`
/// serialized at prime time, and the store's copy behind a reader
/// positioned at its start. A hit clones the reader — a refcount, never
/// an `open` — so one descriptor serves every concurrent transfer, and a
/// transfer in flight when the route is dropped finishes on the
/// descriptor (and inode) it started on.
struct StreamRoute {
    head: Body,
    reader: DocReader,
    content_type: &'static str,
    modified: Modified,
}

impl ServeRoute {
    /// Budget cost of this route under `path`.
    fn cost(&self, path: &str) -> u64 {
        let resident = match self {
            ServeRoute::Doc { served, .. } | ServeRoute::Moved(served) => {
                (served.head.len() + served.body.len()) as u64
            }
            ServeRoute::Stream(route) => route.head.len() as u64 + STREAM_ROUTE_COST,
        };
        path.len() as u64 + resident + ROUTE_OVERHEAD
    }
}

/// Who is asking the read path, which decides what it may answer and how
/// a decline is counted.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Caller {
    /// A front end that owns the socket: it can drain a [`StreamBody`],
    /// so stream routes answer too.
    FrontEnd,
    /// A caller that needs the entity buffered (an owned [`Response`], or
    /// a simulated server with no socket to drain a stream into): stream
    /// routes decline.
    Message,
    /// A spill worker looking again at a request a [`Caller::FrontEnd`]
    /// lookup already declined, and already counted as a fallback.
    Spilled,
}

/// What the read path looks at in a request's head.
struct Wanted<'a> {
    method: Method,
    if_modified_since: Option<&'a str>,
    /// The usable byte range the request asks for.
    range: Option<RangeSpec>,
}

/// A route's answer to one request: the prebuilt wire form, or a response
/// built for this request alone (304, co-op copy, a large object's range).
enum Hit {
    Prebuilt(Served),
    Built(Response),
}

/// A [`Hit`] and, for a large object's `GET`, the entity that follows its
/// head in place of a buffered body.
type Answer = (Hit, Option<StreamBody>);

/// One shard of the hit mailbox: `path -> (hits, bytes)`.
type HitShard = Mutex<HashMap<String, (u64, u64)>>;

/// One serve-table shard: routes, their resident cost, and how many of
/// them are stream routes.
#[derive(Default)]
struct TableShard {
    map: HashMap<String, ServeRoute>,
    bytes: u64,
    streams: u64,
}

impl TableShard {
    /// Add `route` under `path`, which must be vacant.
    fn insert(&mut self, path: &str, route: ServeRoute) {
        self.bytes += route.cost(path);
        self.streams += u64::from(matches!(route, ServeRoute::Stream(_)));
        self.map.insert(path.to_string(), route);
    }

    fn remove(&mut self, path: &str) {
        if let Some(old) = self.map.remove(path) {
            self.bytes = self.bytes.saturating_sub(old.cost(path));
            self.streams -= u64::from(matches!(old, ServeRoute::Stream(_)));
        }
    }

    fn clear(&mut self) {
        *self = TableShard::default();
    }
}

/// Monotonic counters for work done on the read path; folded into
/// [`EngineStats`](crate::EngineStats) by `ServerEngine::stats()` so the
/// totals stay whole no matter which path served a request.
#[derive(Default)]
struct ReadCounters {
    requests: AtomicU64,
    served_home: AtomicU64,
    served_coop: AtomicU64,
    redirects: AtomicU64,
    conditional_not_modified: AtomicU64,
    bytes_sent: AtomicU64,
    streamed_serves: AtomicU64,
    stale_serves: AtomicU64,
    fallbacks: AtomicU64,
    shard_clears: AtomicU64,
}

/// Snapshot of the read path's counters and table occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadPathStats {
    /// Requests fully served on the read path (no engine lock).
    pub requests: u64,
    /// 200s for home-resident documents.
    pub served_home: u64,
    /// 200s for co-op-held copies.
    pub served_coop: u64,
    /// 301s from prebuilt moved routes.
    pub redirects: u64,
    /// Conditional GETs answered 304.
    pub conditional_not_modified: u64,
    /// Body bytes sent in read-path 200s.
    pub bytes_sent: u64,
    /// 200s and 206s of large objects handed to the front end as a
    /// stream (counted in `served_home` too).
    pub streamed_serves: u64,
    /// 200s served from a stale-marked co-op copy (failed T_val).
    pub stale_serves: u64,
    /// Requests the read path declined (engine lock taken instead); a
    /// request a front end declined and its spill worker declined again
    /// counts once.
    pub fallbacks: u64,
    /// Serve-table shards cleared wholesale on budget overflow.
    pub shard_clears: u64,
    /// Routes currently resident in the serve table.
    pub table_entries: u64,
    /// Budget cost of resident routes.
    pub table_bytes: u64,
    /// Stream routes among `table_entries`: resident readers, each of
    /// which may hold a descriptor open.
    pub stream_routes: u64,
}

/// The concurrent read-mostly serve path (see module docs).
///
/// One `ReadPath` is created by each [`ServerEngine`](crate::ServerEngine)
/// and shared (via `Arc`) with the transport's worker threads; all methods
/// take `&self`.
pub struct ReadPath {
    id: ServerId,
    table: Box<[RwLock<TableShard>]>,
    table_budget: AtomicU64,
    coop_cache: Arc<DocCache>,
    /// Per-shard home-document hit tallies: `path -> (hits, bytes)`.
    hits: Box<[HitShard]>,
    /// Connection/byte totals awaiting the engine's rate window.
    traffic_conns: AtomicU64,
    traffic_bytes: AtomicU64,
    counters: ReadCounters,
}

impl ReadPath {
    /// Build a read path for server `id` sharing `coop_cache`, with a
    /// serve-table byte budget of `table_budget`.
    pub(crate) fn new(id: ServerId, coop_cache: Arc<DocCache>, table_budget: u64) -> ReadPath {
        ReadPath {
            id,
            table: (0..N_SHARDS)
                .map(|_| RwLock::new(TableShard::default()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            table_budget: AtomicU64::new(table_budget),
            coop_cache,
            hits: (0..N_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            traffic_conns: AtomicU64::new(0),
            traffic_bytes: AtomicU64::new(0),
            counters: ReadCounters::default(),
        }
    }

    /// This server's identity.
    pub fn id(&self) -> &ServerId {
        &self.id
    }

    fn shard_idx(&self, path: &str) -> usize {
        (fnv1a(path.as_bytes()) & (N_SHARDS as u64 - 1)) as usize
    }

    /// Try to serve the request held as its parts — `method`, `target`
    /// and header pairs — without the engine lock, in wire form. `None`
    /// means the request needs the exclusive path (anything inter-server,
    /// any miss, any non-GET/HEAD, any large object: a stream needs a
    /// front end to drain it) — hand it to `ServerEngine::handle_request`.
    /// A plain `GET`/`HEAD` of a primed document or redirect is one table
    /// lookup and two refcounts, and allocates nothing.
    pub fn serve_parts<'a>(
        &self,
        method: Method,
        target: &str,
        headers: impl Iterator<Item = (&'a str, &'a str)>,
    ) -> Option<Served> {
        self.answer(method, target, headers, Caller::Message)
            .map(|(served, _)| served)
    }

    /// [`Self::serve_parts`] for callers holding owned messages.
    pub fn try_serve(&self, req: &Request, _now_ms: u64) -> Option<Response> {
        self.serve_parts(req.method, &req.target, req.headers.iter())
            .map(Served::into_response)
    }

    /// [`Self::serve_parts`] for the spill worker a front end handed `req`
    /// to after [`Self::serve`] declined it: another worker may have
    /// primed the route meanwhile, so the look is worth taking, but the
    /// request was counted as a fallback when it spilled and is not
    /// counted again.
    pub fn try_serve_spilled(&self, req: &Request) -> Option<Served> {
        self.answer(req.method, &req.target, req.headers.iter(), Caller::Spilled)
            .map(|(served, _)| served)
    }

    /// [`Self::serve_parts`] for a front end that parsed the request in
    /// place and owns the socket: for the `200`/`206` of a large object
    /// also the entity to drain behind the head (the [`Served::body`] is
    /// then empty).
    pub fn serve(&self, req: &RequestHead<'_>) -> Option<(Served, Option<StreamBody>)> {
        self.answer(req.method, req.target, req.headers(), Caller::FrontEnd)
    }

    fn answer<'a>(
        &self,
        method: Method,
        target: &str,
        headers: impl Iterator<Item = (&'a str, &'a str)>,
        caller: Caller,
    ) -> Option<(Served, Option<StreamBody>)> {
        if method != Method::Get && method != Method::Head {
            return self.fallback(caller);
        }
        // Any inter-server extension header forces the exclusive path.
        let (mut if_modified_since, mut range) = (None, None);
        for (name, value) in headers {
            if name.len() >= 7 && name.as_bytes()[..7].eq_ignore_ascii_case(b"x-dcws-") {
                return self.fallback(caller);
            } else if name.eq_ignore_ascii_case("If-Modified-Since") {
                if_modified_since.get_or_insert(value);
            } else if name.eq_ignore_ascii_case(RANGE_HEADER) {
                range.get_or_insert(value);
            }
        }
        let want = Wanted {
            method,
            if_modified_since,
            range: range_spec(method, range),
        };
        let Ok(path) = Url::request_path(target) else {
            return self.fallback(caller);
        };
        let path = &*path;
        if is_reserved_path(path) {
            // The transport answers /dcws/* itself; never a fallback.
            return None;
        }
        let answer = match decode_migrate_path(path) {
            Err(_) => return self.fallback(caller),
            Ok(Some(t)) if t.home != self.id => self.serve_coop_hit(&t.home, &t.path, &want),
            Ok(Some(t)) => self.serve_table(&t.path, &want, caller),
            Ok(None) => self.serve_table(path, &want, caller),
        };
        let Some((hit, stream)) = answer else {
            return self.fallback(caller);
        };
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        // Client GETs may carry a byte range; 304s pass through untouched
        // (If-Modified-Since wins). A buffered snapshot is sliced here; a
        // stream route resolved its range when it built the answer (its
        // prebuilt head is never offered to a ranged request).
        let resp = match hit {
            Hit::Prebuilt(served) if want.range.is_none() => return Some((served, stream)),
            Hit::Prebuilt(served) => served.into_response(),
            Hit::Built(resp) => resp,
        };
        Some((
            Served::from_response(apply_range_spec(want.range, resp)),
            stream,
        ))
    }

    /// Count a declined request (once: not again for the spill worker's
    /// second look) and return `None`.
    fn fallback<T>(&self, caller: Caller) -> Option<T> {
        if caller != Caller::Spilled {
            self.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        None
    }

    /// The `304` for a copy last modified at `modified_ms`, when the
    /// request's `If-Modified-Since` covers it.
    fn not_modified(&self, want: &Wanted<'_>, modified_ms: u64) -> Option<Response> {
        if !unmodified_since(want.if_modified_since, modified_ms) {
            return None;
        }
        self.counters
            .conditional_not_modified
            .fetch_add(1, Ordering::Relaxed);
        Some(Response::not_modified().with_header("Last-Modified", http_date(modified_ms)))
    }

    /// A warm co-op copy, straight from the shared cache.
    fn serve_coop_hit(&self, home: &ServerId, path: &str, want: &Wanted<'_>) -> Option<Answer> {
        let key = coop_cache_key(home, path);
        // Peek first so a miss/negative doesn't skew the cache counters:
        // the engine fallback will run its own counted lookup.
        let peeked = self.coop_cache.peek(&key)?;
        if peeked.negative {
            return None;
        }
        // The counted, LRU-promoting lookup.
        let doc = self.coop_cache.get(&key)?;
        if doc.negative {
            return None;
        }
        let stale = doc.stale;
        let resp = copy_answer(doc, want.if_modified_since);
        let (c, len) = (&self.counters, resp.body.len() as u64);
        if resp.status == StatusCode::NotModified {
            c.conditional_not_modified.fetch_add(1, Ordering::Relaxed);
        } else {
            c.served_coop.fetch_add(1, Ordering::Relaxed);
            if stale {
                // Freshness unverified (failed T_val): still served, counted.
                c.stale_serves.fetch_add(1, Ordering::Relaxed);
            }
            c.bytes_sent.fetch_add(len, Ordering::Relaxed);
        }
        self.record_traffic(len);
        Some((Hit::Built(resp), None))
    }

    /// A primed home-document route from the serve table.
    fn serve_table(&self, path: &str, want: &Wanted<'_>, caller: Caller) -> Option<Answer> {
        let idx = self.shard_idx(path);
        let shard = self.table[idx].read().unwrap_or_else(|e| e.into_inner());
        let c = &self.counters;
        match shard.map.get(path)? {
            ServeRoute::Moved(served) => {
                c.redirects.fetch_add(1, Ordering::Relaxed);
                self.record_traffic(served.body.len() as u64);
                Some((Hit::Prebuilt(served.clone()), None))
            }
            ServeRoute::Doc {
                served,
                modified_ms,
            } => {
                if let Some(resp) = self.not_modified(want, *modified_ms) {
                    self.note_hit(idx, path, 0);
                    self.record_traffic(0);
                    return Some((Hit::Built(resp), None));
                }
                let len = served.body.len() as u64;
                c.served_home.fetch_add(1, Ordering::Relaxed);
                c.bytes_sent.fetch_add(len, Ordering::Relaxed);
                self.note_hit(idx, path, len);
                self.record_traffic(len);
                Some((Hit::Prebuilt(served.clone()), None))
            }
            ServeRoute::Stream(_) if caller != Caller::FrontEnd => None,
            ServeRoute::Stream(route) => {
                let StreamRoute {
                    head,
                    reader,
                    content_type,
                    modified,
                } = &**route;
                if let Some(resp) = self.not_modified(want, modified.ms) {
                    self.note_hit(idx, path, 0);
                    self.record_traffic(0);
                    return Some((Hit::Built(resp), None));
                }
                // The whole object to a GET, or its head to a HEAD, goes
                // out behind the prebuilt head; a range gets its own.
                let (hit, stream) = match want.range {
                    None => {
                        let served = Served {
                            head: head.clone(),
                            body: Body::empty(),
                        };
                        let entity =
                            (want.method == Method::Get).then(|| reader.slice(0, reader.len()));
                        (Hit::Prebuilt(served), entity)
                    }
                    Some(_) => {
                        let (resp, entity) = stream_answer(
                            reader,
                            content_type,
                            &modified.http_date,
                            want.method,
                            want.range,
                        );
                        (Hit::Built(resp), entity)
                    }
                };
                // The exclusive path's accounting for the same answer: a
                // `416` is traffic but no hit.
                let len = stream.as_ref().map_or(0, StreamBody::len);
                if stream.is_some() {
                    c.streamed_serves.fetch_add(1, Ordering::Relaxed);
                    c.bytes_sent.fetch_add(len, Ordering::Relaxed);
                }
                if stream.is_some() || want.method == Method::Head {
                    c.served_home.fetch_add(1, Ordering::Relaxed);
                    self.note_hit(idx, path, len);
                }
                self.record_traffic(len);
                Some((hit, stream))
            }
        }
    }

    // ---- write-side hooks (called by the engine, under its lock) ----

    /// Prime a document route; a no-op when the resident route already
    /// serves these bytes with this modification time. The exclusive path
    /// re-offers the route on every serve it handles, with the very same
    /// `Body` whenever the store or regen cache shares its bytes — then
    /// `==` is settled by pointer identity and no byte is compared.
    pub(crate) fn install_doc(
        &self,
        path: &str,
        body: Body,
        content_type: &'static str,
        modified: &Modified,
    ) {
        let resident = self.table[self.shard_idx(path)]
            .read()
            .unwrap_or_else(|e| e.into_inner());
        if let Some(ServeRoute::Doc {
            served,
            modified_ms: m,
        }) = resident.map.get(path)
        {
            if *m == modified.ms && served.body == body {
                return;
            }
        }
        drop(resident);
        let resp = Response::ok(body, content_type)
            .with_header("Last-Modified", modified.http_date.clone());
        self.install(
            path,
            ServeRoute::Doc {
                served: Served::from_response(resp),
                modified_ms: modified.ms,
            },
        );
    }

    /// Prime a moved (301) route.
    pub(crate) fn install_moved(&self, path: &str, resp: Response) {
        self.install(path, ServeRoute::Moved(Served::from_response(resp)));
    }

    /// Prime a large object's route with `reader`, positioned at the
    /// start of the store's copy.
    pub(crate) fn install_stream(
        &self,
        path: &str,
        reader: DocReader,
        content_type: &'static str,
        modified: Modified,
    ) {
        let (resp, _) = stream_answer(
            &reader,
            content_type,
            &modified.http_date,
            Method::Head,
            None,
        );
        let route = StreamRoute {
            head: Served::from_response(resp).head,
            reader,
            content_type,
            modified,
        };
        self.install(path, ServeRoute::Stream(Box::new(route)));
    }

    /// The resident reader of `path`'s stream route, if primed: the
    /// exclusive path serves from it instead of opening the object again
    /// (every mutation that could stale it has dropped the route).
    pub(crate) fn stream_reader(&self, path: &str) -> Option<DocReader> {
        let shard = self.table[self.shard_idx(path)]
            .read()
            .unwrap_or_else(|e| e.into_inner());
        match shard.map.get(path)? {
            ServeRoute::Stream(route) => Some(route.reader.clone()),
            _ => None,
        }
    }

    fn install(&self, path: &str, route: ServeRoute) {
        let per_shard = self.table_budget.load(Ordering::Relaxed) / self.table.len() as u64;
        let cost = route.cost(path);
        if cost > per_shard {
            return;
        }
        let mut shard = self.table[self.shard_idx(path)]
            .write()
            .unwrap_or_else(|e| e.into_inner());
        shard.remove(path);
        if shard.bytes + cost > per_shard {
            // Snapshot cache, not a store: clearing the shard is always
            // safe (the exclusive path re-primes on demand) and keeps the
            // structure — and the descriptors its stream routes hold —
            // bounded without LRU bookkeeping.
            shard.clear();
            self.counters.shard_clears.fetch_add(1, Ordering::Relaxed);
        }
        shard.insert(path, route);
    }

    /// Drop the route for `path`, if primed. Every mutation that changes
    /// what `path` (or a document linking to it) serves must call this.
    pub(crate) fn invalidate(&self, path: &str) {
        self.table[self.shard_idx(path)]
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .remove(path);
    }

    /// Re-budget the serve table; over-budget shards are cleared.
    pub(crate) fn set_table_budget(&self, budget: u64) {
        self.table_budget.store(budget, Ordering::Relaxed);
        let per_shard = budget / self.table.len() as u64;
        for shard in self.table.iter() {
            let mut s = shard.write().unwrap_or_else(|e| e.into_inner());
            if s.bytes > per_shard {
                s.clear();
                self.counters.shard_clears.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    // ---- mailboxes ----

    /// Tally a hit on `path`, whose shard index is `idx`.
    fn note_hit(&self, idx: usize, path: &str, bytes: u64) {
        let mut hits = self.hits[idx].lock().unwrap_or_else(|e| e.into_inner());
        // The key is allocated on a path's first hit after a drain only.
        match hits.get_mut(path) {
            Some(e) => {
                e.0 += 1;
                e.1 += bytes;
            }
            None => {
                hits.insert(path.to_string(), (1, bytes));
            }
        }
    }

    fn record_traffic(&self, bytes: u64) {
        self.traffic_conns.fetch_add(1, Ordering::Relaxed);
        self.traffic_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Take all batched hit tallies: `(path, hits, bytes)`.
    pub(crate) fn take_hits(&self) -> Vec<(String, u64, u64)> {
        let mut out = Vec::new();
        for shard in self.hits.iter() {
            let mut map = shard.lock().unwrap_or_else(|e| e.into_inner());
            out.extend(map.drain().map(|(k, (n, b))| (k, n, b)));
        }
        out
    }

    /// Take the accumulated `(connections, bytes)` totals.
    pub(crate) fn take_traffic(&self) -> (u64, u64) {
        (
            self.traffic_conns.swap(0, Ordering::Relaxed),
            self.traffic_bytes.swap(0, Ordering::Relaxed),
        )
    }

    /// Counter + occupancy snapshot.
    pub fn snapshot(&self) -> ReadPathStats {
        let c = &self.counters;
        let (mut entries, mut bytes, mut streams) = (0u64, 0u64, 0u64);
        for shard in self.table.iter() {
            let s = shard.read().unwrap_or_else(|e| e.into_inner());
            entries += s.map.len() as u64;
            bytes += s.bytes;
            streams += s.streams;
        }
        ReadPathStats {
            requests: c.requests.load(Ordering::Relaxed),
            served_home: c.served_home.load(Ordering::Relaxed),
            served_coop: c.served_coop.load(Ordering::Relaxed),
            redirects: c.redirects.load(Ordering::Relaxed),
            conditional_not_modified: c.conditional_not_modified.load(Ordering::Relaxed),
            bytes_sent: c.bytes_sent.load(Ordering::Relaxed),
            streamed_serves: c.streamed_serves.load(Ordering::Relaxed),
            stale_serves: c.stale_serves.load(Ordering::Relaxed),
            fallbacks: c.fallbacks.load(Ordering::Relaxed),
            shard_clears: c.shard_clears.load(Ordering::Relaxed),
            table_entries: entries,
            table_bytes: bytes,
            stream_routes: streams,
        }
    }
}
