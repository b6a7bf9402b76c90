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
//! Two pieces:
//!
//! * the **store** ([`ServeTable`], an `RwLock` per shard): everything the
//!   server keeps of a document under one byte budget, in both of its
//!   roles. For a home document: its prebuilt route (the wire head
//!   serialized once at prime time plus the shared entity [`Body`], for
//!   a document's `200` or a migrated document's `301` — or, for an
//!   object at or over `stream_threshold_bytes`, plus a shared positional
//!   [`DocReader`] over the document store's copy, which every hit clones
//!   into the [`StreamBody`] a front end drains), and its §4.3
//!   regenerated variants with their versions. For a copy held in the
//!   co-op role: a [`CoopCopy`] under its canonical `~migrate` path, its
//!   `200` prebuilt the same way. Routes are *primed* by the engine's
//!   exclusive serve path on first serve and *dropped* by every mutation
//!   (publish, dirty settlement, migrate/revoke — including the
//!   link-sources those dirty); a location change keeps the variants, a
//!   new version drops them. Readers therefore see either the current
//!   route or a vacancy, never a stale body;
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
//! — of a home document or of a co-op copy — clones two refcounts into a
//! [`Served`] and allocates nothing. Only the rare variants
//! (`If-Modified-Since`, `Range`) build a [`Response`] and serialize a
//! head of their own.

use crate::engine::Modified;
use crate::naming::decode_migrate_path;
use crate::regen::LinkBase;
use crate::serve::unmodified_since;
use crate::stream::{stream_answer, DocReader};
use dcws_cache::{CacheStats, Evicted};
use dcws_graph::ServerId;
use dcws_http::{
    apply_range_spec, fnv1a, http_date, is_reserved_path, parse_response_head, range_spec, Body,
    Method, RangeSpec, Request, RequestHead, Response, StatusCode, StreamBody, Url, RANGE_HEADER,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Store shard count (power of two): enough to keep a worker pool off
/// shared lines.
const N_SHARDS: usize = 8;

/// Fixed per-entry bookkeeping charge against the store's budget.
const ENTRY_OVERHEAD: u64 = 64;

/// What a stream route's resident reader is charged against the store's
/// budget, whatever its object's length: it pins no bytes, but it may pin
/// a descriptor, and the budget is what bounds those — one per 128 KiB,
/// so the default store (64 MiB) holds at most 512 of them, half the
/// usual soft limit of 1024 open files.
const STREAM_ROUTE_COST: u64 = 128 * 1024;

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
/// built for this request alone (304, a large object's range).
enum Hit {
    Prebuilt(Served),
    Built(Response),
}

/// A [`Hit`] and, for a large object's `GET`, the entity that follows its
/// head in place of a buffered body.
type Answer = (Hit, Option<StreamBody>);

/// One shard of the hit mailbox: `path -> (hits, bytes)`.
type HitShard = Mutex<HashMap<String, (u64, u64)>>;

/// One primed route in the store.
enum ServeRoute {
    /// A home-resident document's `200`, its head (`Content-Length`,
    /// `Content-Type`, `Last-Modified`) serialized at prime time, plus the
    /// modification time (engine ms) `If-Modified-Since` compares against.
    Doc { served: Served, modified_ms: u64 },
    /// A migrated document: the prebuilt `301` to its co-op.
    Moved(Served),
    /// A home-resident object too large to buffer (boxed: a store of
    /// small documents should not pay for its fields in every entry).
    Stream(Box<StreamRoute>),
    /// A copy held in the co-op role (boxed for the same reason).
    Copy(Box<CoopCopy>),
}

/// A copy held in the co-op role — §4.2: pulled, then "stored ... for
/// future purposes" — as the store keeps it under its canonical
/// `~migrate` path: its `200` in wire form, what the T_val revalidation
/// (§4.5) needs, and the two marks the read path obeys. It is also what a
/// settled pull hands each of its waiters, kept or not.
#[derive(Debug, Clone)]
pub struct CoopCopy {
    /// The copy's `200` — `Content-Length`, `Content-Type` and
    /// `Last-Modified` — and its bytes.
    pub served: Served,
    pub(crate) content_type: Arc<str>,
    /// The home's modification time, carried as `Last-Modified`.
    pub(crate) modified: Modified,
    /// The home's version of the document.
    pub version: u64,
    /// When the copy was pulled or last revalidated (engine ms).
    pub fetched_at: u64,
    /// The last revalidation, or a pull, failed: the copy is still
    /// served, counted as a stale serve, until a revalidation succeeds.
    pub stale: bool,
    /// Revoked by its home: kept as crash insurance (§4.5), never served
    /// by the read path.
    pub negative: bool,
}

/// What the store keeps of a large object: the head of its plain `200`
/// serialized at prime time, and the document store's copy behind a reader
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

/// Everything the store keeps under one path: its primed route, if any —
/// a co-op copy is one — its §4.3 regenerated forms as `(version,
/// bytes)`, indexed by [`LinkBase`], and the CLOCK reference bit every
/// hit sets and the hand clears.
#[derive(Default)]
struct Entry {
    route: Option<ServeRoute>,
    variants: [Option<(u64, Body)>; 2],
    referenced: AtomicBool,
}

impl Entry {
    /// Budget cost of this entry under `path`. A variant that is the
    /// bytes of the `Doc` route itself is charged once.
    fn cost(&self, path: &str) -> u64 {
        let served = match &self.route {
            Some(ServeRoute::Doc { served, .. } | ServeRoute::Moved(served)) => Some(served),
            Some(ServeRoute::Copy(copy)) => Some(&copy.served),
            _ => None,
        };
        let route = match (&self.route, served) {
            (_, Some(served)) => (served.head.len() + served.body.len()) as u64,
            (Some(ServeRoute::Stream(route)), _) => route.head.len() as u64 + STREAM_ROUTE_COST,
            _ => 0,
        };
        let served = served.map(|s| &s.body);
        let variants: u64 = (self.variants.iter().flatten())
            .filter(|(_, bytes)| !served.is_some_and(|b| b.ptr_eq(bytes)))
            .map(|(_, bytes)| bytes.len() as u64)
            .sum();
        path.len() as u64 + ENTRY_OVERHEAD + route + variants
    }

    fn is_stream(&self) -> u64 {
        u64::from(matches!(self.route, Some(ServeRoute::Stream(_))))
    }

    fn role(&self) -> Role {
        match self.route {
            Some(ServeRoute::Copy(_)) => Role::Coop,
            _ => Role::Home,
        }
    }

    /// Mark the entry used. The bit is read first, so a hot entry's line
    /// is not written on every hit.
    fn touch(&self) {
        if !self.referenced.load(Ordering::Relaxed) {
            self.referenced.store(true, Ordering::Relaxed);
        }
    }
}

/// Which of the server's roles an entry serves: the home side (routes
/// and variants) or the co-op side (copies). The store counts each apart.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    Home,
    Coop,
}

/// One store shard: entries in CLOCK slots, indexed by path, with their
/// resident cost, how many of them hold a stream route, and how many —
/// at what cost — are co-op copies.
#[derive(Default)]
struct TableShard {
    index: HashMap<Arc<str>, usize>,
    slots: Vec<Option<(Arc<str>, Entry)>>,
    /// Vacant slots; the last one freed is filled first, so an entry that
    /// replaces an evicted one takes its place just behind the hand.
    free: Vec<usize>,
    hand: usize,
    bytes: u64,
    streams: u64,
    copies: (u64, u64),
}

impl TableShard {
    fn get(&self, path: &str) -> Option<&Entry> {
        let (_, entry) = self.slots[*self.index.get(path)?].as_ref()?;
        Some(entry)
    }

    /// The copy held under `key`, to change a mark or a time of — never
    /// its bytes, which its cost is.
    fn copy_mut(&mut self, key: &str) -> Option<&mut CoopCopy> {
        let slot = *self.index.get(key)?;
        match &mut self.slots[slot].as_mut()?.1.route {
            Some(ServeRoute::Copy(copy)) => Some(copy),
            _ => None,
        }
    }

    /// Take `path`'s entry out of the shard, with its key (a fresh, empty
    /// entry when there is none).
    fn take(&mut self, path: &str) -> (Arc<str>, Entry) {
        match self.index.get(path) {
            Some(&slot) => self.vacate(slot),
            None => (path.into(), Entry::default()),
        }
    }

    fn vacate(&mut self, slot: usize) -> (Arc<str>, Entry) {
        let (key, entry) = self.slots[slot].take().expect("an indexed slot is full");
        self.index.remove(&key);
        self.free.push(slot);
        let cost = entry.cost(&key);
        self.bytes -= cost;
        self.streams -= entry.is_stream();
        if entry.role() == Role::Coop {
            self.copies.0 -= 1;
            self.copies.1 -= cost;
        }
        (key, entry)
    }

    /// Put an entry back; an empty one is dropped.
    fn put(&mut self, key: Arc<str>, entry: Entry) {
        if entry.route.is_none() && entry.variants.iter().all(Option::is_none) {
            return;
        }
        let cost = entry.cost(&key);
        self.bytes += cost;
        self.streams += entry.is_stream();
        if entry.role() == Role::Coop {
            self.copies.0 += 1;
            self.copies.1 += cost;
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        self.index.insert(key.clone(), slot);
        self.slots[slot] = Some((key, entry));
    }

    /// Evict one entry at a time until at most `limit` bytes are resident.
    /// The hand passes referenced entries, clearing their bits, and for a
    /// whole revolution passes entries holding a regenerated variant too;
    /// with `keep_variants` it never evicts those, and gives up after two
    /// revolutions without finding a victim.
    fn evict_to(&mut self, limit: u64, keep_variants: bool) -> Vec<(Role, Evicted)> {
        let mut evicted = Vec::new();
        let mut since = 0;
        while self.bytes > limit {
            let revolutions = since / self.slots.len();
            if keep_variants && revolutions >= 2 {
                break;
            }
            since += 1;
            self.hand = (self.hand + 1) % self.slots.len();
            let Some((_, entry)) = &self.slots[self.hand] else {
                continue;
            };
            let spared =
                entry.variants.iter().any(Option::is_some) && (keep_variants || revolutions == 0);
            if entry.referenced.swap(false, Ordering::Relaxed) || spared {
                continue;
            }
            since = 0;
            let (key, entry) = self.vacate(self.hand);
            let bytes = entry.cost(&key);
            let key = key.to_string();
            evicted.push((entry.role(), Evicted { key, bytes }));
        }
        evicted
    }
}

/// The store's budget, and its counters for each [`Role`].
struct Counts {
    budget_bytes: u64,
    roles: [CacheStats; 2],
}

impl Counts {
    fn role(&mut self, role: Role) -> &mut CacheStats {
        &mut self.roles[role as usize]
    }

    /// Count each of `evicted` against its entry's role; the records.
    fn evicted(&mut self, evicted: Vec<(Role, Evicted)>) -> Vec<Evicted> {
        let count = |(role, e)| {
            self.role(role).evictions += 1;
            e
        };
        evicted.into_iter().map(count).collect()
    }
}

/// The server's one store for served bytes, in both of its roles: per
/// document path, its primed route and its regenerated variants; per
/// co-op copy, the [`CoopCopy`] under its canonical `~migrate` path. All
/// of it lives under one byte budget spread evenly over the shards. An
/// install that overflows its shard's slice evicts one entry at a time
/// (CLOCK, second chance); a read-path hit sets its entry's reference bit
/// under the shard's read lock.
pub struct ServeTable {
    shards: Box<[RwLock<TableShard>]>,
    /// The budget and the counters; residency is read off the shards.
    /// Only the engine's calls take it, never a read-path hit.
    counts: Mutex<Counts>,
}

impl ServeTable {
    fn new(budget_bytes: u64) -> ServeTable {
        ServeTable {
            shards: (0..N_SHARDS).map(|_| RwLock::default()).collect(),
            counts: Mutex::new(Counts {
                budget_bytes,
                roles: Default::default(),
            }),
        }
    }

    fn counts(&self) -> MutexGuard<'_, Counts> {
        self.counts.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn shard_idx(path: &str) -> usize {
        (fnv1a(path.as_bytes()) & (N_SHARDS as u64 - 1)) as usize
    }

    fn read(&self, path: &str) -> RwLockReadGuard<'_, TableShard> {
        self.shards[Self::shard_idx(path)]
            .read()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self, path: &str) -> RwLockWriteGuard<'_, TableShard> {
        self.shards[Self::shard_idx(path)]
            .write()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Set one part of `path`'s entry — `part` picks which — to `value`,
    /// then evict until the shard fits its slice again. The part it
    /// replaces is dropped either way; the new one is refused when the
    /// entry alone would overflow the slice, or when `keep_variants` (a
    /// route's install: a route is rebuilt by one exclusive serve, a
    /// variant by a §4.3 regeneration) leaves no room without evicting a
    /// variant. Counted against the entry's role; returns what was
    /// evicted.
    fn install<T>(
        &self,
        path: &str,
        value: T,
        part: impl Fn(&mut Entry) -> &mut Option<T>,
        keep_variants: bool,
    ) -> Vec<Evicted> {
        let slice = self.counts().budget_bytes / N_SHARDS as u64;
        let mut shard = self.write(path);
        let (key, mut entry) = shard.take(path);
        *part(&mut entry) = Some(value);
        let role = entry.role();
        let room = slice.checked_sub(entry.cost(&key));
        let evicted = room.map_or_else(Vec::new, |room| shard.evict_to(room, keep_variants));
        let kept = room.is_some_and(|room| shard.bytes <= room);
        if !kept {
            *part(&mut entry) = None;
        }
        shard.put(key, entry);
        let mut counts = self.counts();
        let stats = counts.role(role);
        match (room, kept) {
            (None, _) => stats.oversize_rejects += 1,
            (Some(_), false) => stats.admission_rejects += 1,
            (Some(_), true) => stats.insertions += 1,
        }
        counts.evicted(evicted)
    }

    fn install_route(&self, path: &str, route: ServeRoute) -> Vec<Evicted> {
        self.install(path, route, |e| &mut e.route, true)
    }

    /// Prime a document route; a no-op when the resident route already
    /// serves these bytes with this modification time. The exclusive path
    /// re-offers the route on every serve it handles, with the very same
    /// `Body` whenever the document store or a resident variant shares
    /// its bytes — then `==` is settled by pointer identity and no byte
    /// is compared.
    pub(crate) fn install_doc(
        &self,
        path: &str,
        body: Body,
        content_type: &'static str,
        modified: &Modified,
    ) -> Vec<Evicted> {
        if let Some(entry) = self.read(path).get(path) {
            if let Some(ServeRoute::Doc {
                served,
                modified_ms,
            }) = &entry.route
            {
                if *modified_ms == modified.ms && served.body == body {
                    entry.touch();
                    return Vec::new();
                }
            }
        }
        let resp = Response::ok(body, content_type)
            .with_header("Last-Modified", modified.http_date.clone());
        let route = ServeRoute::Doc {
            served: Served::from_response(resp),
            modified_ms: modified.ms,
        };
        self.install_route(path, route)
    }

    /// Prime a moved (301) route.
    pub(crate) fn install_moved(&self, path: &str, resp: Response) -> Vec<Evicted> {
        self.install_route(path, ServeRoute::Moved(Served::from_response(resp)))
    }

    /// Prime a large object's route with `reader`, positioned at the
    /// start of the document store's copy.
    pub(crate) fn install_stream(
        &self,
        path: &str,
        reader: DocReader,
        content_type: &'static str,
        modified: Modified,
    ) -> Vec<Evicted> {
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
        self.install_route(path, ServeRoute::Stream(Box::new(route)))
    }

    /// Keep `bytes`, `path` regenerated for `base` at `version`.
    pub(crate) fn install_variant(
        &self,
        path: &str,
        base: LinkBase,
        version: u64,
        bytes: Body,
    ) -> Vec<Evicted> {
        self.install(
            path,
            (version, bytes),
            move |e| &mut e.variants[base as usize],
            false,
        )
    }

    /// `path` regenerated for `base` at `version`, if resident.
    pub(crate) fn variant(&self, path: &str, base: LinkBase, version: u64) -> Option<Body> {
        let shard = self.read(path);
        let found = shard
            .get(path)
            .and_then(|entry| match &entry.variants[base as usize] {
                Some((v, bytes)) if *v == version => {
                    entry.touch();
                    Some(bytes.clone())
                }
                _ => None,
            });
        let mut counts = self.counts();
        let home = counts.role(Role::Home);
        if found.is_some() {
            home.hits += 1;
        } else {
            home.misses += 1;
        }
        found
    }

    /// Hold `copy` under `key`, its canonical `~migrate` path. A copy may
    /// evict what a route may. Under a budget, a copy whose bytes reach
    /// `stream_threshold` (when non-zero) is refused as oversize instead,
    /// and any older one dropped: a budgeted store keeps no object that
    /// large resident in either role, and a co-op has no document store
    /// to stream one from. An unbounded store (`u64::MAX`: memory that
    /// never fills, as on the paper's testbed) holds every copy.
    pub(crate) fn install_copy(
        &self,
        key: &str,
        copy: CoopCopy,
        stream_threshold: u64,
    ) -> Vec<Evicted> {
        let large = stream_threshold != 0 && copy.served.body.len() as u64 >= stream_threshold;
        if large && self.counts().budget_bytes != u64::MAX {
            self.drop_entry(key);
            self.counts().role(Role::Coop).oversize_rejects += 1;
            return Vec::new();
        }
        self.install_route(key, ServeRoute::Copy(Box::new(copy)))
    }

    /// The copy held under `key`, marked used and counted as a co-op hit
    /// (a negative one too, when revoked) or a miss.
    pub(crate) fn copy(&self, key: &str) -> Option<CoopCopy> {
        let found = self.read(key).get(key).and_then(|entry| {
            entry.touch();
            match &entry.route {
                Some(ServeRoute::Copy(copy)) => Some(CoopCopy::clone(copy)),
                _ => None,
            }
        });
        let mut counts = self.counts();
        let coop = counts.role(Role::Coop);
        coop.hits += u64::from(found.is_some());
        coop.misses += u64::from(found.is_none());
        coop.negative_hits += u64::from(found.as_ref().is_some_and(|c| c.negative));
        found
    }

    /// Run `f` on the copy held under `key`, if any: it may change a
    /// mark or a time, never the bytes.
    pub(crate) fn with_copy<R>(&self, key: &str, f: impl FnOnce(&mut CoopCopy) -> R) -> Option<R> {
        self.write(key).copy_mut(key).map(f)
    }

    /// The copies held that `keep` selects, each with its key, in key
    /// order — an order no shard layout or host changes.
    pub(crate) fn copies_where(
        &self,
        keep: impl Fn(&CoopCopy) -> bool,
    ) -> Vec<(Arc<str>, CoopCopy)> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let shard = shard.read().unwrap_or_else(|e| e.into_inner());
            if shard.copies.0 == 0 {
                continue;
            }
            for (key, entry) in shard.slots.iter().flatten() {
                match &entry.route {
                    Some(ServeRoute::Copy(copy)) if keep(copy) => {
                        out.push((key.clone(), CoopCopy::clone(copy)))
                    }
                    _ => {}
                }
            }
        }
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Count a request that waited on another's pull instead of pulling
    /// itself (a follower parked in [`Front`](crate::Front)'s table).
    pub(crate) fn record_coalesced_wait(&self) {
        self.counts().role(Role::Coop).coalesced_waits += 1;
    }

    /// The resident reader of `path`'s stream route, if primed: the
    /// exclusive path serves from it instead of opening the object again
    /// (every mutation that could stale it has dropped the route).
    pub(crate) fn stream_reader(&self, path: &str) -> Option<DocReader> {
        match &self.read(path).get(path)?.route {
            Some(ServeRoute::Stream(route)) => Some(route.reader.clone()),
            _ => None,
        }
    }

    /// Drop `path`'s route, if primed, and keep its variants: a location
    /// change stales what `path` answers (or links to), never the
    /// regeneration of a version.
    pub(crate) fn drop_route(&self, path: &str) {
        let mut shard = self.write(path);
        let (key, mut entry) = shard.take(path);
        entry.route = None;
        shard.put(key, entry);
    }

    /// Drop everything kept of `path`: a republish or a dirty settle makes
    /// a new version.
    pub(crate) fn drop_entry(&self, path: &str) {
        self.write(path).take(path);
    }

    /// Re-budget the store, evicting down to the new slices.
    pub(crate) fn set_budget(&self, budget: u64) -> Vec<Evicted> {
        let mut evicted = Vec::new();
        for shard in self.shards.iter() {
            let mut shard = shard.write().unwrap_or_else(|e| e.into_inner());
            evicted.extend(shard.evict_to(budget / N_SHARDS as u64, false));
        }
        let mut counts = self.counts();
        counts.budget_bytes = budget;
        counts.evicted(evicted)
    }

    /// Resident `(entries, bytes)` per [`Role`], and the stream routes.
    fn occupancy(&self) -> ([(u64, u64); 2], u64) {
        let mut held = [(0, 0); 2];
        let mut streams = 0;
        for shard in self.shards.iter() {
            let shard = shard.read().unwrap_or_else(|e| e.into_inner());
            let (copies, copy_bytes) = shard.copies;
            held[Role::Home as usize].0 += shard.index.len() as u64 - copies;
            held[Role::Home as usize].1 += shard.bytes - copy_bytes;
            held[Role::Coop as usize].0 += copies;
            held[Role::Coop as usize].1 += copy_bytes;
            streams += shard.streams;
        }
        (held, streams)
    }

    /// Each role's counters and residency, under the whole budget.
    fn role_stats(&self) -> [CacheStats; 2] {
        let (held, _) = self.occupancy();
        let counts = self.counts();
        [Role::Home, Role::Coop].map(|role| {
            let (entries, bytes_resident) = held[role as usize];
            CacheStats {
                entries,
                bytes_resident,
                budget_bytes: counts.budget_bytes,
                ..counts.roles[role as usize]
            }
        })
    }

    /// Counters and residency, both roles together. `hits` and `misses`
    /// count the engine's lookups of variants and of copies; a read-path
    /// hit is counted by the [`ReadPath`].
    pub fn stats(&self) -> CacheStats {
        let [home, coop] = self.role_stats();
        CacheStats {
            budget_bytes: home.budget_bytes,
            ..home.merged(&coop)
        }
    }

    /// One role's share of the store.
    pub(crate) fn view(&self, role: Role) -> StoreView<'_> {
        StoreView { table: self, role }
    }
}

/// One role's share of a [`ServeTable`] — the home side's routes and
/// variants, or the co-op side's copies — as
/// [`ServerEngine::regen_cache`](crate::ServerEngine::regen_cache) and
/// [`ServerEngine::coop_cache`](crate::ServerEngine::coop_cache) hand it
/// out. The two views' counters add up to the store's: each insertion,
/// eviction and coalesced wait is counted in one of them.
#[derive(Clone, Copy)]
pub struct StoreView<'a> {
    table: &'a ServeTable,
    role: Role,
}

impl StoreView<'_> {
    /// This role's counters and residency; `budget_bytes` is the whole
    /// store's, which both roles share.
    pub fn stats(&self) -> CacheStats {
        self.table.role_stats()[self.role as usize]
    }

    /// The copies this role holds, each with its key, in key order: every
    /// co-op copy in the co-op view, none in the home view.
    pub fn copies(&self) -> Vec<(Arc<str>, CoopCopy)> {
        match self.role {
            Role::Coop => self.table.copies_where(|_| true),
            Role::Home => Vec::new(),
        }
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
}

/// Snapshot of the read path's counters and its store's occupancy.
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
    /// Stream routes resident in the store: readers, each of which may
    /// hold a descriptor open.
    pub stream_routes: u64,
}

/// The concurrent read-mostly serve path (see module docs).
///
/// One `ReadPath` is created by each [`ServerEngine`](crate::ServerEngine)
/// and shared (via `Arc`) with the transport's worker threads; all methods
/// take `&self`.
pub struct ReadPath {
    id: ServerId,
    /// The store the engine primes and drops, and the read path reads.
    pub(crate) table: ServeTable,
    /// Per-shard home-document hit tallies: `path -> (hits, bytes)`.
    hits: Box<[HitShard]>,
    /// Connection/byte totals awaiting the engine's rate window.
    traffic_conns: AtomicU64,
    traffic_bytes: AtomicU64,
    counters: ReadCounters,
}

impl ReadPath {
    /// Build a read path for server `id`, with a store byte budget of
    /// `table_budget`.
    pub(crate) fn new(id: ServerId, table_budget: u64) -> ReadPath {
        ReadPath {
            id,
            table: ServeTable::new(table_budget),
            hits: (0..N_SHARDS).map(|_| Mutex::default()).collect(),
            traffic_conns: AtomicU64::new(0),
            traffic_bytes: AtomicU64::new(0),
            counters: ReadCounters::default(),
        }
    }

    /// This server's identity.
    pub fn id(&self) -> &ServerId {
        &self.id
    }

    /// The store the read path serves from: the home side's routes and
    /// regenerated variants, and the co-op side's copies.
    pub fn table(&self) -> &ServeTable {
        &self.table
    }

    /// Try to serve the request held as its parts — `method`, `target`
    /// and header pairs — without the engine lock, in wire form. `None`
    /// means the request needs the exclusive path (anything inter-server,
    /// any miss, any non-GET/HEAD, any large object: a stream needs a
    /// front end to drain it) — hand it to `ServerEngine::handle_request`.
    /// A plain `GET`/`HEAD` of a primed document, redirect or co-op copy
    /// is one table lookup and two refcounts, and allocates nothing.
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
        // The request's path is the key of a home document's route and
        // of a co-op copy alike; only a `~migrate` path naming this
        // server as home is decoded, to its document's.
        let answer = match self.serve_table(path, &want, caller) {
            Some(answer) => Some(answer),
            None => match decode_migrate_path(path) {
                Err(_) => return self.fallback(caller),
                Ok(Some(t)) if t.home == self.id => self.serve_table(&t.path, &want, caller),
                Ok(_) => None,
            },
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

    /// A primed route from the store: a home document's, or a co-op copy.
    fn serve_table(&self, path: &str, want: &Wanted<'_>, caller: Caller) -> Option<Answer> {
        let idx = ServeTable::shard_idx(path);
        let shard = self.table.shards[idx]
            .read()
            .unwrap_or_else(|e| e.into_inner());
        let entry = shard.get(path)?;
        let route = entry.route.as_ref()?;
        entry.touch();
        let c = &self.counters;
        match route {
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
            ServeRoute::Copy(copy) if copy.negative => None,
            ServeRoute::Copy(copy) => {
                // A co-op serve is no hit of this server's documents: the
                // hit mailbox is left alone.
                if let Some(resp) = self.not_modified(want, copy.modified.ms) {
                    self.record_traffic(0);
                    return Some((Hit::Built(resp), None));
                }
                let len = copy.served.body.len() as u64;
                c.served_coop.fetch_add(1, Ordering::Relaxed);
                c.bytes_sent.fetch_add(len, Ordering::Relaxed);
                if copy.stale {
                    // Freshness unverified (failed T_val): still served, counted.
                    c.stale_serves.fetch_add(1, Ordering::Relaxed);
                }
                self.record_traffic(len);
                Some((Hit::Prebuilt(copy.served.clone()), None))
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
            stream_routes: self.table.occupancy().1,
        }
    }
}
