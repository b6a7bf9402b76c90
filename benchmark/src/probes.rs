//! Per-layer probe timings of the traced run.
//!
//! A probe times a call into one crate's public function. It never
//! touches the live servers: it runs on *shadow* objects — a second home
//! engine and co-op engine, read path and document cache built from the
//! same dataset and configuration — with a 1-in-64 sample of the run's own
//! requests (`probe_op`), or, for work no client request triggers
//! directly, in one batch after the load (`probe_batch`).

use crate::client::{Fetched, Target};
use crate::cluster::home_engine;
use crate::sched::Clock;
use crate::trace::{Span, SpanLog};
use crate::verify::doc_path;
use dcws_cache::{CacheConfig, CachedDoc, DocCache};
use dcws_core::{DiskStore, DocStore, MemStore, Outcome, ServerConfig, ServerEngine};
use dcws_graph::{GlobalLoadTable, LoadInfo, ServerId};
use dcws_http::{Headers, LoadReport, Request, STREAM_CHUNK};
use dcws_workloads::{Dataset, PageKind};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

/// A `DocStore` over a directory another store already filled: reads go
/// to the files, and a `put` of a document that is already there with
/// the same length writes nothing. It lets the shadow engine of a
/// disk-backed workload publish the corpus without a second 250 MB copy.
struct SharedDisk(DiskStore);

impl DocStore for SharedDisk {
    fn get(&self, name: &str) -> Option<Vec<u8>> {
        self.0.get(name)
    }
    fn put(&mut self, name: &str, bytes: Vec<u8>) -> io::Result<()> {
        if self.0.size(name) == Some(bytes.len() as u64) {
            return Ok(());
        }
        self.0.put(name, bytes)
    }
    fn remove(&mut self, _name: &str) -> bool {
        false
    }
    fn contains(&self, name: &str) -> bool {
        self.0.contains(name)
    }
    fn size(&self, name: &str) -> Option<u64> {
        self.0.size(name)
    }
    fn open_stream(&self, name: &str) -> Option<dcws_core::DocReader> {
        self.0.open_stream(name)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn total_bytes(&self) -> u64 {
        self.0.total_bytes()
    }
}

/// Probe samples by metric name, in the metric's unit.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

pub struct Shadow {
    home: ServerEngine,
    coop: ServerEngine,
    home_id: ServerId,
    cache: DocCache,
    html_docs: Vec<String>,
    now_ms: u64,
    chunk: Vec<u8>,
    pub samples: Samples,
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

fn per_kb(ns: f64, bytes: usize) -> f64 {
    ns / (bytes.max(1) as f64 / 1024.0)
}

impl Shadow {
    /// Build the shadow objects for `dataset`. `disk_root`, when given,
    /// is the live home server's `DiskStore` directory, shared read-only.
    pub fn new(
        dataset: &Dataset,
        config: &ServerConfig,
        home_id: ServerId,
        coop_id: ServerId,
        disk_root: Option<&Path>,
    ) -> io::Result<Shadow> {
        let store: Box<dyn DocStore> = match disk_root {
            Some(root) => Box::new(SharedDisk(DiskStore::open(root)?)),
            None => Box::new(MemStore::new()),
        };
        let mut home = home_engine(&home_id, config, store, dataset);
        home.add_peer(coop_id.clone());
        let mut coop = ServerEngine::new(coop_id, config.clone(), Box::new(MemStore::new()));
        coop.add_peer(home_id.clone());
        // The cache probes use a cache of their own holding every small
        // document, as a warm co-op cache would.
        let cache = DocCache::new(CacheConfig::new(config.cache_budget_bytes));
        for d in dataset.docs.iter().filter(|d| d.size < 256 * 1024) {
            let bytes = dcws_workloads::materialize::materialize(d);
            cache.insert(&d.name, CachedDoc::new(bytes, "text/html", 1, 0));
        }
        Ok(Shadow {
            home,
            coop,
            home_id,
            cache,
            html_docs: dataset
                .docs
                .iter()
                .filter(|d| d.kind == PageKind::Html)
                .map(|d| d.name.clone())
                .collect(),
            now_ms: 1,
            chunk: vec![0; STREAM_CHUNK],
            samples: Samples::new(),
        })
    }

    fn push(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// Time the layers a server runs to answer the request the live op
    /// just made, on the shadow home engine: parse, serve (lock-free read
    /// path, else `handle_request`), serialise the head; then the per-byte
    /// layers on the body that came back. Probe spans hang off the op's
    /// final hop.
    #[allow(clippy::too_many_arguments)]
    pub fn probe_op(
        &mut self,
        clock: &impl Clock,
        target: &Target,
        got: &Fetched,
        body: &[u8],
        hop_span: u32,
        op: u64,
        spans: &mut SpanLog,
    ) {
        let Some(name) = doc_path(&got.path) else {
            return;
        };
        let mut wire = format!("GET {name} HTTP/1.1\r\nHost: {}\r\n", self.home_id);
        if let Some((a, b)) = target.range {
            wire.push_str(&format!("Range: bytes={a}-{b}\r\n"));
        }
        wire.push_str("\r\n");
        self.now_ms += 1;

        let timed = |name: &'static str, t0_ns: u64, spans: &mut SpanLog| -> f64 {
            let t1 = clock.now_ns();
            spans.push(Span::new(name, t0_ns, t1, Some(hop_span), op).probe());
            (t1 - t0_ns) as f64
        };

        let t0 = clock.now_ns();
        let parsed = dcws_http::parse_request(wire.as_bytes());
        let ns = timed("http.parse", t0, spans);
        self.push("http.parse_ns", ns);
        let Ok(Some(parsed)) = parsed else {
            return;
        };
        let req: Request = parsed.message;

        let t0 = clock.now_ns();
        let inline = self.home.read_path().try_serve(&req, self.now_ms);
        let ns = timed("core.try_serve", t0, spans);
        let (resp, stream) = match inline {
            Some(resp) => {
                self.push("core.try_serve_ns", ns);
                (resp, None)
            }
            None => {
                let t0 = clock.now_ns();
                let out = self.home.handle_request(&req, self.now_ms);
                let ns = timed("core.handle_request", t0, spans);
                self.push("core.handle_hit_ns", ns);
                match out {
                    Outcome::Response(r) => (r, None),
                    Outcome::Stream { resp, body } => (resp, Some(body)),
                    Outcome::FetchNeeded { .. } => return,
                }
            }
        };

        let t0 = clock.now_ns();
        black_box(resp.head_bytes());
        let ns = timed("http.head", t0, spans);
        self.push("http.head_ns", ns);

        if let Some(mut stream) = stream {
            let (t, mut bytes) = (Instant::now(), 0);
            while let Ok(n) = stream.read_chunk(&mut self.chunk) {
                if n == 0 {
                    break;
                }
                bytes += n;
            }
            self.push("core.stream_chunk_ns_per_kb", per_kb(ns_since(t), bytes));
        }

        // Per-byte layers, on at most the first 256 KiB of the body.
        let body = &body[..body.len().min(256 * 1024)];
        if !body.is_empty() {
            let t = Instant::now();
            black_box(dcws_http::body_checksum(body));
            self.push("http.checksum_ns_per_kb", per_kb(ns_since(t), body.len()));
        }
        if got.is_html {
            if let Ok(text) = std::str::from_utf8(body) {
                let t = Instant::now();
                black_box(dcws_html::extract_links(text));
                self.push("html.extract_ns_per_kb", per_kb(ns_since(t), body.len()));
            }
        }
        let t = Instant::now();
        black_box(self.cache.get(&name));
        self.push("cache.get_ns", ns_since(t));
    }

    /// The probes no client request triggers one-to-one: gossip codec,
    /// link rewriting, Algorithm 1, GLT merge, cache insert, the engine's
    /// redirect / co-op miss / regeneration outcomes, and the tick.
    pub fn probe_batch(&mut self) {
        self.probe_piggyback();
        self.probe_rewrite();
        self.probe_graph();
        self.probe_cache_insert();
        self.probe_migration_outcomes();
    }

    fn probe_piggyback(&mut self) {
        let reports: Vec<LoadReport> = (0..8)
            .map(|i| LoadReport {
                server: format!("127.0.0.1:{}", 7000 + i),
                cps: 100.5 + i as f64,
                bps: 250_000.25 * (i + 1) as f64,
                ts_ms: 1_000 + i,
            })
            .collect();
        for _ in 0..256 {
            let t = Instant::now();
            let mut headers = Headers::new();
            for r in &reports {
                r.attach(&mut headers);
            }
            black_box(LoadReport::extract_all(&headers));
            self.push("http.piggyback_ns", ns_since(t));
        }
    }

    fn probe_rewrite(&mut self) {
        let coop = self.coop.id().clone();
        for name in self.html_docs.clone().iter().take(128) {
            let Some(bytes) = self.cache.peek(name).map(|d| d.bytes) else {
                continue;
            };
            let Ok(text) = std::str::from_utf8(bytes.as_slice()) else {
                continue;
            };
            let t = Instant::now();
            black_box(dcws_html::rewrite_links(text, |raw| {
                dcws_core::migrate_url(&coop, &self.home_id, raw)
                    .ok()
                    .map(|u| u.to_string())
            }));
            self.push("html.rewrite_ns_per_kb", per_kb(ns_since(t), text.len()));
        }
    }

    fn probe_graph(&mut self) {
        let threshold = self.home.config().selection_threshold;
        for _ in 0..32 {
            let t = Instant::now();
            black_box(dcws_graph::select_for_migration(self.home.ldg(), threshold));
            self.push("graph.select_us", ns_since(t) / 1e3);
        }
        let mut glt = GlobalLoadTable::new(self.home_id.clone());
        let peers: Vec<ServerId> = (0..8)
            .map(|i| ServerId::new(format!("127.0.0.1:{}", 7000 + i)))
            .collect();
        for round in 1..=64u64 {
            for p in &peers {
                let info = LoadInfo {
                    cps: round as f64,
                    bps: 1e3 * round as f64,
                    ts_ms: round,
                };
                let t = Instant::now();
                black_box(glt.update(p.clone(), info));
                self.push("graph.glt_update_ns", ns_since(t));
            }
        }
    }

    fn probe_cache_insert(&mut self) {
        let cache = DocCache::new(CacheConfig::new(64 * 1024 * 1024));
        let body = vec![7u8; 2048];
        for i in 0..512 {
            let doc = CachedDoc::new(body.clone(), "image/gif", 1, 0);
            let key = format!("/probe/{i}.gif");
            let t = Instant::now();
            black_box(cache.insert(&key, doc));
            self.push("cache.insert_ns", ns_since(t));
        }
    }

    /// Drive the shadow home through real migrations — a burst of hits on
    /// a few documents inside one statistics window, then the tick that
    /// closes it — and time what each migration makes the engines do.
    fn probe_migration_outcomes(&mut self) {
        let cfg = self.home.config().clone();
        let candidates: Vec<String> = self
            .home
            .ldg()
            .iter()
            .filter(|e| !e.entry_point)
            .map(|e| e.name.clone())
            .take(48)
            .collect();
        let mut now = self.now_ms + cfg.stat_interval_ms;
        for round in 0..32 {
            // Tell the home its peer is idle, as piggybacked gossip would.
            let mut gossip = Headers::new();
            LoadReport {
                server: self.coop.id().to_string(),
                cps: 0.0,
                bps: 0.0,
                ts_ms: now,
            }
            .attach(&mut gossip);
            self.home.ingest_reports(&gossip);
            let hot = &candidates[round % candidates.len().max(1)];
            for i in 0..40 {
                self.home
                    .handle_request(&Request::get(hot.as_str()), now + i);
            }
            now += cfg.stat_interval_ms.max(cfg.coop_migration_interval_ms) + 1;
            let t = Instant::now();
            let out = self.home.tick(now);
            self.push("core.tick_us", ns_since(t) / 1e3);
            for (doc, coop) in &out.migrated {
                // The home now answers the old URL with a 301 ...
                let t = Instant::now();
                black_box(self.home.handle_request(&Request::get(doc.as_str()), now));
                self.push("core.handle_redirect_ns", ns_since(t));
                // ... the co-op, asked for the new one, must pull it ...
                if let Ok(url) = dcws_core::migrate_url(coop, &self.home_id, doc) {
                    let t = Instant::now();
                    black_box(self.coop.handle_request(&Request::get(url.path()), now));
                    self.push("core.handle_coop_miss_ns", ns_since(t));
                }
                // ... and every page linking to it is dirty: its next
                // request pays for a regeneration.
                let dirty: Vec<String> = self
                    .home
                    .ldg()
                    .iter()
                    .filter(|e| e.dirty && e.location.is_home())
                    .map(|e| e.name.clone())
                    .collect();
                for page in dirty {
                    let t = Instant::now();
                    black_box(self.home.handle_request(&Request::get(page.as_str()), now));
                    self.push("core.handle_regen_us", ns_since(t) / 1e3);
                }
            }
        }
        self.now_ms = now;
    }
}

/// `EventQueue` push + pop at a standing length of `len` events.
pub fn probe_sim_queue(len: usize) -> Vec<f64> {
    use dcws_sim::event::{Event, EventQueue};
    let mut q = EventQueue::with_capacity(len + 1);
    for i in 0..len {
        q.push(
            (i as u64).wrapping_mul(0x9e37_79b9) % 1_000_000,
            Event::Sample,
        );
    }
    let mut out = Vec::with_capacity(64);
    let mut at = 1_000_000u64;
    for _ in 0..64 {
        // Batches of 64 push+pop pairs: one pair is below timer resolution.
        let t = Instant::now();
        for _ in 0..64 {
            at += 17;
            q.push(at, Event::Sample);
            black_box(q.pop());
        }
        out.push(ns_since(t) / 64.0);
    }
    out
}
