//! Request handling — the data plane of §4.2–§4.4.

use crate::engine::{coop_cache_key, Modified, ServerEngine, PENDING_SERVE_CAP};
use crate::events::EngineEvent;
use crate::naming::decode_migrate_path;
use crate::stream::stream_answer;
use dcws_cache::CachedDoc;
use dcws_graph::{DocKind, Location, ServerId};
use dcws_http::{
    apply_range, body_checksum, checksum_matches, http_date, parse_http_date, range_spec, Method,
    Request, Response, StatusCode, StreamBody, Url, CHECKSUM_HEADER, RANGE_HEADER, STREAM_CHUNK,
};

/// Result of handing a request to the engine.
#[derive(Debug)]
pub enum Outcome {
    /// A complete response to ship to the requester.
    Response(Response),
    /// A large-object serve: the head (`resp`) is final — status,
    /// `Content-Length`, and any `Content-Range` already set, body empty —
    /// and the entity is produced by draining `body` in chunks. Front
    /// ends write the head, then stream; hosts that cannot stream (the
    /// simulator, tests) collapse it via [`Outcome::into_response`].
    Stream {
        /// Response head; its buffered body is empty.
        resp: Response,
        /// Chunked entity producer, already positioned for any `Range`.
        body: StreamBody,
    },
    /// Co-op miss (§4.2 case 1): the host must pull `path` from `home`
    /// (via [`ServerEngine::make_pull_request`]), deliver the result to
    /// [`ServerEngine::store_pulled`], then retry the original request.
    FetchNeeded {
        /// Home server to pull from.
        home: ServerId,
        /// Original document path on the home server.
        path: String,
    },
}

impl Outcome {
    /// The response, if this outcome carries one. A streamed outcome is
    /// collapsed to a buffered response by draining its reader (used by
    /// the simulator and tests; real front ends write chunks instead).
    pub fn into_response(self) -> Option<Response> {
        match self {
            Outcome::Response(r) => Some(r),
            Outcome::Stream { mut resp, mut body } => {
                let mut out = Vec::with_capacity(body.len() as usize);
                let mut buf = vec![0u8; STREAM_CHUNK];
                loop {
                    match body.read_chunk(&mut buf) {
                        Ok(0) => break,
                        Ok(n) => out.extend_from_slice(&buf[..n]),
                        Err(_) => break, // truncated source: serve what we got
                    }
                }
                resp.body = out.into();
                Some(resp)
            }
            Outcome::FetchNeeded { .. } => None,
        }
    }
}

fn is_inter_server(req: &Request) -> bool {
    req.headers
        .iter()
        .any(|(n, _)| n.len() >= 7 && n[..7].eq_ignore_ascii_case("x-dcws-"))
}

impl ServerEngine {
    /// Handle one parsed request at time `now_ms`.
    ///
    /// Queueing and graceful 503 drops happen in the transport (the socket
    /// queue belongs to the host); by the time a request reaches the
    /// engine it will be answered.
    pub fn handle_request(&mut self, req: &Request, now_ms: u64) -> Outcome {
        self.now_ms = self.now_ms.max(now_ms);
        self.stats.requests += 1;
        self.ingest_reports(&req.headers);

        // Artificial pinger transfer (§4.5): headers only, both ways.
        if req.headers.contains("X-DCWS-Ping") {
            let mut resp = Response::new(StatusCode::Ok);
            resp.headers
                .set("Content-Length", "0")
                .expect("static header");
            self.attach_reports(&mut resp.headers, now_ms);
            return Outcome::Response(resp);
        }

        // Eager-migration push (ablation): store the carried document.
        if req.headers.contains("X-DCWS-Push") {
            return Outcome::Response(self.accept_push(req, now_ms));
        }

        let path = match req.url() {
            Ok(u) => u.path().to_string(),
            Err(_) => {
                self.stats.bad_requests += 1;
                return Outcome::Response(Response::new(StatusCode::BadRequest));
            }
        };

        let inter = is_inter_server(req);
        let outcome = match decode_migrate_path(&path) {
            Err(_) => {
                self.stats.bad_requests += 1;
                Outcome::Response(Response::new(StatusCode::BadRequest))
            }
            Ok(Some(t)) if t.home != self.id => self.serve_coop(t.home, t.path, req, now_ms),
            Ok(Some(t)) => self.serve_home(&t.path, req, now_ms),
            Ok(None) => self.serve_home(&path, req, now_ms),
        };
        match outcome {
            Outcome::Response(mut resp) => {
                if !inter {
                    // Client GETs may carry a byte range; 304 conditional
                    // hits and errors pass through apply_range untouched,
                    // so If-Modified-Since wins over Range.
                    resp = apply_range(req, resp);
                }
                self.window.record(now_ms, resp.body.len() as u64);
                if inter {
                    self.attach_reports(&mut resp.headers, now_ms);
                }
                Outcome::Response(resp)
            }
            Outcome::Stream { mut resp, body } => {
                // Range was already resolved when the stream was opened.
                self.window.record(now_ms, body.len());
                if inter {
                    self.attach_reports(&mut resp.headers, now_ms);
                }
                Outcome::Stream { resp, body }
            }
            fetch @ Outcome::FetchNeeded { .. } => fetch,
        }
    }

    /// Serve in the co-op role: a `~migrate` URL for another home's doc.
    fn serve_coop(&mut self, home: ServerId, path: String, req: &Request, now_ms: u64) -> Outcome {
        let key = (home.clone(), path.clone());
        // A fresh moved-tombstone answers immediately with the current
        // location; an expired one triggers a re-check via pull.
        if let Some((url, expires)) = self.coop_moved.get(&key) {
            if now_ms < *expires {
                self.stats.redirects += 1;
                return Outcome::Response(Response::moved_permanently(&url.clone()));
            }
            self.coop_moved.remove(&key);
        }
        match self.coop_cache.get(&coop_cache_key(&home, &path)) {
            Some(doc) if doc.negative => {
                // Recalled copy (negative entry). If home is known dead,
                // best-effort serve the stale bytes (§4.5 case 4).
                // Otherwise re-pull: if the home re-migrated the document
                // to us meanwhile, the pull re-validates the copy; if
                // not, the home's answer (a 301 to wherever it lives now)
                // is relayed to the client. Never blind-redirect home —
                // the home may point right back here, and that loop would
                // never break because revoked copies are excluded from
                // T_val validation.
                if self.dead_peers.contains(&home) {
                    return Outcome::Response(self.serve_coop_doc(&doc, req));
                }
                Outcome::FetchNeeded { home, path }
            }
            Some(doc) => Outcome::Response(self.serve_coop_doc(&doc, req)),
            None => {
                // A pulled body too large for the cache may be staged for
                // exactly one serve; without this the retry after a pull
                // would miss again and loop on FetchNeeded.
                if let Some(i) = self.pending_serve.iter().position(|(k, _)| *k == key) {
                    let (_, doc) = self.pending_serve.remove(i);
                    return Outcome::Response(self.serve_coop_doc(&doc, req));
                }
                Outcome::FetchNeeded { home, path }
            }
        }
    }

    /// Ship a co-op-held copy: a 304 when the client's
    /// `If-Modified-Since` covers it, the body otherwise, `Last-Modified`
    /// either way.
    fn serve_coop_doc(&mut self, doc: &CachedDoc, req: &Request) -> Response {
        let last_modified = http_date(doc.modified_ms);
        if let Some(since) = req
            .headers
            .get("If-Modified-Since")
            .and_then(parse_http_date)
        {
            // HTTP dates have second granularity; compare at that grain.
            if doc.modified_ms / 1000 * 1000 <= since {
                self.stats.conditional_not_modified += 1;
                return Response::not_modified().with_header("Last-Modified", &last_modified);
            }
        }
        self.stats.served_coop += 1;
        self.stats.bytes_sent += doc.bytes.len() as u64;
        // A stale-marked copy (failed T_val) or a negative one served as
        // §4.5 crash insurance is freshness-unverified: count it.
        if doc.stale || doc.negative {
            self.stats.stale_serves += 1;
        }
        Response::ok(doc.bytes.clone(), &doc.content_type)
            .with_header("Last-Modified", &last_modified)
    }

    /// Serve in the home role.
    fn serve_home(&mut self, path: &str, req: &Request, _now_ms: u64) -> Outcome {
        if !self.ldg.contains(path) {
            self.stats.not_found += 1;
            return Outcome::Response(Response::not_found());
        }

        let requester = req.headers.get("X-DCWS-Coop").map(ServerId::new);
        // Co-op validation (§4.5 case 1): conditional re-request.
        if let Some(v) = req.headers.get("X-DCWS-Validate") {
            let v = v.to_string();
            return Outcome::Response(self.answer_validation(path, &v, requester.as_ref()));
        }
        // Lazy-migration pull (§4.2): ship content with absolute links.
        if req.headers.contains("X-DCWS-Pull") {
            return Outcome::Response(self.answer_pull_checked(path, requester.as_ref()));
        }

        let location = self
            .ldg
            .get(path)
            .map(|e| e.location.clone())
            .expect("contains checked");
        match location {
            Location::Coop(_) => {
                // §4.4: pre-migration address — redirect to the co-op.
                self.stats.redirects += 1;
                let url = self
                    .migrated_doc_url(path, path)
                    .expect("migrated doc has a co-op");
                let resp = Response::moved_permanently(&url);
                self.read.install_moved(path, resp.clone());
                Outcome::Response(resp)
            }
            Location::Home => {
                // Settle the Dirty bit first so the modification time the
                // conditional check compares against is current.
                self.settle_dirty(path);
                let at = self.doc_modified(path);
                let (modified, last_modified) = (at.ms, &*at.http_date);
                if let Some(since) = req
                    .headers
                    .get("If-Modified-Since")
                    .and_then(parse_http_date)
                {
                    // Second granularity: HTTP dates carry no millis.
                    if modified / 1000 * 1000 <= since {
                        self.stats.conditional_not_modified += 1;
                        self.ldg.record_hit(path, 0);
                        return Outcome::Response(
                            Response::not_modified().with_header("Last-Modified", last_modified),
                        );
                    }
                }
                // Sequoia-class objects stream straight from the store:
                // no whole-body buffer, no regen-cache copy, first chunk
                // on the wire after one read.
                if let Some(out) = self.try_stream_home(path, req, &at) {
                    return out;
                }
                let Some((bytes, ct)) = self.home_content(path) else {
                    // LDG/store inconsistency — treat as missing.
                    self.stats.not_found += 1;
                    return Outcome::Response(Response::not_found());
                };
                self.ldg.record_hit(path, bytes.len() as u64);
                self.stats.served_home += 1;
                self.stats.bytes_sent += bytes.len() as u64;
                // Prime the read path: subsequent GETs of this document
                // are served without the engine lock, sharing this body.
                self.read.install_doc(path, bytes.clone(), ct, modified);
                Outcome::Response(
                    Response::ok(bytes, ct).with_header("Last-Modified", last_modified),
                )
            }
        }
    }

    /// The serve of a large home object, when `path` qualifies: a `GET`
    /// or `HEAD` of a non-HTML document (served verbatim, never
    /// link-regenerated) published at least `stream_threshold_bytes`
    /// long. The object is opened once — by the first serve after
    /// anything changed it — and the reader primes the read path, which
    /// from then on answers plain clients itself; serves that still come
    /// here (inter-server requests, hosts without a streaming front end)
    /// share that resident reader. Any `Range` is resolved before the
    /// first read, so a resumed transfer starts at its offset, and a
    /// `HEAD` reads nothing at all. Returns `None` to fall back to the
    /// buffered path.
    fn try_stream_home(&mut self, path: &str, req: &Request, at: &Modified) -> Option<Outcome> {
        let threshold = self.cfg.stream_threshold_bytes;
        if threshold == 0 || !matches!(req.method, Method::Get | Method::Head) {
            return None;
        }
        let entry = self.ldg.get(path)?;
        if entry.kind == DocKind::Html || entry.size < threshold {
            return None;
        }
        let content_type = entry.kind.content_type();
        let reader = match self.read.stream_reader(path) {
            Some(resident) => resident,
            None => {
                let opened = self.originals.open_stream(path)?;
                self.read
                    .install_stream(path, opened.clone(), content_type, at.clone());
                opened
            }
        };
        let range = range_spec(req.method, req.headers.get(RANGE_HEADER));
        let (resp, body) = stream_answer(&reader, content_type, &at.http_date, req.method, range);
        let Some(body) = body else {
            // A head alone: the `200`'s for a HEAD (a hit), or a `416`.
            if req.method == Method::Head {
                self.ldg.record_hit(path, 0);
                self.stats.served_home += 1;
            }
            return Some(Outcome::Response(resp));
        };
        self.ldg.record_hit(path, body.len());
        self.stats.served_home += 1;
        self.stats.streamed_serves += 1;
        self.stats.bytes_sent += body.len();
        Some(Outcome::Stream { resp, body })
    }

    /// Whether `requester` is (one of) the co-op(s) currently assigned to
    /// host `path`. `None` (no identity header) is trusted for backward
    /// compatibility.
    fn is_current_coop(&self, path: &str, requester: Option<&ServerId>) -> bool {
        let Some(requester) = requester else {
            return true;
        };
        match self.ldg.get(path).map(|e| &e.location) {
            Some(Location::Coop(c)) => {
                c == requester
                    || self
                        .replicas
                        .get(path)
                        .is_some_and(|r| r.contains(requester))
            }
            _ => false,
        }
    }

    /// Answer a co-op validation: 304 when fresh, fresh content otherwise,
    /// and a revocation notice when the migration was abandoned or moved
    /// to a different co-op.
    fn answer_validation(
        &mut self,
        path: &str,
        peer_version: &str,
        requester: Option<&ServerId>,
    ) -> Response {
        let peer_version: u64 = peer_version.trim().parse().unwrap_or(0);
        let at_home = self
            .ldg
            .get(path)
            .map(|e| e.location.is_home())
            .unwrap_or(true);
        if at_home || !self.is_current_coop(path, requester) {
            // Revoked or re-targeted: tell this co-op to stand down.
            let mut resp = Response::new(StatusCode::Ok);
            resp.headers
                .set("X-DCWS-Revoked", "1")
                .expect("static header");
            resp.headers
                .set("Content-Length", "0")
                .expect("static header");
            self.stats.validations_refreshed += 1;
            return resp;
        }
        // Settle the Dirty bit first: a pending link rewrite bumps the
        // version, so the compare below sees it as a mismatch.
        self.settle_dirty(path);
        let version = self.doc_version(path);
        if peer_version == version {
            self.stats.validations_not_modified += 1;
            let mut resp = Response::not_modified();
            resp.headers
                .set("X-DCWS-Version", version.to_string())
                .expect("numeric header");
            resp.headers
                .set("Last-Modified", &*self.doc_modified(path).http_date)
                .expect("static header");
            return resp;
        }
        self.stats.validations_refreshed += 1;
        self.emit(EngineEvent::ValidationRefreshed {
            doc: path.to_string(),
            coop: requester.cloned(),
        });
        self.answer_pull(path, requester)
    }

    /// Answer a pull, but bounce pulls from a co-op that is no longer the
    /// assigned host: `301` to wherever the document now lives, which the
    /// stale co-op relays to its waiting clients.
    fn answer_pull_checked(&mut self, path: &str, requester: Option<&ServerId>) -> Response {
        let location = self.ldg.get(path).map(|e| e.location.clone());
        match location {
            Some(Location::Coop(_)) if self.is_current_coop(path, requester) => {
                self.answer_pull(path, requester)
            }
            Some(Location::Coop(_)) => {
                // Re-targeted elsewhere: point at the current co-op.
                self.stats.redirects += 1;
                let url = self
                    .migrated_doc_url(path, path)
                    .expect("migrated doc has a co-op");
                Response::moved_permanently(&url)
            }
            _ => {
                // Back home (or never migrated): point at the home copy.
                self.stats.redirects += 1;
                let (h, p) = self.id.host_port();
                let url = Url::absolute(h, p, path).expect("ldg names are valid paths");
                Response::moved_permanently(&url)
            }
        }
    }

    /// Serve a pull: freshly regenerated content with absolute links.
    fn answer_pull(&mut self, path: &str, requester: Option<&ServerId>) -> Response {
        let (bytes, version, ct) = self.pull_content(path);
        self.stats.pulls_served += 1;
        self.stats.bytes_sent += bytes.len() as u64;
        self.emit(EngineEvent::PullServed {
            doc: path.to_string(),
            coop: requester.cloned(),
        });
        // Integrity checksum: the receiving transport recomputes this
        // over the body it read, so a garbled transfer is retried
        // instead of being installed as a corrupt copy.
        let sum = body_checksum(&bytes);
        Response::ok(bytes, ct)
            .with_header("X-DCWS-Version", &version.to_string())
            .with_header("Last-Modified", &self.doc_modified(path).http_date)
            .with_header(CHECKSUM_HEADER, &sum)
    }

    /// Accept an eager-migration push into the co-op store.
    fn accept_push(&mut self, req: &Request, now_ms: u64) -> Response {
        let Some(home) = req.headers.get("X-DCWS-Home").map(ServerId::new) else {
            self.stats.bad_requests += 1;
            return Response::new(StatusCode::BadRequest);
        };
        let Ok(url) = req.url() else {
            self.stats.bad_requests += 1;
            return Response::new(StatusCode::BadRequest);
        };
        // Never install a garbled body: a push whose checksum does not
        // cover its bytes is rejected (the home falls back to lazy pull).
        if let Some(sum) = req.headers.get(CHECKSUM_HEADER) {
            if !checksum_matches(&req.body, sum) {
                self.stats.bad_requests += 1;
                return Response::new(StatusCode::BadRequest);
            }
        }
        let version = req
            .headers
            .get("X-DCWS-Version")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let content_type = req
            .headers
            .get("Content-Type")
            .unwrap_or("application/octet-stream")
            .to_string();
        let modified = req
            .headers
            .get("Last-Modified")
            .and_then(parse_http_date)
            .unwrap_or(now_ms);
        let mut doc = CachedDoc::new(req.body.clone(), content_type, version, now_ms);
        doc.modified_ms = modified;
        let result = self
            .coop_cache
            .insert(&coop_cache_key(&home, url.path()), doc);
        self.note_evictions("coop", result.evicted);
        let mut resp = Response::new(StatusCode::Ok);
        resp.headers
            .set("Content-Length", "0")
            .expect("static header");
        resp
    }

    /// Store the result of a lazy pull from `home` (§4.2: "a copy is
    /// stored on the co-op server's local disk for future purposes").
    /// Returns whether the pull succeeded.
    pub fn store_pulled(
        &mut self,
        home: &ServerId,
        path: &str,
        resp: &Response,
        now_ms: u64,
    ) -> bool {
        self.now_ms = self.now_ms.max(now_ms);
        self.ingest_reports(&resp.headers);
        if resp.status != StatusCode::Ok {
            return false;
        }
        let version = resp
            .headers
            .get("X-DCWS-Version")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let content_type = resp
            .headers
            .get("Content-Type")
            .unwrap_or("application/octet-stream")
            .to_string();
        let modified = resp
            .headers
            .get("Last-Modified")
            .and_then(parse_http_date)
            .unwrap_or(now_ms);
        let key = (home.clone(), path.to_string());
        self.coop_moved.remove(&key);
        let bytes = resp.body.len() as u64;
        self.pull_sizes.record(bytes);
        self.emit(EngineEvent::CachePull {
            doc: path.to_string(),
            home: home.clone(),
            bytes,
        });
        let mut doc = CachedDoc::new(resp.body.clone(), content_type, version, now_ms);
        doc.modified_ms = modified;
        let result = self
            .coop_cache
            .insert(&coop_cache_key(home, path), doc.clone());
        self.note_evictions("coop", result.evicted);
        if !result.stored {
            // Too large for our budget slice: stage the body so the
            // retry that follows this pull can serve it exactly once.
            if self.pending_serve.len() >= PENDING_SERVE_CAP {
                self.pending_serve.remove(0);
            }
            self.pending_serve.push((key, doc));
        }
        true
    }

    /// Digest a *rejected* pull: the home answered with a redirect because
    /// the document lives elsewhere (re-targeted, or back home). Store a
    /// moved-tombstone so subsequent requests 301 straight there instead
    /// of pulling again; it expires after T_val so the assignment is
    /// eventually re-checked.
    pub fn pull_rejected(&mut self, home: &ServerId, path: &str, resp: &Response, now_ms: u64) {
        self.now_ms = self.now_ms.max(now_ms);
        self.ingest_reports(&resp.headers);
        if !resp.status.is_redirect() {
            return;
        }
        let Some(location) = resp.location() else {
            return;
        };
        let key = (home.clone(), path.to_string());
        // The old copy, if any, is superseded.
        self.coop_cache.remove(&coop_cache_key(home, path));
        self.pending_serve.retain(|(k, _)| *k != key);
        self.coop_moved
            .insert(key, (location, now_ms + self.cfg.validation_interval_ms));
    }

    /// Digest a validation response from `home` for `path` (§4.5).
    pub fn handle_validation_response(
        &mut self,
        home: &ServerId,
        path: &str,
        resp: &Response,
        now_ms: u64,
    ) {
        self.now_ms = self.now_ms.max(now_ms);
        self.ingest_reports(&resp.headers);
        let cache_key = coop_cache_key(home, path);
        // Peek, not get: the control path must not skew hit/miss counts
        // or LRU order.
        let Some(doc) = self.coop_cache.peek(&cache_key) else {
            return;
        };
        match resp.status {
            StatusCode::NotModified => {
                self.coop_cache.touch(&cache_key, now_ms);
                // Freshness re-verified: clear any stale marking left by
                // an earlier failed revalidation.
                self.coop_cache.set_stale(&cache_key, false);
            }
            StatusCode::Ok if resp.headers.contains("X-DCWS-Revoked") => {
                // Keep the bytes as crash insurance, stop serving them.
                self.coop_cache.set_negative(&cache_key, true);
                self.coop_cache.touch(&cache_key, now_ms);
            }
            StatusCode::Ok => {
                let version = resp
                    .headers
                    .get("X-DCWS-Version")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(doc.version + 1);
                let content_type = resp
                    .headers
                    .get("Content-Type")
                    .map(|ct| ct.to_string())
                    .unwrap_or(doc.content_type);
                let modified = resp
                    .headers
                    .get("Last-Modified")
                    .and_then(parse_http_date)
                    .unwrap_or(now_ms);
                let mut fresh = CachedDoc::new(resp.body.clone(), content_type, version, now_ms);
                fresh.modified_ms = modified;
                let result = self.coop_cache.insert(&cache_key, fresh);
                self.note_evictions("coop", result.evicted);
            }
            _ => {} // transient failure: retry at next T_val
        }
    }

    /// Digest a T_val revalidation that could not reach `home` at all
    /// (connection failure after the transport's retries). Degradation
    /// rung one: mark the copy stale and keep serving it — counted as
    /// stale serves — until a later revalidation succeeds.
    pub fn validation_failed(&mut self, home: &ServerId, path: &str, now_ms: u64) {
        self.now_ms = self.now_ms.max(now_ms);
        self.stats.validation_failures += 1;
        self.coop_cache.set_stale(&coop_cache_key(home, path), true);
        self.emit(EngineEvent::ValidationFailed {
            doc: path.to_string(),
            home: home.clone(),
        });
    }

    /// Record that a lazy pull of `path` from `home` failed after the
    /// transport's retries. Marks any retained copy stale; the host then
    /// answers each waiting request via [`Self::serve_stale`], or with a
    /// 503 + Retry-After when no bytes are held.
    pub fn note_pull_failure(&mut self, home: &ServerId, path: &str, now_ms: u64) {
        self.now_ms = self.now_ms.max(now_ms);
        self.stats.pull_failures += 1;
        self.coop_cache.set_stale(&coop_cache_key(home, path), true);
        self.emit(EngineEvent::PullFailed {
            doc: path.to_string(),
            home: home.clone(),
        });
    }

    /// Last rung of the degradation ladder (fresh → stale → 503): serve
    /// any retained copy of `home`'s `path` — stale-marked, or even a
    /// revoked/negative one kept as §4.5 crash insurance — rather than
    /// fail the client. Returns `None` when no bytes are held.
    pub fn serve_stale(&mut self, home: &ServerId, path: &str, now_ms: u64) -> Option<Response> {
        self.now_ms = self.now_ms.max(now_ms);
        let doc = self.coop_cache.peek(&coop_cache_key(home, path))?;
        self.stats.served_coop += 1;
        self.stats.bytes_sent += doc.bytes.len() as u64;
        self.stats.stale_serves += 1;
        self.window.record(now_ms, doc.bytes.len() as u64);
        Some(
            Response::ok(doc.bytes.clone(), &doc.content_type)
                .with_header("Last-Modified", &http_date(doc.modified_ms)),
        )
    }
}
