//! Request handling — the data plane of §4.2–§4.4.

use crate::engine::{Modified, ServerEngine};
use crate::events::EngineEvent;
use crate::naming::{decode_migrate_path, migrate_path};
use crate::readpath::{CoopCopy, Served};
use crate::stream::stream_answer;
use dcws_graph::{DocKind, Location, ServerId};
use dcws_http::{
    apply_range, body_checksum, checksum_matches, parse_http_date, range_spec, Body, HeaderValue,
    Headers, Method, Request, Response, StatusCode, StreamBody, Url, CHECKSUM_HEADER, RANGE_HEADER,
    STREAM_CHUNK,
};
use std::sync::Arc;

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
    /// Co-op miss (§4.2 case 1): `path` must be pulled from `home` before
    /// the request can be answered. [`Front`](crate::Front) turns this
    /// into one pull per document, settles it, and answers every request
    /// that waited on it from the copy the pull brought in, or degrades.
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

/// Whether a request's `If-Modified-Since` covers a copy last modified at
/// `modified_ms`, compared at the second granularity of HTTP dates.
pub(crate) fn unmodified_since(if_modified_since: Option<&str>, modified_ms: u64) -> bool {
    if_modified_since
        .and_then(parse_http_date)
        .is_some_and(|since| modified_ms / 1000 * 1000 <= since)
}

/// A home's message — a pull's `200`, a push, a refreshed validation — as
/// the co-op copy it carries. `X-DCWS-Version` and `Content-Type` default
/// to the `held` copy's successor, else to version 0 and an octet stream;
/// `Last-Modified` to `now`.
fn carried_copy(headers: &Headers, body: &Body, held: Option<&CoopCopy>, now: u64) -> CoopCopy {
    let version = headers
        .get("X-DCWS-Version")
        .and_then(|v| v.parse().ok())
        .unwrap_or(held.map_or(0, |copy| copy.version + 1));
    let content_type: Arc<str> = match (headers.get("Content-Type"), held) {
        (Some(content_type), _) => content_type.into(),
        (None, Some(copy)) => copy.content_type.clone(),
        (None, None) => "application/octet-stream".into(),
    };
    let modified_ms = headers
        .get("Last-Modified")
        .and_then(parse_http_date)
        .unwrap_or(now);
    let modified = Modified::at(modified_ms);
    let resp = Response::ok(body.clone(), content_type.clone())
        .with_header("Last-Modified", modified.http_date.clone());
    CoopCopy {
        served: Served::from_response(resp),
        content_type,
        modified,
        version,
        fetched_at: now,
        stale: false,
        negative: false,
    }
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
            let mut resp = Response::new(StatusCode::Ok).with_header("Content-Length", "0");
            self.attach_reports(&mut resp.headers, now_ms);
            return Outcome::Response(resp);
        }

        // Eager-migration push (ablation): store the carried document.
        if req.headers.contains("X-DCWS-Push") {
            return Outcome::Response(self.accept_push(req, now_ms));
        }

        // The path `req.url()` would parse, borrowed from the target
        // whenever it needs no normalizing.
        let path = match Url::request_path(&req.target) {
            Ok(p) => p,
            Err(_) => {
                self.stats.bad_requests += 1;
                return Outcome::Response(Response::new(StatusCode::BadRequest));
            }
        };

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
            Outcome::Response(resp) => Outcome::Response(self.answered(req, resp, now_ms)),
            Outcome::Stream { mut resp, body } => {
                // Range was already resolved when the stream was opened.
                self.window.record(now_ms, body.len());
                if is_inter_server(req) {
                    self.attach_reports(&mut resp.headers, now_ms);
                }
                Outcome::Stream { resp, body }
            }
            fetch @ Outcome::FetchNeeded { .. } => fetch,
        }
    }

    /// Answer `req` from `copy`: a co-op copy a pull brought in, or the
    /// one a failed pull left retained. The answer is the one
    /// [`Self::handle_request`] gives from a held copy — `304` or `200`
    /// with `Last-Modified`, then the same way out.
    pub fn serve_copy(&mut self, req: &Request, copy: &CoopCopy, now_ms: u64) -> Response {
        self.now_ms = self.now_ms.max(now_ms);
        let resp = self.serve_coop_doc(copy, req);
        self.answered(req, resp, now_ms)
    }

    /// The way out of a buffered answer: a client GET's byte range (a
    /// `304` or an error passes through `apply_range` untouched, so
    /// `If-Modified-Since` wins over `Range`), the rate window, and an
    /// inter-server answer's piggybacked load reports.
    fn answered(&mut self, req: &Request, mut resp: Response, now_ms: u64) -> Response {
        let inter = is_inter_server(req);
        if !inter {
            resp = apply_range(req, resp);
        }
        self.window.record(now_ms, resp.body.len() as u64);
        if inter {
            self.attach_reports(&mut resp.headers, now_ms);
        }
        resp
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
        match self.read.table.copy(&migrate_path(&home, &path)) {
            Some(copy) if copy.negative => {
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
                    return Outcome::Response(self.serve_coop_doc(&copy, req));
                }
                Outcome::FetchNeeded { home, path }
            }
            Some(copy) => Outcome::Response(self.serve_coop_doc(&copy, req)),
            None => Outcome::FetchNeeded { home, path },
        }
    }

    /// Ship a co-op-held copy and count it.
    fn serve_coop_doc(&mut self, copy: &CoopCopy, req: &Request) -> Response {
        // A stale-marked copy (failed T_val or pull) or a negative one
        // served as §4.5 crash insurance is freshness-unverified: count it.
        let unverified = copy.stale || copy.negative;
        let last_modified = copy.modified.http_date.clone();
        let resp = if unmodified_since(req.headers.get("If-Modified-Since"), copy.modified.ms) {
            Response::not_modified().with_header("Last-Modified", last_modified)
        } else {
            Response::ok(copy.served.body.clone(), copy.content_type.clone())
                .with_header("Last-Modified", last_modified)
        };
        if resp.status == StatusCode::NotModified {
            self.stats.conditional_not_modified += 1;
        } else {
            self.stats.served_coop += 1;
            self.stats.bytes_sent += resp.body.len() as u64;
            self.stats.stale_serves += u64::from(unverified);
        }
        resp
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
                let evicted = self.read.table.install_moved(path, resp.clone());
                self.note_evictions(evicted);
                Outcome::Response(resp)
            }
            Location::Home => {
                // Settle the Dirty bit first so the modification time the
                // conditional check compares against is current.
                self.settle_dirty(path);
                let at = self.doc_modified(path);
                if unmodified_since(req.headers.get("If-Modified-Since"), at.ms) {
                    self.stats.conditional_not_modified += 1;
                    self.ldg.record_hit(path, 0);
                    return Outcome::Response(
                        Response::not_modified().with_header("Last-Modified", at.http_date),
                    );
                }
                // Sequoia-class objects stream straight from the store:
                // no whole-body buffer, no regenerated copy, first chunk
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
                let evicted = self.read.table.install_doc(path, bytes.clone(), ct, &at);
                self.note_evictions(evicted);
                Outcome::Response(
                    Response::ok(bytes, ct).with_header("Last-Modified", at.http_date),
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
        let reader = match self.read.table.stream_reader(path) {
            Some(resident) => resident,
            None => {
                let opened = self.originals.open_stream(path)?;
                let evicted = (self.read.table).install_stream(
                    path,
                    opened.clone(),
                    content_type,
                    at.clone(),
                );
                self.note_evictions(evicted);
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
            self.stats.validations_refreshed += 1;
            return Response::new(StatusCode::Ok)
                .with_header("X-DCWS-Revoked", "1")
                .with_header("Content-Length", "0");
        }
        // Settle the Dirty bit first: a pending link rewrite bumps the
        // version, so the compare below sees it as a mismatch.
        self.settle_dirty(path);
        let version = self.doc_version(path);
        if peer_version == version {
            self.stats.validations_not_modified += 1;
            return Response::not_modified()
                .with_header("X-DCWS-Version", HeaderValue::decimal(version))
                .with_header("Last-Modified", self.doc_modified(path).http_date);
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
            .with_header("X-DCWS-Version", HeaderValue::decimal(version))
            .with_header("Last-Modified", self.doc_modified(path).http_date)
            .with_header(CHECKSUM_HEADER, sum)
    }

    /// Accept an eager-migration push into the co-op store.
    fn accept_push(&mut self, req: &Request, now_ms: u64) -> Response {
        let Some(home) = req.headers.get("X-DCWS-Home").map(ServerId::new) else {
            self.stats.bad_requests += 1;
            return Response::new(StatusCode::BadRequest);
        };
        let Ok(path) = Url::request_path(&req.target) else {
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
        let copy = carried_copy(&req.headers, &req.body, None, now_ms);
        self.keep_copy(&migrate_path(&home, &path), copy);
        Response::new(StatusCode::Ok).with_header("Content-Length", "0")
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
        self.pulled_copy(home, path, resp, now_ms).is_some()
    }

    /// [`Self::store_pulled`], handing back the copy a `200` brought in:
    /// what every request that waited on the pull is answered from,
    /// whether or not the store kept it.
    pub(crate) fn pulled_copy(
        &mut self,
        home: &ServerId,
        path: &str,
        resp: &Response,
        now_ms: u64,
    ) -> Option<CoopCopy> {
        self.now_ms = self.now_ms.max(now_ms);
        self.ingest_reports(&resp.headers);
        if resp.status != StatusCode::Ok {
            return None;
        }
        self.coop_moved.remove(&(home.clone(), path.to_string()));
        let bytes = resp.body.len() as u64;
        self.pull_sizes.record(bytes);
        self.emit(EngineEvent::CachePull {
            doc: path.to_string(),
            home: home.clone(),
            bytes,
        });
        let copy = carried_copy(&resp.headers, &resp.body, None, now_ms);
        self.keep_copy(&migrate_path(home, path), copy.clone());
        Some(copy)
    }

    /// Hold `copy` in the store under `key` and log what that evicted.
    fn keep_copy(&mut self, key: &str, copy: CoopCopy) {
        let threshold = self.cfg.stream_threshold_bytes;
        let evicted = self.read.table.install_copy(key, copy, threshold);
        self.note_evictions(evicted);
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
        self.read.table.drop_entry(&migrate_path(home, path));
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
        let key = migrate_path(home, path);
        // Not a counted lookup: the control path must not skew hit/miss
        // counts or CLOCK bits.
        let table = &self.read.table;
        match resp.status {
            StatusCode::NotModified => {
                // Freshness re-verified: clear any stale marking left by
                // an earlier failed revalidation.
                table.with_copy(&key, |copy| {
                    copy.fetched_at = now_ms;
                    copy.stale = false;
                });
            }
            StatusCode::Ok if resp.headers.contains("X-DCWS-Revoked") => {
                // Keep the bytes as crash insurance, stop serving them.
                table.with_copy(&key, |copy| {
                    copy.fetched_at = now_ms;
                    copy.negative = true;
                });
            }
            StatusCode::Ok => {
                let Some(held) = table.with_copy(&key, |copy| copy.clone()) else {
                    return;
                };
                let fresh = carried_copy(&resp.headers, &resp.body, Some(&held), now_ms);
                self.keep_copy(&key, fresh);
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
        (self.read.table).with_copy(&migrate_path(home, path), |copy| copy.stale = true);
        self.emit(EngineEvent::ValidationFailed {
            doc: path.to_string(),
            home: home.clone(),
        });
    }

    /// Record that a lazy pull of `path` from `home` failed after the
    /// transport's retries, and hand back any retained copy marked stale —
    /// even a revoked one kept as §4.5 crash insurance. The degradation
    /// ladder's last rungs (fresh → stale → 503): each waiting request is
    /// answered from that copy through [`Self::serve_copy`], counted as a
    /// stale serve, or with a 503 + Retry-After when no bytes are held.
    pub fn note_pull_failure(
        &mut self,
        home: &ServerId,
        path: &str,
        now_ms: u64,
    ) -> Option<CoopCopy> {
        self.now_ms = self.now_ms.max(now_ms);
        self.stats.pull_failures += 1;
        let retained = self
            .read
            .table
            .with_copy(&migrate_path(home, path), |copy| {
                copy.stale = true;
                copy.clone()
            });
        self.emit(EngineEvent::PullFailed {
            doc: path.to_string(),
            home: home.clone(),
        });
        retained
    }
}
