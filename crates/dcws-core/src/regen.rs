//! Document regeneration — §4.3 parsing and reconstruction.
//!
//! Regeneration always starts from the *permanent original* copy, so link
//! rewrites never compound: each pass maps every site-local URL to its
//! current correct form given the LDG. Two variants exist:
//!
//! * **home serving**: links to migrated targets become absolute
//!   `~migrate` URLs at their co-op; links to home-resident targets stay
//!   as originally written (relative).
//! * **pull serving** (content shipped to a co-op): additionally, links to
//!   home-resident targets become absolute URLs at the home server, since
//!   the document will be served from a different host where relative
//!   links would resolve wrongly.

use crate::engine::{home_variant_key, pull_variant_key, Modified, ServerEngine};
use crate::events::EngineEvent;
use dcws_cache::CachedDoc;
use dcws_graph::{DocKind, Location};
use dcws_http::{Body, Url};

/// How links to home-resident targets are written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinkBase {
    /// Serving from home: home targets keep their original (relative) form.
    Relative,
    /// Serving a copy that will live on another host: home targets become
    /// absolute `http://home/...` URLs.
    AbsoluteHome,
}

impl ServerEngine {
    /// Current version of a home document (bumped on publish and whenever
    /// a link rewrite changes the served form, so co-op validation detects
    /// both author updates and link-rewrite changes).
    pub fn doc_version(&self, name: &str) -> u64 {
        self.versions.get(name).copied().unwrap_or(0)
    }

    /// The single Dirty-bit settlement path, shared by home serving, pull
    /// serving, and validation answering: if `name` is dirty, bump its
    /// version, stamp a new modification time, mark it rewritten, and
    /// invalidate both regen-cache variants. Idempotent when clean, so
    /// every entry point may call it without double-bumping.
    pub(crate) fn settle_dirty(&mut self, name: &str) {
        if !self.ldg.get(name).is_some_and(|e| e.dirty) {
            return;
        }
        self.bump_version(name);
        if let Some(e) = self.ldg.get_mut(name) {
            e.dirty = false;
        }
        self.modified
            .insert(name.to_string(), Modified::at(self.now_ms));
        self.rewritten.insert(name.to_string());
        self.read.invalidate(name);
        self.regen_cache.remove(&home_variant_key(name));
        self.regen_cache.remove(&pull_variant_key(name));
    }

    /// The bytes to serve for home document `name`, regenerating first if
    /// the Dirty bit is set (§4.3). Returns `(bytes, content_type)`; an
    /// unrewritten document's bytes are the store's own
    /// ([`DocStore::get_body`](crate::DocStore::get_body)). Unknown
    /// documents return `None`.
    pub(crate) fn home_content(&mut self, name: &str) -> Option<(Body, &'static str)> {
        let entry = self.ldg.get(name)?;
        let kind = entry.kind;
        let content_type = kind.content_type();
        if kind != DocKind::Html {
            return Some((self.originals.get_body(name)?, content_type));
        }
        self.settle_dirty(name);
        // A never-rewritten document serves its pristine original without
        // touching the cache — no regeneration work to save, so no cache
        // misses charged either.
        if !self.rewritten.contains(name) {
            return Some((self.originals.get_body(name)?, content_type));
        }
        let key = home_variant_key(name);
        let version = self.doc_version(name);
        match self.regen_cache.get(&key) {
            Some(cached) if cached.version == version => Some((cached.bytes, content_type)),
            _ => {
                let regenerated: Body = self.regenerate(name, LinkBase::Relative)?.into();
                self.count_regeneration(name, true);
                self.cache_regen(name, &key, regenerated.clone(), content_type, version);
                Some((regenerated, content_type))
            }
        }
    }

    /// The bytes shipped to a co-op pulling `name` (or pushed eagerly):
    /// regenerated with absolute home links (cached per version). Returns
    /// `(bytes, version, content_type)`.
    ///
    /// A document whose `Dirty` bit is set (one of its link targets moved
    /// after it was shipped) gets its version bump here via
    /// [`Self::settle_dirty`], so the co-op's next T_val validation sees a
    /// mismatch and refreshes its copy instead of serving stale hyperlinks
    /// forever.
    pub(crate) fn pull_content(&mut self, name: &str) -> (Body, u64, &'static str) {
        self.settle_dirty(name);
        let kind = self.ldg.get(name).map(|e| e.kind).unwrap_or(DocKind::Image);
        let content_type = kind.content_type();
        let version = self.doc_version(name);
        if kind != DocKind::Html {
            let bytes = self.originals.get_body(name).unwrap_or_default();
            return (bytes, version, content_type);
        }
        let key = pull_variant_key(name);
        match self.regen_cache.get(&key) {
            Some(cached) if cached.version == version => (cached.bytes, version, content_type),
            _ => {
                // A real parse + reconstruct (§4.3) — counted so hosts
                // can charge its CPU cost — then cached per version.
                let bytes = match self.regenerate(name, LinkBase::AbsoluteHome) {
                    Some(regenerated) => regenerated.into(),
                    None => self.originals.get_body(name).unwrap_or_default(),
                };
                self.count_regeneration(name, false);
                self.cache_regen(name, &key, bytes.clone(), content_type, version);
                (bytes, version, content_type)
            }
        }
    }

    fn count_regeneration(&mut self, name: &str, at_home: bool) {
        self.stats.regenerations += 1;
        self.emit(EngineEvent::DocRegenerated {
            doc: name.to_string(),
            at_home,
        });
    }

    /// Insert a freshly regenerated body for `name` into the regen cache
    /// under `key`, carrying the document's modification time for
    /// `Last-Modified`.
    fn cache_regen(
        &mut self,
        name: &str,
        key: &str,
        bytes: Body,
        content_type: &str,
        version: u64,
    ) {
        let mut doc = CachedDoc::new(bytes, content_type, version, self.now_ms);
        doc.modified_ms = self.doc_modified_ms(name);
        let result = self.regen_cache.insert(key, doc);
        self.note_evictions("regen", result.evicted);
    }

    fn bump_version(&mut self, name: &str) -> u64 {
        let v = self.versions.entry(name.to_string()).or_insert(0);
        *v += 1;
        *v
    }

    /// Parse the original, rewrite every site-local URL to its current
    /// form, and serialize (the paper's parse-tree round trip).
    fn regenerate(&self, name: &str, base_mode: LinkBase) -> Option<Vec<u8>> {
        let original = self.originals.get_body(name)?;
        let html = String::from_utf8_lossy(&original);
        let base = Url::relative(name).ok()?;
        let (self_host, self_port) = self.id.host_port();
        let (out, _) = dcws_html::rewrite_links(&html, |raw| {
            let u = base.join(raw).ok()?;
            // Only site-local references are ours to rewrite.
            if let Some(host) = u.host() {
                if host != self_host || u.port() != self_port {
                    return None;
                }
            }
            let path = u.path();
            let entry = self.ldg.get(path)?;
            match (&entry.location, base_mode) {
                (Location::Coop(_), _) => {
                    // Migrated: absolute ~migrate URL at its co-op
                    // (replica-spread by source document).
                    Some(self.migrated_doc_url(path, name)?.to_string())
                }
                (Location::Home, LinkBase::Relative) => {
                    // Original relative form is already correct; but if the
                    // author wrote an absolute self-URL or the original was
                    // regenerated before, normalize back to the plain path.
                    (raw != path).then(|| path.to_string())
                }
                (Location::Home, LinkBase::AbsoluteHome) => {
                    Some(format!("http://{}{}", self.id, path))
                }
            }
        });
        Some(out.into_bytes())
    }
}
