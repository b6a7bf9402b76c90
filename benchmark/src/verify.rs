//! What the servers must return: the corpus a workload publishes, and the
//! check applied to every response.
//!
//! Bodies are length-checked always. Every body under [`DEEP_BELOW`] is
//! also compared byte for byte, and the caller picks a seeded 1-in-16 of
//! the larger ones (`deep`). HTML is compared after mapping each absolute
//! hyperlink the servers wrote (`~migrate` URLs, and home URLs in copies
//! shipped to a co-op) back to the path the author wrote.

use crate::client::{find, split_url, Fetched, Target};
use dcws_workloads::{materialize::materialize, Dataset, DocSpec, PageKind};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Mutex;

/// Bodies smaller than this are always compared in full.
pub const DEEP_BELOW: usize = 64 * 1024;
/// One in this many larger bodies is compared in full.
pub const DEEP_ONE_IN: u64 = 16;
/// Published versions remembered per document.
const HISTORY: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wrong {
    UnknownDoc,
    Length,
    Range,
    Bytes,
    Version,
}

pub struct Doc {
    pub spec: DocSpec,
    /// Materialised bytes, kept for documents under [`DEEP_BELOW`]; larger
    /// ones are rebuilt from the spec when a response is compared, so the
    /// harness does not hold a second copy of a 250 MB corpus.
    bytes: Option<Vec<u8>>,
    /// `(version, published_ns)` of republished pages, oldest first.
    /// Version 0 is the materialised original and is never listed.
    history: Mutex<Vec<(u32, u64)>>,
}

impl Doc {
    pub fn is_html(&self) -> bool {
        self.spec.kind == PageKind::Html
    }

    pub fn original(&self) -> Cow<'_, [u8]> {
        match &self.bytes {
            Some(b) => Cow::Borrowed(b),
            None => Cow::Owned(materialize(&self.spec)),
        }
    }
}

pub struct Corpus {
    pub docs: Vec<Doc>,
    by_name: HashMap<String, usize>,
    /// A co-op revalidates its copies every T_val, so it may lawfully
    /// serve a version this long after a newer one was published.
    pub stale_window_ns: u64,
}

const MARKER_HEAD: &str = "<!-- dcws-benchmark v=";
const MARKER_TAIL: &str = " -->\n";
const MARKER_LEN: usize = MARKER_HEAD.len() + 8 + MARKER_TAIL.len();

/// The comment a republished page carries after its last byte.
pub fn version_marker(version: u32) -> String {
    format!("{MARKER_HEAD}{version:08}{MARKER_TAIL}")
}

impl Corpus {
    pub fn new(dataset: &Dataset, stale_window_ns: u64) -> Corpus {
        let docs: Vec<Doc> = dataset
            .docs
            .iter()
            .map(|spec| Doc {
                bytes: ((spec.size as usize) < DEEP_BELOW).then(|| materialize(spec)),
                spec: spec.clone(),
                history: Mutex::new(Vec::new()),
            })
            .collect();
        let by_name = docs
            .iter()
            .enumerate()
            .map(|(i, d)| (d.spec.name.clone(), i))
            .collect();
        Corpus {
            docs,
            by_name,
            stale_window_ns,
        }
    }

    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Bytes of a republished page. Call [`Corpus::note_publish`] before
    /// handing them to the engine, so a racing reader is never ahead of
    /// the table.
    pub fn republished(&self, doc: usize, version: u32) -> Vec<u8> {
        let mut b = self.docs[doc].original().into_owned();
        b.extend_from_slice(version_marker(version).as_bytes());
        b
    }

    /// Record that `doc` is about to be published at `version`.
    pub fn note_publish(&self, doc: usize, version: u32, now_ns: u64) {
        let mut h = self.docs[doc].history.lock().expect("history lock");
        if h.len() == HISTORY {
            h.remove(0);
        }
        h.push((version, now_ns));
    }

    /// Latest version of `doc` noted so far.
    pub fn current_version(&self, doc: usize) -> u32 {
        let h = self.docs[doc].history.lock().expect("history lock");
        h.last().map_or(0, |&(v, _)| v)
    }

    /// Is `version` one the servers may still serve at `now_ns`: the
    /// current one, the one before it, or one replaced less than the
    /// stale window ago?
    fn version_acceptable(&self, doc: usize, version: u32, now_ns: u64) -> bool {
        let h = self.docs[doc].history.lock().expect("history lock");
        let current = h.last().map_or(0, |&(v, _)| v);
        if version > current {
            return false;
        }
        if version + 1 >= current {
            return true;
        }
        // `version` was replaced when `version + 1` was published.
        h.iter()
            .find(|&&(v, _)| v == version + 1)
            .is_some_and(|&(_, at)| now_ns.saturating_sub(at) <= self.stale_window_ns)
    }

    /// Check a 2xx response against the corpus.
    pub fn check(
        &self,
        target: &Target,
        got: &Fetched,
        body: &[u8],
        deep: bool,
        now_ns: u64,
    ) -> Result<(), Wrong> {
        let name = doc_path(&got.path).ok_or(Wrong::UnknownDoc)?;
        let idx = self.index_of(&name).ok_or(Wrong::UnknownDoc)?;
        let doc = &self.docs[idx];
        if doc.is_html() {
            let (page, version) = split_marker(body);
            if !self.version_acceptable(idx, version, now_ns) {
                return Err(Wrong::Version);
            }
            let original = doc.original();
            return html_matches(page, &original)
                .then_some(())
                .ok_or(Wrong::Bytes);
        }
        let size = doc.spec.size;
        let (from, to) = match (got.status, target.range, got.content_range) {
            (206, Some((a, b)), Some((ca, cb, total))) => {
                let b = b.min(size.saturating_sub(1));
                if (ca, cb, total) != (a, b, size) {
                    return Err(Wrong::Range);
                }
                (a as usize, b as usize + 1)
            }
            (200, None, None) => (0, size as usize),
            _ => return Err(Wrong::Range),
        };
        if body.len() != to - from {
            return Err(Wrong::Length);
        }
        if body.len() < DEEP_BELOW || deep {
            let original = doc.original();
            if body != &original[from..to] {
                return Err(Wrong::Bytes);
            }
        }
        Ok(())
    }
}

/// The document a request path names: itself, or the home path inside a
/// `~migrate` URL.
pub fn doc_path(path: &str) -> Option<Cow<'_, str>> {
    if !path.starts_with("/~") {
        return Some(Cow::Borrowed(path));
    }
    match dcws_core::decode_migrate_path(path) {
        Ok(Some(t)) => Some(Cow::Owned(t.path)),
        Ok(None) => Some(Cow::Borrowed(path)),
        Err(_) => None,
    }
}

/// Split a trailing version marker off a page; version 0 when absent.
fn split_marker(body: &[u8]) -> (&[u8], u32) {
    if body.len() >= MARKER_LEN {
        let (page, tail) = body.split_at(body.len() - MARKER_LEN);
        if let Some(v) = std::str::from_utf8(tail)
            .ok()
            .and_then(|t| t.strip_prefix(MARKER_HEAD))
            .and_then(|t| t.strip_suffix(MARKER_TAIL))
            .and_then(|t| t.parse().ok())
        {
            return (page, v);
        }
    }
    (body, 0)
}

/// Does `served` equal `original` once every absolute URL in it is mapped
/// back to the site-local path it stands for?
fn html_matches(served: &[u8], original: &[u8]) -> bool {
    let (mut s, mut o) = (0, 0);
    while let Some(i) = find(&served[s..], b"http://") {
        let verbatim = &served[s..s + i];
        if !original[o..].starts_with(verbatim) {
            return false;
        }
        o += verbatim.len();
        let url_start = s + i;
        let Some(len) = served[url_start..]
            .iter()
            .position(|&c| matches!(c, b'"' | b'\'' | b'>' | b' '))
        else {
            return false;
        };
        let Some(path) = std::str::from_utf8(&served[url_start..url_start + len])
            .ok()
            .and_then(split_url)
            .and_then(|(_, _, p)| doc_path(p))
        else {
            return false;
        };
        if !original[o..].starts_with(path.as_bytes()) {
            return false;
        }
        o += path.len();
        s = url_start + len;
    }
    served[s..] == original[o..]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcws_graph::ServerId;

    fn got(status: u16, path: &str, content_range: Option<(u64, u64, u64)>) -> Fetched {
        Fetched {
            status,
            server: 0,
            path: path.into(),
            is_html: false,
            content_range,
            hops: Vec::new(),
            backoffs: 0,
        }
    }

    fn target(path: &str, range: Option<(u64, u64)>) -> Target {
        Target {
            server: 0,
            path: path.into(),
            range,
        }
    }

    fn lod() -> (Dataset, Corpus) {
        let ds = Dataset::lod(7);
        let c = Corpus::new(&ds, 3_000_000_000);
        (ds, c)
    }

    #[test]
    fn accepts_the_original_and_rejects_a_flipped_byte() {
        let (ds, corpus) = lod();
        let spec = ds.get("/thumbs/item003.gif").unwrap();
        let mut body = materialize(spec);
        let t = target(&spec.name, None);
        let g = got(200, &spec.name, None);
        assert_eq!(corpus.check(&t, &g, &body, false, 0), Ok(()));
        let mid = body.len() / 2;
        body[mid] ^= 1;
        assert_eq!(corpus.check(&t, &g, &body, false, 0), Err(Wrong::Bytes));
        body.pop();
        assert_eq!(corpus.check(&t, &g, &body, false, 0), Err(Wrong::Length));
    }

    #[test]
    fn rejects_a_wrong_partial_content_slice() {
        let (ds, corpus) = lod();
        let spec = ds.get("/thumbs/item004.gif").unwrap();
        let full = materialize(spec);
        let t = target(&spec.name, Some((100, 299)));
        let right = got(206, &spec.name, Some((100, 299, spec.size)));
        assert_eq!(corpus.check(&t, &right, &full[100..300], false, 0), Ok(()));
        // Right length and header, bytes from one position further on.
        assert_eq!(
            corpus.check(&t, &right, &full[101..301], false, 0),
            Err(Wrong::Bytes)
        );
        // A header naming another slice than the one asked for.
        let shifted = got(206, &spec.name, Some((101, 300, spec.size)));
        assert_eq!(
            corpus.check(&t, &shifted, &full[101..301], false, 0),
            Err(Wrong::Range)
        );
        // The whole document where a slice was asked for.
        let whole = got(200, &spec.name, None);
        assert_eq!(corpus.check(&t, &whole, &full, false, 0), Err(Wrong::Range));
    }

    #[test]
    fn large_bodies_are_compared_only_when_sampled() {
        let ds = Dataset::new(
            "big",
            vec![DocSpec {
                name: "/big.img".into(),
                size: 100_000,
                kind: PageKind::Image,
                anchors: vec![],
                embeds: vec![],
                entry_point: false,
            }],
        );
        let corpus = Corpus::new(&ds, 0);
        let mut body = materialize(&ds.docs[0]);
        body[50_000] ^= 1;
        let (t, g) = (target("/big.img", None), got(200, "/big.img", None));
        assert_eq!(corpus.check(&t, &g, &body, false, 0), Ok(()));
        assert_eq!(corpus.check(&t, &g, &body, true, 0), Err(Wrong::Bytes));
    }

    /// Rewrite `page` the way a home server does once `moved` has
    /// migrated to `coop`, using the engine's own naming and rewriter.
    fn rewritten(page: &[u8], moved: &str, home: &ServerId, coop: &ServerId) -> Vec<u8> {
        let html = String::from_utf8(page.to_vec()).unwrap();
        let (out, n) = dcws_html::rewrite_links(&html, |raw| {
            (raw == moved).then(|| dcws_core::migrate_url(coop, home, raw).unwrap().to_string())
        });
        assert_eq!(n, 1);
        out.into_bytes()
    }

    #[test]
    fn accepts_a_correctly_rewritten_page_and_rejects_a_misdirected_one() {
        let (ds, corpus) = lod();
        let home = ServerId::new("127.0.0.1:7000");
        let coop = ServerId::new("127.0.0.1:7001");
        let spec = ds.get("/tables/table0.html").unwrap();
        let page = materialize(spec);
        let served = rewritten(&page, "/thumbs/item001.gif", &home, &coop);
        assert_ne!(served, page);
        let via_coop = "/~migrate/127.0.0.1/7000/tables/table0.html";
        let t = target(&spec.name, None);
        let mut g = got(200, via_coop, None);
        g.is_html = true;
        assert_eq!(corpus.check(&t, &g, &served, false, 0), Ok(()));
        // The same rewrite pointing at another document is wrong bytes.
        let text = String::from_utf8(served).unwrap();
        let bad = text.replace("/7000/thumbs/item001.gif", "/7000/thumbs/item002.gif");
        assert_eq!(
            corpus.check(&t, &g, bad.as_bytes(), false, 0),
            Err(Wrong::Bytes)
        );
    }

    #[test]
    fn republished_versions_age_out() {
        let (ds, corpus) = lod();
        let idx = corpus.index_of("/guide/page001.html").unwrap();
        let spec = &ds.docs[idx];
        let t = target(&spec.name, None);
        let mut g = got(200, &spec.name, None);
        g.is_html = true;
        const S: u64 = 1_000_000_000;
        for v in 1..=3 {
            corpus.note_publish(idx, v, u64::from(v) * S);
        }
        assert_eq!(corpus.current_version(idx), 3);
        let at = |v: u32, now: u64| corpus.check(&t, &g, &corpus.republished(idx, v), false, now);
        assert_eq!(at(3, 3 * S), Ok(()));
        assert_eq!(at(2, 9 * S), Ok(()), "the previous version is always fine");
        assert_eq!(at(1, 4 * S), Ok(()), "replaced at 2 s, window 3 s");
        assert_eq!(at(1, 6 * S), Err(Wrong::Version));
        assert_eq!(at(4, 3 * S), Err(Wrong::Version), "never published");
        assert_eq!(version_marker(1).len(), MARKER_LEN);
    }
}
