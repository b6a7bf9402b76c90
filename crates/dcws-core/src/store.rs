//! Document content storage.
//!
//! The home server keeps a *permanent copy of the original document* for
//! "consistency and robustness" (§3.2), plus a regenerated current copy
//! when hyperlinks have been rewritten. [`MemStore`] backs the simulator
//! and tests; [`DiskStore`] backs the real TCP server, mirroring the
//! prototype's behaviour of writing regenerated documents back to their
//! HTML source files.

use crate::stream::DocReader;
use dcws_http::Body;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

/// Key-value store of document bytes, keyed by canonical document name
/// (`/path/doc.html`).
pub trait DocStore: Send {
    /// Fetch a document's bytes.
    fn get(&self, name: &str) -> Option<Vec<u8>>;
    /// Fetch a document as a shared [`Body`] — what the serve path asks
    /// for. The default wraps [`Self::get`]; a store whose documents are
    /// already resident as bodies answers with a refcount bump, so every
    /// serve of an unchanged document ships the store's own bytes.
    fn get_body(&self, name: &str) -> Option<Body> {
        self.get(name).map(Body::from)
    }
    /// Store (or replace) a document's bytes. An error means the
    /// document was *not* durably stored (invalid name, disk write or
    /// rename failure); callers count these rather than losing
    /// documents quietly.
    fn put(&mut self, name: &str, bytes: Vec<u8>) -> io::Result<()>;
    /// Remove a document; returns whether it existed.
    fn remove(&mut self, name: &str) -> bool;
    /// Whether a document exists. Backends should answer from metadata
    /// — the default is a full content fetch.
    fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }
    /// A document's size in bytes without fetching its content, or
    /// `None` if absent. The streaming path uses this to decide
    /// buffered-vs-streamed before touching any bytes.
    fn size(&self, name: &str) -> Option<u64> {
        self.get(name).map(|b| b.len() as u64)
    }
    /// Open a chunked reader over a document (`None` if absent). The
    /// default buffers a copy; [`DiskStore`] overrides with a `File`
    /// handle so large documents are never loaded whole, [`MemStore`]
    /// with a share of its resident body.
    fn open_stream(&self, name: &str) -> Option<DocReader> {
        self.get(name).map(DocReader::from_bytes)
    }
    /// Number of stored documents.
    fn len(&self) -> usize;
    /// Total bytes across all stored documents — the corpus size, used
    /// to print store footprints and pick default cache budgets.
    fn total_bytes(&self) -> u64;
    /// Whether the store is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The error used for document names a store refuses to map to a
/// location (traversal, empty, NUL).
fn bad_name(name: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("unstorable document name: {name:?}"),
    )
}

/// In-memory store; the paper assumes the graph and (here) documents fit
/// in memory for the datasets at hand. Documents are converted to shared
/// bodies once, at `put`.
#[derive(Debug, Default)]
pub struct MemStore {
    map: HashMap<String, Body>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl DocStore for MemStore {
    fn get(&self, name: &str) -> Option<Vec<u8>> {
        self.map.get(name).map(Body::to_vec)
    }
    fn get_body(&self, name: &str) -> Option<Body> {
        self.map.get(name).cloned()
    }
    fn put(&mut self, name: &str, bytes: Vec<u8>) -> io::Result<()> {
        self.map.insert(name.to_string(), bytes.into());
        Ok(())
    }
    fn remove(&mut self, name: &str) -> bool {
        self.map.remove(name).is_some()
    }
    fn contains(&self, name: &str) -> bool {
        self.map.contains_key(name)
    }
    fn size(&self, name: &str) -> Option<u64> {
        self.map.get(name).map(|b| b.len() as u64)
    }
    fn open_stream(&self, name: &str) -> Option<DocReader> {
        self.get_body(name).map(DocReader::from_body)
    }
    fn len(&self) -> usize {
        self.map.len()
    }
    fn total_bytes(&self) -> u64 {
        self.map.values().map(|b| b.len() as u64).sum()
    }
}

/// Filesystem-backed store rooted at a directory. Document names map to
/// paths under the root; traversal outside the root is rejected.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
}

impl DiskStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl AsRef<Path>) -> io::Result<Self> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        Ok(DiskStore { root })
    }

    /// Root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Map a document name to a path under the root, rejecting names that
    /// escape it (`..` segments) or smuggle NULs.
    fn path_for(&self, name: &str) -> Option<PathBuf> {
        if name.contains('\0') {
            return None;
        }
        let rel = name.trim_start_matches('/');
        if rel.is_empty() {
            return None;
        }
        let mut p = self.root.clone();
        for seg in rel.split('/') {
            if seg.is_empty() || seg == "." || seg == ".." {
                return None;
            }
            p.push(seg);
        }
        Some(p)
    }
}

impl DocStore for DiskStore {
    fn get(&self, name: &str) -> Option<Vec<u8>> {
        std::fs::read(self.path_for(name)?).ok()
    }

    fn put(&mut self, name: &str, bytes: Vec<u8>) -> io::Result<()> {
        let p = self.path_for(name).ok_or_else(|| bad_name(name))?;
        if let Some(parent) = p.parent() {
            std::fs::create_dir_all(parent)?;
        }
        // Write-rename for atomicity: a concurrent reader sees old or new,
        // never a torn file.
        let tmp = p.with_extension("tmp-dcws");
        std::fs::write(&tmp, &bytes)?;
        if let Err(e) = std::fs::rename(&tmp, &p) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        Ok(())
    }

    /// Metadata stat — never reads the file.
    fn contains(&self, name: &str) -> bool {
        self.size(name).is_some()
    }

    /// Metadata stat — never reads the file.
    fn size(&self, name: &str) -> Option<u64> {
        let meta = std::fs::metadata(self.path_for(name)?).ok()?;
        meta.is_file().then_some(meta.len())
    }

    /// A `File` handle: chunked serves read at an offset and never
    /// buffer the document. One open, and the length is the opened
    /// handle's own — a writer renaming a new version into place between
    /// two path lookups cannot give the reader another inode's length.
    fn open_stream(&self, name: &str) -> Option<DocReader> {
        let f = std::fs::File::open(self.path_for(name)?).ok()?;
        let meta = f.metadata().ok()?;
        meta.is_file().then(|| DocReader::from_file(f, meta.len()))
    }

    fn remove(&mut self, name: &str) -> bool {
        self.path_for(name)
            .map(|p| std::fs::remove_file(p).is_ok())
            .unwrap_or(false)
    }

    fn len(&self) -> usize {
        fn count(dir: &Path) -> usize {
            std::fs::read_dir(dir)
                .map(|rd| {
                    rd.flatten()
                        .map(|e| {
                            let p = e.path();
                            if p.is_dir() {
                                count(&p)
                            } else {
                                1
                            }
                        })
                        .sum()
                })
                .unwrap_or(0)
        }
        count(&self.root)
    }

    fn total_bytes(&self) -> u64 {
        fn sum(dir: &Path) -> u64 {
            std::fs::read_dir(dir)
                .map(|rd| {
                    rd.flatten()
                        .map(|e| {
                            let p = e.path();
                            if p.is_dir() {
                                sum(&p)
                            } else {
                                e.metadata().map(|m| m.len()).unwrap_or(0)
                            }
                        })
                        .sum()
                })
                .unwrap_or(0)
        }
        sum(&self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_store_basics() {
        let mut s = MemStore::new();
        assert!(s.is_empty());
        s.put("/a.html", b"hello".to_vec()).unwrap();
        assert_eq!(s.get("/a.html").unwrap(), b"hello");
        assert!(s.contains("/a.html"));
        assert_eq!(s.len(), 1);
        assert_eq!(s.total_bytes(), 5);
        s.put("/a.html", b"world".to_vec()).unwrap();
        assert_eq!(s.get("/a.html").unwrap(), b"world");
        let shared = s.get_body("/a.html").unwrap();
        assert_eq!(shared, b"world");
        assert!(shared.ptr_eq(&s.get_body("/a.html").unwrap()));
        assert!(s.remove("/a.html"));
        assert!(!s.remove("/a.html"));
        assert!(s.get("/a.html").is_none());
        assert!(s.get_body("/a.html").is_none());
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dcws-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn disk_store_round_trip() {
        let dir = tmp_dir("rt");
        let mut s = DiskStore::open(&dir).unwrap();
        s.put("/sub/dir/x.html", b"content".to_vec()).unwrap();
        assert_eq!(s.get("/sub/dir/x.html").unwrap(), b"content");
        assert_eq!(s.len(), 1);
        assert_eq!(s.total_bytes(), 7);
        assert!(s.remove("/sub/dir/x.html"));
        assert!(s.get("/sub/dir/x.html").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_rejects_traversal() {
        let dir = tmp_dir("trav");
        let mut s = DiskStore::open(&dir).unwrap();
        assert!(s.put("/../escape.html", b"evil".to_vec()).is_err());
        assert!(s.get("/../escape.html").is_none());
        assert!(!dir.parent().unwrap().join("escape.html").exists());
        assert!(s.put("/a/../../b.html", b"evil".to_vec()).is_err());
        assert_eq!(s.len(), 0);
        assert!(!s.remove("/.."));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_rejects_empty_and_nul() {
        let dir = tmp_dir("nul");
        let mut s = DiskStore::open(&dir).unwrap();
        assert!(s.put("/", b"x".to_vec()).is_err());
        assert!(s.put("", b"x".to_vec()).is_err());
        assert!(s.put("/a\0b", b"x".to_vec()).is_err());
        assert_eq!(s.len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_overwrite_is_atomic_rename() {
        let dir = tmp_dir("atomic");
        let mut s = DiskStore::open(&dir).unwrap();
        s.put("/x.html", b"one".to_vec()).unwrap();
        s.put("/x.html", b"two".to_vec()).unwrap();
        assert_eq!(s.size("/x.html"), Some(3));
        assert_eq!(s.get("/x.html").unwrap(), b"two");
        // No stray temp files left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp-dcws"))
            .collect();
        assert!(leftovers.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_stat_answers_contains_and_size() {
        let dir = tmp_dir("stat");
        let mut s = DiskStore::open(&dir).unwrap();
        s.put("/big.bin", vec![0u8; 4096]).unwrap();
        assert!(s.contains("/big.bin"));
        assert_eq!(s.size("/big.bin"), Some(4096));
        assert!(!s.contains("/missing.bin"));
        assert_eq!(s.size("/missing.bin"), None);
        // A directory on the path is not a document.
        s.put("/sub/doc.html", b"x".to_vec()).unwrap();
        assert!(!s.contains("/sub"));
        assert_eq!(s.size("/sub"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_streams_incrementally_with_seek() {
        use std::io::Read;
        let dir = tmp_dir("stream");
        let mut s = DiskStore::open(&dir).unwrap();
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        s.put("/seq/img.bin", data.clone()).unwrap();
        let mut r = s.open_stream("/seq/img.bin").unwrap();
        assert_eq!(r.len(), data.len() as u64);
        r.seek_to(99_000).unwrap();
        let mut tail = Vec::new();
        r.read_to_end(&mut tail).unwrap();
        assert_eq!(tail, &data[99_000..]);
        assert!(s.open_stream("/seq/none.bin").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_store_stream_default_matches_get() {
        use std::io::Read;
        let mut s = MemStore::new();
        s.put("/a.bin", vec![9u8; 5000]).unwrap();
        assert_eq!(s.size("/a.bin"), Some(5000));
        let mut r = s.open_stream("/a.bin").unwrap();
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, s.get("/a.bin").unwrap());
        assert!(s.open_stream("/none.bin").is_none());
    }

    /// A reader opened before a republish stays on the replaced inode:
    /// old bytes, old length, to the end.
    #[test]
    fn disk_store_reader_survives_replacement() {
        use std::io::Read;
        let dir = tmp_dir("replace");
        let mut s = DiskStore::open(&dir).unwrap();
        s.put("/img.bin", vec![1u8; 3000]).unwrap();
        let mut old = s.open_stream("/img.bin").unwrap();
        s.put("/img.bin", vec![2u8; 500]).unwrap();
        assert_eq!(old.len(), 3000);
        let mut out = Vec::new();
        old.read_to_end(&mut out).unwrap();
        assert_eq!(out, vec![1u8; 3000]);
        assert_eq!(s.open_stream("/img.bin").unwrap().len(), 500);
        // A directory is not a document.
        s.put("/sub/doc.bin", b"x".to_vec()).unwrap();
        assert!(s.open_stream("/sub").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
