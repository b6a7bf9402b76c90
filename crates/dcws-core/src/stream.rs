//! Chunked reader handles over [`DocStore`](crate::DocStore) content.
//!
//! The whole-body `Arc<[u8]>` design is right for the LOD corpus
//! (median ~6 KB) and wrong for Sequoia's 1–2.8 MB images: loading one
//! of those buffers megabytes before the first byte reaches the wire.
//! [`DocReader`] is the store-side half of the streaming path — a cursor
//! over a *shared* source: bytes already in memory
//! ([`MemStore`](crate::MemStore) hands over its own [`Body`] by
//! refcount) or an open [`File`] read positionally
//! ([`DiskStore`](crate::DiskStore) never loads the document at all).
//! The position belongs to the cursor, not to the descriptor, so a clone
//! is a refcount bump and any number of clones — one per concurrent
//! transfer — read the one source independently. That is what lets the
//! serve table keep a reader per large object and hand a clone to every
//! request without the engine lock.
//!
//! A reader implements [`io::Read`], so the transport side wraps it in
//! a [`StreamBody`] with the known length and drains it in pieces;
//! [`seek_to`](DocReader::seek_to) positions it for `Range` serves.
//! `stream_answer` is the one place that turns a reader and a request
//! into a response, whichever serve path asks.

use dcws_http::{
    content_range, content_range_unsatisfied, Body, Method, RangeSpec, ResolvedRange, Response,
    StatusCode, StreamBody,
};
use std::fs::File;
use std::io::{self, Read};
use std::os::unix::fs::FileExt;
use std::sync::Arc;

/// A positioned, cheap-to-clone reader over one document's bytes.
#[derive(Clone)]
pub struct DocReader {
    len: u64,
    pos: u64,
    src: Source,
}

#[derive(Clone)]
enum Source {
    /// Document bytes already resident, shared with whoever holds them.
    Mem(Body),
    /// Open file read with `pread`: the descriptor has no cursor of its
    /// own that the clones could fight over.
    Disk(Arc<File>),
}

impl DocReader {
    /// A reader over bytes already in memory.
    pub fn from_bytes(bytes: Vec<u8>) -> DocReader {
        DocReader::from_body(bytes.into())
    }

    /// A reader sharing an already resident body.
    pub fn from_body(bytes: Body) -> DocReader {
        DocReader {
            len: bytes.len() as u64,
            pos: 0,
            src: Source::Mem(bytes),
        }
    }

    /// A reader over an open file of `len` bytes (as the opened handle
    /// reports it; a concurrent atomic replace leaves this handle on the
    /// old inode, so the length stays consistent).
    pub fn from_file(file: File, len: u64) -> DocReader {
        DocReader {
            len,
            pos: 0,
            src: Source::Disk(Arc::new(file)),
        }
    }

    /// Total document length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the document is zero bytes long.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Position the reader at an absolute byte offset (for `Range`
    /// serves). Offsets past the end are rejected.
    pub fn seek_to(&mut self, offset: u64) -> io::Result<()> {
        if offset > self.len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "seek past end of document",
            ));
        }
        self.pos = offset;
        Ok(())
    }

    /// An entity of `len` bytes from offset `start`, read through a clone
    /// of this reader: the reader itself stays where it is.
    pub(crate) fn slice(&self, start: u64, len: u64) -> StreamBody {
        let mut cursor = self.clone();
        cursor
            .seek_to(start)
            .expect("a slice starts inside the document");
        StreamBody::new(Box::new(cursor), len)
    }
}

impl Read for DocReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = (self.len - self.pos).min(buf.len() as u64) as usize;
        let n = match &self.src {
            Source::Mem(bytes) => {
                let at = self.pos as usize;
                buf[..left].copy_from_slice(&bytes[at..at + left]);
                left
            }
            Source::Disk(file) => file.read_at(&mut buf[..left], self.pos)?,
        };
        self.pos += n as u64;
        Ok(n)
    }
}

impl std::fmt::Debug for DocReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.src {
            Source::Mem(_) => "mem",
            Source::Disk(_) => "disk",
        };
        f.debug_struct("DocReader")
            .field("len", &self.len)
            .field("pos", &self.pos)
            .field("kind", &kind)
            .finish()
    }
}

/// What the large object behind `reader`
/// answers a plain client `method` request asking for `range`: the final
/// head — `200`, `206` with `Content-Range`, or `416` — and, when a `GET`
/// gets bytes, the entity: a clone of the reader positioned at the
/// slice. A `HEAD` gets the `200` head alone and nothing is read. Lengths
/// and ranges resolve against [`DocReader::len`], the opened handle's own
/// answer. The exclusive path and the read path both answer through
/// here, so their heads agree byte for byte.
pub(crate) fn stream_answer(
    reader: &DocReader,
    content_type: &str,
    last_modified: &str,
    method: Method,
    range: Option<RangeSpec>,
) -> (Response, Option<StreamBody>) {
    let total = reader.len();
    let (status, start, end) = match range.map(|r| r.resolve(total)) {
        None => (StatusCode::Ok, 0, total),
        Some(ResolvedRange::Slice { start, end }) => (StatusCode::PartialContent, start, end),
        Some(ResolvedRange::Unsatisfiable) => {
            let resp = Response::new(StatusCode::RangeNotSatisfiable)
                .with_header("Content-Length", "0")
                .with_header("Content-Range", &content_range_unsatisfied(total));
            return (resp, None);
        }
    };
    let len = end - start;
    let mut resp = Response::new(status)
        .with_header("Content-Type", content_type)
        .with_header("Content-Length", &len.to_string())
        .with_header("Last-Modified", last_modified);
    if status == StatusCode::PartialContent {
        resp = resp.with_header("Content-Range", &content_range(start, end, total));
    }
    let body = (method != Method::Head).then(|| reader.slice(start, len));
    (resp, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_reader_reads_and_seeks() {
        let mut r = DocReader::from_bytes((0..=99u8).collect());
        assert_eq!(r.len(), 100);
        let mut buf = [0u8; 10];
        assert_eq!(r.read(&mut buf).unwrap(), 10);
        assert_eq!(buf[0], 0);
        r.seek_to(95).unwrap();
        assert_eq!(r.read(&mut buf).unwrap(), 5);
        assert_eq!(buf[0], 95);
        assert_eq!(r.read(&mut buf).unwrap(), 0);
        assert!(r.seek_to(101).is_err());
    }

    #[test]
    fn disk_reader_reads_at_offset() {
        let dir = std::env::temp_dir().join(format!("dcws-stream-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.bin");
        let data: Vec<u8> = (0..200u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &data).unwrap();
        let f = File::open(&path).unwrap();
        let mut r = DocReader::from_file(f, data.len() as u64);
        r.seek_to(150).unwrap();
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, &data[150..]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Clones share the source and nothing else: each keeps its own
    /// position over the one descriptor (or body), so transfers started
    /// from one resident reader cannot disturb each other.
    #[test]
    fn clones_read_one_source_independently() {
        let dir = std::env::temp_dir().join(format!("dcws-stream-clone-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.bin");
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &data).unwrap();
        let disk = DocReader::from_file(File::open(&path).unwrap(), data.len() as u64);
        let body = Body::from(data.clone());
        let mem = DocReader::from_body(body.clone());
        assert!(
            matches!(&mem.src, Source::Mem(b) if b.ptr_eq(&body)),
            "from_body must share, not copy"
        );
        for resident in [disk, mem] {
            let (mut a, mut b) = (resident.clone(), resident.clone());
            b.seek_to(900).unwrap();
            let mut head = [0u8; 100];
            a.read_exact(&mut head).unwrap();
            let mut tail = Vec::new();
            b.read_to_end(&mut tail).unwrap();
            let mut rest = Vec::new();
            a.read_to_end(&mut rest).unwrap();
            assert_eq!(head, data[..100]);
            assert_eq!(tail, &data[900..]);
            assert_eq!(rest, &data[100..]);
            // The resident reader itself never moved.
            let mut all = Vec::new();
            resident.clone().read_to_end(&mut all).unwrap();
            assert_eq!(all, data);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
