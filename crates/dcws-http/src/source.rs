//! Where a response's entity bytes come from: resident memory or an
//! incremental reader.
//!
//! Small documents stay zero-copy [`Body`]s (`Arc<[u8]>` — cloning is a
//! refcount bump, see `body`). Sequoia-class objects (1–2.8 MB) would
//! make that design pay a full buffer before the first byte leaves the
//! server, so the serve path hands them over as a [`StreamBody`]: a
//! boxed reader plus a known entity length, drained in
//! [`STREAM_CHUNK`]-sized pieces by whichever front end owns the
//! socket. The length is known up front — DCWS never chunk-encodes —
//! so `Content-Length` framing is unchanged and keep-alive still works.

use crate::body::Body;
use std::io::{self, Read};

/// Chunk size for streamed bodies: large enough to amortize syscalls,
/// small enough that the first chunk leaves long before a 2.8 MB
/// entity has been read.
pub const STREAM_CHUNK: usize = 64 * 1024;

/// An entity streamed from a reader with a known total length.
///
/// The reader must yield exactly `len` bytes; ending early is reported
/// as `UnexpectedEof` so a truncated source can never silently frame a
/// short body under a longer `Content-Length`.
pub struct StreamBody {
    reader: Box<dyn Read + Send>,
    remaining: u64,
    total: u64,
}

impl StreamBody {
    /// Stream `len` bytes out of `reader`.
    pub fn new(reader: Box<dyn Read + Send>, len: u64) -> StreamBody {
        StreamBody {
            reader,
            remaining: len,
            total: len,
        }
    }

    /// Total entity length (the `Content-Length` value).
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether the entity is zero bytes long.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Bytes not yet produced by [`read_chunk`](Self::read_chunk).
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Whether every byte has been produced.
    pub fn done(&self) -> bool {
        self.remaining == 0
    }

    /// Read the next chunk into `buf`, returning the byte count; `0`
    /// only once the full entity has been produced. A source that runs
    /// dry early yields `UnexpectedEof`.
    pub fn read_chunk(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.remaining == 0 {
            return Ok(0);
        }
        let want = buf
            .len()
            .min(self.remaining.min(usize::MAX as u64) as usize);
        let n = self.reader.read(&mut buf[..want])?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("stream source ended {} bytes early", self.remaining),
            ));
        }
        self.remaining -= n as u64;
        Ok(n)
    }
}

impl std::fmt::Debug for StreamBody {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamBody")
            .field("total", &self.total)
            .field("remaining", &self.remaining)
            .finish()
    }
}

/// How a response produces its entity on the wire.
#[derive(Debug)]
pub enum BodySource {
    /// Entity resident in memory — written in one piece, zero-copy.
    Buffered(Body),
    /// Entity produced incrementally by a reader.
    Streamed(StreamBody),
}

impl BodySource {
    /// Total entity length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            BodySource::Buffered(b) => b.len() as u64,
            BodySource::Streamed(s) => s.len(),
        }
    }

    /// Whether the entity is zero bytes long.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl From<Body> for BodySource {
    fn from(b: Body) -> BodySource {
        BodySource::Buffered(b)
    }
}

impl From<StreamBody> for BodySource {
    fn from(s: StreamBody) -> BodySource {
        BodySource::Streamed(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_yields_exact_length_in_chunks() {
        let data = vec![7u8; 150_000];
        let mut s = StreamBody::new(Box::new(io::Cursor::new(data.clone())), 150_000);
        assert_eq!(s.len(), 150_000);
        let mut out = Vec::new();
        let mut buf = vec![0u8; STREAM_CHUNK];
        loop {
            let n = s.read_chunk(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            out.extend_from_slice(&buf[..n]);
        }
        assert!(s.done());
        assert_eq!(out, data);
    }

    #[test]
    fn stream_caps_at_declared_length() {
        // Reader holds more than `len`; the stream must stop at `len`.
        let mut s = StreamBody::new(Box::new(io::Cursor::new(vec![1u8; 100])), 40);
        let mut buf = [0u8; 64];
        let n = s.read_chunk(&mut buf).unwrap();
        assert_eq!(n, 40);
        assert_eq!(s.read_chunk(&mut buf).unwrap(), 0);
    }

    #[test]
    fn short_source_is_unexpected_eof() {
        let mut s = StreamBody::new(Box::new(io::Cursor::new(vec![1u8; 10])), 40);
        let mut buf = [0u8; 64];
        assert_eq!(s.read_chunk(&mut buf).unwrap(), 10);
        let err = s.read_chunk(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn body_source_classifies() {
        let b = BodySource::from(Body::from(&b"abc"[..]));
        assert_eq!(b.len(), 3);
        let s = BodySource::from(StreamBody::new(Box::new(io::Cursor::new(vec![0u8; 5])), 5));
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
    }
}
