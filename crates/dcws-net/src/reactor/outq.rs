//! Zero-copy output queue.

use super::sys;

/// Cap on iovec segments gathered per `writev`: a head + body pair plus
/// a few pipelined successors; IOV_MAX (1024) is never approached.
pub(super) const MAX_IOVECS: usize = 8;

/// One pending output segment: either bytes the connection owns
/// (streamed-entity refills) or a shared [`Body`](dcws_http::Body) — a
/// response head, or an entity body whose `Arc` refcount pins the cached
/// allocation until the kernel has taken every byte; the serve itself
/// never copies it.
enum Seg {
    Owned(Vec<u8>),
    Shared(dcws_http::Body),
}

impl Seg {
    fn bytes(&self) -> &[u8] {
        match self {
            Seg::Owned(v) => v,
            Seg::Shared(b) => b,
        }
    }
}

/// A connection's pending output: a queue of segments flushed with
/// `writev(2)`, with `offset` marking the already-written prefix of the
/// front segment (partial-write resumption).
#[derive(Default)]
pub(super) struct OutQueue {
    segs: std::collections::VecDeque<Seg>,
    offset: usize,
    pending: usize,
}

impl OutQueue {
    pub(super) fn push_owned(&mut self, v: Vec<u8>) {
        if v.is_empty() {
            return;
        }
        self.pending += v.len();
        self.segs.push_back(Seg::Owned(v));
    }

    pub(super) fn push_shared(&mut self, b: dcws_http::Body) {
        if b.is_empty() {
            return;
        }
        self.pending += b.len();
        self.segs.push_back(Seg::Shared(b));
    }

    pub(super) fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Fill `iov` with the next unwritten slices (front segment starts
    /// at `offset`); returns how many entries were filled.
    pub(super) fn gather<'a>(&'a self, iov: &mut [sys::IoVec<'a>]) -> usize {
        let mut n = 0;
        for (i, seg) in self.segs.iter().take(iov.len()).enumerate() {
            let b = seg.bytes();
            let b = if i == 0 { &b[self.offset..] } else { b };
            iov[n] = sys::IoVec::new(b);
            n += 1;
        }
        n
    }

    /// Consume `n` written bytes from the front, dropping (and for
    /// `Shared` segments, releasing the `Arc` of) fully-flushed segments.
    pub(super) fn advance(&mut self, mut n: usize) {
        debug_assert!(n <= self.pending, "advance past pending output");
        self.pending -= n;
        while n > 0 {
            let front_left = self.segs[0].bytes().len() - self.offset;
            if n >= front_left {
                n -= front_left;
                self.offset = 0;
                self.segs.pop_front();
            } else {
                self.offset += n;
                n = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `OutQueue` bookkeeping across partial writes: `gather` must slice
    /// the front segment at `offset`, and `advance` must release
    /// fully-flushed segments while preserving byte accounting.
    #[test]
    fn out_queue_partial_write_resumption() {
        let mut q = OutQueue::default();
        q.push_owned(b"HEAD".to_vec());
        q.push_shared(dcws_http::Body::from(b"BODYBODY".to_vec()));
        q.push_owned(Vec::new()); // empty segments are skipped
        assert_eq!(q.pending, 12);

        // An iovec borrows the queue, so each gather fills a fresh array.
        let mut iov = [sys::IoVec::new(&[]); MAX_IOVECS];
        assert_eq!(q.gather(&mut iov), 2);
        assert_eq!(iov[0].as_slice().len(), 4);
        assert_eq!(iov[1].as_slice().len(), 8);

        // Kernel took the head plus two body bytes.
        q.advance(6);
        assert_eq!(q.pending, 6);
        let mut iov = [sys::IoVec::new(&[]); MAX_IOVECS];
        assert_eq!(q.gather(&mut iov), 1);
        assert_eq!(iov[0].as_slice(), b"DYBODY");

        // Drain the rest: queue empty, offset reset, no segments held
        // (a fully-flushed `Shared` segment releases its `Arc` here).
        q.advance(6);
        assert!(q.is_empty());
        assert_eq!(q.gather(&mut [sys::IoVec::new(&[]); MAX_IOVECS]), 0);
        assert!(q.segs.is_empty(), "flushed segments must be released");
    }
}
