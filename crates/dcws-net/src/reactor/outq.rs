//! Zero-copy output queue.

use super::sys;

/// Cap on iovec segments gathered per `writev`: a head + body pair plus
/// a few pipelined successors; IOV_MAX (1024) is never approached.
pub(super) const MAX_IOVECS: usize = 8;

/// How many idle refill buffers a shard keeps. A buffer is out of the
/// pool only while its slice of a streamed entity sits in a connection's
/// queue — for most refills, the span of one `writev` — so a handful
/// covers a shard's concurrent transfers, and however many connections
/// are parked, the idle ones hold none.
const SPARE_REFILLS: usize = 4;

/// The buffers streamed entities are read into on one shard, each
/// `size` bytes long: taken by a refill, lent to the connection's
/// [`OutQueue`] until the kernel has its bytes, and handed back by
/// [`OutQueue::advance`].
pub(super) struct RefillPool {
    size: usize,
    spare: Vec<Box<[u8]>>,
}

impl RefillPool {
    pub(super) fn new(size: usize) -> RefillPool {
        RefillPool {
            size,
            spare: Vec::with_capacity(SPARE_REFILLS),
        }
    }

    /// A buffer to read into: a spare one, or (all out on loan) new.
    pub(super) fn take(&mut self) -> Box<[u8]> {
        self.spare
            .pop()
            .unwrap_or_else(|| vec![0u8; self.size].into_boxed_slice())
    }

    /// Take `buf` back; beyond the cap it is freed.
    pub(super) fn give(&mut self, buf: Box<[u8]>) {
        if self.spare.len() < SPARE_REFILLS {
            self.spare.push(buf);
        }
    }

    /// How many buffers sit idle in the pool.
    #[cfg(test)]
    pub(super) fn spare(&self) -> usize {
        self.spare.len()
    }
}

/// One pending output segment: either the filled prefix of a refill
/// buffer the connection has on loan (a slice of a streamed entity) or a
/// shared [`Body`](dcws_http::Body) — a response head, or an entity body
/// whose `Arc` refcount pins the cached allocation until the kernel has
/// taken every byte; the serve itself never copies it.
enum Seg {
    Refill { buf: Box<[u8]>, len: usize },
    Shared(dcws_http::Body),
}

impl Seg {
    fn bytes(&self) -> &[u8] {
        match self {
            Seg::Refill { buf, len } => &buf[..*len],
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
    /// Queue the first `len` bytes of `buf`, a buffer on loan from the
    /// shard's [`RefillPool`] until [`Self::advance`] returns it.
    pub(super) fn push_refill(&mut self, buf: Box<[u8]>, len: usize) {
        if len == 0 {
            return;
        }
        self.pending += len;
        self.segs.push_back(Seg::Refill { buf, len });
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

    /// Consume `n` written bytes from the front, releasing fully-flushed
    /// segments: a `Shared` one drops its `Arc`, a `Refill` one returns
    /// its buffer to `pool`.
    pub(super) fn advance(&mut self, mut n: usize, pool: &mut RefillPool) {
        debug_assert!(n <= self.pending, "advance past pending output");
        self.pending -= n;
        while n > 0 {
            let front_left = self.segs[0].bytes().len() - self.offset;
            if n >= front_left {
                n -= front_left;
                self.offset = 0;
                if let Some(Seg::Refill { buf, .. }) = self.segs.pop_front() {
                    pool.give(buf);
                }
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

    fn refill(pool: &mut RefillPool, bytes: &[u8]) -> (Box<[u8]>, usize) {
        let mut buf = pool.take();
        buf[..bytes.len()].copy_from_slice(bytes);
        (buf, bytes.len())
    }

    /// `OutQueue` bookkeeping across partial writes: `gather` must slice
    /// the front segment at `offset`, and `advance` must release
    /// fully-flushed segments while preserving byte accounting.
    #[test]
    fn out_queue_partial_write_resumption() {
        let mut pool = RefillPool::new(16);
        let mut q = OutQueue::default();
        q.push_shared(dcws_http::Body::from(b"HEAD".to_vec()));
        let (buf, len) = refill(&mut pool, b"BODYBODY");
        q.push_refill(buf, len);
        q.push_refill(pool.take(), 0); // empty segments are skipped
        assert_eq!(q.pending, 12);

        // An iovec borrows the queue, so each gather fills a fresh array.
        let mut iov = [sys::IoVec::new(&[]); MAX_IOVECS];
        assert_eq!(q.gather(&mut iov), 2);
        assert_eq!(iov[0].as_slice().len(), 4);
        assert_eq!(iov[1].as_slice().len(), 8);

        // Kernel took the head plus two body bytes.
        q.advance(6, &mut pool);
        assert_eq!(q.pending, 6);
        let mut iov = [sys::IoVec::new(&[]); MAX_IOVECS];
        assert_eq!(q.gather(&mut iov), 1);
        assert_eq!(iov[0].as_slice(), b"DYBODY");

        // Drain the rest: queue empty, offset reset, no segments held
        // (a fully-flushed `Shared` segment releases its `Arc` here, a
        // `Refill` one its buffer).
        q.advance(6, &mut pool);
        assert!(q.is_empty());
        assert_eq!(q.gather(&mut [sys::IoVec::new(&[]); MAX_IOVECS]), 0);
        assert!(q.segs.is_empty(), "flushed segments must be released");
        assert_eq!(pool.spare(), 1, "the flushed buffer is spare again");
    }

    /// The pool never holds more than its cap, and lends a fresh buffer
    /// when every spare one is out.
    #[test]
    fn refill_pool_is_bounded() {
        let mut pool = RefillPool::new(8);
        let lent: Vec<_> = (0..SPARE_REFILLS + 3).map(|_| pool.take()).collect();
        assert!(lent.iter().all(|b| b.len() == 8));
        for buf in lent {
            pool.give(buf);
        }
        assert_eq!(pool.spare(), SPARE_REFILLS);
    }
}
