//! The socket queue: a bounded MPMC handoff between the reactor shards
//! and the worker pool (L_sq of Table 1).
//!
//! `try_push` never blocks — when the queue is full the item is
//! returned to the caller so the reactor can drop it gracefully with a
//! `503` (§4.1). `pop` blocks until work arrives or the queue is closed.
//! Each entry carries its enqueue instant so workers can record how long
//! the request sat in the socket queue before service began.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// An entry waiting in the socket queue.
#[derive(Debug)]
pub struct Queued<T> {
    /// The queued item (a spilled request, in the server).
    pub item: T,
    /// When it entered the queue; `Instant::elapsed` at pop time is the
    /// queue-wait recorded in the transport histograms.
    pub enqueued_at: Instant,
}

struct Shared<T> {
    buf: VecDeque<Queued<T>>,
    closed: bool,
}

/// Bounded multi-producer multi-consumer queue.
pub struct SocketQueue<T> {
    inner: Mutex<Shared<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> SocketQueue<T> {
    /// Creates a queue holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SocketQueue {
            inner: Mutex::new(Shared {
                buf: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// The configured capacity (L_sq).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue depth (approximate once returned).
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .buf
            .len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `item`, stamping its arrival time. Returns `Err(item)`
    /// without blocking when the queue is full or closed, so the caller
    /// can refuse the connection gracefully.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.closed || inner.buf.len() >= self.capacity {
            return Err(item);
        }
        inner.buf.push_back(Queued {
            item,
            enqueued_at: Instant::now(),
        });
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until an entry is available and returns it, or `None` once
    /// the queue is closed *and* drained.
    pub fn pop(&self) -> Option<Queued<T>> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(q) = inner.buf.pop_front() {
                return Some(q);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes the queue: producers start failing, consumers drain what
    /// remains and then receive `None`.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.closed = true;
        drop(inner);
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_order_and_wait_stamp() {
        let q = SocketQueue::new(4);
        q.try_push(1).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        q.try_push(2).unwrap();
        let first = q.pop().unwrap();
        assert_eq!(first.item, 1);
        assert!(first.enqueued_at.elapsed() >= Duration::from_millis(5));
        assert_eq!(q.pop().unwrap().item, 2);
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        let q = SocketQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.try_push(3), Err(3));
        q.pop().unwrap();
        q.try_push(3).unwrap();
    }

    #[test]
    fn close_unblocks_consumers_and_drains() {
        let q = Arc::new(SocketQueue::new(8));
        q.try_push(7).unwrap();
        let qc = q.clone();
        let h = std::thread::spawn(move || {
            let mut seen = Vec::new();
            while let Some(e) = qc.pop() {
                seen.push(e.item);
            }
            seen
        });
        std::thread::sleep(Duration::from_millis(10));
        q.close();
        assert_eq!(q.try_push(9), Err(9), "closed queue rejects producers");
        assert_eq!(h.join().unwrap(), vec![7]);
    }

    #[test]
    fn many_producers_one_consumer() {
        let q = Arc::new(SocketQueue::new(64));
        let mut handles = Vec::new();
        for t in 0..4 {
            let qc = q.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..16 {
                    while qc.try_push(t * 100 + i).is_err() {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        let mut got = 0;
        while got < 64 {
            if q.pop().is_some() {
                got += 1;
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(q.is_empty());
    }
}
