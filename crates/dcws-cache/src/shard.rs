//! One cache shard: a slab-backed LRU list plus a key index, enforcing
//! its slice of the global byte budget.

use crate::{CachedDoc, Evicted, InsertResult};
use std::collections::HashMap;

/// Sentinel for "no slot" in the intrusive LRU links.
const NIL: usize = usize::MAX;

/// A slab slot: either a live entry with LRU links or a free hole.
#[derive(Debug)]
struct Slot {
    entry: Option<(String, CachedDoc, u64)>, // (key, doc, cost)
    prev: usize,
    next: usize,
}

/// One shard of a [`crate::DocCache`].
///
/// The LRU list is intrusive over a slab (`Vec<Slot>` plus a free
/// list), so promotion and eviction are O(1) with no per-operation
/// allocation beyond map maintenance.
#[derive(Debug)]
pub(crate) struct Shard {
    map: HashMap<String, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    bytes: u64,
    budget: u64,
}

impl Shard {
    pub(crate) fn new(budget: u64) -> Shard {
        Shard {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
            budget,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
        self.slots[i].prev = NIL;
        self.slots[i].next = NIL;
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Free slot `i`, returning its entry.
    fn release(&mut self, i: usize) -> (String, CachedDoc, u64) {
        self.unlink(i);
        let (key, doc, cost) = self.slots[i].entry.take().expect("live slot");
        self.map.remove(&key);
        self.bytes -= cost;
        self.free.push(i);
        (key, doc, cost)
    }

    /// Evict LRU entries until at least `need` bytes fit under the
    /// budget, appending each victim to `evicted`.
    fn evict_for(&mut self, need: u64, evicted: &mut Vec<Evicted>) {
        while self.bytes.saturating_add(need) > self.budget && self.tail != NIL {
            let victim = self.tail;
            let (key, doc, _) = self.release(victim);
            evicted.push(Evicted {
                key,
                bytes: doc.bytes.len() as u64,
            });
        }
    }

    pub(crate) fn get(&mut self, key: &str) -> Option<&CachedDoc> {
        let i = *self.map.get(key)?;
        self.unlink(i);
        self.push_front(i);
        self.slots[i].entry.as_ref().map(|(_, doc, _)| doc)
    }

    pub(crate) fn peek(&self, key: &str) -> Option<&CachedDoc> {
        let i = *self.map.get(key)?;
        self.slots[i].entry.as_ref().map(|(_, doc, _)| doc)
    }

    pub(crate) fn insert(&mut self, key: &str, doc: CachedDoc) -> InsertResult {
        let mut result = InsertResult::default();
        // Replacement: drop the old copy first so its bytes don't count
        // against the new entry's room (and a rejected oversize update
        // never leaves a stale body resident).
        if let Some(&i) = self.map.get(key) {
            self.release(i);
        }
        let cost = doc.cost(key);
        if cost > self.budget {
            return result; // stored: false
        }
        self.evict_for(cost, &mut result.evicted);
        let slot = Slot {
            entry: Some((key.to_string(), doc, cost)),
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.map.insert(key.to_string(), i);
        self.bytes += cost;
        self.push_front(i);
        result.stored = true;
        result
    }

    /// Run `f` on the entry under `key` (metadata mutation only — the
    /// entry's budget cost is recomputed afterwards in debug builds to
    /// catch accidental body growth). Returns `false` on miss.
    pub(crate) fn with_entry(&mut self, key: &str, f: impl FnOnce(&mut CachedDoc)) -> bool {
        let Some(&i) = self.map.get(key) else {
            return false;
        };
        let (k, doc, cost) = self.slots[i].entry.as_mut().expect("live slot");
        f(doc);
        debug_assert_eq!(doc.cost(k), *cost, "with_entry must not change entry cost");
        true
    }

    /// Shrink (or grow) the budget slice, evicting LRU entries until
    /// residency fits.
    pub(crate) fn set_budget(&mut self, budget: u64, evicted: &mut Vec<Evicted>) {
        self.budget = budget;
        self.evict_for(0, evicted);
    }
}
