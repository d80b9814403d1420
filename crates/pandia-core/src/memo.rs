//! The one bounded least-recently-used memo in the crate: each
//! [`PredictionCache`](crate::exec::PredictionCache) shard is one, and so
//! is [`IncrementalFleet`](crate::fleet::IncrementalFleet)'s co-schedule
//! memo.
//!
//! Every entry carries a recency stamp from the memo's clock; stamps are
//! unique, so "least recently used" names exactly one entry. A hit only
//! rewrites its entry's stamp. The stamp-ordered `order` index is
//! corrected lazily, at eviction: pop the oldest filing; if its entry was
//! touched since it was filed, re-file it under its current stamp,
//! otherwise evict it. An entry's filing is never newer than its stamp,
//! so a filing that is still current is the smallest stamp in the memo —
//! the same victim a full min-stamp scan picks. Each re-filing pays for
//! one earlier touch, so eviction costs O(log n) amortised instead of a
//! scan.

use std::collections::btree_map::{BTreeMap, Entry};

/// One memoized value and its recency bookkeeping.
#[derive(Debug)]
struct Slot<V> {
    value: V,
    /// Clock value of the last insert or hit.
    stamp: u64,
    /// The stamp this entry is filed under in `order` (at most `stamp`).
    filed: u64,
}

/// A map that evicts its least-recently-used entries down to a bound.
///
/// The owner keeps the bound and passes it to [`LruMemo::evict_to`]
/// after each insert. An empty memo is then a constant, which keeps
/// building the prediction cache's shard array cheap (every
/// `ExecContext::new` builds one). Eviction only ever discards memoized
/// work, so callers stay bit-identical at any bound; the victims depend
/// only on the order of operations, never on key order or timing.
#[derive(Debug)]
pub(crate) struct LruMemo<K, V> {
    entries: BTreeMap<K, Slot<V>>,
    /// Exactly one filing per entry, keyed by the entry's `filed` stamp.
    order: BTreeMap<u64, K>,
    clock: u64,
}

impl<K, V> LruMemo<K, V> {
    /// An empty memo.
    pub(crate) const fn new() -> Self {
        Self { entries: BTreeMap::new(), order: BTreeMap::new(), clock: 0 }
    }
}

impl<K: Ord + Clone, V> LruMemo<K, V> {
    /// Entries currently stored.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Recalls a value, marking it most recently used.
    pub(crate) fn get(&mut self, key: &K) -> Option<&V> {
        let slot = self.entries.get_mut(key)?;
        self.clock += 1;
        slot.stamp = self.clock;
        Some(&slot.value)
    }

    /// Stores a value as the most recently used entry, replacing any
    /// value under the same key.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        self.clock += 1;
        let stamp = self.clock;
        match self.entries.entry(key) {
            Entry::Occupied(mut e) => {
                let slot = e.get_mut();
                slot.value = value;
                slot.stamp = stamp;
            }
            Entry::Vacant(e) => {
                self.order.insert(stamp, e.key().clone());
                e.insert(Slot { value, stamp, filed: stamp });
            }
        }
    }

    /// Evicts least-recently-used entries until at most `capacity` (at
    /// least 1, so the newest entry always stays) remain. Returns how
    /// many entries were evicted.
    pub(crate) fn evict_to(&mut self, capacity: usize) -> u64 {
        let capacity = capacity.max(1);
        let mut evicted = 0;
        while self.entries.len() > capacity {
            let Some((filed, key)) = self.order.pop_first() else { break };
            let Some(slot) = self.entries.get_mut(&key) else { continue };
            if slot.stamp == filed {
                self.entries.remove(&key);
                evicted += 1;
            } else {
                slot.filed = slot.stamp;
                self.order.insert(slot.stamp, key);
            }
        }
        evicted
    }

    /// Drops every entry whose key fails `keep`. Not an eviction: the
    /// caller is invalidating, not making room.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        let order = &mut self.order;
        self.entries.retain(|key, slot| {
            let kept = keep(key);
            if !kept {
                order.remove(&slot.filed);
            }
            kept
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::splitmix64;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Logs its key when dropped, so the test sees which entries the memo
    /// discards and in which order.
    #[derive(Debug)]
    struct Tracked {
        key: u8,
        value: u32,
        log: Rc<RefCell<Vec<u8>>>,
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.log.borrow_mut().push(self.key);
        }
    }

    /// The semantics `LruMemo` must match: `(key, value, stamp)` triples,
    /// evicting by a full min-stamp scan.
    #[derive(Default)]
    struct Reference {
        entries: Vec<(u8, u32, u64)>,
        clock: u64,
        evictions: u64,
    }

    impl Reference {
        fn get(&mut self, key: u8) -> Option<u32> {
            self.clock += 1;
            let entry = self.entries.iter_mut().find(|e| e.0 == key)?;
            entry.2 = self.clock;
            Some(entry.1)
        }

        /// Inserts `entry` when given, then evicts down to `capacity`.
        /// Returns the discarded keys in order.
        fn insert(&mut self, entry: Option<(u8, u32)>, capacity: usize) -> Vec<u8> {
            let mut gone = Vec::new();
            if let Some((key, value)) = entry {
                self.clock += 1;
                if let Some(i) = self.entries.iter().position(|e| e.0 == key) {
                    gone.push(self.entries.remove(i).0);
                }
                self.entries.push((key, value, self.clock));
            }
            while self.entries.len() > capacity {
                let oldest = (0..self.entries.len()).min_by_key(|&i| self.entries[i].2).unwrap();
                gone.push(self.entries.remove(oldest).0);
                self.evictions += 1;
            }
            gone
        }
    }

    #[test]
    fn matches_the_min_stamp_scan_on_seeded_operation_sequences() {
        for seed in 0..256u64 {
            let mut rng = seed;
            let mut capacity = 1 + (splitmix64(&mut rng) % 8) as usize;
            let mut memo: LruMemo<u8, Tracked> = LruMemo::new();
            let mut reference = Reference::default();
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut evictions = 0;
            for step in 0..400u32 {
                let key = (splitmix64(&mut rng) % 12) as u8;
                let expected = match splitmix64(&mut rng) % 16 {
                    0..=8 => {
                        let got = memo.get(&key).map(|t| t.value);
                        assert_eq!(got, reference.get(key), "seed {seed} step {step}: get");
                        Vec::new()
                    }
                    9..=13 => {
                        let log = Rc::clone(&log);
                        memo.insert(key, Tracked { key, value: step, log });
                        evictions += memo.evict_to(capacity);
                        reference.insert(Some((key, step)), capacity)
                    }
                    14 => {
                        capacity = 1 + (splitmix64(&mut rng) % 8) as usize;
                        evictions += memo.evict_to(capacity);
                        reference.insert(None, capacity)
                    }
                    _ => {
                        memo.retain(|&k| k % 3 != key % 3);
                        let mut gone: Vec<u8> = reference.entries.iter().map(|e| e.0).collect();
                        gone.retain(|k| k % 3 == key % 3);
                        gone.sort_unstable();
                        reference.entries.retain(|e| e.0 % 3 != key % 3);
                        gone
                    }
                };
                assert_eq!(log.take(), expected, "seed {seed} step {step}: discarded");
                assert_eq!(evictions, reference.evictions, "seed {seed} step {step}");
                assert_eq!(memo.len(), reference.entries.len(), "seed {seed} step {step}");
                assert_eq!(memo.order.len(), memo.len(), "one filing per entry");
            }
        }
    }
}
