//! The one bounded least-recently-used memo in the crate: each
//! [`PredictionCache`](crate::exec::PredictionCache) shard is one, and so
//! is [`IncrementalFleet`](crate::fleet::IncrementalFleet)'s co-schedule
//! memo.
//!
//! Entries live in a hash map with a fixed hasher ([`MemoHasher`]), so a
//! hit is one probe. Every entry carries a recency stamp from the memo's
//! clock; stamps are unique, so "least recently used" names exactly one
//! entry. A hit only rewrites its entry's stamp. The stamp-ordered
//! `order` index is corrected lazily, at eviction: pop the oldest filing;
//! if its entry was touched since it was filed, re-file it under its
//! current stamp, otherwise evict it. An entry's filing is never newer
//! than its stamp, so a filing that is still current is the smallest
//! stamp in the memo — the same victim a full min-stamp scan picks. Each
//! re-filing pays for one earlier touch, so eviction costs O(log n)
//! amortised instead of a scan. Nothing walks the hash map in its own
//! order: victims come from the stamp index and [`LruMemo::retain`] drops
//! in key order.

use std::collections::hash_map::{Entry, HashMap};
use std::collections::BTreeMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The memo's hasher: the same in every process and run, and one xor for
/// a prediction fingerprint. A `u128` fingerprint is already uniform, so
/// it passes through with its two words folded together; a pass-through
/// of the low word alone would not do, because a cache shard's keys all
/// share the low 3 bits that picked the shard, and the map takes its
/// bucket from the low bits. Any other write (the fleet memo's
/// `(machine, classes)` keys) is FNV-1a, byte by byte.
#[derive(Debug)]
struct MemoHasher(u64);

impl MemoHasher {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
}

impl Default for MemoHasher {
    fn default() -> Self {
        Self(Self::FNV_OFFSET)
    }
}

impl Hasher for MemoHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(Self::FNV_PRIME);
        }
    }

    fn write_u128(&mut self, v: u128) {
        self.0 ^= (v as u64) ^ ((v >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type FixedState = BuildHasherDefault<MemoHasher>;

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
/// after each insert. An empty memo allocates nothing, which keeps
/// building the prediction cache's shard array cheap (every
/// `ExecContext::new` builds one). Eviction only ever discards memoized
/// work, so callers stay bit-identical at any bound; the victims depend
/// only on the order of operations, never on key order, hash order or
/// timing.
#[derive(Debug)]
pub(crate) struct LruMemo<K, V> {
    entries: HashMap<K, Slot<V>, FixedState>,
    /// Exactly one filing per entry, keyed by the entry's `filed` stamp.
    order: BTreeMap<u64, K>,
    clock: u64,
}

impl<K, V> LruMemo<K, V> {
    /// An empty memo.
    pub(crate) fn new() -> Self {
        Self { entries: HashMap::default(), order: BTreeMap::new(), clock: 0 }
    }
}

impl<K: Ord + Hash + Clone, V> LruMemo<K, V> {
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

    /// Drops every entry whose key fails `keep`, in ascending key order,
    /// whatever the hash order. Not an eviction: the caller is
    /// invalidating, not making room.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        // lint: sorted
        let mut gone: Vec<K> = self.entries.keys().filter(|k| !keep(k)).cloned().collect();
        gone.sort_unstable();
        for key in gone {
            if let Some(slot) = self.entries.remove(&key) {
                self.order.remove(&slot.filed);
            }
        }
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
    fn one_shards_fingerprints_spread_across_buckets_and_tags() {
        use crate::exec::Fingerprint;
        use std::collections::BTreeSet;
        use std::hash::BuildHasher;
        // 4,096 fingerprints that all land in cache shard 0 (low 3 bits
        // zero), hashed into 1,024 buckets: uniform hashes fill about
        // 1,024 · (1 − e⁻⁴) ≈ 1,005 of them; the low word alone would fill
        // at most 128. The map also tags each entry with the top 7 bits.
        let keys: Vec<u128> = (0..usize::MAX)
            .map(|i| {
                let mut fp = Fingerprint::new();
                fp.write_usize(i);
                fp.key()
            })
            .filter(|key| key & 7 == 0)
            .take(4096)
            .collect();
        let state = FixedState::default();
        let hashes: Vec<u64> = keys.iter().map(|key| state.hash_one(key)).collect();
        let buckets: BTreeSet<u64> = hashes.iter().map(|h| h & 1023).collect();
        let tags: BTreeSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(buckets.len() > 960, "{} of 1024 buckets", buckets.len());
        assert_eq!(tags.len(), 128, "top-7-bit tags");
        let low_word: BTreeSet<u128> = keys.iter().map(|key| key & 1023).collect();
        assert!(low_word.len() <= 128);
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
