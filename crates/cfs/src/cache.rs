//! Block buffer caches.
//!
//! The paper's trace-driven simulations (§4.8) use 4 KB block buffers with
//! LRU or FIFO replacement; its conclusions call for policies "other than
//! LRU or FIFO … to optimize for interprocess locality rather than
//! traditional spatial and temporal locality" — implemented here as
//! [`IplCache`].
//!
//! All caches share the [`BlockCache`] interface: `access` returns whether
//! the block was resident (a hit) and makes it resident, evicting if full.

use std::collections::VecDeque;

/// Identity of a cached block: the file's path id and the block index.
pub type BlockKey = (u32, u64);

/// Common interface of the replacement policies.
pub trait BlockCache {
    /// Touch `key` with `touched_bytes` of the block actually referenced.
    /// Returns true on a hit (block was resident). On a miss the block is
    /// fetched (made resident), evicting the policy's victim if needed.
    fn access(&mut self, key: BlockKey, touched_bytes: u32) -> bool;

    /// Whether `key` is resident, without touching policy state.
    fn contains(&self, key: BlockKey) -> bool;

    /// Number of resident blocks.
    fn len(&self) -> usize;

    /// Whether the cache is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Capacity in blocks.
    fn capacity(&self) -> usize;

    /// Drop a block if resident (e.g. on file deletion).
    fn invalidate(&mut self, key: BlockKey);
}

// ---------------------------------------------------------------------------
// Block index
// ---------------------------------------------------------------------------

/// An open-addressed map from [`BlockKey`] to a small payload: the
/// residency index under every policy.
///
/// Linear probing over a power-of-two table that is never more than half
/// full, so a lookup inspects a short run of adjacent slots and always
/// ends at an empty one. The hash is a fixed multiplicative (Fibonacci)
/// hash with no per-process seed, and the index has no iteration API:
/// nothing can observe slot order, so no result depends on it. Removal
/// shifts the rest of the probe run back into the hole instead of
/// leaving a tombstone, so constant eviction churn never slows lookups.
#[derive(Debug)]
struct BlockIndex<V> {
    slots: Vec<Option<(BlockKey, V)>>,
    /// `64 - log2(slots.len())`: the hash's top bits pick the home slot.
    shift: u32,
    len: usize,
}

/// The table size an index starts at; it doubles as entries arrive.
const INDEX_MIN_SLOTS: usize = 16;

impl<V: Copy> BlockIndex<V> {
    fn new() -> Self {
        Self::with_slots(INDEX_MIN_SLOTS)
    }

    fn with_slots(slots: usize) -> Self {
        BlockIndex {
            slots: vec![None; slots],
            shift: 64 - slots.trailing_zeros(),
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    fn home(&self, key: BlockKey) -> usize {
        let x = key.1 ^ (u64::from(key.0) << 32);
        (x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// `Ok(slot)` holding `key`, or `Err(slot)`: the empty slot that ends
    /// its probe run, where it would be inserted.
    fn find(&self, key: BlockKey) -> Result<usize, usize> {
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            match self.slots[i] {
                None => return Err(i),
                Some((k, _)) if k == key => return Ok(i),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    fn get(&self, key: BlockKey) -> Option<V> {
        let i = self.find(key).ok()?;
        self.slots[i].map(|(_, v)| v)
    }

    fn contains_key(&self, key: BlockKey) -> bool {
        self.find(key).is_ok()
    }

    /// Map `key` to `value`, replacing any previous value.
    fn insert(&mut self, key: BlockKey, value: V) {
        match self.find(key) {
            Ok(i) => self.slots[i] = Some((key, value)),
            Err(_) if (self.len + 1) * 2 > self.slots.len() => {
                self.grow();
                self.insert(key, value);
            }
            Err(i) => {
                self.slots[i] = Some((key, value));
                self.len += 1;
            }
        }
    }

    fn grow(&mut self) {
        let old = std::mem::replace(self, Self::with_slots(self.slots.len() * 2));
        for (key, value) in old.slots.into_iter().flatten() {
            if let Err(i) = self.find(key) {
                self.slots[i] = Some((key, value));
                self.len += 1;
            }
        }
    }

    /// Remove `key`, returning its value (backward-shift deletion).
    fn remove(&mut self, key: BlockKey) -> Option<V> {
        let mut hole = self.find(key).ok()?;
        let (_, value) = self.slots[hole].take()?;
        self.len -= 1;
        let mask = self.mask();
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let Some((k, _)) = self.slots[j] else {
                return Some(value);
            };
            // The entry at `j` may fill the hole only if the hole lies on
            // its probe path, i.e. cyclically within [home, j).
            let home = self.home(k);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[j].take();
                hole = j;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// LRU
// ---------------------------------------------------------------------------

/// Least-recently-used cache: O(1) expected per operation, via an
/// intrusive doubly-linked list over a slab (the classic implementation)
/// indexed by an open-addressed [`BlockKey`] table.
#[derive(Debug)]
pub struct LruCache {
    capacity: usize,
    map: BlockIndex<usize>,
    slab: Vec<LruEntry>,
    head: usize, // most recent
    tail: usize, // least recent
    free: Vec<usize>,
}

#[derive(Debug, Clone, Copy)]
struct LruEntry {
    key: BlockKey,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

impl LruCache {
    /// A cache of `capacity` blocks (capacity 0 caches nothing).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            map: BlockIndex::new(),
            slab: Vec::with_capacity(capacity.min(1 << 20)),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
        }
    }

    fn unlink(&mut self, i: usize) {
        let LruEntry { prev, next, .. } = self.slab[i];
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slab[i].prev = NIL;
        self.slab[i].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// The least-recently-used key, if any (exposed for tests).
    pub fn lru_key(&self) -> Option<BlockKey> {
        (self.tail != NIL).then(|| self.slab[self.tail].key)
    }
}

impl BlockCache for LruCache {
    fn access(&mut self, key: BlockKey, _touched_bytes: u32) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if let Some(i) = self.map.get(key) {
            self.unlink(i);
            self.push_front(i);
            return true;
        }
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(self.slab[victim].key);
            self.free.push(victim);
        }
        let i = self.free.pop().unwrap_or_else(|| {
            self.slab.push(LruEntry {
                key,
                prev: NIL,
                next: NIL,
            });
            self.slab.len() - 1
        });
        self.slab[i].key = key;
        self.push_front(i);
        self.map.insert(key, i);
        charisma_ipsc::invariant!(
            self.map.len() <= self.capacity,
            "LRU holds {} blocks over capacity {}",
            self.map.len(),
            self.capacity
        );
        charisma_ipsc::invariant!(
            self.map.is_empty() == (self.head == NIL && self.tail == NIL),
            "LRU map and recency list disagree about emptiness"
        );
        charisma_ipsc::invariant!(
            self.slab[self.head].key == key,
            "LRU head is not the just-touched block"
        );
        false
    }

    fn contains(&self, key: BlockKey) -> bool {
        self.map.contains_key(key)
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn invalidate(&mut self, key: BlockKey) {
        if let Some(i) = self.map.remove(key) {
            self.unlink(i);
            self.free.push(i);
        }
    }
}

// ---------------------------------------------------------------------------
// FIFO
// ---------------------------------------------------------------------------

/// First-in-first-out cache: eviction order is fetch order, ignoring reuse.
/// "FIFO does not give preference to blocks with high locality" — the paper
/// found it needs ~5× the buffers LRU needs for a 90 % hit rate.
#[derive(Debug)]
pub struct FifoCache {
    capacity: usize,
    map: BlockIndex<u64>,
    queue: VecDeque<(BlockKey, u64)>,
    stamp: u64,
}

impl FifoCache {
    /// A cache of `capacity` blocks.
    pub fn new(capacity: usize) -> Self {
        FifoCache {
            capacity,
            map: BlockIndex::new(),
            queue: VecDeque::with_capacity(capacity.min(1 << 20)),
            stamp: 0,
        }
    }
}

impl BlockCache for FifoCache {
    fn access(&mut self, key: BlockKey, _touched_bytes: u32) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if self.map.contains_key(key) {
            return true;
        }
        while self.map.len() >= self.capacity {
            // Pop queue entries until one is still current (invalidation
            // leaves stale queue entries behind).
            let Some((victim, stamp)) = self.queue.pop_front() else {
                break; // unreachable: the queue always covers the map
            };
            if self.map.get(victim) == Some(stamp) {
                self.map.remove(victim);
            }
        }
        self.stamp += 1;
        self.map.insert(key, self.stamp);
        self.queue.push_back((key, self.stamp));
        charisma_ipsc::invariant!(
            self.map.len() <= self.capacity,
            "FIFO holds {} blocks over capacity {}",
            self.map.len(),
            self.capacity
        );
        charisma_ipsc::invariant!(
            self.queue.len() >= self.map.len(),
            "FIFO queue no longer covers the resident set"
        );
        false
    }

    fn contains(&self, key: BlockKey) -> bool {
        self.map.contains_key(key)
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn invalidate(&mut self, key: BlockKey) {
        self.map.remove(key);
    }
}

// ---------------------------------------------------------------------------
// Interprocess-locality-aware (the paper's §5 future-work policy)
// ---------------------------------------------------------------------------

/// An eviction policy specialized for the workload the paper observed.
///
/// Under interleaved parallel access, a block is referenced by several
/// compute nodes in quick succession — once every byte of the block has
/// been consumed, the block is *used up* and will likely never be touched
/// again (the paper found essentially no temporal locality). `IplCache`
/// therefore tracks how many bytes of each resident block have been
/// referenced and preferentially evicts *exhausted* blocks (coverage ≥
/// block size); only when no block is exhausted does it fall back to LRU
/// order.
#[derive(Debug)]
pub struct IplCache {
    lru: LruCache,
    coverage: BlockIndex<u64>,
    exhausted: Vec<BlockKey>,
    block_bytes: u64,
}

impl IplCache {
    /// A cache of `capacity` blocks of `block_bytes` bytes each.
    pub fn new(capacity: usize, block_bytes: u64) -> Self {
        IplCache {
            lru: LruCache::new(capacity),
            coverage: BlockIndex::new(),
            exhausted: Vec::new(),
            block_bytes,
        }
    }
}

impl BlockCache for IplCache {
    fn access(&mut self, key: BlockKey, touched_bytes: u32) -> bool {
        if self.lru.capacity() == 0 {
            return false;
        }
        let hit = self.lru.contains(key);
        if !hit && self.lru.len() >= self.lru.capacity() {
            // Prefer evicting an exhausted block over the LRU victim.
            let mut evicted = false;
            while let Some(victim) = self.exhausted.pop() {
                if victim != key && self.lru.contains(victim) {
                    self.lru.invalidate(victim);
                    self.coverage.remove(victim);
                    evicted = true;
                    break;
                }
            }
            if !evicted {
                // LruCache::access below will evict its LRU victim; drop
                // our coverage record for it so the map cannot leak.
                if let Some(victim) = self.lru.lru_key() {
                    self.coverage.remove(victim);
                }
            }
        }
        self.lru.access(key, touched_bytes);
        // A fresh fetch restarts coverage accounting.
        let before = if hit {
            self.coverage.get(key).unwrap_or(0)
        } else {
            0
        };
        let cov = before + u64::from(touched_bytes);
        self.coverage.insert(key, cov);
        if before < self.block_bytes && cov >= self.block_bytes {
            // Push only on the crossing so a hot block cannot flood the
            // exhausted list with duplicates.
            self.exhausted.push(key);
        }
        hit
    }

    fn contains(&self, key: BlockKey) -> bool {
        self.lru.contains(key)
    }

    fn len(&self) -> usize {
        self.lru.len()
    }

    fn capacity(&self) -> usize {
        self.lru.capacity()
    }

    fn invalidate(&mut self, key: BlockKey) {
        self.lru.invalidate(key);
        self.coverage.remove(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(b: u64) -> BlockKey {
        (1, b)
    }

    #[test]
    fn lru_hits_and_misses() {
        let mut c = LruCache::new(2);
        assert!(!c.access(k(0), 1), "cold miss");
        assert!(c.access(k(0), 1), "hit");
        assert!(!c.access(k(1), 1));
        assert!(!c.access(k(2), 1), "evicts k0 (LRU)");
        assert!(!c.access(k(0), 1), "k0 was evicted");
        assert!(c.access(k(2), 1), "k2 survived");
    }

    #[test]
    fn lru_eviction_order_is_recency() {
        let mut c = LruCache::new(3);
        c.access(k(0), 1);
        c.access(k(1), 1);
        c.access(k(2), 1);
        c.access(k(0), 1); // k0 now most recent; k1 is LRU
        assert_eq!(c.lru_key(), Some(k(1)));
        c.access(k(3), 1);
        assert!(!c.contains(k(1)));
        assert!(c.contains(k(0)) && c.contains(k(2)) && c.contains(k(3)));
    }

    #[test]
    fn lru_never_exceeds_capacity() {
        let mut c = LruCache::new(5);
        for b in 0..100 {
            c.access(k(b), 1);
            assert!(c.len() <= 5);
        }
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut lru = LruCache::new(0);
        let mut fifo = FifoCache::new(0);
        let mut ipl = IplCache::new(0, 4096);
        for _ in 0..3 {
            assert!(!lru.access(k(0), 1));
            assert!(!fifo.access(k(0), 1));
            assert!(!ipl.access(k(0), 1));
        }
        assert_eq!(lru.len() + fifo.len() + ipl.len(), 0);
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut c = FifoCache::new(2);
        c.access(k(0), 1);
        c.access(k(1), 1);
        assert!(c.access(k(0), 1), "hit does not move k0");
        c.access(k(2), 1); // evicts k0 (oldest fetch) despite recent hit
        assert!(!c.contains(k(0)));
        assert!(c.contains(k(1)) && c.contains(k(2)));
    }

    #[test]
    fn fifo_capacity_respected() {
        let mut c = FifoCache::new(4);
        for b in 0..50 {
            c.access(k(b), 1);
            assert!(c.len() <= 4);
        }
    }

    #[test]
    fn invalidate_removes() {
        let mut lru = LruCache::new(4);
        lru.access(k(1), 1);
        lru.invalidate(k(1));
        assert!(!lru.contains(k(1)));
        assert!(!lru.access(k(1), 1), "miss after invalidation");

        let mut fifo = FifoCache::new(2);
        fifo.access(k(1), 1);
        fifo.invalidate(k(1));
        assert!(!fifo.contains(k(1)));
        // Stale queue entry must not corrupt later evictions.
        fifo.access(k(2), 1);
        fifo.access(k(3), 1);
        fifo.access(k(4), 1);
        assert!(fifo.len() <= 2);
    }

    #[test]
    fn lru_outperforms_fifo_on_looping_scan_with_hot_block() {
        // A hot block re-touched between scan steps: LRU keeps it, FIFO
        // ages it out. This is the mechanism behind Figure 9's LRU/FIFO gap.
        let mut lru = LruCache::new(4);
        let mut fifo = FifoCache::new(4);
        let mut lru_hits = 0;
        let mut fifo_hits = 0;
        for i in 0..1000u64 {
            // hot block 0 between cold scan blocks
            for key in [k(0), k(1000 + i)] {
                if lru.access(key, 1) {
                    lru_hits += 1;
                }
                if fifo.access(key, 1) {
                    fifo_hits += 1;
                }
            }
        }
        assert!(lru_hits > fifo_hits, "LRU {lru_hits} vs FIFO {fifo_hits}");
    }

    #[test]
    fn ipl_evicts_exhausted_blocks_first() {
        let block = 4096;
        let mut c = IplCache::new(2, block);
        // Block 0 fully consumed; block 1 half consumed (still useful).
        c.access(k(0), block as u32);
        c.access(k(1), (block / 2) as u32);
        // A third block arrives: the exhausted block 0 should go, even
        // though block 1 is the LRU victim.
        c.access(k(2), 1);
        assert!(!c.contains(k(0)), "exhausted block evicted");
        assert!(c.contains(k(1)), "unfinished block kept");
        assert!(c.contains(k(2)));
    }

    #[test]
    fn ipl_falls_back_to_lru() {
        let mut c = IplCache::new(2, 4096);
        c.access(k(0), 1);
        c.access(k(1), 1);
        c.access(k(2), 1); // nothing exhausted: plain LRU eviction of k0
        assert!(!c.contains(k(0)));
        assert!(c.contains(k(1)) && c.contains(k(2)));
        assert!(c.len() <= 2);
    }

    #[test]
    fn ipl_capacity_respected_under_churn() {
        let mut c = IplCache::new(8, 4096);
        for i in 0..10_000u64 {
            c.access(k(i % 57), 4096);
            assert!(c.len() <= 8);
        }
    }
}
