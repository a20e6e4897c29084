//! The block caches against their `BTreeMap` reference model.
//!
//! The oracle policies below are the ordered-map implementations the
//! caches used before their open-addressed block index: same replacement
//! logic, with residency kept in a `BTreeMap`. Random access/invalidate
//! sequences must give identical hits, sizes, residency and LRU victims
//! at capacities 0, 1, small, and large enough to take the index through
//! several table doublings.

use std::collections::{BTreeMap, VecDeque};

use charisma_cfs::{BlockCache, BlockKey, FifoCache, IplCache, LruCache, BLOCK_BYTES};
use proptest::prelude::*;

const NIL: usize = usize::MAX;

#[derive(Clone, Copy)]
struct OracleEntry {
    key: BlockKey,
    prev: usize,
    next: usize,
}

/// Slab-and-list LRU indexed by a `BTreeMap`.
struct OracleLru {
    capacity: usize,
    map: BTreeMap<BlockKey, usize>,
    slab: Vec<OracleEntry>,
    head: usize,
    tail: usize,
    free: Vec<usize>,
}

impl OracleLru {
    fn new(capacity: usize) -> Self {
        OracleLru {
            capacity,
            map: BTreeMap::new(),
            slab: Vec::new(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
        }
    }

    fn unlink(&mut self, i: usize) {
        let OracleEntry { prev, next, .. } = self.slab[i];
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

    fn lru_key(&self) -> Option<BlockKey> {
        (self.tail != NIL).then(|| self.slab[self.tail].key)
    }
}

impl BlockCache for OracleLru {
    fn access(&mut self, key: BlockKey, _touched_bytes: u32) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if let Some(&i) = self.map.get(&key) {
            self.unlink(i);
            self.push_front(i);
            return true;
        }
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slab[victim].key);
            self.free.push(victim);
        }
        let i = self.free.pop().unwrap_or_else(|| {
            self.slab.push(OracleEntry {
                key,
                prev: NIL,
                next: NIL,
            });
            self.slab.len() - 1
        });
        self.slab[i].key = key;
        self.push_front(i);
        self.map.insert(key, i);
        false
    }

    fn contains(&self, key: BlockKey) -> bool {
        self.map.contains_key(&key)
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn invalidate(&mut self, key: BlockKey) {
        if let Some(i) = self.map.remove(&key) {
            self.unlink(i);
            self.free.push(i);
        }
    }
}

/// FIFO with fetch stamps in a `BTreeMap`.
struct OracleFifo {
    capacity: usize,
    map: BTreeMap<BlockKey, u64>,
    queue: VecDeque<(BlockKey, u64)>,
    stamp: u64,
}

impl OracleFifo {
    fn new(capacity: usize) -> Self {
        OracleFifo {
            capacity,
            map: BTreeMap::new(),
            queue: VecDeque::new(),
            stamp: 0,
        }
    }
}

impl BlockCache for OracleFifo {
    fn access(&mut self, key: BlockKey, _touched_bytes: u32) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if self.map.contains_key(&key) {
            return true;
        }
        while self.map.len() >= self.capacity {
            let Some((victim, stamp)) = self.queue.pop_front() else {
                break;
            };
            if self.map.get(&victim) == Some(&stamp) {
                self.map.remove(&victim);
            }
        }
        self.stamp += 1;
        self.map.insert(key, self.stamp);
        self.queue.push_back((key, self.stamp));
        false
    }

    fn contains(&self, key: BlockKey) -> bool {
        self.map.contains_key(&key)
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn invalidate(&mut self, key: BlockKey) {
        self.map.remove(&key);
    }
}

/// Exhausted-first eviction with block coverage in a `BTreeMap`.
struct OracleIpl {
    lru: OracleLru,
    coverage: BTreeMap<BlockKey, u64>,
    exhausted: Vec<BlockKey>,
    block_bytes: u64,
}

impl OracleIpl {
    fn new(capacity: usize, block_bytes: u64) -> Self {
        OracleIpl {
            lru: OracleLru::new(capacity),
            coverage: BTreeMap::new(),
            exhausted: Vec::new(),
            block_bytes,
        }
    }
}

impl BlockCache for OracleIpl {
    fn access(&mut self, key: BlockKey, touched_bytes: u32) -> bool {
        if self.lru.capacity() == 0 {
            return false;
        }
        let hit = self.lru.contains(key);
        if !hit && self.lru.len() >= self.lru.capacity() {
            let mut evicted = false;
            while let Some(victim) = self.exhausted.pop() {
                if victim != key && self.lru.contains(victim) {
                    self.lru.invalidate(victim);
                    self.coverage.remove(&victim);
                    evicted = true;
                    break;
                }
            }
            if !evicted {
                if let Some(victim) = self.lru.lru_key() {
                    self.coverage.remove(&victim);
                }
            }
        }
        self.lru.access(key, touched_bytes);
        let cov = self.coverage.entry(key).or_insert(0);
        if !hit {
            *cov = 0;
        }
        let before = *cov;
        *cov += u64::from(touched_bytes);
        if before < self.block_bytes && *cov >= self.block_bytes {
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
        self.coverage.remove(&key);
    }
}

/// Key number `n` of a key space where every three consecutive numbers
/// share one value of `block ^ (file << 32)`: the files' bits cancel in
/// the block number, so the triple collides wherever the index hashes
/// that combination, in every table size.
fn key(n: u64) -> BlockKey {
    let file = (n % 3) as u32;
    (file, (n / 3) ^ (u64::from(file) << 32))
}

/// One step of a trace: touch a block with some bytes, or invalidate it.
#[derive(Clone, Copy, Debug)]
enum Op {
    Access(u64, u32),
    Invalidate(u64),
}

/// Run `ops` on a cache and its oracle, comparing every observable:
/// each access's hit or miss, `len`, the residency of key numbers below
/// `sweep` after every step and of the whole `domain` at the end, and
/// whatever `also` compares after every step.
fn run_against_oracle<C: BlockCache, O: BlockCache>(
    fast: &mut C,
    oracle: &mut O,
    ops: &[Op],
    domain: u64,
    sweep: u64,
    also: impl Fn(&C, &O, usize),
) {
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Access(n, touched) => {
                let (a, b) = (fast.access(key(n), touched), oracle.access(key(n), touched));
                assert_eq!(a, b, "step {step}: hit/miss diverged on {op:?}");
            }
            Op::Invalidate(n) => {
                fast.invalidate(key(n));
                oracle.invalidate(key(n));
            }
        }
        assert_eq!(fast.len(), oracle.len(), "step {step}: len after {op:?}");
        for n in 0..sweep {
            assert_eq!(
                fast.contains(key(n)),
                oracle.contains(key(n)),
                "step {step}: residency of key {n} after {op:?}"
            );
        }
        also(fast, oracle, step);
    }
    for n in 0..domain {
        assert_eq!(
            fast.contains(key(n)),
            oracle.contains(key(n)),
            "final residency of key {n}"
        );
    }
}

/// Decode raw draws into a trace over `domain` key numbers: one step in
/// four invalidates, and touches are small, half-block or whole-block so
/// the IPL policy sees both exhausted and unfinished blocks.
fn trace(raw: &[(u64, u8)], domain: u64) -> Vec<Op> {
    raw.iter()
        .map(|&(n, kind)| {
            let n = n % domain;
            match kind % 8 {
                0 | 1 => Op::Invalidate(n),
                2 | 3 => Op::Access(n, BLOCK_BYTES as u32),
                4 => Op::Access(n, (BLOCK_BYTES / 2) as u32),
                _ => Op::Access(n, 512),
            }
        })
        .collect()
}

proptest! {
    /// Every policy matches its oracle step by step, at capacity 0, 1,
    /// small, and large (hundreds of blocks, several index doublings).
    #[test]
    fn caches_match_their_btreemap_oracles(
        cap in prop_oneof![Just(0usize), Just(1usize), 2usize..12, 150usize..400],
        raw in proptest::collection::vec((any::<u64>(), any::<u8>()), 1..1500),
    ) {
        // A key space a bit larger than the cache keeps both hits and
        // evictions frequent; the sweep covers every key only when that
        // stays cheap.
        let domain = 2 * cap as u64 + 9;
        let sweep = if cap < 12 { domain } else { 24 };
        let ops = trace(&raw, domain);

        run_against_oracle(
            &mut LruCache::new(cap),
            &mut OracleLru::new(cap),
            &ops,
            domain,
            sweep,
            |lru, oracle, step| assert_eq!(lru.lru_key(), oracle.lru_key(), "step {step}: LRU victim"),
        );
        run_against_oracle(
            &mut FifoCache::new(cap),
            &mut OracleFifo::new(cap),
            &ops,
            domain,
            sweep,
            |_, _, _| {},
        );
        run_against_oracle(
            &mut IplCache::new(cap, BLOCK_BYTES),
            &mut OracleIpl::new(cap, BLOCK_BYTES),
            &ops,
            domain,
            sweep,
            |_, _, _| {},
        );
    }
}
