//! Deterministic k-way merge of per-shard rectified event streams.
//!
//! Sharded generation produces one rectified (clock-corrected, sorted)
//! stream per shard. This module merges them into a single globally
//! ordered stream whose order is a pure function of the shard streams —
//! never of thread scheduling — so a parallel run is bit-identical to a
//! serial run over the same shard plan.
//!
//! The total order is the lexicographic key
//! `(rectified_time, node, shard, seq)`, where `shard` is the shard's
//! index in the input slice and `seq` the event's position within its
//! shard stream. Time orders the stream; `node` groups simultaneous
//! records the way the collector's arrival order tended to; `(shard,
//! seq)` is an arbitrary-but-fixed tiebreak that makes the order total.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use charisma_obs::{Counter, MetricsRegistry};

use crate::builder::Trace;
use crate::postprocess::{rectify, OrderedEvent};

/// Metric handles a [`MergedEvents`] reports through once attached with
/// [`MergedEvents::attach_metrics`]. The merge tallies its counts locally
/// and publishes them when it is exhausted or dropped.
#[derive(Clone, Debug, Default)]
pub struct MergeMetrics {
    /// Events emitted by the merge.
    pub records_merged: Counter,
    /// Heap operations performed (pops plus refill pushes) — the merge's
    /// comparison workload, O(total × log shards).
    pub heap_ops: Counter,
}

impl MergeMetrics {
    /// Handles registered under the `merge.` prefix of `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        MergeMetrics {
            records_merged: registry.counter("merge.records_merged"),
            heap_ops: registry.counter("merge.heap_ops"),
        }
    }
}

/// The total-order key of one merged event: `(time, node, shard, seq)`.
pub type MergeKey = (u64, u16, usize, usize);

/// The merge key of one event: `(time, node, shard, seq)`.
///
/// Exposed so property tests can assert the merged stream is sorted by
/// exactly this key.
pub fn merge_key(e: &OrderedEvent, shard: usize, seq: usize) -> MergeKey {
    (e.time.as_micros(), e.node, shard, seq)
}

/// Put one shard stream into merge order: stable by `(time, node)`, so
/// the shard's residual order is the final tiebreak. A stream already in
/// that order is left as it is, without the stable sort's scratch buffer.
fn sort_for_merge(stream: &mut [OrderedEvent]) {
    if !stream.is_sorted_by_key(|e| (e.time, e.node)) {
        stream.sort_by_key(|e| (e.time, e.node));
    }
}

/// Rectify a shard's trace straight into merge order.
///
/// Equal to [`crate::postprocess()`] followed by the merge's stable
/// `(time, node)` sort, in one sort: a stable sort by `(time, node)`
/// keeps equal keys in arrival order, just as sorting by time first
/// would.
pub fn rectify_for_merge(trace: &Trace) -> Vec<OrderedEvent> {
    let mut stream = rectify(trace);
    sort_for_merge(&mut stream);
    stream
}

/// A streaming k-way merge over per-shard event streams.
///
/// Yields every event of every shard exactly once, globally ordered by
/// [`merge_key`]. Construction stable-sorts each shard stream by
/// `(time, node)` unless it is already in that order, as streams from
/// [`rectify_for_merge`] are;
/// after that the merge itself is O(total log shards) and streams — the
/// analyzer can consume it without materializing the merged vector.
pub struct MergedEvents {
    shards: Vec<Vec<OrderedEvent>>,
    /// Next unconsumed position in each shard stream.
    cursor: Vec<usize>,
    /// Min-heap over the head of every non-exhausted stream.
    heap: BinaryHeap<Reverse<(MergeKey, usize)>>,
    remaining: usize,
    metrics: Option<MergeMetrics>,
    /// Records emitted since the last publish to `metrics`.
    unpublished_records: u64,
    /// Heap operations since the last publish to `metrics`.
    unpublished_heap_ops: u64,
    #[cfg(feature = "invariants")]
    last_key: Option<MergeKey>,
}

impl MergedEvents {
    /// Build a merge over `shards` (one rectified stream per shard).
    pub fn new(mut shards: Vec<Vec<OrderedEvent>>) -> Self {
        for stream in &mut shards {
            // `postprocess` sorts by time alone; the merge key also orders
            // by node within a timestamp.
            sort_for_merge(stream);
        }
        let remaining = shards.iter().map(Vec::len).sum();
        let cursor = vec![0; shards.len()];
        let mut heap = BinaryHeap::with_capacity(shards.len());
        for (shard, stream) in shards.iter().enumerate() {
            if let Some(e) = stream.first() {
                heap.push(Reverse((merge_key(e, shard, 0), shard)));
            }
        }
        MergedEvents {
            shards,
            cursor,
            heap,
            remaining,
            metrics: None,
            unpublished_records: 0,
            unpublished_heap_ops: 0,
            #[cfg(feature = "invariants")]
            last_key: None,
        }
    }

    /// Report merge throughput and heap workload through `metrics` from
    /// now on. Counts are tallied locally and published when the merge
    /// is exhausted or dropped, whichever comes first; a merge dropped
    /// half-consumed publishes what it emitted.
    pub fn attach_metrics(&mut self, metrics: MergeMetrics) {
        self.metrics = Some(metrics);
        self.unpublished_records = 0;
        self.unpublished_heap_ops = 0;
    }

    fn flush_metrics(&mut self) {
        if let Some(m) = &self.metrics {
            m.records_merged.add(self.unpublished_records);
            m.heap_ops.add(self.unpublished_heap_ops);
        }
        self.unpublished_records = 0;
        self.unpublished_heap_ops = 0;
    }

    /// Total events still to be yielded.
    pub fn len(&self) -> usize {
        self.remaining
    }

    /// Whether the merge is exhausted.
    pub fn is_empty(&self) -> bool {
        self.remaining == 0
    }
}

impl Iterator for MergedEvents {
    type Item = OrderedEvent;

    fn next(&mut self) -> Option<OrderedEvent> {
        let Some(Reverse((key, shard))) = self.heap.pop() else {
            self.flush_metrics();
            return None;
        };
        #[cfg(feature = "invariants")]
        {
            charisma_ipsc::invariant!(
                self.last_key.is_none_or(|prev| prev <= key),
                "k-way merge emitted keys out of order: {key:?} after {:?}",
                self.last_key
            );
            self.last_key = Some(key);
        }
        #[cfg(not(feature = "invariants"))]
        let _ = key;
        let pos = self.cursor[shard];
        let event = self.shards[shard][pos];
        self.cursor[shard] = pos + 1;
        self.unpublished_records += 1;
        self.unpublished_heap_ops += 1;
        if let Some(next) = self.shards[shard].get(pos + 1) {
            self.heap
                .push(Reverse((merge_key(next, shard, pos + 1), shard)));
            self.unpublished_heap_ops += 1;
        }
        self.remaining -= 1;
        Some(event)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for MergedEvents {}

impl Drop for MergedEvents {
    fn drop(&mut self) {
        self.flush_metrics();
    }
}

/// Merge per-shard rectified streams into one materialized ordered stream.
///
/// Convenience over [`MergedEvents`] for callers that want the vector.
pub fn merge_shards(shards: Vec<Vec<OrderedEvent>>) -> Vec<OrderedEvent> {
    MergedEvents::new(shards).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::EventBody;
    use charisma_ipsc::SimTime;

    fn ev(us: u64, node: u16, session: u32) -> OrderedEvent {
        OrderedEvent {
            time: SimTime::from_micros(us),
            node,
            body: EventBody::Read {
                session,
                offset: 0,
                bytes: 1,
            },
        }
    }

    fn session(e: &OrderedEvent) -> u32 {
        match e.body {
            EventBody::Read { session, .. } => session,
            _ => unreachable!("tests only build reads"),
        }
    }

    #[test]
    fn merges_in_time_order() {
        let a = vec![ev(1, 0, 0), ev(5, 0, 1), ev(9, 0, 2)];
        let b = vec![ev(2, 1, 10), ev(3, 1, 11), ev(20, 1, 12)];
        let merged = merge_shards(vec![a, b]);
        let times: Vec<u64> = merged.iter().map(|e| e.time.as_micros()).collect();
        assert_eq!(times, vec![1, 2, 3, 5, 9, 20]);
    }

    #[test]
    fn ties_break_by_node_then_shard() {
        let t = 7;
        let a = vec![ev(t, 3, 0)];
        let b = vec![ev(t, 1, 10), ev(t, 3, 11)];
        let merged = merge_shards(vec![a, b]);
        let ids: Vec<u32> = merged.iter().map(session).collect();
        // node 1 first; among node 3, shard 0 before shard 1.
        assert_eq!(ids, vec![10, 0, 11]);
    }

    #[test]
    fn merge_is_invariant_to_shard_stream_shape() {
        // The same events split differently across shards merge to the
        // same multiset, and each sorting key is respected.
        let all: Vec<OrderedEvent> = (0..100u64)
            .map(|i| ev(i % 13, (i % 3) as u16, i as u32))
            .collect();
        let one = merge_shards(vec![all.clone()]);
        let four = merge_shards(
            (0..4)
                .map(|k| all.iter().skip(k).step_by(4).copied().collect())
                .collect(),
        );
        let mut s1: Vec<u32> = one.iter().map(session).collect();
        let mut s4: Vec<u32> = four.iter().map(session).collect();
        s1.sort_unstable();
        s4.sort_unstable();
        assert_eq!(s1, s4, "merge is a permutation regardless of sharding");
        for w in four.windows(2) {
            assert!((w[0].time, w[0].node) <= (w[1].time, w[1].node));
        }
    }

    #[test]
    fn exact_size_iterator_counts_down() {
        let mut m = MergedEvents::new(vec![vec![ev(1, 0, 0)], vec![ev(2, 0, 1), ev(3, 0, 2)]]);
        assert_eq!(m.len(), 3);
        m.next();
        assert_eq!(m.len(), 2);
        assert_eq!(m.count(), 2);
    }

    #[test]
    fn attached_metrics_count_merge_work() {
        let registry = MetricsRegistry::new();
        let mut m = MergedEvents::new(vec![vec![ev(1, 0, 0), ev(4, 0, 1)], vec![ev(2, 0, 2)]]);
        m.attach_metrics(MergeMetrics::register(&registry));
        let merged: Vec<_> = m.collect();
        assert_eq!(merged.len(), 3);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["merge.records_merged"], 3);
        // 3 pops + 1 refill push (shard 0 has a successor after its head).
        assert_eq!(snap.counters["merge.heap_ops"], 4);
    }

    #[test]
    fn merge_dropped_half_consumed_publishes_what_it_emitted() {
        let registry = MetricsRegistry::new();
        let mut m = MergedEvents::new(vec![vec![ev(1, 0, 0), ev(4, 0, 1)], vec![ev(2, 0, 2)]]);
        m.attach_metrics(MergeMetrics::register(&registry));
        assert_eq!(m.next().map(|e| session(&e)), Some(0));
        assert_eq!(m.next().map(|e| session(&e)), Some(2));
        assert_eq!(registry.snapshot().counters["merge.records_merged"], 0);
        drop(m);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["merge.records_merged"], 2);
        // 2 pops + 1 refill push after the first pop.
        assert_eq!(snap.counters["merge.heap_ops"], 3);
    }

    #[test]
    fn rectify_for_merge_is_postprocess_then_merge_sort() {
        use crate::builder::TraceBuilder;
        use crate::record::TraceHeader;
        use charisma_ipsc::{DriftClock, Duration};

        let header = TraceHeader {
            version: TraceHeader::VERSION,
            compute_nodes: 3,
            io_nodes: 1,
            block_bytes: 4096,
            seed: 1,
        };
        let mut b = TraceBuilder::new(
            header,
            vec![DriftClock::PERFECT; 3],
            DriftClock::PERFECT,
            vec![Duration::from_micros(100); 3],
        );
        // Nodes log in descending order at shared timestamps, so ties on
        // time exist and the node key reorders them.
        for i in 0..900u64 {
            b.log(
                2 - (i % 3) as usize,
                SimTime::from_micros(i / 3),
                ev(0, 0, i as u32).body,
            );
        }
        let trace = b.finish(SimTime::from_secs(1));
        let mut want = crate::postprocess(&trace);
        assert!(!want.is_sorted_by_key(|e| (e.time, e.node)));
        want.sort_by_key(|e| (e.time, e.node));
        let got = rectify_for_merge(&trace);
        assert_eq!(got, want);
        assert_eq!(
            merge_shards(vec![got]),
            merge_shards(vec![crate::postprocess(&trace)])
        );
    }

    #[test]
    fn sort_for_merge_orders_by_time_then_node_stably() {
        let mut s = vec![ev(2, 1, 0), ev(1, 3, 1), ev(1, 0, 2), ev(1, 3, 3)];
        sort_for_merge(&mut s);
        let ids: Vec<u32> = s.iter().map(session).collect();
        assert_eq!(ids, vec![2, 1, 3, 0]);
        let before = s.clone();
        sort_for_merge(&mut s);
        assert_eq!(s, before, "sorted input is left as it is");
    }

    #[test]
    fn empty_shards_are_fine() {
        assert!(merge_shards(Vec::new()).is_empty());
        assert_eq!(merge_shards(vec![Vec::new(), vec![ev(1, 0, 0)]]).len(), 1);
    }
}
