//! A minimal, deterministic discrete-event queue.
//!
//! The workload generator interleaves the per-node programs of every running
//! job through this queue: each entry is "node X becomes runnable at time
//! T". Ties are broken by insertion order (FIFO), so a simulation with a
//! fixed seed is exactly reproducible — a property the whole reproduction
//! depends on.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use charisma_obs::{Counter, Gauge, MetricsRegistry};

use crate::time::SimTime;

/// Metric handles an [`EventQueue`] reports through once attached with
/// [`EventQueue::attach_metrics`]. All counts are facts of the simulation
/// (deterministic for a fixed seed), not wall-clock measurements.
#[derive(Clone, Debug, Default)]
pub struct QueueMetrics {
    /// Events scheduled via [`EventQueue::push`].
    pub pushed: Counter,
    /// Events dispatched via [`EventQueue::pop`].
    pub dispatched: Counter,
    /// High-water mark of pending events.
    pub depth_high_water: Gauge,
}

impl QueueMetrics {
    /// Handles registered under the `engine.` prefix of `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        QueueMetrics {
            pushed: registry.counter("engine.events_pushed"),
            dispatched: registry.counter("engine.events_dispatched"),
            depth_high_water: registry.gauge("engine.queue_depth_high_water"),
        }
    }
}

/// Counts an [`EventQueue`] has not yet published to its [`QueueMetrics`].
#[derive(Debug, Default)]
struct QueueTally {
    pushed: u64,
    dispatched: u64,
    depth_high_water: u64,
}

/// A time-ordered event queue with stable FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    metrics: Option<QueueMetrics>,
    tally: QueueTally,
    #[cfg(feature = "invariants")]
    last_popped: Option<SimTime>,
}

#[derive(Debug)]
struct Entry<E> {
    key: Reverse<(SimTime, u64)>,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with space for `capacity` pending events.
    ///
    /// Sharded generation runs one queue per shard and knows each shard's
    /// job count up front; pre-sizing avoids rehash churn on the hot path.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            seq: 0,
            metrics: None,
            tally: QueueTally::default(),
            #[cfg(feature = "invariants")]
            last_popped: None,
        }
    }

    /// Report push/dispatch counts and the depth high-water mark through
    /// `metrics` from now on. The queue tallies them in plain integers and
    /// publishes them only when [`EventQueue::flush_metrics`] is called;
    /// until then the handles do not see this queue's activity.
    pub fn attach_metrics(&mut self, metrics: QueueMetrics) {
        self.metrics = Some(metrics);
        self.tally = QueueTally::default();
    }

    /// Publish the counts tallied since the last flush to the attached
    /// metrics, then reset the tally (a no-op when none are attached).
    pub fn flush_metrics(&mut self) {
        let tally = std::mem::take(&mut self.tally);
        if let Some(m) = &self.metrics {
            m.pushed.add(tally.pushed);
            m.dispatched.add(tally.dispatched);
            m.depth_high_water.record_max(tally.depth_high_water);
        }
    }

    /// Schedule `event` at time `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            key: Reverse((at, seq)),
            event,
        });
        self.tally.pushed += 1;
        self.tally.depth_high_water = self.tally.depth_high_water.max(self.heap.len() as u64);
    }

    /// Remove and return the earliest event, with its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = self.heap.pop()?;
        let at = (e.key.0).0;
        self.tally.dispatched += 1;
        #[cfg(feature = "invariants")]
        {
            crate::invariant!(
                self.last_popped.is_none_or(|prev| prev <= at),
                "event queue went backward: popped {at} after {:?}",
                self.last_popped
            );
            self.last_popped = Some(at);
        }
        Some((at, e.event))
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| (e.key.0).0)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), 'x');
        q.push(SimTime::from_secs(1), 'y');
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 'y')));
        q.push(SimTime::from_secs(4), 'z');
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(4)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(4), 'z')));
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), 'x')));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = EventQueue::with_capacity(16);
        q.push(SimTime::from_secs(2), "b");
        q.push(SimTime::from_secs(1), "a");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn attached_metrics_track_traffic() {
        let registry = MetricsRegistry::new();
        let mut q = EventQueue::new();
        q.attach_metrics(QueueMetrics::register(&registry));
        q.push(SimTime::from_secs(1), 'a');
        q.push(SimTime::from_secs(2), 'b');
        q.push(SimTime::from_secs(3), 'c');
        q.pop();
        q.pop();
        q.flush_metrics();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["engine.events_pushed"], 3);
        assert_eq!(snap.counters["engine.events_dispatched"], 2);
        assert_eq!(snap.gauges["engine.queue_depth_high_water"], 3);
    }

    #[test]
    fn len_tracks_contents() {
        let mut q = EventQueue::new();
        assert_eq!(q.len(), 0);
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }
}
