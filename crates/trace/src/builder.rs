//! Trace collection: per-node buffering and the service-node collector.
//!
//! "Since large messages on the iPSC are broken into 4 KB blocks, we chose
//! to create a buffer of that size on each node to hold local event records.
//! This buffer allowed us to reduce the number of messages sent by over
//! 90%." (paper §3.1). Each flushed block carries two timestamps — the
//! node's clock when the block left the node and the collector's clock when
//! it arrived — which postprocessing uses to estimate per-node clock drift.

use charisma_ipsc::{DriftClock, Duration, SimTime};

use crate::codec;
use crate::record::{Event, EventBody, TraceHeader, SERVICE_NODE};

/// Size of each node's record buffer, bytes (one iPSC packet).
pub const NODE_BUFFER_BYTES: usize = 4096;

/// One flushed buffer of records from one node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// Recording node (or [`SERVICE_NODE`]).
    pub node: u16,
    /// Node-clock timestamp stamped as the block left the node.
    pub send_local: SimTime,
    /// Collector-clock timestamp stamped on receipt.
    pub recv_service: SimTime,
    /// The records, in the order the node generated them.
    pub events: Vec<Event>,
}

/// A complete collected trace: header plus blocks in arrival order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// Self-descriptive header.
    pub header: TraceHeader,
    /// Blocks in the order the collector received them.
    pub blocks: Vec<Block>,
}

impl Trace {
    /// Total number of event records in the trace.
    pub fn event_count(&self) -> usize {
        self.blocks.iter().map(|b| b.events.len()).sum()
    }

    /// Iterate over `(node, event)` pairs in collector-arrival order (the
    /// "partially ordered" raw order the paper describes).
    pub fn raw_events(&self) -> impl Iterator<Item = (u16, &Event)> {
        self.blocks
            .iter()
            .flat_map(|b| b.events.iter().map(move |e| (b.node, e)))
    }
}

struct NodeBuffer {
    events: Vec<Event>,
    used_bytes: usize,
}

impl NodeBuffer {
    fn new() -> Self {
        NodeBuffer {
            events: Vec::new(),
            used_bytes: 0,
        }
    }
}

/// Builds a [`Trace`] during simulation, reproducing the collection path:
/// records buffer per node and flush to the collector when 4 KB fills up.
pub struct TraceBuilder {
    header: TraceHeader,
    node_clocks: Vec<DriftClock>,
    service_clock: DriftClock,
    /// Modeled network latency of a flush message, per node (precomputed by
    /// the caller from the machine's topology).
    flush_latency: Vec<Duration>,
    buffers: Vec<NodeBuffer>,
    service_buffer: NodeBuffer,
    blocks: Vec<Block>,
    messages_saved: u64,
    messages_sent: u64,
}

impl TraceBuilder {
    /// Create a builder.
    ///
    /// `node_clocks[i]` is compute node `i`'s clock; `flush_latency[i]` the
    /// modeled delay of its 4 KB flush message to the service node.
    pub fn new(
        header: TraceHeader,
        node_clocks: Vec<DriftClock>,
        service_clock: DriftClock,
        flush_latency: Vec<Duration>,
    ) -> Self {
        assert_eq!(
            node_clocks.len(),
            flush_latency.len(),
            "one flush latency per node"
        );
        let buffers = (0..node_clocks.len()).map(|_| NodeBuffer::new()).collect();
        TraceBuilder {
            header,
            node_clocks,
            service_clock,
            flush_latency,
            buffers,
            service_buffer: NodeBuffer::new(),
            blocks: Vec::new(),
            messages_saved: 0,
            messages_sent: 0,
        }
    }

    /// Record an event generated on compute node `node` at true time
    /// `true_time`. The stored timestamp is the *node clock's* reading.
    pub fn log(&mut self, node: usize, true_time: SimTime, body: EventBody) {
        let local_time = self.node_clocks[node].local_time(true_time);
        let event = Event { local_time, body };
        let len = codec::encoded_len(&event);
        if self.buffers[node].used_bytes + len > NODE_BUFFER_BYTES {
            self.flush(node, true_time);
        }
        let buf = &mut self.buffers[node];
        buf.events.push(event);
        buf.used_bytes += len;
        self.messages_saved += 1;
    }

    /// Record an event generated on the service node (job starts/ends).
    pub fn log_service(&mut self, true_time: SimTime, body: EventBody) {
        let local_time = self.service_clock.local_time(true_time);
        self.service_buffer.events.push(Event { local_time, body });
    }

    /// Flush node `node`'s buffer to the collector at true time `true_time`.
    fn flush(&mut self, node: usize, true_time: SimTime) {
        let buf = &mut self.buffers[node];
        if buf.events.is_empty() {
            return;
        }
        let send_local = self.node_clocks[node].local_time(true_time);
        let recv_true = true_time + self.flush_latency[node];
        let recv_service = self.service_clock.local_time(recv_true);
        // Copy the records out at their exact length: the block is stored
        // for the trace's lifetime, so it must not keep the buffer's
        // growth slack, while the buffer keeps its capacity for the next
        // block.
        self.blocks.push(Block {
            node: node as u16,
            send_local,
            recv_service,
            events: buf.events.to_vec(),
        });
        buf.events.clear();
        buf.used_bytes = 0;
        self.messages_sent += 1;
        self.messages_saved = self.messages_saved.saturating_sub(1);
    }

    /// Fraction of messages avoided by buffering (the paper reports >90 %).
    pub fn message_reduction(&self) -> f64 {
        let total = self.messages_saved + self.messages_sent;
        if total == 0 {
            0.0
        } else {
            self.messages_saved as f64 / total as f64
        }
    }

    /// Flush every remaining buffer (at `end_time`) and assemble the trace.
    pub fn finish(mut self, end_time: SimTime) -> Trace {
        for node in 0..self.buffers.len() {
            self.flush(node, end_time);
        }
        if !self.service_buffer.events.is_empty() {
            let send_local = self.service_clock.local_time(end_time);
            self.blocks.push(Block {
                node: SERVICE_NODE,
                send_local,
                recv_service: send_local,
                events: std::mem::take(&mut self.service_buffer.events),
            });
        }
        Trace {
            header: self.header,
            blocks: self.blocks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::AccessKind;

    fn header() -> TraceHeader {
        TraceHeader {
            version: TraceHeader::VERSION,
            compute_nodes: 4,
            io_nodes: 1,
            block_bytes: 4096,
            seed: 1,
        }
    }

    fn builder(nodes: usize) -> TraceBuilder {
        TraceBuilder::new(
            header(),
            vec![DriftClock::PERFECT; nodes],
            DriftClock::PERFECT,
            vec![Duration::from_micros(100); nodes],
        )
    }

    fn read_event(session: u32, offset: u64) -> EventBody {
        EventBody::Read {
            session,
            offset,
            bytes: 512,
        }
    }

    #[test]
    fn events_buffer_until_4k() {
        let enc = crate::codec::encoded_len(&Event {
            local_time: SimTime::ZERO,
            body: read_event(0, 0),
        });
        let capacity = (NODE_BUFFER_BYTES / enc) as u64;
        let mut b = builder(1);
        for i in 0..capacity {
            b.log(0, SimTime::from_micros(i), read_event(0, i * 512));
        }
        assert!(b.blocks.is_empty(), "nothing flushed below 4 KB");
        b.log(0, SimTime::from_micros(999), read_event(0, 0));
        assert_eq!(b.blocks.len(), 1, "overflow record forces a flush");
        assert_eq!(b.blocks[0].events.len(), capacity as usize);
    }

    #[test]
    fn stored_blocks_carry_no_growth_slack() {
        let mut b = builder(2);
        for i in 0..2000u64 {
            b.log((i % 2) as usize, SimTime::from_micros(i), read_event(0, i));
        }
        let t = b.finish(SimTime::from_secs(1));
        assert!(t.blocks.len() > 4);
        for block in &t.blocks {
            assert_eq!(block.events.capacity(), block.events.len());
        }
    }

    #[test]
    fn finish_flushes_stragglers() {
        let mut b = builder(2);
        b.log(0, SimTime::from_micros(1), read_event(0, 0));
        b.log(1, SimTime::from_micros(2), read_event(1, 0));
        let t = b.finish(SimTime::from_secs(1));
        assert_eq!(t.blocks.len(), 2);
        assert_eq!(t.event_count(), 2);
    }

    #[test]
    fn block_timestamps_use_the_right_clocks() {
        let node_clock = DriftClock::new(100.0, 1000.0);
        let mut b = TraceBuilder::new(
            header(),
            vec![node_clock],
            DriftClock::PERFECT,
            vec![Duration::from_micros(250)],
        );
        let t0 = SimTime::from_secs(100);
        b.log(0, t0, read_event(0, 0));
        let trace = b.finish(t0);
        let blk = &trace.blocks[0];
        assert_eq!(blk.send_local, node_clock.local_time(t0));
        assert_eq!(
            blk.recv_service,
            t0 + Duration::from_micros(250),
            "collector stamps arrival on its own (perfect) clock"
        );
        assert_eq!(blk.events[0].local_time, node_clock.local_time(t0));
    }

    #[test]
    fn message_reduction_exceeds_90_percent() {
        // The headline instrumentation claim: buffering cut messages >90 %.
        let mut b = builder(1);
        for i in 0..10_000u64 {
            b.log(0, SimTime::from_micros(i), read_event(0, i));
        }
        assert!(
            b.message_reduction() > 0.9,
            "reduction {}",
            b.message_reduction()
        );
    }

    #[test]
    fn service_events_collect_separately() {
        let mut b = builder(1);
        b.log_service(
            SimTime::from_micros(5),
            EventBody::JobStart {
                job: 1,
                nodes: 4,
                traced: true,
            },
        );
        b.log(
            0,
            SimTime::from_micros(6),
            EventBody::Open {
                job: 1,
                file: 0,
                session: 0,
                mode: 0,
                access: AccessKind::Read,
                created: false,
            },
        );
        let t = b.finish(SimTime::from_secs(1));
        assert_eq!(t.event_count(), 2);
        assert!(t.blocks.iter().any(|b| b.node == SERVICE_NODE));
    }

    #[test]
    fn raw_events_preserve_per_node_order() {
        let mut b = builder(1);
        for i in 0..500u64 {
            b.log(0, SimTime::from_micros(i), read_event(0, i * 10));
        }
        let t = b.finish(SimTime::from_secs(1));
        let offsets: Vec<u64> = t
            .raw_events()
            .filter_map(|(_, e)| match e.body {
                EventBody::Read { offset, .. } => Some(offset),
                _ => None,
            })
            .collect();
        assert_eq!(offsets.len(), 500);
        assert!(offsets.windows(2).all(|w| w[0] < w[1]));
    }
}
