//! The CHARISMA trace format and collection pipeline.
//!
//! The paper's instrumentation lived in the user-level CFS library: every
//! I/O call appended an event record to a 4 KB buffer on the calling compute
//! node; full buffers were sent to a data collector on the service node,
//! which wrote them to a central trace file. Job starts and ends were
//! recorded through a separate mechanism. Because node clocks drift, each
//! buffer was timestamped once when it left the node (node clock) and again
//! on receipt (collector clock), and a postprocessing pass used the pairs to
//! approximately rectify event order.
//!
//! This crate reproduces that pipeline:
//!
//! * [`record`] — the event-record vocabulary (open/close/read/write/...);
//! * [`codec`] — a compact binary encoding with a self-descriptive header;
//! * [`builder`] — per-node 4 KB buffering plus the service-node collector;
//! * [`postprocess`] — drift estimation and chronological rectification;
//! * [`merge`] — deterministic k-way merge of per-shard rectified streams;
//! * [`file`] — writing and reading trace files.

pub mod builder;
pub mod codec;
pub mod file;
pub mod merge;
pub mod postprocess;
pub mod record;

pub use builder::{Block, Trace, TraceBuilder};
pub use codec::{decode_events_tolerant, DecodeStats};
pub use file::{read_trace, read_trace_tolerant, write_trace, TolerantTrace, TraceFileError};
pub use merge::{merge_shards, rectify_for_merge, MergeMetrics, MergedEvents};
pub use postprocess::{postprocess, OrderedEvent};
pub use record::{
    AccessKind, Event, EventBody, FileId, JobId, SessionId, TraceHeader, SERVICE_NODE,
};
