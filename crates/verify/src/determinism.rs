//! End-to-end determinism harness.
//!
//! `charisma-verify determinism` runs the full workload→simulate→trace
//! pipeline serially, at `N` workers, and at `N` workers again, and
//! compares a streaming hash of every emitted record — the raw per-node
//! trace stream *and* the postprocessed (clock-rectified, globally
//! ordered) stream. Any divergence is localized to the first differing
//! record, which is usually enough to name the offending `HashMap`
//! iteration or unseeded RNG.
//!
//! The harness is deliberately two-layer:
//! - [`check_determinism`] compares any two record streams — the generic
//!   engine, used by the tests to prove the harness *fails* on injected
//!   nondeterminism;
//! - [`stream_invariance`] instantiates it on the real pipeline through
//!   the shared invariance check, with or without a fault plan.

use charisma_core::report::Report;
use charisma_ipsc::FaultPlan;
use charisma_trace::codec;
use charisma_trace::postprocess::postprocess;
use charisma_trace::OrderedEvent;
use charisma_workload::shard::generate_sharded;
use charisma_workload::{generate, GeneratorConfig};

use crate::harness::{check_invariance, Cell, GateArgs, GateError, GateReport, Invariance};

/// Where in the pipeline the record streams first disagreed.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Ordinal of the first differing record (0-based).
    pub index: u64,
    /// Hex dump of the record from the first run (empty if the stream ended).
    pub first: String,
    /// Hex dump of the record from the second run (empty if the stream ended).
    pub second: String,
}

/// Outcome of a determinism check.
#[derive(Clone, Debug)]
pub struct DeterminismReport {
    /// Total records compared (up to the divergence, if any).
    pub records_checked: u64,
    /// Streaming FNV-1a hash over all compared records of the first run.
    pub stream_hash: u64,
    /// First disagreement, or `None` if the streams are identical.
    pub divergence: Option<Divergence>,
}

impl DeterminismReport {
    /// Did the two runs produce byte-identical streams?
    pub fn is_deterministic(&self) -> bool {
        self.divergence.is_none()
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// FNV-1a over one byte slice — the workspace's standard fixture hash
/// (the same function the streaming determinism harness accumulates).
pub fn fnv1a_hash(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    fnv1a(&mut hash, bytes);
    hash
}

fn hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(DIGITS[(b >> 4) as usize] as char);
        s.push(DIGITS[(b & 0xf) as usize] as char);
    }
    s
}

/// Compare two record streams in lockstep, reporting the first divergence.
///
/// Memory use is O(1) in the stream length: records are hashed and dropped
/// as they are consumed.
pub fn check_determinism<A, B>(first: A, second: B) -> DeterminismReport
where
    A: IntoIterator,
    A::Item: AsRef<[u8]>,
    B: IntoIterator,
    B::Item: AsRef<[u8]>,
{
    let mut a = first.into_iter();
    let mut b = second.into_iter();
    let mut hash = FNV_OFFSET;
    let mut index = 0u64;
    loop {
        match (a.next(), b.next()) {
            (None, None) => {
                return DeterminismReport {
                    records_checked: index,
                    stream_hash: hash,
                    divergence: None,
                }
            }
            (ra, rb) => {
                let da = ra.as_ref().map_or(&[][..], AsRef::as_ref);
                let db = rb.as_ref().map_or(&[][..], AsRef::as_ref);
                if da != db {
                    return DeterminismReport {
                        records_checked: index,
                        stream_hash: hash,
                        divergence: Some(Divergence {
                            index,
                            first: hex(da),
                            second: hex(db),
                        }),
                    };
                }
                fnv1a(&mut hash, da);
                index += 1;
            }
        }
    }
}

/// Append one raw trace's records — header, per-node block heads, events —
/// onto `records`.
fn push_trace_records(records: &mut Vec<Vec<u8>>, trace: &charisma_trace::Trace) {
    let mut buf = Vec::new();
    codec::encode_header(&trace.header, &mut buf);
    records.push(buf);

    for block in &trace.blocks {
        let mut head = Vec::with_capacity(18);
        head.extend_from_slice(&block.node.to_le_bytes());
        head.extend_from_slice(&block.send_local.as_micros().to_le_bytes());
        head.extend_from_slice(&block.recv_service.as_micros().to_le_bytes());
        records.push(head);
        for event in &block.events {
            let mut rec = Vec::with_capacity(codec::encoded_len(event));
            codec::encode_event(event, &mut rec);
            records.push(rec);
        }
    }
}

/// Encode one rectified, globally ordered event as a record.
fn ordered_record(ordered: &OrderedEvent) -> Vec<u8> {
    let mut rec = Vec::with_capacity(26);
    rec.extend_from_slice(&ordered.node.to_le_bytes());
    let event = charisma_trace::record::Event {
        local_time: ordered.time,
        body: ordered.body,
    };
    codec::encode_event(&event, &mut rec);
    rec
}

/// Every record the pipeline emits for `seed` at `scale`, encoded.
///
/// The stream interleaves four layers so a divergence pinpoints the stage
/// that broke: the trace header, each raw per-node record (with its block's
/// node and timestamps), each postprocessed ordered record, and finally the
/// rendered analysis report — so a nondeterministic *analysis* (e.g.
/// hash-ordered iteration inside a figure) is caught even when the event
/// streams agree.
pub fn pipeline_record_stream(seed: u64, scale: f64) -> Vec<Vec<u8>> {
    let workload = generate(GeneratorConfig {
        scale,
        seed,
        ..Default::default()
    });
    let trace = &workload.trace;

    let mut records = Vec::with_capacity(trace.event_count() * 2 + 2);
    push_trace_records(&mut records, trace);

    let events = postprocess(trace);
    for ordered in &events {
        records.push(ordered_record(ordered));
    }

    let report = Report::from_stream(events);
    records.push(report.render().into_bytes());

    records
}

/// Every record the *sharded* pipeline emits for `seed` at `scale` on
/// `workers` threads under `faults`, encoded.
///
/// Layers, in order: each shard's raw trace (header + blocks + events, in
/// shard order), then the deterministically merged ordered stream, then the
/// rendered analysis report. The workload is always partitioned into
/// [`charisma_workload::shard::LOGICAL_SHARDS`] logical shards regardless
/// of `workers`, and fault decisions are pure hashes of stable identities,
/// so this stream must be byte-identical for every worker count, even
/// while faults fire — [`stream_invariance`] is that claim as a check.
pub fn sharded_record_stream(
    seed: u64,
    scale: f64,
    workers: usize,
    faults: FaultPlan,
) -> Vec<Vec<u8>> {
    let sharded = generate_sharded(
        &GeneratorConfig {
            scale,
            seed,
            faults,
            ..Default::default()
        },
        workers,
    );

    let mut records = Vec::with_capacity(sharded.event_count() * 2 + 2);
    for shard in &sharded.shards {
        push_trace_records(&mut records, &shard.trace);
    }

    let report = Report::from_stream(
        sharded
            .merged_events()
            .inspect(|e| records.push(ordered_record(e))),
    );
    records.push(report.render().into_bytes());

    records
}

/// `None` for identical record streams, else the first divergent
/// record, hex-dumped from both.
pub fn diff_records(first: &[Vec<u8>], second: &[Vec<u8>]) -> Option<String> {
    let report = check_determinism(first, second);
    let d = report.divergence?;
    let shown = |hex: &str| -> String {
        if hex.is_empty() {
            "<stream ended>".to_owned()
        } else {
            hex.chars().take(128).collect()
        }
    };
    Some(format!(
        "record {} differs ({} records agreed before it)\n    run 1: {}\n    run 2: {}",
        d.index,
        report.records_checked,
        shown(&d.first),
        shown(&d.second),
    ))
}

/// The streaming FNV-1a hash [`check_determinism`] reports for a stream
/// that agrees with itself.
pub fn stream_hash(records: &[Vec<u8>]) -> u64 {
    let mut hash = FNV_OFFSET;
    for record in records {
        fnv1a(&mut hash, record);
    }
    hash
}

/// The determinism row: the record stream of the serial run, the
/// `shards`-worker run, and that run repeated, all byte-identical.
///
/// `shards == 0` means the unsharded generator
/// ([`pipeline_record_stream`], which draws no faults), run twice; any
/// other count runs [`sharded_record_stream`] under `faults`.
/// Worker count is an execution detail, not an input: any divergence
/// means the partition, the per-shard RNG derivation, or the merge
/// depends on scheduling.
pub fn stream_invariance(
    seed: u64,
    scale: f64,
    shards: usize,
    faults: &FaultPlan,
) -> Invariance<Vec<Vec<u8>>> {
    let cells = if shards == 0 {
        Vec::new()
    } else {
        vec![Cell::workers(shards)]
    };
    let Ok(checked) = check_invariance::<_, std::convert::Infallible>(
        "record stream",
        &cells,
        true,
        |cell| {
            Ok(if shards == 0 {
                pipeline_record_stream(seed, scale)
            } else {
                sharded_record_stream(seed, scale, cell.workers, faults.clone())
            })
        },
        |a, b| diff_records(a, b),
    );
    checked
}

/// The summary line for a [`stream_invariance`] at `shards` that found
/// no divergence.
pub fn stream_proof(label: &str, shards: usize, stream: &[Vec<u8>]) -> String {
    let runs = match shards {
        0 => "two unsharded runs".to_owned(),
        1 => "two serial runs".to_owned(),
        n => format!("serial, {n}-worker and repeated {n}-worker runs"),
    };
    format!(
        "{label} deterministic across {runs}: {} records, stream hash {:#018x}",
        stream.len(),
        stream_hash(stream)
    )
}

/// `charisma-verify determinism`: [`stream_invariance`] at `--shards`.
pub fn gate(args: &GateArgs) -> Result<GateReport, GateError> {
    let checked = stream_invariance(args.seed, args.scale, args.count, &FaultPlan::none());
    let mut report = GateReport::default();
    report.record(
        checked.complaints,
        stream_proof("stream", args.count, &checked.baseline),
    );
    Ok(report)
}
