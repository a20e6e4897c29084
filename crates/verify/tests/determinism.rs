//! The determinism harness must pass on the real pipeline and fail loudly
//! on injected nondeterminism.

use charisma_ipsc::FaultPlan;
use charisma_verify::determinism::{
    check_determinism, diff_records, pipeline_record_stream, sharded_record_stream, stream_hash,
};
use charisma_verify::{check_invariance, stream_invariance, Cell};

#[test]
fn seed_pipeline_is_deterministic() {
    let checked = stream_invariance(4994, 0.02, 0, &FaultPlan::none());
    assert!(checked.complaints.is_empty(), "{:?}", checked.complaints);
    assert!(checked.baseline.len() > 1000, "suspiciously small trace");
}

#[test]
fn different_seeds_produce_different_streams() {
    let report = check_determinism(
        pipeline_record_stream(1, 0.02),
        pipeline_record_stream(2, 0.02),
    );
    assert!(
        !report.is_deterministic(),
        "seeds 1 and 2 produced identical traces"
    );
}

/// A record stream corrupted by ambient state — the failure mode CH004 and
/// this harness exist to catch. The counter survives across calls, so the
/// second "run" sees a different value than the first, exactly like an
/// unseeded RNG or leaked wall-clock timestamp would inject.
fn nondeterministic_stream() -> Vec<Vec<u8>> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static AMBIENT: AtomicU64 = AtomicU64::new(0);
    let run = AMBIENT.fetch_add(1, Ordering::Relaxed);
    let mut records = vec![vec![1, 2, 3], vec![4, 5, 6]];
    records.push(run.to_le_bytes().to_vec());
    records.push(vec![7, 8, 9]);
    records
}

#[test]
fn injected_nondeterminism_is_caught_and_localized() {
    let report = check_determinism(nondeterministic_stream(), nondeterministic_stream());
    let d = report.divergence.expect("divergence must be detected");
    assert_eq!(d.index, 2, "first two records agree");
    assert_eq!(report.records_checked, 2);
    assert_ne!(d.first, d.second);
}

#[test]
fn stream_length_mismatch_is_a_divergence() {
    let report = check_determinism(vec![vec![1u8], vec![2]], vec![vec![1u8], vec![2], vec![3]]);
    let d = report
        .divergence
        .expect("extra record must be a divergence");
    assert_eq!(d.index, 2);
    assert_eq!(d.first, "", "first stream ended");
    assert_eq!(d.second, "03");
}

#[test]
fn stream_hash_is_stable_across_runs() {
    let a = pipeline_record_stream(77, 0.02);
    let b = pipeline_record_stream(77, 0.02);
    assert_eq!(stream_hash(&a), stream_hash(&b));
    assert_eq!(stream_hash(&a), check_determinism(&a, &b).stream_hash);
}

/// The sharded pipeline's core guarantee: worker count is invisible in the
/// output. Every layer of the record stream — per-shard raw traces, the
/// merged ordered stream, and the rendered analysis report — must be
/// byte-identical whether the shards run serially or on N threads.
#[test]
fn worker_count_does_not_change_any_layer() {
    let Ok(checked) = check_invariance::<_, std::convert::Infallible>(
        "sharded stream",
        &[Cell::workers(2), Cell::workers(8)],
        false,
        |cell| {
            Ok(sharded_record_stream(
                4994,
                0.02,
                cell.workers,
                FaultPlan::none(),
            ))
        },
        |a, b| diff_records(a, b),
    );
    assert!(checked.complaints.is_empty(), "{:?}", checked.complaints);
    assert!(checked.baseline.len() > 1000, "suspiciously small trace");
}

/// The analysis report is part of the hashed stream, so nondeterministic
/// *analysis* (not just generation) would be caught. Different seeds must
/// still diverge — including in that final report record.
#[test]
fn sharded_streams_differ_across_seeds() {
    let report = check_determinism(
        sharded_record_stream(1, 0.02, 2, FaultPlan::none()),
        sharded_record_stream(2, 0.02, 2, FaultPlan::none()),
    );
    assert!(!report.is_deterministic());
}
