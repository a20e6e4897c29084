//! The chaos gate as a test: the checked-in fault-plan and chaos-metrics
//! fixtures must match what the current code produces, and an *empty*
//! plan must be provably free — byte-identical streams and metrics.
//!
//! If the chaos fixture drifts after an intentional change, regenerate
//! with `cargo run -p charisma-verify -- chaos --write` and commit it
//! alongside the code.

use charisma_ipsc::FaultPlan;
use charisma_verify::determinism::{check_determinism, sharded_record_stream_with_faults};
use charisma_verify::{
    chaos_metrics_json, check_archive_chaos, check_fault_activity, diff_json, diff_plan,
};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/fixtures/metrics_snapshot_chaos.json"
);
const PLAN_FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/fault_plan_chaos.txt");

#[test]
fn plan_fixture_matches_builtin() {
    let text = std::fs::read_to_string(PLAN_FIXTURE).expect("plan fixture readable");
    let parsed = FaultPlan::parse(&text).expect("plan fixture parses");
    assert_eq!(diff_plan(&parsed), None, "plan fixture drifted");
}

#[test]
fn chaos_fixture_matches_current_code() {
    let expected = std::fs::read_to_string(FIXTURE).expect("fixture readable");
    let actual = chaos_metrics_json(4994, 0.05, 1).expect("chaos pipeline runs");
    let diffs = diff_json(&expected, &actual);
    assert!(
        diffs.is_empty(),
        "chaos metrics fixture out of date: {} line(s) differ (first: {})\n\
         regenerate with: cargo run -p charisma-verify -- chaos --write",
        diffs.len(),
        diffs[0]
    );
    assert!(
        check_fault_activity(&actual).is_empty(),
        "fault counters must show the chaos machinery engaged"
    );
}

#[test]
fn empty_plan_is_byte_identical_to_no_plan() {
    // The acceptance criterion for the whole fault layer: an all-zero
    // plan — even one with a nonzero seed and retry policy — attaches no
    // fault state and changes nothing: not one record, not one metric
    // key.
    let mut zeroed = FaultPlan::none();
    zeroed.seed = 0xDEAD_BEEF;
    zeroed.retry.max_retries = 9;
    assert!(zeroed.is_empty(), "rates are what make a plan non-empty");
    let with_zeroed_plan = sharded_record_stream_with_faults(4994, 0.01, 2, zeroed);
    let plain = charisma_verify::determinism::sharded_record_stream(4994, 0.01, 2);
    let report = check_determinism(with_zeroed_plan, plain);
    assert!(
        report.is_deterministic(),
        "empty plan changed the stream at record {:?}",
        report.divergence.map(|d| d.index)
    );
}

#[test]
fn archive_faults_heal_in_the_replica_drill() {
    // Injection, failover, scrub repair (every damaged copy, counted from
    // the drill's own registry), torn-tail recovery and degraded
    // federation, at a scale small enough for the default suite.
    let complaints = check_archive_chaos(4994, 0.02, 2).expect("pipeline runs");
    assert!(complaints.is_empty(), "archive drill: {complaints:?}");
}
