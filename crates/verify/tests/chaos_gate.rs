//! The chaos gate as a test: the checked-in fault-plan and chaos-metrics
//! fixtures must match what the current code produces, and an *empty*
//! plan must be provably free — byte-identical streams and metrics.
//!
//! If the chaos fixture drifts after an intentional change, regenerate
//! with `cargo run -p charisma-verify -- chaos --write` and commit it
//! alongside the code.

use charisma_ipsc::FaultPlan;
use charisma_verify::determinism::{check_determinism, sharded_record_stream};
use charisma_verify::{
    archive_fault_plan, chaos_metrics, check_archive_chaos, check_fault_activity, GateArgs,
    GateReport,
};

#[test]
fn fixtures_match_current_code() {
    let args = GateArgs::new("chaos", 1);
    let metrics = chaos_metrics(args.seed, args.scale, 1).expect("chaos pipeline runs");
    let mut report = GateReport::default();
    for (file, rendered) in [
        ("fault_plan_chaos.txt", FaultPlan::chaos_fixture().encode()),
        ("fault_plan_archive.txt", archive_fault_plan().encode()),
        ("metrics_snapshot_chaos.json", metrics.to_core_json()),
    ] {
        args.check_fixture(&mut report, file, &rendered)
            .expect("fixture readable");
    }
    report.complaints.extend(check_fault_activity(&metrics));
    assert!(
        report.complaints.is_empty(),
        "chaos fixtures out of date or fault counters idle: {:#?}",
        report.complaints
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
    let with_zeroed_plan = sharded_record_stream(4994, 0.01, 2, zeroed);
    let plain = sharded_record_stream(4994, 0.01, 2, FaultPlan::none());
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
