//! The metrics-snapshot gate as a test: the checked-in fixture must match
//! what the current code produces, at the same seed and scale CI uses,
//! and a 4-worker run must merge to the serial core.
//!
//! If this fails after an intentional metrics change, regenerate with
//! `cargo run -p charisma-verify -- metrics --write` and commit the
//! fixture alongside the code — that is the review contract recorded in
//! ROADMAP.md.

use charisma_verify::{metrics, GateArgs};

#[test]
fn fixture_matches_and_sharded_metrics_merge_to_serial_values() {
    let report = metrics::gate(&GateArgs::new("metrics", 4)).expect("pipeline runs");
    assert!(
        report.complaints.is_empty(),
        "metrics gate violations: {:#?}",
        report.complaints
    );
}
