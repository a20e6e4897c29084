//! The trace-archive gate as a test, at the seed and scale CI uses: the
//! checked-in archive hash must match what the current code produces,
//! and the canonical-bytes, round-trip and pruning checks must hold.
//!
//! If this fails after an intentional format or encoding change,
//! regenerate with `cargo run -p charisma-verify -- archive --write` and
//! commit the fixture alongside the code — same review contract as the
//! metrics snapshot.

use charisma_verify::{archive, GateArgs};

#[test]
fn gate_holds_at_ci_scale() {
    let report = archive::gate(&GateArgs::new("archive", 4)).expect("pipeline runs");
    assert!(
        report.complaints.is_empty(),
        "archive gate violations: {:#?}",
        report.complaints
    );
}
