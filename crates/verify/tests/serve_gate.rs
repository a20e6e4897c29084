//! The archive-service gate as a test, at the seed/scale/tenant-count CI
//! uses: catalogs must be byte-identical under every (ingest workers ×
//! interleave seed) schedule, mid-ingest snapshots must replay exactly
//! their pinned prefix, federated scans must match the
//! concat-and-stable-sort oracle, and the pipeline's serve sink must
//! publish the same bytes as its memory sink.

use charisma_verify::{serve, GateArgs};

#[test]
fn gate_holds_at_ci_scale() {
    let report = serve::gate(&GateArgs::new("serve", 4)).expect("pipeline runs");
    assert!(
        report.complaints.is_empty(),
        "serve gate violations: {:#?}",
        report.complaints
    );
    assert!(
        report.summary[0].contains("388331 rows across 4 tenants"),
        "{report:?}"
    );
}
