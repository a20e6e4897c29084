//! The segment-tiering gate as a test, at the seed/scale CI uses: tier
//! assignments and replica placements must be identical under 1/2/4 scan
//! workers and under the reversed scan schedule, every single
//! cold-segment loss must rebuild byte-exactly from XOR parity and heal
//! scrub-clean, and a federated query over the tiered, damaged tenant
//! must equal the healthy baseline.

use charisma_verify::{tier, GateArgs};

#[test]
fn gate_holds_at_ci_scale() {
    let report = tier::gate(&GateArgs::new("tier", 0)).expect("pipeline runs");
    assert!(
        report.complaints.is_empty(),
        "tier gate violations: {:#?}",
        report.complaints
    );
    // The pinned skewed schedule splits the catalog three ways.
    assert!(
        report.summary[0].contains("95 segments (1 hot / 20 warm / 74 cold"),
        "{report:?}"
    );
}
