//! The metrics-snapshot gate.
//!
//! The observability layer (`charisma-obs`) claims its counters, gauges,
//! and histograms are a **pure function of the configuration and seed** —
//! wall-clock artifacts are quarantined in the snapshot's nondeterministic
//! section and never reach [`MetricsSnapshot::to_core_json`]. This module
//! turns that claim into a CI gate with two checks:
//!
//! 1. **Snapshot diff** — run the pipeline, render the deterministic core
//!    as canonical JSON, and diff it line-by-line against the checked-in
//!    fixture (`crates/verify/fixtures/metrics_snapshot.json`) with the
//!    shared fixture check. Any new, removed, or changed metric fails the
//!    gate until the fixture is regenerated with `--write` — which forces
//!    metric changes to be visible in review.
//! 2. **Shard equivalence** — through the shared invariance check, the
//!    metrics of an `N`-worker run must merge to byte-identical core JSON
//!    as the serial run. This is the
//!    observability companion to `charisma-verify determinism`: worker
//!    count is an execution detail, and the merge algebra (saturating
//!    counter sums, gauge maxima, bucket-wise histogram sums) must keep it
//!    that way.
//!
//! [`MetricsSnapshot::to_core_json`]: charisma::obs::MetricsSnapshot::to_core_json

use charisma::obs::MetricsRegistry;
use charisma::serve::{ServeMetrics, Service, ServiceConfig};
use charisma::store::{Archive, Query, StoreMetrics};
use charisma::tier::{Tier, TierMetrics, TierPlan, TieredSet};
use charisma_ipsc::FaultPlan;

use crate::harness::{
    check_invariance, diff_text, gate_run, tenant_feeds, Cell, GateArgs, GateError, GateReport,
};
use crate::tier::{ledger_for, ScanWindow};

/// The skewed scan schedule whose `store.access.*` and `tier.*` counters
/// the fixture pins: the first tenth of the trace scanned four times by
/// every reader class, then the first half once by nodes {1, 2, 3}; the
/// tail never.
const METRICS_SCHEDULE: &[ScanWindow] = &[
    (0, 100_000, None),
    (0, 100_000, None),
    (0, 100_000, None),
    (0, 100_000, None),
    (0, 500_000, Some(&[1, 2, 3])),
];

/// Render the deterministic metrics core for one pipeline run.
///
/// `workers` is the thread count handed to [`Pipeline::shards`]; the
/// workload is always partitioned into the same logical shards, so the
/// core must not depend on it.
///
/// The run writes its archive to an in-memory sink so the `store.*`
/// counters (segments/rows/bytes written, plus the zero-valued scan-side
/// counters) are part of the pinned namespace — an encoding change that
/// moves `store.bytes_written` fails this gate, not just the archive one.
///
/// The sealed container is then tiered: `METRICS_SCHEDULE` is
/// replayed over it to build the access ledger, the default [`TierPlan`]
/// classifies and places its segments, and one cold segment's single
/// copy is lost, read back through parity, and healed. That pins the
/// `tier.*` counters and the scan-fed `store.access.*` ledger counters
/// alongside — a fixed schedule over fixed bytes, so its counts are as
/// much a pure function of `(seed, scale)` as the rest of the core.
///
/// The merged stream is then pushed through a small `charisma-serve`
/// exercise (two tenants, one federated scan) so the `serve.*` counters
/// are pinned too. Serve counters are per-tenant deterministic sums, so
/// the exercise — like everything else in the core — is a pure function
/// of `(seed, scale)` and independent of `workers`.
pub fn core_metrics_json(seed: u64, scale: f64, workers: usize) -> Result<String, charisma::Error> {
    let run = gate_run(seed, scale, workers, FaultPlan::none(), true)?;

    let registry = MetricsRegistry::new();
    let archive = Archive::from_bytes(run.archive)?;
    let ledger = ledger_for(
        &archive,
        METRICS_SCHEDULE,
        1,
        false,
        &StoreMetrics::register(&registry),
    )?;
    let mut tiered = TieredSet::build_with_metrics(
        archive.reader(),
        &ledger,
        &TierPlan::default(),
        TierMetrics::register(&registry),
    );
    if let Some(cold) = tiered.assignments().iter().position(|&t| t == Tier::Cold) {
        tiered.replica_set_mut().lose_replica(cold, 0);
    }
    tiered.degraded_reader()?;
    tiered.heal();

    let mut service = Service::new(ServiceConfig {
        seed,
        scale,
        tenants: 2,
        ..ServiceConfig::default()
    });
    service.attach_metrics(ServeMetrics::register(&registry));
    service.run_ingest(&tenant_feeds(&run.out.events, 2, 512), 2, 0)?;
    service.federated(Query::all()).workers(2).events()?;

    let mut metrics = run.out.metrics;
    metrics.merge(&registry.snapshot());
    Ok(metrics.to_core_json())
}

/// `charisma-verify metrics`: the serial core against the committed
/// fixture, and the `--shards`-worker core against the serial one.
pub fn gate(args: &GateArgs) -> Result<GateReport, GateError> {
    let checked = check_invariance(
        "metrics core",
        &[Cell::workers(args.count)],
        false,
        |cell| core_metrics_json(args.seed, args.scale, cell.workers),
        |a, b| diff_text(a, b),
    )?;
    let mut report = GateReport::default();
    args.check_fixture(&mut report, "metrics_snapshot.json", &checked.baseline)?;
    if args.count > 1 {
        let proved = format!(
            "metrics merge is worker-count invariant ({} workers)",
            args.count
        );
        report.record(checked.complaints, proved);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_json_is_stable_across_runs_and_workers() {
        let a = core_metrics_json(4994, 0.01, 1).expect("runs");
        let b = core_metrics_json(4994, 0.01, 1).expect("runs");
        assert_eq!(a, b, "same seed, same core");
        let c = core_metrics_json(4994, 0.01, 3).expect("runs");
        assert_eq!(diff_text(&a, &c), None);
    }
}
