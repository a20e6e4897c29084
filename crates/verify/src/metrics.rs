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
//!    fixture (`crates/verify/fixtures/metrics_snapshot.json`). Any new,
//!    removed, or changed metric fails the gate until the fixture is
//!    regenerated with `--write` — which forces metric changes to be
//!    visible in review.
//! 2. **Shard equivalence** — the metrics of an `N`-worker run must merge
//!    to byte-identical core JSON as the serial run. This is the
//!    observability companion to `charisma-verify determinism`: worker
//!    count is an execution detail, and the merge algebra (saturating
//!    counter sums, gauge maxima, bucket-wise histogram sums) must keep it
//!    that way.
//!
//! [`MetricsSnapshot::to_core_json`]: charisma::obs::MetricsSnapshot::to_core_json

use charisma::obs::MetricsRegistry;
use charisma::serve::{ServeMetrics, Service, ServiceConfig, TenantFeed};
use charisma::store::{Archive, Query, StoreMetrics};
use charisma::tier::{Tier, TierMetrics, TierPlan, TieredSet};
use charisma::Pipeline;

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

/// One line-level disagreement between fixture and observed core JSON.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonDiff {
    /// 1-based line number in the fixture (or past-the-end for additions).
    pub line: usize,
    /// The fixture's line, if any.
    pub expected: Option<String>,
    /// The observed line, if any.
    pub actual: Option<String>,
}

impl std::fmt::Display for JsonDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (&self.expected, &self.actual) {
            (Some(e), Some(a)) => {
                write!(f, "line {}: fixture `{}` vs observed `{}`", self.line, e, a)
            }
            (Some(e), None) => write!(f, "line {}: fixture `{}` missing from run", self.line, e),
            (None, Some(a)) => write!(f, "line {}: run added `{}`", self.line, a),
            (None, None) => write!(f, "line {}: <no difference>", self.line),
        }
    }
}

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
    let out = Pipeline::new()
        .seed(seed)
        .scale(scale)
        .shards(workers)
        .sink(charisma::ArchiveSink::Memory)
        .collect_events()
        .run()?;

    let registry = MetricsRegistry::new();
    let archive = Archive::from_bytes(out.archive.clone().unwrap_or_default())?;
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
    let mut streams = vec![Vec::new(); 2];
    for (i, e) in out.events.iter().enumerate() {
        streams[i % 2].push(*e);
    }
    let feeds: Vec<TenantFeed> = streams
        .into_iter()
        .enumerate()
        .map(|(tenant, events)| TenantFeed {
            tenant,
            batches: events.chunks(512).map(<[_]>::to_vec).collect(),
        })
        .collect();
    service.run_ingest(&feeds, 2, 0)?;
    service.federated(Query::all()).workers(2).events()?;

    let mut metrics = out.metrics;
    metrics.merge(&registry.snapshot());
    Ok(metrics.to_core_json())
}

/// Line-by-line diff of two JSON documents, fixture first.
///
/// Canonical JSON (BTreeMap key order, fixed indentation) makes a plain
/// line diff exact: every metric lives on its own line, so each [`JsonDiff`]
/// names the metric that changed.
pub fn diff_json(expected: &str, actual: &str) -> Vec<JsonDiff> {
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let mut diffs = Vec::new();
    for i in 0..exp.len().max(act.len()) {
        let e = exp.get(i).copied();
        let a = act.get(i).copied();
        if e != a {
            diffs.push(JsonDiff {
                line: i + 1,
                expected: e.map(str::to_owned),
                actual: a.map(str::to_owned),
            });
        }
    }
    diffs
}

/// Check that an `N`-worker run's merged metrics equal the serial run's.
///
/// Returns the line diffs between the serial core JSON and the `workers`-
/// thread core JSON — empty means the merge algebra held.
pub fn check_metrics_shard_equivalence(
    seed: u64,
    scale: f64,
    workers: usize,
) -> Result<Vec<JsonDiff>, charisma::Error> {
    let serial = core_metrics_json(seed, scale, 1)?;
    let sharded = core_metrics_json(seed, scale, workers)?;
    Ok(diff_json(&serial, &sharded))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_documents_have_no_diff() {
        assert!(diff_json("{\n  \"a\": 1\n}\n", "{\n  \"a\": 1\n}\n").is_empty());
    }

    #[test]
    fn changed_added_and_removed_lines_are_localized() {
        let diffs = diff_json("a\nb\nc\n", "a\nB\nc\nd\n");
        assert_eq!(diffs.len(), 2);
        assert_eq!(diffs[0].line, 2);
        assert_eq!(diffs[0].expected.as_deref(), Some("b"));
        assert_eq!(diffs[0].actual.as_deref(), Some("B"));
        assert_eq!(diffs[1].line, 4);
        assert_eq!(diffs[1].expected, None);
        assert_eq!(diffs[1].actual.as_deref(), Some("d"));
        assert!(diffs[1].to_string().contains("run added"));
    }

    #[test]
    fn core_json_is_stable_across_runs_and_workers() {
        let a = core_metrics_json(4994, 0.01, 1).expect("runs");
        let b = core_metrics_json(4994, 0.01, 1).expect("runs");
        assert_eq!(a, b, "same seed, same core");
        let diffs = check_metrics_shard_equivalence(4994, 0.01, 3).expect("runs");
        assert!(diffs.is_empty(), "first diff: {}", diffs[0]);
    }
}
