//! The chaos gate: determinism and observability under fault injection.
//!
//! The fault layer's central claim is that injecting faults does not cost
//! determinism: every fault decision is a pure hash of the plan seed and
//! stable event identities (never of evaluation order or thread timing),
//! so a chaos run must be exactly as repeatable and worker-count-invariant
//! as a clean one. `charisma-verify chaos` turns that into a gate:
//!
//! 1. **Plan fixtures** — the canonical chaos plan
//!    ([`FaultPlan::chaos_fixture`]) is checked in as
//!    `crates/verify/fixtures/fault_plan_chaos.txt`, and the archive-fault
//!    plan as `fault_plan_archive.txt`. The gate renders each builtin with
//!    the plan text codec and compares the text, so any drift in either
//!    the plan or its codec is visible in review.
//! 2. **Repeatability and worker-count invariance** — the sharded
//!    pipeline runs under the plan serially, on `N` workers, and on `N`
//!    workers again; the record streams must be byte-identical.
//! 3. **Fault-metrics snapshot** — the chaos run's deterministic metrics
//!    core (which now includes the `faults.*` counters) is diffed against
//!    `crates/verify/fixtures/metrics_snapshot_chaos.json`, pinning the
//!    exact number of injected faults, retries, timeouts, and degraded
//!    serves at the gate's seed and scale.
//! 4. **Archive-fault drill** — [`check_archive_chaos`] runs the pipeline
//!    under [`archive_fault_plan`] (the chaos plan plus replica corruption
//!    and loss, pinned as `fault_plan_archive.txt`), checks the archive
//!    stays repeatable and worker-count invariant, then places the sealed
//!    container on a replica set, proves a scrub of the fresh placement
//!    repairs nothing, injects the plan's damage, and proves failover,
//!    byte-identical scrub repair, torn-tail recovery of the
//!    sealed prefix, and degraded-tenant federation equal to the healthy
//!    one. The pipeline itself never draws the archive rates.
//!
//! Run the binary with `--features invariants` (CI does) and every
//! `invariant!` assertion in the simulation crates is live while the
//! faults fire.

use charisma::obs::{MetricsRegistry, MetricsSnapshot};
use charisma::serve::{Service, ServiceConfig, Snapshot};
use charisma::store::{Archive, Query, ReplicaConfig, ReplicaSet, StoreError, StoreMetrics};
use charisma::Pipeline;
use charisma_ipsc::{FaultMetrics, FaultPlan};

use crate::determinism::{stream_invariance, stream_proof};
use crate::harness::{
    check_invariance, diff_bytes, diff_text, gate_run, tenant_feeds, Cell, GateArgs, GateError,
    GateReport, GateRun,
};

/// The metrics of a chaos-plan pipeline run on `workers` shard threads.
///
/// The run has no archive sink: `metrics_snapshot_chaos.json` pins a core
/// without `store.*` counters.
pub fn chaos_metrics(
    seed: u64,
    scale: f64,
    workers: usize,
) -> Result<MetricsSnapshot, charisma::Error> {
    let out = Pipeline::new()
        .seed(seed)
        .scale(scale)
        .shards(workers)
        .faults(FaultPlan::chaos_fixture())
        .run()?;
    Ok(out.metrics)
}

/// Sanity-check a chaos run's metrics: problems with the fault counters
/// that no fixture diff would name clearly.
///
/// Returns human-readable complaints; empty means the chaos layer was
/// demonstrably active and the recovery machinery demonstrably engaged.
pub fn check_fault_activity(metrics: &MetricsSnapshot) -> Vec<String> {
    [
        "faults.injected",
        "faults.disk_transient",
        "faults.retried",
        "faults.degraded",
        "faults.msg_delayed",
        "faults.clock_jumps",
    ]
    .into_iter()
    .filter_map(|key| match metrics.counters.get(key) {
        None => Some(format!("`{key}` missing from the chaos metrics core")),
        Some(0) => Some(format!(
            "`{key}` is zero: the chaos fixture must exercise it"
        )),
        Some(_) => None,
    })
    .collect()
}

/// The archive-fault plan: the canonical chaos environment with the
/// self-healing archive layer's faults switched on — replica byte
/// corruption and whole-replica loss at rates hostile enough to damage
/// many copies at the gate's seed and scale while (deterministically)
/// leaving at least one live replica of every segment, so the drill
/// exercises failover and scrub rather than declared data loss.
/// Checked in as `crates/verify/fixtures/fault_plan_archive.txt`.
pub fn archive_fault_plan() -> FaultPlan {
    let mut plan = FaultPlan::chaos_fixture();
    plan.archive_corrupt_ppm = 25_000;
    plan.replica_loss_ppm = 20_000;
    plan
}

/// How two faulted runs differ: archive bytes and deterministic metric
/// cores.
fn diff_faulted(a: &GateRun, b: &GateRun) -> Option<String> {
    let diffs: Vec<String> = [
        diff_bytes(&a.archive, &b.archive).map(|d| format!("archive bytes differ ({d})")),
        diff_text(&a.out.metrics.to_core_json(), &b.out.metrics.to_core_json())
            .map(|d| format!("metric cores differ: {d}")),
    ]
    .into_iter()
    .flatten()
    .collect();
    (!diffs.is_empty()).then(|| diffs.join("; "))
}

/// The archive-fault gate: run the pipeline under [`archive_fault_plan`],
/// then drill a replica set over the run's archive at the plan's rates
/// and hold the self-healing layer to its contracts:
///
/// 1. **Repeatability and worker-count invariance** — the serial run, the
///    `shards`-worker run and its repeat publish identical archive bytes
///    and identical deterministic metric cores.
/// 2. **A fresh placement is clean** — scrubbing the set before any
///    damage is injected repairs nothing and loses nothing.
/// 3. **Fault activity** — the drill's `faults.archive.*` and
///    `store.scrub.*` counters are live: damage was injected and every
///    damaged copy repaired, not skipped.
/// 4. **Failover and scrub restore canonical bytes** — degraded reads
///    already serve the canonical container, and after scrub the set
///    reads clean with no failovers.
/// 5. **Torn-tail recovery** — truncating the archive mid-final-segment
///    is classified `TornTail`, and recovery yields exactly the sealed
///    prefix of the merged stream.
/// 6. **Degraded federation** — a federated query in which one tenant's
///    snapshot is rebuilt through replica failover answers exactly like
///    the healthy federation.
///
/// Returns human-readable complaints; empty means the gate passed.
pub fn check_archive_chaos(seed: u64, scale: f64, shards: usize) -> Result<Vec<String>, GateError> {
    let plan = archive_fault_plan();
    // 1. Repeatability and worker-count invariance; the serial baseline
    // keeps the merged stream for the drill.
    let checked = check_invariance(
        "archive-fault run",
        &[Cell::workers(shards)],
        true,
        |cell| {
            gate_run(
                seed,
                scale,
                cell.workers,
                plan.clone(),
                cell == Cell::SERIAL,
            )
        },
        diff_faulted,
    )?;
    let mut complaints = checked.complaints;
    let GateRun {
        archive: bytes,
        out,
    } = checked.baseline;

    // 2. Placement alone must not damage anything.
    let archive = Archive::from_bytes(bytes.clone())?;
    let mut set = ReplicaSet::place(archive.reader(), ReplicaConfig::default(), plan.seed);
    let fresh = set.scrub();
    if fresh.repaired != 0 || !fresh.healthy() {
        complaints.push(format!(
            "scrub of a freshly placed replica set repaired {} copies and declared \
             segment(s) {:?} unrecoverable before any fault was injected",
            fresh.repaired, fresh.unrecoverable
        ));
    }

    // 3–4. Replica drill: damage at the plan's rates, fail over, scrub,
    // and read back clean, counting into a registry of its own.
    let registry = MetricsRegistry::new();
    set.attach_metrics(StoreMetrics::register(&registry));
    let injected = set.inject_faults(plan.archive_corrupt_ppm, plan.replica_loss_ppm);
    let fm = FaultMetrics::register(&registry);
    fm.archive_corrupt.add(injected.corrupted);
    fm.replica_lost.add(injected.lost);
    match set.failover_reader() {
        Ok((degraded, _)) if degraded.to_bytes() == bytes => {}
        Ok(_) => complaints.push("degraded replica read diverged from the canonical bytes".into()),
        Err(e) => complaints.push(format!("damaged replica set failed to fail over: {e}")),
    }
    let report = set.scrub();
    if !report.healthy() {
        complaints.push(format!(
            "scrub declared segment(s) {:?} unrecoverable at the plan's rates",
            report.unrecoverable
        ));
    } else {
        match set.failover_reader() {
            Ok((healed, 0)) if healed.to_bytes() == bytes => {}
            Ok((_, failovers)) => complaints.push(format!(
                "healed replica set still diverges ({failovers} failovers)"
            )),
            Err(e) => complaints.push(format!("healed replica set failed to read: {e}")),
        }
    }
    let drill = registry.snapshot();
    let counter = |key: &str| drill.counters.get(key).copied().unwrap_or(0);
    for key in [
        "faults.archive.corrupt",
        "faults.archive.replica_lost",
        "store.scrub.segments_checked",
        "store.scrub.repaired",
    ] {
        if counter(key) == 0 {
            complaints.push(format!(
                "`{key}` is zero: the archive-fault plan must exercise it"
            ));
        }
    }
    let damaged = counter("faults.archive.corrupt") + counter("faults.archive.replica_lost");
    let repaired = counter("store.scrub.repaired");
    if repaired != damaged {
        complaints.push(format!(
            "scrub repaired {repaired} copies but {damaged} were damaged"
        ));
    }

    // 5. Torn-tail recovery: cut mid-final-segment, recover the prefix.
    let whole_segments = archive.segments() as u64;
    let last_len = archive
        .reader()
        .segments()
        .last()
        .map_or(0, charisma::store::SealedSegment::size_bytes);
    let cut = bytes.len() - last_len / 2;
    let truncated = bytes[..cut].to_vec();
    match Archive::from_bytes(truncated.clone()) {
        Err(StoreError::TornTail { recovered_segments })
            if recovered_segments == whole_segments - 1 => {}
        Err(e) => complaints.push(format!(
            "mid-segment truncation misclassified: expected TornTail with {} segments, got {e}",
            whole_segments - 1
        )),
        Ok(_) => complaints.push("a torn archive parsed strictly".to_owned()),
    }
    let rec = Archive::recover_from_bytes(truncated)?;
    let rows = usize::try_from(rec.archive.rows()).unwrap_or(usize::MAX);
    if !rec.was_torn
        || rec.recovered_segments != whole_segments - 1
        || rows >= out.events.len()
        || rec.archive.events()? != out.events[..rows]
    {
        complaints.push(format!(
            "torn-tail recovery did not restore the sealed prefix \
             ({} of {} segments, {} rows)",
            rec.recovered_segments,
            whole_segments,
            rec.archive.rows()
        ));
    }

    // 6. Degraded federation ≡ healthy federation.
    let service = Service::new(ServiceConfig {
        seed,
        scale,
        tenants: 2,
        ..ServiceConfig::default()
    });
    service.run_ingest(&tenant_feeds(&out.events, 2, 1024), 2, 1)?;
    let query = Query::all();
    let want = service.federated(query.clone()).workers(2).events()?;
    let mut snapshots = service.snapshot_all();
    let mut degraded =
        ReplicaSet::place(snapshots[1].reader(), ReplicaConfig::default(), plan.seed);
    degraded.inject_faults(plan.archive_corrupt_ppm, plan.replica_loss_ppm);
    match degraded.failover_reader() {
        Ok((reader, _)) => {
            snapshots[1] = Snapshot::from_reader(1, reader);
            let got = service.federated_over(&snapshots, &query, 2)?;
            if got != want {
                complaints.push(format!(
                    "degraded federation diverged from the healthy one \
                     ({} vs {} rows)",
                    got.len(),
                    want.len()
                ));
            }
        }
        Err(e) => complaints.push(format!("degraded tenant failed to fail over: {e}")),
    }

    Ok(complaints)
}

/// `charisma-verify chaos`: the plan fixtures, the faulted stream's
/// invariance, fault activity, the chaos metrics fixture, and the
/// archive-fault drill.
pub fn gate(args: &GateArgs) -> Result<GateReport, GateError> {
    let (seed, scale, shards) = (args.seed, args.scale, args.count.max(1));
    let mut report = GateReport::default();
    args.check_fixture(
        &mut report,
        "fault_plan_chaos.txt",
        &FaultPlan::chaos_fixture().encode(),
    )?;
    args.check_fixture(
        &mut report,
        "fault_plan_archive.txt",
        &archive_fault_plan().encode(),
    )?;

    {
        // Scoped so the record streams are freed before the drill runs.
        let streams = stream_invariance(seed, scale, shards, &FaultPlan::chaos_fixture());
        report.record(
            streams.complaints,
            stream_proof("chaos stream", shards, &streams.baseline),
        );
    }

    let metrics = chaos_metrics(seed, scale, shards)?;
    report.record(
        check_fault_activity(&metrics),
        "fault counters show the chaos machinery engaged".to_owned(),
    );
    args.check_fixture(
        &mut report,
        "metrics_snapshot_chaos.json",
        &metrics.to_core_json(),
    )?;

    report.record(
        check_archive_chaos(seed, scale, shards)?,
        "archive faults heal: clean placement, failover, scrub repair, torn-tail \
         recovery, and degraded federation all byte-exact"
            .to_owned(),
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_round_trip_through_the_text_codec() {
        for plan in [FaultPlan::chaos_fixture(), archive_fault_plan()] {
            let parsed = FaultPlan::parse(&plan.encode()).expect("canonical plan parses");
            assert_eq!(parsed, plan);
        }
    }

    #[test]
    fn archive_plan_differs_only_in_archive_rates() {
        let archive = archive_fault_plan();
        let mut base = FaultPlan::chaos_fixture();
        assert_eq!(base.archive_corrupt_ppm + base.replica_loss_ppm, 0);
        base.archive_corrupt_ppm = archive.archive_corrupt_ppm;
        base.replica_loss_ppm = archive.replica_loss_ppm;
        assert_eq!(base, archive);
        assert!(archive.archive_corrupt_ppm > 0 && archive.replica_loss_ppm > 0);
    }

    #[test]
    fn fault_activity_names_missing_and_idle_counters() {
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("faults.injected".to_owned(), 42);
        metrics.counters.insert("faults.retried".to_owned(), 0);
        let complaints = check_fault_activity(&metrics);
        assert_eq!(complaints.len(), 5, "{complaints:?}");
        assert!(complaints
            .iter()
            .any(|c| c.contains("`faults.retried` is zero")));
        assert!(complaints
            .iter()
            .any(|c| c.contains("`faults.clock_jumps` missing")));
    }
}
