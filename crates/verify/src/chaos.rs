//! The chaos gate: determinism and observability under fault injection.
//!
//! The fault layer's central claim is that injecting faults does not cost
//! determinism: every fault decision is a pure hash of the plan seed and
//! stable event identities (never of evaluation order or thread timing),
//! so a chaos run must be exactly as repeatable and worker-count-invariant
//! as a clean one. `charisma-verify chaos` turns that into a gate:
//!
//! 1. **Plan fixture** — the canonical chaos plan
//!    ([`FaultPlan::chaos_fixture`]) is checked in as
//!    `crates/verify/fixtures/fault_plan_chaos.txt`. The gate parses the
//!    fixture and compares it field-for-field against the builtin, so any
//!    drift in either the plan or its text codec is visible in review.
//! 2. **Repeatability** — the sharded pipeline runs twice under the plan
//!    on `N` workers; the record streams must be byte-identical.
//! 3. **Worker-count invariance** — the `N`-worker chaos stream must be
//!    byte-identical to the serial one.
//! 4. **Fault-metrics snapshot** — the chaos run's deterministic metrics
//!    core (which now includes the `faults.*` counters) is diffed against
//!    `crates/verify/fixtures/metrics_snapshot_chaos.json`, pinning the
//!    exact number of injected faults, retries, timeouts, and degraded
//!    serves at the gate's seed and scale.
//! 5. **Archive-fault drill** — [`check_archive_chaos`] runs the pipeline
//!    under [`archive_fault_plan`] (the chaos plan plus replica corruption
//!    and loss, pinned as `fault_plan_archive.txt`), checks the archive
//!    stays repeatable and worker-count invariant, then places the sealed
//!    container on a replica set, injects the plan's damage, and proves
//!    failover, byte-identical scrub repair, torn-tail recovery of the
//!    sealed prefix, and degraded-tenant federation equal to the healthy
//!    one. The pipeline itself never draws the archive rates.
//!
//! Run the binary with `--features invariants` (CI does) and every
//! `invariant!` assertion in the simulation crates is live while the
//! faults fire.

use charisma::obs::MetricsRegistry;
use charisma::serve::{Service, ServiceConfig, Snapshot, TenantFeed};
use charisma::store::{Archive, Query, ReplicaConfig, ReplicaSet, StoreError, StoreMetrics};
use charisma::{ArchiveSink, Pipeline};
use charisma_ipsc::{FaultMetrics, FaultPlan};

use crate::determinism::{check_determinism, sharded_record_stream_with_faults, DeterminismReport};

/// The canonical chaos plan the gate runs under — a moderately hostile
/// environment: disk transients, one I/O node lost an hour in, service
/// stalls, message delay/drop/duplication, and clock jumps.
pub fn chaos_plan() -> FaultPlan {
    FaultPlan::chaos_fixture()
}

/// Run the sharded pipeline twice under the chaos plan on `workers`
/// threads and diff the record streams.
pub fn check_chaos_determinism(seed: u64, scale: f64, workers: usize) -> DeterminismReport {
    check_determinism(
        sharded_record_stream_with_faults(seed, scale, workers, chaos_plan()),
        sharded_record_stream_with_faults(seed, scale, workers, chaos_plan()),
    )
}

/// Diff the serial chaos run against a `workers`-thread chaos run: fault
/// injection must not make worker count observable.
pub fn check_chaos_shard_equivalence(seed: u64, scale: f64, workers: usize) -> DeterminismReport {
    check_determinism(
        sharded_record_stream_with_faults(seed, scale, 1, chaos_plan()),
        sharded_record_stream_with_faults(seed, scale, workers, chaos_plan()),
    )
}

/// Render the deterministic metrics core of a chaos-plan pipeline run.
pub fn chaos_metrics_json(
    seed: u64,
    scale: f64,
    workers: usize,
) -> Result<String, charisma::Error> {
    let out = Pipeline::new()
        .seed(seed)
        .scale(scale)
        .shards(workers)
        .faults(chaos_plan())
        .run()?;
    Ok(out.metrics.to_core_json())
}

/// Sanity-check a chaos run's metrics core: problems with the fault
/// counters that no fixture diff would name clearly.
///
/// Returns human-readable complaints; empty means the chaos layer was
/// demonstrably active and the recovery machinery demonstrably engaged.
pub fn check_fault_activity(core_json: &str) -> Vec<String> {
    let mut complaints = Vec::new();
    let mut require = |key: &str| {
        let value = counter_value(core_json, key);
        match value {
            None => complaints.push(format!("`{key}` missing from the chaos metrics core")),
            Some(0) => complaints.push(format!(
                "`{key}` is zero: the chaos fixture must exercise it"
            )),
            Some(_) => {}
        }
    };
    require("faults.injected");
    require("faults.disk_transient");
    require("faults.retried");
    require("faults.degraded");
    require("faults.msg_delayed");
    require("faults.clock_jumps");
    complaints
}

/// Extract a `"key": value` counter from the canonical core JSON.
fn counter_value(core_json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\": ");
    let at = core_json.find(&needle)?;
    let rest = &core_json[at + needle.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
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

/// Compare a parsed archive-fault plan fixture against the builtin.
pub fn diff_archive_plan(fixture: &FaultPlan) -> Option<String> {
    let builtin = archive_fault_plan();
    if *fixture == builtin {
        return None;
    }
    Some(format!(
        "fixture plan != builtin archive-fault plan\n  fixture: {fixture:?}\n  builtin: {builtin:?}"
    ))
}

/// The archive-fault gate: run the pipeline under [`archive_fault_plan`],
/// then drill a replica set over the run's archive at the plan's rates
/// and hold the self-healing layer to its contracts:
///
/// 1. **Repeatability** — two faulted runs publish identical archive
///    bytes and identical deterministic metric cores.
/// 2. **Worker-count invariance** — the `shards`-worker faulted run
///    equals the serial one, bytes and core.
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
pub fn check_archive_chaos(
    seed: u64,
    scale: f64,
    shards: usize,
) -> Result<Vec<String>, charisma::Error> {
    let mut complaints = Vec::new();
    let plan = archive_fault_plan();
    let run = |workers: usize| {
        Pipeline::new()
            .seed(seed)
            .scale(scale)
            .shards(workers)
            .faults(archive_fault_plan())
            .sink(ArchiveSink::Memory)
            .collect_events()
            .run()
    };

    let out = run(shards)?;
    let bytes = out.archive.clone().unwrap_or_default();
    let core = out.metrics.to_core_json();
    if bytes.is_empty() {
        complaints.push("faulted pipeline produced no archive bytes".to_owned());
        return Ok(complaints);
    }

    // 1. Repeatability.
    let again = run(shards)?;
    if again.archive.as_deref() != Some(bytes.as_slice()) {
        complaints.push("two identical faulted runs published different archive bytes".to_owned());
    }
    if again.metrics.to_core_json() != core {
        complaints.push("two identical faulted runs produced different metric cores".to_owned());
    }

    // 2. Worker-count invariance.
    if shards > 1 {
        let serial = run(1)?;
        if serial.archive.as_deref() != Some(bytes.as_slice()) {
            complaints.push(format!(
                "serial archive bytes differ from the {shards}-worker run"
            ));
        }
        if serial.metrics.to_core_json() != core {
            complaints.push(format!(
                "serial metric core differs from the {shards}-worker run"
            ));
        }
    }

    // 3–4. Replica drill: place, damage at the plan's rates, fail over,
    // scrub, and read back clean, counting into a registry of its own.
    let archive = Archive::from_bytes(bytes.clone())?;
    let registry = MetricsRegistry::new();
    let mut set = ReplicaSet::place(archive.reader(), ReplicaConfig::default(), plan.seed);
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
    let half = out.events.len() / 2;
    let feeds: Vec<TenantFeed> = [&out.events[..half], &out.events[half..]]
        .iter()
        .enumerate()
        .map(|(tenant, events)| TenantFeed {
            tenant,
            batches: events.chunks(1024).map(<[_]>::to_vec).collect(),
        })
        .collect();
    service.run_ingest(&feeds, 2, 1)?;
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

/// Compare a parsed plan fixture against the builtin chaos plan.
///
/// Returns `None` on match, or a description of the first field-level
/// divergence (via the plans' `Debug` forms, which name every field).
pub fn diff_plan(fixture: &FaultPlan) -> Option<String> {
    let builtin = chaos_plan();
    if *fixture == builtin {
        return None;
    }
    Some(format!(
        "fixture plan != builtin chaos plan\n  fixture: {fixture:?}\n  builtin: {builtin:?}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_round_trips_through_the_text_codec() {
        let encoded = chaos_plan().encode();
        let parsed = FaultPlan::parse(&encoded).expect("canonical plan parses");
        assert_eq!(diff_plan(&parsed), None);
    }

    #[test]
    fn archive_plan_round_trips_and_differs_only_in_archive_rates() {
        let encoded = archive_fault_plan().encode();
        let parsed = FaultPlan::parse(&encoded).expect("archive plan parses");
        assert_eq!(diff_archive_plan(&parsed), None);
        // It is the chaos plan plus the archive rates — nothing else.
        let mut base = chaos_plan();
        base.archive_corrupt_ppm = parsed.archive_corrupt_ppm;
        base.replica_loss_ppm = parsed.replica_loss_ppm;
        assert_eq!(base, parsed);
        assert!(parsed.archive_corrupt_ppm > 0 && parsed.replica_loss_ppm > 0);
        // And the chaos fixture itself keeps them off.
        let complaint = diff_archive_plan(&chaos_plan()).expect("plans differ");
        assert!(complaint.contains("archive"), "{complaint}");
    }

    #[test]
    fn diff_plan_names_a_divergence() {
        let mut tweaked = chaos_plan();
        tweaked.disk_transient_ppm += 1;
        let complaint = diff_plan(&tweaked).expect("divergence detected");
        assert!(complaint.contains("disk_transient_ppm"), "{complaint}");
    }

    #[test]
    fn counter_extraction_reads_canonical_json() {
        let json = "{\n  \"counters\": {\n    \"faults.injected\": 42,\n    \"x\": 0\n  }\n}";
        assert_eq!(counter_value(json, "faults.injected"), Some(42));
        assert_eq!(counter_value(json, "x"), Some(0));
        assert_eq!(counter_value(json, "missing"), None);
        let complaints = check_fault_activity(json);
        assert!(
            complaints.iter().any(|c| c.contains("faults.retried")),
            "missing counters are named: {complaints:?}"
        );
    }
}
