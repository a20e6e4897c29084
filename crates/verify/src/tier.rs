//! The segment-tiering gate: proof that `charisma-tier` turns access
//! history into storage layout without ever touching the data.
//!
//! The tier layer claims its policy is **deterministic in the access
//! history and lossless under its own demotions**. This gate turns that
//! claim into four checks over one pinned workload and one pinned skewed
//! scan schedule:
//!
//! 1. **Worker and scan-order invariance** — through the shared
//!    invariance check, the schedule replayed with 1, 2, and 4 scan
//!    workers, and in reverse on 2, must produce identical ledgers, hence
//!    identical tier assignments, replica placements, and parity layouts:
//!    every ledger merge is commutative, so the order scans commit in is
//!    an execution detail.
//! 2. **Parity exactness** — for *every* cold segment, dropping its
//!    single live copy must read back byte-identically through XOR
//!    parity, and the healed set must scrub clean.
//! 3. **Degraded federation** — a federated query over a tiered,
//!    damaged tenant catalog (one hot replica down, one cold copy gone)
//!    must return exactly the healthy baseline's rows, and the degraded
//!    reader's bytes must still equal the tenant's canonical catalog.

use std::collections::BTreeMap;

use charisma::ipsc::SimTime;
use charisma::serve::{Service, ServiceConfig, Snapshot};
use charisma::store::{Archive, Query, SegmentAccess, StoreMetrics};
use charisma::tier::{Tier, TierPlan, TieredSet};
use charisma_ipsc::FaultPlan;

use crate::determinism::fnv1a_hash;
use crate::harness::{
    check_invariance, gate_run, tenant_feeds, Cell, GateArgs, GateError, GateReport, GateRun,
};

/// The invariance matrix: 2 and 4 scan workers, and the schedule
/// replayed in reverse ([`REVERSED`]) on 2, against the serial forward
/// replay.
const GATE_CELLS: &[Cell] = &[
    Cell::workers(2),
    Cell::workers(4),
    Cell {
        workers: 2,
        schedule: REVERSED,
    },
];

/// The schedule value of a cell that replays the scans in reverse.
const REVERSED: u64 = 1;

/// One scheduled scan: a `(from_ppm, to_ppm, nodes)` window over the
/// archive's own time span, optionally restricted to a node set.
pub(crate) type ScanWindow = (u64, u64, Option<&'static [u16]>);

/// The pinned skewed scan schedule: the head of the trace is scanned
/// repeatedly by every reader class, the first half by narrow node sets,
/// the tail never — the paper's access skew, replayed as queries.
const GATE_SCHEDULE: &[ScanWindow] = &[
    (0, 120_000, None),
    (0, 120_000, None),
    (0, 120_000, None),
    (0, 120_000, Some(&[0, 1])),
    (0, 500_000, Some(&[1, 2, 3])),
    (200_000, 450_000, Some(&[2])),
];

/// Replay `schedule` against `archive` with `workers` scan threads
/// (optionally in reverse order), feeding `metrics`, and return the
/// ledger snapshot. Pass a fresh `metrics` per replay: clones share one
/// ledger.
pub(crate) fn ledger_for(
    archive: &Archive,
    schedule: &[ScanWindow],
    workers: usize,
    reversed: bool,
    metrics: &StoreMetrics,
) -> Result<BTreeMap<u64, SegmentAccess>, charisma::Error> {
    let Some((start, end)) = archive.time_span() else {
        return Ok(BTreeMap::new());
    };
    let span = end.as_micros().saturating_sub(start.as_micros()).max(1);
    let at = |ppm: u64| SimTime::from_micros(start.as_micros() + span * ppm / 1_000_000);
    let mut order: Vec<&ScanWindow> = schedule.iter().collect();
    if reversed {
        order.reverse();
    }
    for &(from, to, nodes) in order {
        let mut query = Query::all().time_window(at(from), at(to));
        if let Some(nodes) = nodes {
            query = query.nodes(nodes);
        }
        archive
            .query(query)
            .attach_metrics(metrics.clone())
            .workers(workers)
            .events()?;
    }
    Ok(metrics.access.snapshot())
}

/// Per-segment replica placements — the layout fingerprint the
/// invariance check compares.
fn placements(tiered: &TieredSet) -> Vec<Vec<u32>> {
    let set = tiered.replica_set();
    (0..set.segment_count())
        .map(|s| set.replica_nodes(s).to_vec())
        .collect()
}

/// What one replay of the gate schedule tiered: its ledger and the set
/// the default plan built from it.
struct Layout {
    ledger: BTreeMap<u64, SegmentAccess>,
    tiered: TieredSet,
}

/// Which parts of two layouts differ, if any.
fn diff_layouts(a: &Layout, b: &Layout) -> Option<String> {
    let mut differs = Vec::new();
    if a.ledger != b.ledger {
        differs.push("access ledger");
    }
    if a.tiered.report().encode() != b.tiered.report().encode() {
        differs.push("tier report");
    }
    if placements(&a.tiered) != placements(&b.tiered) {
        differs.push("replica placements");
    }
    (!differs.is_empty()).then(|| format!("{} differ", differs.join(", ")))
}

/// `charisma-verify tier`: the full tier gate at `--seed`/`--scale`.
pub fn gate(args: &GateArgs) -> Result<GateReport, GateError> {
    let (seed, scale) = (args.seed, args.scale);
    let plan = TierPlan::default();

    // One pipeline run supplies the pinned container.
    let GateRun {
        archive: bytes,
        out,
    } = gate_run(seed, scale, 1, FaultPlan::none(), true)?;
    let archive = Archive::from_bytes(bytes.clone())?;

    // 1. Worker and scan-order invariance: same schedule, any worker
    // count, either order — same ledger, same assignments, same
    // placements, same parity layout.
    let checked = check_invariance(
        "tier layout",
        GATE_CELLS,
        false,
        |cell| {
            let ledger = ledger_for(
                &archive,
                GATE_SCHEDULE,
                cell.workers,
                cell.schedule == REVERSED,
                &StoreMetrics::default(),
            )?;
            let tiered = TieredSet::build(archive.reader(), &ledger, &plan);
            Ok::<_, charisma::Error>(Layout { ledger, tiered })
        },
        diff_layouts,
    )?;
    let mut complaints = checked.complaints;
    let baseline = checked.baseline.tiered;
    let census = baseline.report();
    if census.hot == 0 || census.cold == 0 {
        complaints.push(format!(
            "the pinned scan schedule must leave hot and cold segments for the drills \
             below ({} hot / {} cold)",
            census.hot, census.cold
        ));
    }

    // 2. Parity exactness: every single cold-segment loss must read back
    // byte-identically and heal scrub-clean.
    let cold_segments: Vec<usize> = baseline
        .assignments()
        .iter()
        .enumerate()
        .filter(|&(_, &t)| t == Tier::Cold)
        .map(|(s, _)| s)
        .collect();
    for &s in &cold_segments {
        let mut damaged = baseline.clone();
        damaged.replica_set_mut().lose_replica(s, 0);
        let (degraded, report) = damaged.degraded_reader()?;
        if report.reconstructed == 0 {
            complaints.push(format!(
                "losing cold segment {s}'s single copy triggered no parity reconstruction"
            ));
        } else if degraded.to_bytes() != bytes {
            complaints.push(format!(
                "parity reconstruction of cold segment {s} diverged from the canonical bytes"
            ));
        }
        let heal = damaged.heal();
        if !heal.healthy() {
            complaints.push(format!(
                "healing after the loss of cold segment {s} left unrecoverable segments"
            ));
        }
    }

    // 3. Degraded federation: a tiered, damaged tenant must federate
    // identically to the healthy baseline.
    let tenants = 2usize;
    let service = Service::new(ServiceConfig {
        seed,
        scale,
        tenants,
        ..ServiceConfig::default()
    });
    service.run_ingest(&tenant_feeds(&out.events, tenants, 700), 2, 0)?;

    let probe_tenant = tenants - 1;
    let tenant_bytes = service.snapshot(probe_tenant)?.to_bytes();
    let tenant_archive = Archive::from_bytes(tenant_bytes.clone())?;
    let tenant_ledger = ledger_for(
        &tenant_archive,
        GATE_SCHEDULE,
        2,
        false,
        &StoreMetrics::default(),
    )?;
    let mut tiered = TieredSet::build(tenant_archive.reader(), &tenant_ledger, &plan);
    let assignments = tiered.assignments().to_vec();
    if let Some(hot) = assignments.iter().position(|&t| t == Tier::Hot) {
        tiered.replica_set_mut().lose_replica(hot, 0);
    }
    if let Some(cold) = assignments.iter().position(|&t| t == Tier::Cold) {
        tiered.replica_set_mut().lose_replica(cold, 0);
    }
    let (degraded, _) = tiered.degraded_reader()?;
    if degraded.to_bytes() != tenant_bytes {
        complaints.push("degraded tiered tenant catalog diverged from its canonical bytes".into());
    }
    let queries = [Query::all(), Query::all().nodes(&[0, 1, 2, 3, 4, 5, 6, 7])];
    for query in queries {
        let healthy = service.federated(query.clone()).workers(2).events()?;
        let mut snapshots = service.snapshot_all();
        let (patched, _) = tiered.degraded_reader()?;
        snapshots[probe_tenant] = Snapshot::from_reader(probe_tenant, patched);
        let got = service.federated_over(&snapshots, &query, 2)?;
        if got != healthy {
            complaints.push(format!(
                "federated scan over the tiered degraded tenant (query={query:?}) returned \
                 {} rows where the healthy baseline has {}",
                got.len(),
                healthy.len()
            ));
        }
    }

    let mut report = GateReport::default();
    report.record(
        complaints,
        format!(
            "tier gate passed: {} segments ({} hot / {} warm / {} cold, {} parity \
             group(s)), assignments worker- and order-invariant, {} cold loss(es) \
             rebuilt byte-exactly, degraded federation ≡ healthy\n  \
             tier report fnv1a: {:#018x}",
            census.segments,
            census.hot,
            census.warm,
            census.cold,
            census.parity_groups,
            cold_segments.len(),
            fnv1a_hash(census.encode().as_bytes())
        ),
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_gate_passes_at_small_scale() {
        let args = GateArgs {
            scale: 0.01,
            ..GateArgs::new("tier", 0)
        };
        let report = gate(&args).expect("gate runs");
        assert!(report.complaints.is_empty(), "{:#?}", report.complaints);
    }
}
