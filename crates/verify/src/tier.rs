//! The segment-tiering gate: proof that `charisma-tier` turns access
//! history into storage layout without ever touching the data.
//!
//! The tier layer claims its policy is **deterministic in the access
//! history and lossless under its own demotions**. This gate turns that
//! claim into four checks over one pinned workload and one pinned skewed
//! scan schedule:
//!
//! 1. **Worker invariance** — the schedule replayed with 1, 2, and 4
//!    scan workers must produce identical ledgers, hence identical tier
//!    assignments, replica placements, and parity layouts.
//! 2. **Scan-order invariance** — the schedule replayed in reverse must
//!    build the same ledger and classify identically: every ledger merge
//!    is commutative, so the order scans commit in is an execution detail.
//! 3. **Parity exactness** — for *every* cold segment, dropping its
//!    single live copy must read back byte-identically through XOR
//!    parity, and the healed set must scrub clean.
//! 4. **Degraded federation** — a federated query over a tiered,
//!    damaged tenant catalog (one hot replica down, one cold copy gone)
//!    must return exactly the healthy baseline's rows, and the degraded
//!    reader's bytes must still equal the tenant's canonical catalog.

use std::collections::BTreeMap;

use charisma::ipsc::SimTime;
use charisma::serve::{Service, ServiceConfig, Snapshot, TenantFeed};
use charisma::store::{Archive, Query, SegmentAccess, StoreMetrics};
use charisma::tier::{Tier, TierPlan, TieredSet};
use charisma::trace::OrderedEvent;
use charisma::{ArchiveSink, Pipeline};

use crate::determinism::fnv1a_hash;

/// Scan worker counts the invariance matrix covers.
const GATE_WORKERS: &[usize] = &[1, 2, 4];

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

/// What one tier-gate run observed.
#[derive(Clone, Debug)]
pub struct TierGateReport {
    /// Human-readable violations; empty means the gate passed.
    pub complaints: Vec<String>,
    /// Segments the baseline policy classified.
    pub segments: u64,
    /// Baseline hot / warm / cold census.
    pub hot: u64,
    /// Warm count.
    pub warm: u64,
    /// Cold count.
    pub cold: u64,
    /// Parity groups protecting the cold population.
    pub parity_groups: u64,
    /// Cold segments whose single-copy loss was rebuilt byte-exactly.
    pub cold_losses_rebuilt: u64,
    /// FNV-1a hash of the baseline `TierReport` encoding, for the log
    /// line.
    pub report_hash: u64,
}

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

/// [`ledger_for`] over [`GATE_SCHEDULE`], on a fresh ledger.
fn gate_ledger(
    archive: &Archive,
    workers: usize,
    reversed: bool,
) -> Result<BTreeMap<u64, SegmentAccess>, charisma::Error> {
    ledger_for(
        archive,
        GATE_SCHEDULE,
        workers,
        reversed,
        &StoreMetrics::default(),
    )
}

/// Per-segment replica placements — the layout fingerprint the
/// invariance check compares.
fn placements(tiered: &TieredSet) -> Vec<Vec<u32>> {
    let set = tiered.replica_set();
    (0..set.segment_count())
        .map(|s| set.replica_nodes(s).to_vec())
        .collect()
}

/// Round-robin partition of the merged stream into `tenants` feeds.
fn partition(events: &[OrderedEvent], tenants: usize) -> Vec<Vec<OrderedEvent>> {
    let mut streams = vec![Vec::new(); tenants.max(1)];
    for (i, e) in events.iter().enumerate() {
        streams[i % tenants.max(1)].push(*e);
    }
    streams
}

/// Run the full tier gate at `seed`/`scale`.
pub fn check_tier_gate(seed: u64, scale: f64) -> Result<TierGateReport, charisma::Error> {
    let mut complaints = Vec::new();
    let plan = TierPlan::default();

    // One pipeline run supplies the pinned container.
    let out = Pipeline::new()
        .seed(seed)
        .scale(scale)
        .sink(ArchiveSink::Memory)
        .collect_events()
        .run()?;
    let bytes = out.archive.clone().unwrap_or_default();
    let archive = Archive::from_bytes(bytes.clone())?;

    // 1. Worker invariance: same schedule, 1/2/4 scan workers — same
    // ledger, same assignments, same placements, same parity layout.
    let baseline_ledger = gate_ledger(&archive, 1, false)?;
    let baseline = TieredSet::build(archive.reader(), &baseline_ledger, &plan);
    let base_encoding = baseline.report().encode();
    let base_placements = placements(&baseline);
    for &workers in &GATE_WORKERS[1..] {
        let ledger = gate_ledger(&archive, workers, false)?;
        if ledger != baseline_ledger {
            complaints.push(format!(
                "access ledger under {workers} scan workers differs from the serial ledger"
            ));
        }
        let tiered = TieredSet::build(archive.reader(), &ledger, &plan);
        if tiered.report().encode() != base_encoding {
            complaints.push(format!(
                "tier report under {workers} scan workers differs from the serial report"
            ));
        }
        if placements(&tiered) != base_placements {
            complaints.push(format!(
                "replica placements under {workers} scan workers differ from the serial layout"
            ));
        }
    }

    // 2. Scan-order invariance: the reversed schedule must build the same
    // ledger, hence classify and place identically.
    let reversed_ledger = gate_ledger(&archive, 2, true)?;
    if reversed_ledger != baseline_ledger {
        complaints.push(
            "access ledger from the reversed scan schedule differs from the forward one".into(),
        );
    }
    let reversed = TieredSet::build(archive.reader(), &reversed_ledger, &plan);
    if reversed.report().encode() != base_encoding {
        complaints.push(
            "tier report from the reversed scan schedule differs from the forward one".into(),
        );
    }
    if placements(&reversed) != base_placements {
        complaints.push(
            "replica placements from the reversed scan schedule differ from the forward ones"
                .into(),
        );
    }

    // 3. Parity exactness: every single cold-segment loss must read back
    // byte-identically and heal scrub-clean.
    let cold_segments: Vec<usize> = baseline
        .assignments()
        .iter()
        .enumerate()
        .filter(|&(_, &t)| t == Tier::Cold)
        .map(|(s, _)| s)
        .collect();
    let mut cold_losses_rebuilt = 0u64;
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
        } else {
            cold_losses_rebuilt += 1;
        }
        let heal = damaged.heal();
        if !heal.healthy() {
            complaints.push(format!(
                "healing after the loss of cold segment {s} left unrecoverable segments"
            ));
        }
    }

    // 4. Degraded federation: a tiered, damaged tenant must federate
    // identically to the healthy baseline.
    let tenants = 2usize;
    let streams = partition(&out.events, tenants);
    let feeds: Vec<TenantFeed> = streams
        .iter()
        .enumerate()
        .map(|(tenant, events)| TenantFeed {
            tenant,
            batches: events.chunks(700).map(<[_]>::to_vec).collect(),
        })
        .collect();
    let service = Service::new(ServiceConfig {
        seed,
        scale,
        tenants,
        ..ServiceConfig::default()
    });
    service.run_ingest(&feeds, 2, 0)?;

    let probe_tenant = tenants - 1;
    let tenant_bytes = service.snapshot(probe_tenant)?.to_bytes();
    let tenant_archive = Archive::from_bytes(tenant_bytes.clone())?;
    let tenant_ledger = gate_ledger(&tenant_archive, 2, false)?;
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

    let report = baseline.report();
    Ok(TierGateReport {
        complaints,
        segments: report.segments,
        hot: report.hot,
        warm: report.warm,
        cold: report.cold,
        parity_groups: report.parity_groups,
        cold_losses_rebuilt,
        report_hash: fnv1a_hash(base_encoding.as_bytes()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_gate_passes_at_small_scale() {
        let report = check_tier_gate(4994, 0.01).expect("gate runs");
        assert!(
            report.complaints.is_empty(),
            "first complaint: {}",
            report.complaints[0]
        );
        assert!(report.segments > 0);
        assert_eq!(report.hot + report.warm + report.cold, report.segments);
        assert!(report.hot > 0, "the pinned schedule promotes the head");
        assert!(report.cold > 0, "the pinned schedule leaves a cold tail");
        assert!(report.parity_groups > 0);
        assert_eq!(report.cold_losses_rebuilt, report.cold);
    }
}
