//! The archive-service gate: proof that `charisma-serve` keeps the
//! store's canonical-bytes promise in a live multi-tenant setting.
//!
//! The serve layer claims each tenant's published catalog is a **pure
//! function of its admitted batch sequence** — ingest worker counts,
//! claim interleavings, and queue-pressure timing are execution details.
//! This gate turns the claim into four checks over one pinned workload
//! (the pipeline's merged stream, round-robin partitioned into tenant
//! feeds):
//!
//! 1. **Schedule invariance** — through the shared invariance check,
//!    every `(workers, interleave seed)` cell of the matrix must publish
//!    byte-identical catalogs for all tenants.
//! 2. **Snapshot isolation** — a snapshot taken after every submitted
//!    batch must equal a serial replay of exactly the prefix it pinned,
//!    and the post-flush snapshot must equal the tenant's full stream.
//! 3. **Federated oracle** — a federated scan must equal the tenant-order
//!    concatenation of serial per-tenant scans, stable-sorted by the
//!    canonical `(time, node)` key, for all-pass and pruned queries
//!    alike, at every fan-out width; the all-pass scan returns every row
//!    the pipeline produced.
//! 4. **Sink parity** — a pipeline run delivered through
//!    `ArchiveSink::Serve` must publish the same bytes as the same run's
//!    `ArchiveSink::Memory` container (the build/serve split cannot leak
//!    into the format).

use std::sync::Arc;

use charisma::serve::{Service, ServiceConfig, Snapshot};
use charisma::store::Query;
use charisma::{ArchiveSink, Pipeline, ServeSink};
use charisma_ipsc::FaultPlan;

use crate::determinism::fnv1a_hash;
use crate::harness::{
    check_invariance, diff_bytes, gate_run, middle_third, tenant_feeds, Cell, GateArgs, GateError,
    GateReport,
};

/// Rows per submitted batch in the gate's feeds: deliberately off the
/// segment size so sealing happens mid-batch.
const GATE_BATCH_ROWS: usize = 700;

/// Ingest worker counts the schedule-invariance matrix and the federated
/// fan-out cover.
const GATE_WORKERS: &[usize] = &[1, 2, 4];

/// Interleave seeds the schedule-invariance matrix covers (on top of the
/// seed-0 baseline).
const GATE_INTERLEAVES: &[u64] = &[1, 2];

/// `charisma-verify serve`: the full serve gate at `--seed`/`--scale`
/// with `--tenants` tenants.
pub fn gate(args: &GateArgs) -> Result<GateReport, GateError> {
    let (seed, scale, tenants) = (args.seed, args.scale, args.count.max(1));

    // One pipeline run supplies the pinned workload and the memory-sink
    // container the sink-parity check compares against.
    let run = gate_run(seed, scale, 1, FaultPlan::none(), true)?;
    let events = &run.out.events;
    let feeds = tenant_feeds(events, tenants, GATE_BATCH_ROWS);
    let config = ServiceConfig {
        seed,
        scale,
        tenants,
        ..ServiceConfig::default()
    };

    // 1. Schedule invariance: the (workers × interleave) matrix must agree
    // with the serial seed-0 baseline, byte for byte, per tenant.
    let cells: Vec<Cell> = GATE_WORKERS
        .iter()
        .flat_map(|&workers| {
            GATE_INTERLEAVES
                .iter()
                .map(move |&schedule| Cell { workers, schedule })
        })
        .collect();
    let checked = check_invariance(
        "tenant catalogs",
        &cells,
        false,
        |cell| -> Result<Vec<Vec<u8>>, charisma::Error> {
            let service = Service::new(config);
            service.run_ingest(&feeds, cell.workers, cell.schedule)?;
            Ok(service
                .snapshot_all()
                .iter()
                .map(Snapshot::to_bytes)
                .collect())
        },
        |a, b| {
            let diffs: Vec<String> = a
                .iter()
                .zip(b)
                .enumerate()
                .filter_map(|(tenant, (a, b))| {
                    diff_bytes(a, b).map(|d| format!("tenant {tenant} ({d})"))
                })
                .collect();
            (!diffs.is_empty()).then(|| diffs.join("; "))
        },
    )?;
    let mut complaints = checked.complaints;

    // 2. Snapshot isolation: after every submitted batch, the snapshot
    // must be a serial replay of exactly the prefix it pinned.
    let service = Service::new(config);
    let probe_tenant = tenants - 1;
    let stream = feeds[probe_tenant].batches.concat();
    for (batch_no, batch) in feeds[probe_tenant].batches.iter().enumerate() {
        service.submit(probe_tenant, batch)?;
        let snap = service.snapshot(probe_tenant)?;
        let rows = usize::try_from(snap.rows()).unwrap_or(usize::MAX);
        if rows > stream.len() {
            complaints.push(format!(
                "mid-ingest snapshot after batch {batch_no} claims {rows} rows, \
                 more than the {} submitted so far",
                stream.len()
            ));
            break;
        }
        let replay = snap.events()?;
        if replay != stream[..rows] {
            complaints.push(format!(
                "mid-ingest snapshot after batch {batch_no} ({rows} rows) is not \
                 a serial replay of the pinned prefix"
            ));
            break;
        }
    }
    service.flush(probe_tenant)?;
    let final_snap = service.snapshot(probe_tenant)?;
    if final_snap.events()? != stream {
        complaints.push(format!(
            "post-flush snapshot ({} rows) does not equal the tenant's full \
             {}-row stream",
            final_snap.rows(),
            stream.len()
        ));
    }

    // 3. Federated oracle: all-pass and pruned queries, every fan-out.
    let service = Service::new(config);
    service.run_ingest(&feeds, 2, 0)?;
    let queries = [Query::all(), middle_third(events)];
    for query in queries {
        let mut want = Vec::new();
        for tenant in 0..tenants {
            let snap = service.snapshot(tenant)?;
            want.extend(snap.query(query.clone()).events()?);
        }
        want.sort_by_key(|e| (e.time, e.node)); // stable: ties keep tenant order
        if query == Query::all() && want.len() != events.len() {
            complaints.push(format!(
                "the tenants' all-pass scans hold {} rows; the pipeline produced {}",
                want.len(),
                events.len()
            ));
        }
        for &workers in GATE_WORKERS {
            let got = service.federated(query.clone()).workers(workers).events()?;
            if got != want {
                complaints.push(format!(
                    "federated scan (workers={workers}, query={query:?}) returned \
                     {} rows where the concat-and-stable-sort oracle has {}",
                    got.len(),
                    want.len()
                ));
            }
        }
    }

    // 4. Sink parity: a serve-sink pipeline run publishes the same bytes
    // as the memory-sink container.
    let sink_service = Arc::new(Service::new(ServiceConfig {
        seed,
        scale,
        tenants: 1,
        ..ServiceConfig::default()
    }));
    let served = Pipeline::new()
        .seed(seed)
        .scale(scale)
        .shards(2)
        .sink(ArchiveSink::Serve(ServeSink::new(
            Arc::clone(&sink_service),
            0,
        )))
        .run()?;
    if served.archive.as_deref() != Some(run.archive.as_slice()) {
        complaints.push(format!(
            "serve-sink pipeline bytes ({:?}) differ from the memory-sink \
             container ({} bytes)",
            served.archive.as_ref().map(Vec::len),
            run.archive.len(),
        ));
    }

    let hashes: Vec<String> = checked
        .baseline
        .iter()
        .map(|b| format!("{:#018x}", fnv1a_hash(b)))
        .collect();
    let mut report = GateReport::default();
    report.record(
        complaints,
        format!(
            "serve gate passed: {} rows across {tenants} tenants, catalogs schedule-\
             invariant, snapshots prefix-exact, federation matches the oracle\n  \
             catalog fnv1a: {}",
            events.len(),
            hashes.join(" ")
        ),
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_gate_passes_at_small_scale() {
        let args = GateArgs {
            scale: 0.01,
            ..GateArgs::new("serve", 3)
        };
        let report = gate(&args).expect("gate runs");
        assert!(report.complaints.is_empty(), "{:#?}", report.complaints);
        assert!(report.summary[0].contains("across 3 tenants"), "{report:?}");
    }
}
