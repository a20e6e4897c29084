//! The trace-archive gate.
//!
//! `charisma-store` makes three promises the rest of the workspace builds
//! on, and this module turns each into a CI check:
//!
//! 1. **Canonical bytes** — the archive a pipeline run writes is a pure
//!    function of seed and scale: byte-identical across worker counts,
//!    and pinned by a checked-in FNV-1a hash fixture
//!    (`crates/verify/fixtures/archive_hash.txt`) so any format or
//!    encoding change is visible in review.
//! 2. **Exact round trip** — reopening the archive and scanning it with
//!    the match-everything query reproduces the pipeline's merged event
//!    stream record-for-record, and the report computed *from the
//!    archive* renders identically to the report the pipeline computed
//!    in memory.
//! 3. **Pruning is pure optimization** — a time-window query, alone and
//!    narrowed to request records, must prune at least one segment
//!    (`store.segments_pruned > 0` at gate scale) while returning exactly
//!    the records a plain filter of the full stream returns, with serial
//!    and multi-worker scans agreeing; the request query must decode
//!    fewer than all ten columns per scanned row (predicate-first decode
//!    with late materialization).

use charisma::prelude::*;
use charisma::store::{OpSet, StoreMetrics};
use charisma_ipsc::FaultPlan;

use crate::determinism::fnv1a_hash;
use crate::harness::{
    check_invariance, diff_bytes, gate_run, middle_third, Cell, GateArgs, GateError, GateReport,
    GateRun,
};

/// Columns in the archive schema: what a full-decode scan reads per row.
const SCHEMA_COLUMNS: u64 = 10;

/// Run the full archive gate at `--seed`/`--scale`, scanning with
/// `--workers` threads where the scan is parallel.
pub fn gate(args: &GateArgs) -> Result<GateReport, GateError> {
    let (seed, scale, workers) = (args.seed, args.scale, args.count);

    // 1. Canonical bytes: worker count must not leak into the format. The
    // serial baseline also supplies the reference stream and report.
    let checked = check_invariance(
        "archive bytes",
        &[Cell::workers(2), Cell::workers(workers.max(1))],
        false,
        |cell| {
            gate_run(
                seed,
                scale,
                cell.workers,
                FaultPlan::none(),
                cell == Cell::SERIAL,
            )
        },
        |a, b| diff_bytes(&a.archive, &b.archive),
    )?;
    let mut complaints = checked.complaints;
    let GateRun {
        archive: bytes,
        out,
    } = checked.baseline;
    // The fixture line, fully self-describing:
    // `seed=… scale=… fnv1a=0x… bytes=… rows=… segments=…`.
    let (hash, size) = (fnv1a_hash(&bytes), bytes.len());
    let archive = Archive::from_bytes(bytes)?;
    let line = format!(
        "seed={seed} scale={scale} fnv1a={hash:#018x} bytes={size} rows={} segments={}\n",
        archive.rows(),
        archive.segments()
    );

    // 2a. Round trip: the all-pass scan reproduces the merged stream.
    let reread = archive.query(Query::all()).workers(workers).events()?;
    if reread != out.events {
        let first_diff = reread
            .iter()
            .zip(&out.events)
            .position(|(a, b)| a != b)
            .unwrap_or(reread.len().min(out.events.len()));
        complaints.push(format!(
            "archive round trip diverges from the in-memory stream at record \
             {first_diff} ({} archived vs {} generated)",
            reread.len(),
            out.events.len(),
        ));
    }

    // 2b. The report computed from the archive renders identically to the
    // report the pipeline computed in the same pass that fed the writer.
    let archived_report = archive.query(Query::all()).workers(workers).report()?;
    if archived_report.render() != out.report.render() {
        complaints.push(
            "report from the all-pass archive query renders differently from \
             the pipeline's in-memory report"
                .to_owned(),
        );
    }

    // 3. Predicate pushdown: the middle-third window, alone and over
    // request records only, must prune segments yet agree exactly with a
    // plain filter of the full stream.
    if out.events.is_empty() {
        complaints.push("archive is empty at gate scale — nothing to prune".to_owned());
    }
    let window = middle_third(&out.events);
    let requests = window.clone().ops(OpSet::requests());
    for query in [window, requests.clone()] {
        let registry = MetricsRegistry::new();
        let metrics = StoreMetrics::register(&registry);
        let pruned = archive
            .query(query.clone())
            .workers(workers)
            .attach_metrics(metrics)
            .events()?;
        let want: Vec<OrderedEvent> = out
            .events
            .iter()
            .filter(|e| query.matches(e))
            .copied()
            .collect();
        if pruned != want {
            complaints.push(format!(
                "query {query:?} returned {} records; a plain filter of the \
                 stream returns {}",
                pruned.len(),
                want.len(),
            ));
        }
        let counters = registry.snapshot().counters;
        let counter = |key: &str| counters.get(key).copied().unwrap_or(0);
        if counter("store.segments_pruned") == 0 {
            complaints.push(format!(
                "query {query:?} pruned no segments (archive has {}) — \
                 zone-map pushdown is not engaging",
                archive.segments(),
            ));
        }
        let (cols, rows) = (counter("store.cols_decoded"), counter("store.rows_scanned"));
        if query == requests && cols >= SCHEMA_COLUMNS * rows {
            complaints.push(format!(
                "request query decoded {cols} columns over {rows} scanned rows — \
                 predicate-first decode is not skipping late columns",
            ));
        }
        // Serial scan of the same query must agree with the parallel one.
        let serial = archive.query(query.clone()).events()?;
        if serial != pruned {
            complaints.push(format!(
                "serial scan and {workers}-worker scan of query {query:?} \
                 disagree ({} vs {} records)",
                serial.len(),
                pruned.len(),
            ));
        }
    }

    let mut report = GateReport::default();
    report.record(
        complaints,
        "archive bytes canonical, round trip exact, pruning conservative".to_owned(),
    );
    args.check_fixture(&mut report, "archive_hash.txt", &line)?;
    report.summary.push(format!("  {}", line.trim_end()));
    Ok(report)
}
