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
//! 3. **Pruning is pure optimization** — a time-window query must prune
//!    at least one segment (`store.segments_pruned > 0` at gate scale)
//!    while returning exactly the records a plain filter of the full
//!    stream returns, with serial and multi-worker scans agreeing.

use charisma::prelude::*;
use charisma::store::StoreMetrics;

use crate::determinism::fnv1a_hash;

/// Outcome of the archive gate: the canonical fixture line the run
/// produced, plus every complaint (empty means the gate passed).
#[derive(Clone, Debug)]
pub struct ArchiveGateReport {
    /// The fixture line for this seed/scale (hash, size, shape).
    pub fixture_line: String,
    /// Human-readable violations, empty on success.
    pub complaints: Vec<String>,
}

/// Render the archive-hash fixture line for one serial pipeline run.
///
/// One line, fully self-describing:
/// `seed=… scale=… fnv1a=0x… bytes=… rows=… segments=…`
pub fn archive_fixture_line(seed: u64, scale: f64) -> Result<String, charisma::Error> {
    let bytes = archive_bytes(seed, scale, 1)?;
    let archive = Archive::from_bytes(bytes.clone())?;
    Ok(format!(
        "seed={} scale={} fnv1a={:#018x} bytes={} rows={} segments={}\n",
        seed,
        scale,
        fnv1a_hash(&bytes),
        bytes.len(),
        archive.rows(),
        archive.segments(),
    ))
}

/// The archive bytes of one pipeline run on `workers` threads.
fn archive_bytes(seed: u64, scale: f64, workers: usize) -> Result<Vec<u8>, charisma::Error> {
    let out = Pipeline::new()
        .seed(seed)
        .scale(scale)
        .shards(workers)
        .sink(charisma::ArchiveSink::Memory)
        .run()?;
    out.archive
        .ok_or(charisma::Error::Store(StoreError::Corrupt(
            "pipeline produced no archive despite an in-memory sink",
        )))
}

/// Run the full archive gate at `seed`/`scale`, scanning with `workers`
/// threads where the scan is parallel.
pub fn check_archive_gate(
    seed: u64,
    scale: f64,
    workers: usize,
) -> Result<ArchiveGateReport, charisma::Error> {
    let mut complaints = Vec::new();

    // One serial run supplies the reference stream, report, and bytes.
    let out = Pipeline::new()
        .seed(seed)
        .scale(scale)
        .sink(charisma::ArchiveSink::Memory)
        .collect_events()
        .run()?;
    let bytes = out
        .archive
        .clone()
        .ok_or(charisma::Error::Store(StoreError::Corrupt(
            "pipeline produced no archive despite an in-memory sink",
        )))?;

    // 1. Canonical bytes: worker count must not leak into the format.
    for n in [2, workers.max(2)] {
        let other = archive_bytes(seed, scale, n)?;
        if other != bytes {
            complaints.push(format!(
                "archive bytes from a {n}-worker run differ from the serial run \
                 ({} vs {} bytes, fnv1a {:#018x} vs {:#018x})",
                other.len(),
                bytes.len(),
                fnv1a_hash(&other),
                fnv1a_hash(&bytes),
            ));
        }
    }

    let archive = Archive::from_bytes(bytes)?;

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

    // 3. Predicate pushdown: a middle-third time window must prune
    // segments yet agree exactly with a plain filter of the full stream.
    if let Some((t0, t1)) = archive.time_span() {
        let span = t1.as_micros() - t0.as_micros();
        let window = Query::all().time_window(
            SimTime::from_micros(t0.as_micros() + span / 3),
            SimTime::from_micros(t0.as_micros() + 2 * span / 3),
        );
        let registry = MetricsRegistry::new();
        let pruned = archive
            .query(window.clone())
            .workers(workers)
            .attach_metrics(StoreMetrics::register(&registry))
            .events()?;
        let want: Vec<OrderedEvent> = out
            .events
            .iter()
            .filter(|e| window.matches(e))
            .copied()
            .collect();
        if pruned != want {
            complaints.push(format!(
                "time-window query returned {} records; a plain filter of the \
                 stream returns {}",
                pruned.len(),
                want.len(),
            ));
        }
        let snap = registry.snapshot();
        let pruned_segments = snap.counters.get("store.segments_pruned").copied();
        if pruned_segments.unwrap_or(0) == 0 {
            complaints.push(format!(
                "middle-third time window pruned no segments (archive has {}) — \
                 zone-map pushdown is not engaging",
                archive.segments(),
            ));
        }
        // Serial scan of the same query must agree with the parallel one.
        let serial = archive.query(window).events()?;
        if serial != pruned {
            complaints.push(format!(
                "serial scan and {workers}-worker scan of the same query \
                 disagree ({} vs {} records)",
                serial.len(),
                pruned.len(),
            ));
        }
    } else {
        complaints.push("archive is empty at gate scale — nothing to prune".to_owned());
    }

    Ok(ArchiveGateReport {
        fixture_line: archive_fixture_line(seed, scale)?,
        complaints,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_line_is_stable_and_self_describing() {
        let a = archive_fixture_line(4994, 0.01).expect("runs");
        let b = archive_fixture_line(4994, 0.01).expect("runs");
        assert_eq!(a, b);
        assert!(a.starts_with("seed=4994 scale=0.01 fnv1a=0x"));
        assert!(a.contains(" rows=") && a.contains(" segments="));
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn gate_passes_at_test_scale() {
        let report = check_archive_gate(4994, 0.01, 4).expect("runs");
        assert!(
            report.complaints.is_empty(),
            "unexpected complaints: {:?}",
            report.complaints
        );
        assert_eq!(
            report.fixture_line,
            archive_fixture_line(4994, 0.01).expect("runs")
        );
    }
}
