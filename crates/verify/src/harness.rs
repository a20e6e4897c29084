//! The machinery every gate shares.
//!
//! Each gate in this crate is a row built from the same parts:
//!
//! - [`check_invariance`] — run one computation over a list of
//!   [`Cell`]s (worker count plus a gate-specific schedule value) and
//!   compare every output against the serial baseline, optionally
//!   repeating the widest cell to prove repeatability;
//! - [`GateArgs::check_fixture`] — compare rendered text against a
//!   committed fixture, or rewrite it under `--write`;
//! - [`gate_run`] — one pipeline run archived to memory;
//! - [`tenant_feeds`] — the round-robin tenant partition the serve,
//!   tier, chaos and metrics exercises ingest.
//!
//! A gate returns a [`GateReport`]; the binary prints it on one path.

use std::fmt;
use std::path::{Path, PathBuf};

use charisma::serve::TenantFeed;
use charisma::store::Query;
use charisma::trace::OrderedEvent;
use charisma::{ArchiveSink, Pipeline, PipelineOutput};
use charisma_ipsc::{FaultPlan, SimTime};

/// One point of an invariance matrix: a worker count plus a schedule
/// value whose meaning belongs to the gate (an interleave seed, a
/// reversed scan order, …; 0 is the canonical schedule).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Worker threads the run uses.
    pub workers: usize,
    /// Gate-specific schedule value.
    pub schedule: u64,
}

impl Cell {
    /// The baseline every other cell is compared against.
    pub const SERIAL: Cell = Cell {
        workers: 1,
        schedule: 0,
    };

    /// `workers` threads on the canonical schedule.
    pub const fn workers(workers: usize) -> Cell {
        Cell {
            workers,
            schedule: 0,
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(workers={}, schedule={})", self.workers, self.schedule)
    }
}

/// What an invariance check observed.
#[derive(Clone, Debug)]
pub struct Invariance<T> {
    /// The serial baseline's output.
    pub baseline: T,
    /// One complaint per cell that diverged; empty means invariant.
    pub complaints: Vec<String>,
}

/// The invariance check.
///
/// Runs [`Cell::SERIAL`] first as the baseline, then each distinct cell
/// of `cells` exactly once, and compares every output against the
/// baseline with `diff` (which returns `None` on agreement, else how
/// the second output differs from the first). With `repeat`, the cell
/// with the most workers (the last listed, on a tie) runs a second time
/// and must equal its own first run. Besides the run in flight, only the
/// baseline is held, plus that first run if it diverged from the baseline.
pub fn check_invariance<T, E>(
    name: &str,
    cells: &[Cell],
    repeat: bool,
    mut run: impl FnMut(Cell) -> Result<T, E>,
    diff: impl Fn(&T, &T) -> Option<String>,
) -> Result<Invariance<T>, E> {
    let mut distinct = vec![Cell::SERIAL];
    for cell in cells {
        if !distinct.contains(cell) {
            distinct.push(*cell);
        }
    }
    let widest = distinct
        .iter()
        .copied()
        .max_by_key(|c| c.workers)
        .unwrap_or(Cell::SERIAL);

    let baseline = run(Cell::SERIAL)?;
    let mut complaints = Vec::new();
    let mut widest_first = None;
    for &cell in &distinct[1..] {
        let out = run(cell)?;
        if let Some(d) = diff(&baseline, &out) {
            complaints.push(format!(
                "{name} at {cell} diverged from the serial baseline: {d}"
            ));
            // Only a first run that differs from the baseline must be
            // kept for the repeat to be compared against.
            if repeat && cell == widest {
                widest_first = Some(out);
            }
        }
    }
    if repeat {
        let again = run(widest)?;
        if let Some(d) = diff(widest_first.as_ref().unwrap_or(&baseline), &again) {
            complaints.push(format!(
                "{name} is not repeatable: a second run at {widest} diverged from the first: {d}"
            ));
        }
    }
    Ok(Invariance {
        baseline,
        complaints,
    })
}

/// `None` for equal byte strings, else their sizes and FNV-1a hashes.
pub fn diff_bytes(a: &[u8], b: &[u8]) -> Option<String> {
    (a != b).then(|| {
        format!(
            "{} vs {} bytes, fnv1a {:#018x} vs {:#018x}",
            a.len(),
            b.len(),
            crate::fnv1a_hash(a),
            crate::fnv1a_hash(b),
        )
    })
}

/// Lines of a diff a complaint quotes before summarizing the rest.
const QUOTED_DIFF_LINES: usize = 20;

/// Line-by-line diff of two texts, expected first: `None` when equal,
/// else the number of differing lines and the first
/// [`QUOTED_DIFF_LINES`] of them.
///
/// The gates' texts are canonical (BTreeMap key order, fixed
/// indentation, one metric or field per line), so a plain line diff is
/// exact and each quoted line names what changed.
pub fn diff_text(expected: &str, actual: &str) -> Option<String> {
    if expected == actual {
        return None;
    }
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let diffs: Vec<String> = (0..exp.len().max(act.len()))
        .filter_map(|i| match (exp.get(i), act.get(i)) {
            (Some(e), Some(a)) if e == a => None,
            (Some(e), Some(a)) => Some(format!("line {}: expected `{e}` vs observed `{a}`", i + 1)),
            (Some(e), None) => Some(format!("line {}: expected `{e}` missing", i + 1)),
            (None, Some(a)) => Some(format!("line {}: observed added `{a}`", i + 1)),
            (None, None) => None,
        })
        .collect();
    if diffs.is_empty() {
        return Some("the texts differ only in their final line ending".to_owned());
    }
    let quoted = &diffs[..diffs.len().min(QUOTED_DIFF_LINES)];
    Some(format!(
        "{} line(s) differ\n    {}",
        diffs.len(),
        quoted.join("\n    ")
    ))
}

/// Why a gate could not run to a verdict (exit code 2, not 1).
#[derive(Debug)]
pub enum GateError {
    /// The pipeline, archive, or service under test failed outright.
    Pipeline(charisma::Error),
    /// A fixture could not be read or written.
    Fixture {
        /// The fixture path.
        path: PathBuf,
        /// The gate whose `--write` regenerates it.
        gate: &'static str,
        /// The I/O failure.
        source: std::io::Error,
    },
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::Pipeline(e) => write!(f, "pipeline error: {e}"),
            GateError::Fixture { path, gate, source } => write!(
                f,
                "cannot access {}: {source}\n(regenerate with: charisma-verify {gate} --write)",
                path.display()
            ),
        }
    }
}

impl std::error::Error for GateError {}

impl From<charisma::Error> for GateError {
    fn from(e: charisma::Error) -> Self {
        GateError::Pipeline(e)
    }
}

impl From<charisma::store::StoreError> for GateError {
    fn from(e: charisma::store::StoreError) -> Self {
        GateError::Pipeline(e.into())
    }
}

impl From<charisma::serve::ServeError> for GateError {
    fn from(e: charisma::serve::ServeError) -> Self {
        GateError::Pipeline(e.into())
    }
}

/// What a gate observed: complaints (empty means it passed) and the
/// summary lines printed when it passes.
#[derive(Clone, Debug, Default)]
pub struct GateReport {
    /// Human-readable violations.
    pub complaints: Vec<String>,
    /// What the gate proved, for the log.
    pub summary: Vec<String>,
}

impl GateReport {
    /// Record one check: its complaints, or the `proved` summary line
    /// when it has none.
    pub fn record(&mut self, complaints: Vec<String>, proved: String) {
        if complaints.is_empty() {
            self.summary.push(proved);
        }
        self.complaints.extend(complaints);
    }
}

/// Everything a gate runs with.
#[derive(Clone, Debug)]
pub struct GateArgs {
    /// The gate's subcommand name, quoted in `--write` hints.
    pub gate: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Workload scale.
    pub scale: f64,
    /// The gate's count: shard workers, scan workers, or tenants.
    pub count: usize,
    /// Rewrite fixtures instead of comparing against them.
    pub write: bool,
    /// Directory holding the committed fixtures.
    pub fixtures: PathBuf,
}

impl GateArgs {
    /// CI's workload (seed 4994, scale 0.05) checked against this
    /// crate's committed fixtures.
    pub fn new(gate: &'static str, count: usize) -> GateArgs {
        GateArgs {
            gate,
            seed: 4994,
            scale: 0.05,
            count,
            write: false,
            fixtures: Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures"),
        }
    }

    /// The fixture check: compare `rendered` with the committed fixture
    /// `file` and record a match, or a line diff with a `--write` hint;
    /// under `--write`, rewrite the fixture instead. A fixture that
    /// cannot be read is an error, not a complaint.
    pub fn check_fixture(
        &self,
        report: &mut GateReport,
        file: &str,
        rendered: &str,
    ) -> Result<(), GateError> {
        let path = self.fixtures.join(file);
        let io_error = |source| GateError::Fixture {
            path: path.clone(),
            gate: self.gate,
            source,
        };
        if self.write {
            std::fs::write(&path, rendered).map_err(io_error)?;
            report
                .summary
                .push(format!("fixture regenerated: {}", path.display()));
            return Ok(());
        }
        let committed = std::fs::read_to_string(&path).map_err(io_error)?;
        match diff_text(&committed, rendered) {
            None => report.summary.push(format!(
                "{file} matches ({} line(s))",
                rendered.lines().count()
            )),
            Some(d) => report.complaints.push(format!(
                "{file} is out of date: {d}\n  \
                 (if the change is intended, regenerate with: charisma-verify {} --write)",
                self.gate
            )),
        }
        Ok(())
    }
}

/// One pipeline run as the gates make it.
pub struct GateRun {
    /// The sealed archive bytes.
    pub archive: Vec<u8>,
    /// Everything else the run produced (`events` only when asked for).
    pub out: PipelineOutput,
}

/// Run the `seed`/`scale` pipeline on `workers` shard threads under
/// `faults`, archiving to memory; `events` keeps the merged stream.
pub fn gate_run(
    seed: u64,
    scale: f64,
    workers: usize,
    faults: FaultPlan,
    events: bool,
) -> Result<GateRun, charisma::Error> {
    let mut pipeline = Pipeline::new()
        .seed(seed)
        .scale(scale)
        .shards(workers)
        .faults(faults)
        .sink(ArchiveSink::Memory);
    if events {
        pipeline = pipeline.collect_events();
    }
    let mut out = pipeline.run()?;
    let archive = out.archive.take().ok_or(charisma::Error::Store(
        charisma::store::StoreError::Corrupt(
            "pipeline produced no archive despite an in-memory sink",
        ),
    ))?;
    Ok(GateRun { archive, out })
}

/// Round-robin partition of a merged stream into `tenants` feeds of
/// `batch_rows`-row batches. Subsequences of a `(time, node)`-ordered
/// stream stay ordered, so each feed is a valid archive input.
pub fn tenant_feeds(events: &[OrderedEvent], tenants: usize, batch_rows: usize) -> Vec<TenantFeed> {
    let tenants = tenants.max(1);
    (0..tenants)
        .map(|tenant| {
            let stream: Vec<OrderedEvent> = events
                .iter()
                .skip(tenant)
                .step_by(tenants)
                .copied()
                .collect();
            TenantFeed {
                tenant,
                batches: stream.chunks(batch_rows).map(<[_]>::to_vec).collect(),
            }
        })
        .collect()
}

/// A time-window query over the middle third of the stream's span: wide
/// enough to match rows, narrow enough that zone maps prune segments.
pub fn middle_third(events: &[OrderedEvent]) -> Query {
    let (t0, t1) = match (events.first(), events.last()) {
        (Some(a), Some(b)) => (a.time.as_micros(), b.time.as_micros()),
        _ => (0, 0),
    };
    let span = t1.saturating_sub(t0);
    Query::all().time_window(
        SimTime::from_micros(t0 + span / 3),
        SimTime::from_micros(t0 + 2 * span / 3),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake run whose output is the cell's schedule, except where
    /// `bad` says otherwise; records every cell it was called with.
    fn matrix(
        cells: &[Cell],
        repeat: bool,
        bad: impl Fn(Cell, usize) -> bool,
    ) -> (Invariance<u64>, Vec<Cell>) {
        let mut calls = Vec::new();
        let Ok(checked) = check_invariance::<_, std::convert::Infallible>(
            "fake",
            cells,
            repeat,
            |cell| {
                let nth = calls.iter().filter(|&&c| c == cell).count();
                calls.push(cell);
                Ok(u64::from(bad(cell, nth)))
            },
            |a, b| (a != b).then(|| format!("{a} vs {b}")),
        );
        (checked, calls)
    }

    #[test]
    fn each_distinct_cell_runs_once_and_the_widest_repeats() {
        let cells = [
            Cell::workers(2),
            Cell::SERIAL,
            Cell::workers(4),
            Cell::workers(2),
            Cell {
                workers: 2,
                schedule: 1,
            },
        ];
        let (checked, calls) = matrix(&cells, false, |_, _| false);
        assert!(checked.complaints.is_empty());
        assert_eq!(
            calls,
            [Cell::SERIAL, Cell::workers(2), Cell::workers(4), cells[4]]
        );
        let (_, calls) = matrix(&cells, true, |_, _| false);
        assert_eq!(calls.len(), 5);
        assert_eq!(calls[4], Cell::workers(4), "the widest cell repeats");
        let (_, calls) = matrix(&[], true, |_, _| false);
        assert_eq!(calls, [Cell::SERIAL, Cell::SERIAL]);
    }

    #[test]
    fn a_diverging_cell_is_named() {
        let odd = Cell {
            workers: 2,
            schedule: 7,
        };
        let cells = [Cell::workers(2), odd, Cell::workers(4)];
        let (checked, _) = matrix(&cells, true, |cell, _| cell == odd);
        assert_eq!(checked.complaints.len(), 1, "{:?}", checked.complaints);
        let complaint = &checked.complaints[0];
        assert!(
            complaint.contains("(workers=2, schedule=7)") && complaint.contains("serial baseline"),
            "{complaint}"
        );
        assert_eq!(checked.baseline, 0);
        // A widest cell that diverges consistently is one divergence, not
        // also a repeatability failure.
        let (checked, calls) = matrix(&cells, true, |cell, _| cell.workers == 4);
        assert_eq!(checked.complaints.len(), 1, "{:?}", checked.complaints);
        assert!(checked.complaints[0].contains("(workers=4, schedule=0) diverged"));
        assert_eq!(calls.len(), 5);
    }

    #[test]
    fn a_diverging_repeat_is_a_repeatability_failure() {
        let cells = [Cell::workers(2), Cell::workers(4)];
        let (checked, _) = matrix(&cells, true, |cell, nth| cell.workers == 4 && nth == 1);
        assert_eq!(checked.complaints.len(), 1, "{:?}", checked.complaints);
        let complaint = &checked.complaints[0];
        assert!(
            complaint.contains("not repeatable") && complaint.contains("(workers=4, schedule=0)"),
            "{complaint}"
        );
        // Without `repeat`, nothing runs twice, so nothing is caught.
        let (checked, _) = matrix(&cells, false, |cell, nth| cell.workers == 4 && nth == 1);
        assert!(checked.complaints.is_empty());
    }

    #[test]
    fn a_run_error_stops_the_check() {
        let result = check_invariance(
            "fake",
            &[Cell::workers(2)],
            true,
            |cell| {
                if cell.workers == 2 {
                    Err("boom")
                } else {
                    Ok(0)
                }
            },
            |_: &u8, _: &u8| None,
        );
        assert_eq!(result.map(|c| c.baseline).unwrap_err(), "boom");
    }

    #[test]
    fn changed_added_and_removed_lines_are_localized() {
        assert_eq!(diff_text("{\n  \"a\": 1\n}\n", "{\n  \"a\": 1\n}\n"), None);
        let diff = diff_text("a\nb\nc\n", "a\nB\nc\nd\n").expect("texts differ");
        assert_eq!(
            diff,
            "2 line(s) differ\n    line 2: expected `b` vs observed `B`\n    \
             line 4: observed added `d`"
        );
        let diff = diff_text("a\nb\n", "a\n").expect("texts differ");
        assert!(diff.ends_with("line 2: expected `b` missing"), "{diff}");
        // A trailing-newline difference is still a difference.
        assert!(diff_text("a\n", "a").is_some());
    }

    fn scratch_args(test: &str) -> GateArgs {
        let dir =
            std::env::temp_dir().join(format!("charisma-verify-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir is writable");
        GateArgs {
            fixtures: dir,
            ..GateArgs::new("fake", 1)
        }
    }

    #[test]
    fn a_missing_fixture_is_an_error_with_the_write_hint() {
        let args = scratch_args("missing");
        let mut report = GateReport::default();
        let err = args
            .check_fixture(&mut report, "absent.txt", "x\n")
            .expect_err("missing fixture");
        assert!(matches!(err, GateError::Fixture { .. }));
        let text = err.to_string();
        assert!(
            text.contains("absent.txt") && text.contains("charisma-verify fake --write"),
            "{text}"
        );
        let _ = std::fs::remove_dir_all(&args.fixtures);
    }

    #[test]
    fn write_then_check_round_trips_and_a_drift_is_a_complaint() {
        let mut args = scratch_args("round-trip");
        let mut report = GateReport::default();
        args.write = true;
        args.check_fixture(&mut report, "f.txt", "a\nb\n")
            .expect("writes");
        args.write = false;
        args.check_fixture(&mut report, "f.txt", "a\nb\n")
            .expect("reads");
        assert!(report.complaints.is_empty(), "{:?}", report.complaints);
        assert!(report.summary[1].contains("f.txt matches"), "{report:?}");

        args.check_fixture(&mut report, "f.txt", "a\nc\n")
            .expect("reads");
        assert_eq!(report.complaints.len(), 1);
        let complaint = &report.complaints[0];
        assert!(
            complaint.contains("line 2: expected `b` vs observed `c`")
                && complaint.contains("charisma-verify fake --write"),
            "{complaint}"
        );
        let _ = std::fs::remove_dir_all(&args.fixtures);
    }

    #[test]
    fn tenant_feeds_round_robin_in_order() {
        let events: Vec<OrderedEvent> = (0..10u64)
            .map(|i| OrderedEvent {
                time: SimTime::from_micros(i),
                node: 0,
                body: charisma::trace::record::EventBody::JobEnd { job: 1 },
            })
            .collect();
        let feeds = tenant_feeds(&events, 3, 2);
        assert_eq!(feeds.len(), 3);
        let times: Vec<Vec<u64>> = feeds
            .iter()
            .map(|f| {
                f.batches
                    .concat()
                    .iter()
                    .map(|e| e.time.as_micros())
                    .collect()
            })
            .collect();
        assert_eq!(times, [vec![0, 3, 6, 9], vec![1, 4, 7], vec![2, 5, 8]]);
        assert_eq!(feeds[0].batches.len(), 2, "2-row batches");
    }
}
