//! `charisma-verify`: the correctness-tooling layer of the CHARISMA
//! reproduction.
//!
//! The whole value of this workspace is that `charisma-ipsc` + `charisma-cfs`
//! produce *deterministic, well-formed* traces standing in for the
//! proprietary NASA Ames data. This crate enforces that claim:
//!
//! - [`lint`] — a project-specific token-level static pass over the
//!   workspace sources (rules `CH001`–`CH010`) catching the constructs that
//!   historically break determinism: hash-ordered iteration, raw `f64` time
//!   comparison, panicking library paths, ambient entropy / wall clocks,
//!   truncating casts in the codec, `unsafe`, unsanctioned concurrency,
//!   placeholder panics and float equality, stale suppressions, and
//!   code/fixture metric-name drift. Built on the [`lex`] tokenizer and the
//!   [`consistency`] cross-artifact check; the walk is parallel with
//!   deterministic, sorted findings, and `lint --json` emits them
//!   machine-readably for CI annotation.
//! - [`harness`] — what every gate below is built from: one invariance
//!   check (run a computation per `(workers, schedule)` cell, compare each
//!   against the serial baseline, optionally repeat the widest cell), one
//!   fixture check (diff rendered text against a committed fixture, or
//!   rewrite it under `--write`), one gate pipeline run, and one tenant
//!   partition.
//! - [`determinism`] — the workload→simulate→trace record stream, raw and
//!   postprocessed, must be byte-identical serially, at `N` workers, and
//!   on a repeat; a divergence is localized to the first differing
//!   record.
//! - [`metrics`] — the metrics-snapshot gate: the observability layer's
//!   deterministic core (counters/gauges/histograms) is diffed against a
//!   checked-in fixture, and an `N`-worker run must merge to the same core
//!   as the serial run.
//! - [`chaos`] — the same stream invariance, run *under the canonical
//!   fault-injection plan*, plus plan and fault-metrics fixtures and the
//!   archive-fault replica drill — the proof that the chaos layer is
//!   deterministic and the recovery machinery actually engages.
//! - [`archive`] — the trace-archive gate: the columnar archive's bytes
//!   are canonical (worker-count invariant and pinned by a hash fixture),
//!   the archive round-trips the merged stream exactly, and zone-map
//!   pruning and predicate-first decode skip work without changing any
//!   query result.
//! - [`serve`] — the archive-service gate: every `(ingest workers,
//!   interleave seed)` schedule publishes byte-identical per-tenant
//!   catalogs, mid-ingest snapshots replay exactly their pinned prefix,
//!   federated scans match the concat-and-stable-sort oracle, and the
//!   pipeline's serve sink matches its memory sink byte for byte.
//! - [`tier`] — the segment-tiering gate: the pinned skewed scan
//!   schedule classifies and places identically under every scan worker
//!   count and in reverse order, every single cold-segment loss is
//!   rebuilt byte-exactly from XOR parity, and a federated query over a
//!   tiered, damaged tenant equals the healthy baseline.
//!
//! Each gate exposes `gate(&GateArgs) -> Result<GateReport, GateError>`;
//! the binary (`charisma-verify lint|determinism|metrics|chaos|archive|serve|tier`)
//! is a table of them and the gate CI runs behind. Performance is measured
//! by the standalone `perfbench` package, not here.

pub mod archive;
pub mod chaos;
pub mod consistency;
pub mod determinism;
pub mod harness;
pub mod lex;
pub mod lint;
pub mod metrics;
pub mod serve;
pub mod tier;

/// Whether this build of the verifier carries the workspace's runtime
/// `invariant!` assertions. The CI chaos job builds with
/// `--features invariants` so the fault machinery is exercised with every
/// internal consistency check live.
pub const INVARIANTS_ENABLED: bool = cfg!(feature = "invariants");

pub use chaos::{archive_fault_plan, chaos_metrics, check_archive_chaos, check_fault_activity};
pub use consistency::{check_metric_consistency, fixture_metric_names, MetricReg};
pub use determinism::{fnv1a_hash, stream_invariance, DeterminismReport, Divergence};
pub use harness::{check_invariance, Cell, GateArgs, GateError, GateReport, Invariance};
pub use lint::{findings_to_json, lint_workspace, Finding, LintConfig, Rule};
pub use metrics::core_metrics_json;
