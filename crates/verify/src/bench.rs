//! The perf-trajectory record: one small JSON document per PR
//! (`BENCH_N.json`) capturing generate and scan throughput plus archive
//! density, emitted by `charisma-verify bench`.
//!
//! This is deliberately not a statistics harness — criterion-style
//! benchmarking lives in `crates/bench`. The record exists so the CI
//! bench-smoke job leaves a comparable breadcrumb per PR: same seed, same
//! scale, wall-clock timed once. The *deterministic* fields (records,
//! rows, bytes per record, columns decoded per row) double as a sanity
//! check that the measured run matched the pinned workload; the
//! throughput fields are machine-relative and only meaningful as a
//! trajectory on comparable runners.
//!
//! [`compare`] turns the trajectory into a CI gate: diff a fresh record
//! against the committed predecessor, fail on >25% regression in the
//! deterministic counters (which no runner noise can excuse), and warn —
//! only warn — on wall-clock deltas.

use std::time::Instant;

use charisma::ipsc::SimTime;
use charisma::obs::MetricsRegistry;
use charisma::serve::{Service, ServiceConfig, TenantFeed};
use charisma::store::{Archive, OpSet, Query, ReplicaConfig, ReplicaSet, StoreMetrics};
use charisma::tier::{TierPlan, TieredSet};
use charisma::Pipeline;

/// Tenants the federated-scan timing spreads the workload across.
const BENCH_TENANTS: usize = 4;

/// One perf record, rendered to `BENCH_N.json`.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Seed the pipeline ran with.
    pub seed: u64,
    /// Workload scale factor.
    pub scale: f64,
    /// Worker threads for generation shards and scan.
    pub workers: usize,
    /// Trace records produced by the pipeline (deterministic).
    pub records: u64,
    /// Archive size in bytes (deterministic).
    pub archive_bytes: u64,
    /// Bytes per archived record (deterministic).
    pub bytes_per_record: f64,
    /// Pipeline records generated per wall-clock second.
    pub generate_records_per_sec: f64,
    /// Archive rows scanned per wall-clock second (all-pass query).
    pub scan_rows_per_sec: f64,
    /// Rows returned per wall-clock second by a federated all-pass scan
    /// over a 4-tenant archive service holding the same workload.
    pub federated_scan_rows_per_sec: f64,
    /// Archive rows processed per wall-clock second by the pruned scan:
    /// a middle-third time window over request records, i.e. a
    /// two-predicate-column query through the predicate-first decode
    /// path. "Processed" counts every archive row — pruned, skipped, and
    /// matched — so this is directly comparable to `scan_rows_per_sec`.
    pub pruned_scan_rows_per_sec: f64,
    /// Rows the pruned scan matched (deterministic).
    pub pruned_rows_matched: u64,
    /// Column values decoded per row scanned during the pruned scan
    /// (deterministic; a full-decode engine scores 10.0).
    pub cols_decoded_per_row: f64,
    /// Archive rows covered per wall-clock second by a full
    /// checksum-verification walk (`ArchiveReader::verify`) — the
    /// integrity overhead a read pays per segment it touches.
    pub checksum_verify_rows_per_sec: f64,
    /// Archive rows covered per wall-clock second by a clean scrub pass
    /// over a default three-replica set — each row is integrity-checked
    /// once per replica, so this prices the background healing walk.
    pub scrub_rows_per_sec: f64,
    /// Segments classified per wall-clock second by a full tiering
    /// policy run (ledger-driven classification, replica-factor changes,
    /// and parity-group construction included).
    pub tier_classify_segments_per_sec: f64,
    /// Archive rows reconstructed per wall-clock second by XOR parity:
    /// every segment of an all-cold tiered set rebuilt once from its
    /// group's survivors.
    pub parity_rebuild_rows_per_sec: f64,
}

impl BenchRecord {
    /// Render as a small stable-keyed JSON document.
    pub fn to_json(&self, pr: u64) -> String {
        format!(
            "{{\n  \"pr\": {pr},\n  \"seed\": {},\n  \"scale\": {},\n  \"workers\": {},\n  \
             \"records\": {},\n  \"archive_bytes\": {},\n  \"bytes_per_record\": {:.2},\n  \
             \"generate_records_per_sec\": {:.0},\n  \"scan_rows_per_sec\": {:.0},\n  \
             \"federated_scan_rows_per_sec\": {:.0},\n  \"pruned_scan_rows_per_sec\": {:.0},\n  \
             \"pruned_rows_matched\": {},\n  \"cols_decoded_per_row\": {:.2},\n  \
             \"checksum_verify_rows_per_sec\": {:.0},\n  \"scrub_rows_per_sec\": {:.0},\n  \
             \"tier_classify_segments_per_sec\": {:.0},\n  \
             \"parity_rebuild_rows_per_sec\": {:.0}\n}}\n",
            self.seed,
            self.scale,
            self.workers,
            self.records,
            self.archive_bytes,
            self.bytes_per_record,
            self.generate_records_per_sec,
            self.scan_rows_per_sec,
            self.federated_scan_rows_per_sec,
            self.pruned_scan_rows_per_sec,
            self.pruned_rows_matched,
            self.cols_decoded_per_row,
            self.checksum_verify_rows_per_sec,
            self.scrub_rows_per_sec,
            self.tier_classify_segments_per_sec,
            self.parity_rebuild_rows_per_sec,
        )
    }
}

/// Outcome of diffing a fresh [`BenchRecord`] against a committed
/// predecessor: hard failures (deterministic counters) and soft warnings
/// (wall-clock throughputs).
#[derive(Clone, Debug, Default)]
pub struct BenchComparison {
    /// Deterministic-counter regressions beyond the 25% budget — CI fails.
    pub failures: Vec<String>,
    /// Wall-clock regressions beyond the 25% budget — reported, not fatal.
    pub warnings: Vec<String>,
    /// Fields the predecessor record does not carry (older schema) —
    /// reported so a silently shrinking comparison is visible.
    pub skipped: Vec<String>,
}

/// Relative budget before a delta counts as a regression.
const REGRESSION_BUDGET: f64 = 0.25;

/// Extract a numeric field from a `BENCH_N.json` document. The records
/// are emitted by [`BenchRecord::to_json`] with one `"key": value` pair
/// per line, so a line-wise scan is a complete parser for them.
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = &doc[doc.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Diff `current` against the JSON text of a predecessor record.
///
/// Deterministic counters gate hard: `records` and `pruned_rows_matched`
/// must not shrink by more than the budget, `bytes_per_record` and
/// `cols_decoded_per_row` must not grow by more than it — runner speed
/// cannot move any of them, so a breach is a real regression. Wall-clock
/// throughputs only warn: they are machine-relative by design.
pub fn compare(current: &BenchRecord, prev_json: &str) -> BenchComparison {
    let mut cmp = BenchComparison::default();
    // (key, current value, true when larger-is-better)
    let deterministic = [
        ("records", current.records as f64, true),
        ("bytes_per_record", current.bytes_per_record, false),
        (
            "pruned_rows_matched",
            current.pruned_rows_matched as f64,
            true,
        ),
        ("cols_decoded_per_row", current.cols_decoded_per_row, false),
    ];
    let wall_clock = [
        ("generate_records_per_sec", current.generate_records_per_sec),
        ("scan_rows_per_sec", current.scan_rows_per_sec),
        (
            "federated_scan_rows_per_sec",
            current.federated_scan_rows_per_sec,
        ),
        ("pruned_scan_rows_per_sec", current.pruned_scan_rows_per_sec),
        (
            "checksum_verify_rows_per_sec",
            current.checksum_verify_rows_per_sec,
        ),
        ("scrub_rows_per_sec", current.scrub_rows_per_sec),
        (
            "tier_classify_segments_per_sec",
            current.tier_classify_segments_per_sec,
        ),
        (
            "parity_rebuild_rows_per_sec",
            current.parity_rebuild_rows_per_sec,
        ),
    ];
    for (key, now, larger_is_better) in deterministic {
        let Some(prev) = json_number(prev_json, key) else {
            cmp.skipped
                .push(format!("{key}: not in predecessor record"));
            continue;
        };
        let regressed = if larger_is_better {
            now < prev * (1.0 - REGRESSION_BUDGET)
        } else {
            now > prev * (1.0 + REGRESSION_BUDGET)
        };
        if regressed {
            cmp.failures.push(format!(
                "{key}: {now:.2} vs {prev:.2} (deterministic, budget 25%)"
            ));
        }
    }
    for (key, now) in wall_clock {
        let Some(prev) = json_number(prev_json, key) else {
            cmp.skipped
                .push(format!("{key}: not in predecessor record"));
            continue;
        };
        if now < prev * (1.0 - REGRESSION_BUDGET) {
            cmp.warnings.push(format!(
                "{key}: {now:.0} vs {prev:.0} (wall-clock, advisory)"
            ));
        }
    }
    cmp
}

/// Run the pinned pipeline once with an in-memory archive sink and time
/// generation and a full-archive scan.
pub fn run_bench(seed: u64, scale: f64, workers: usize) -> Result<BenchRecord, String> {
    let gen_start = Instant::now();
    let out = Pipeline::new()
        .seed(seed)
        .scale(scale)
        .shards(workers)
        .sink(charisma::ArchiveSink::Memory)
        .run()
        .map_err(|e| format!("pipeline error: {e}"))?;
    let gen_secs = gen_start.elapsed().as_secs_f64().max(1e-9);

    let records = out.workload.event_count() as u64;
    let bytes = out
        .archive
        .ok_or_else(|| "pipeline produced no archive".to_string())?;
    let archive_bytes = bytes.len() as u64;

    let archive = Archive::from_bytes(bytes).map_err(|e| format!("archive error: {e:?}"))?;
    let scan_start = Instant::now();
    let events = archive
        .query(Query::all())
        .workers(workers)
        .events()
        .map_err(|e| format!("scan error: {e:?}"))?;
    let scan_secs = scan_start.elapsed().as_secs_f64().max(1e-9);
    let rows = events.len() as u64;
    if rows != records {
        return Err(format!(
            "scan returned {rows} rows for {records} generated records"
        ));
    }

    // Federated scan: the same workload spread across BENCH_TENANTS
    // tenants of an archive service, one all-pass fan-out.
    let service = Service::new(ServiceConfig {
        seed,
        scale,
        tenants: BENCH_TENANTS,
        ..ServiceConfig::default()
    });
    let mut streams = vec![Vec::new(); BENCH_TENANTS];
    for (i, e) in events.iter().enumerate() {
        streams[i % BENCH_TENANTS].push(*e);
    }
    let feeds: Vec<TenantFeed> = streams
        .into_iter()
        .enumerate()
        .map(|(tenant, events)| TenantFeed {
            tenant,
            batches: events.chunks(4096).map(<[_]>::to_vec).collect(),
        })
        .collect();
    service
        .run_ingest(&feeds, workers, 0)
        .map_err(|e| format!("serve ingest error: {e}"))?;
    let fed_start = Instant::now();
    let fed = service
        .federated(Query::all())
        .workers(workers)
        .events()
        .map_err(|e| format!("federated scan error: {e}"))?;
    let fed_secs = fed_start.elapsed().as_secs_f64().max(1e-9);
    if fed.len() as u64 != records {
        return Err(format!(
            "federated scan returned {} rows for {records} generated records",
            fed.len()
        ));
    }

    // Pruned scan: the middle third of the trace *by row position*
    // restricted to request records — a two-predicate-column query
    // (time + op) that exercises zone-map pruning, predicate-first
    // decode, and late materialization together. Row-position bounds
    // (rather than a third of the wall-clock span) keep the matched set
    // non-degenerate at every scale: activity lulls cannot empty it.
    let third = |i: usize| events.get(i).map_or(SimTime::ZERO, |e| e.time);
    let n = events.len();
    let window = Query::all()
        .time_window(third(n / 3), third(2 * n / 3))
        .ops(OpSet::requests());
    let registry = MetricsRegistry::new();
    let store_metrics = StoreMetrics::register(&registry);
    let pruned_start = Instant::now();
    let matched = archive
        .query(window)
        .workers(workers)
        .attach_metrics(store_metrics.clone())
        .events()
        .map_err(|e| format!("pruned scan error: {e:?}"))?;
    let pruned_secs = pruned_start.elapsed().as_secs_f64().max(1e-9);
    let snap = registry.snapshot();
    let cols_decoded = snap
        .counters
        .get("store.cols_decoded")
        .copied()
        .unwrap_or(0);
    let rows_scanned = snap
        .counters
        .get("store.rows_scanned")
        .copied()
        .unwrap_or(0);

    // Integrity timings: a full checksum-verification walk over every
    // sealed segment, then a clean scrub pass over a default
    // three-replica placement — the read-side and background costs the
    // self-healing layer adds.
    let verify_start = Instant::now();
    archive
        .reader()
        .verify()
        .map_err(|e| format!("checksum verify error: {e:?}"))?;
    let verify_secs = verify_start.elapsed().as_secs_f64().max(1e-9);
    let mut set = ReplicaSet::place(archive.reader(), ReplicaConfig::default(), seed);
    let scrub_start = Instant::now();
    let scrub = set.scrub();
    let scrub_secs = scrub_start.elapsed().as_secs_f64().max(1e-9);
    if !scrub.healthy() || scrub.repaired != 0 {
        return Err(format!(
            "clean scrub pass reported damage: {} repaired, {:?} unrecoverable",
            scrub.repaired, scrub.unrecoverable
        ));
    }

    // Tiering timings: a full policy run from the pruned scan's ledger
    // (classification, replica-factor changes, parity construction),
    // then every segment of an all-cold tiered set rebuilt once from
    // XOR parity — the two costs the tier layer adds.
    let plan = TierPlan::default();
    let ledger = store_metrics.access.snapshot();
    let segments = archive.reader().segment_count() as u64;
    let classify_start = Instant::now();
    let _tiered = TieredSet::build(archive.reader(), &ledger, &plan);
    let classify_secs = classify_start.elapsed().as_secs_f64().max(1e-9);
    // An empty ledger demotes everything, so every segment sits in a
    // parity group and each rebuild reconstructs real rows.
    let all_cold = TieredSet::build(archive.reader(), &std::collections::BTreeMap::new(), &plan);
    let rebuild_start = Instant::now();
    for group in all_cold.parity_groups() {
        let set = all_cold.replica_set();
        for &member in group.members() {
            let survivors: Vec<(u64, &[u8])> = group
                .members()
                .iter()
                .filter(|&&m| m != member)
                .filter_map(|&m| set.segment_bytes(m as usize).map(|b| (m, b)))
                .collect();
            if group.reconstruct(member, &survivors).is_none() {
                return Err(format!("parity rebuild of segment {member} failed"));
            }
        }
    }
    let rebuild_secs = rebuild_start.elapsed().as_secs_f64().max(1e-9);

    Ok(BenchRecord {
        seed,
        scale,
        workers,
        records,
        archive_bytes,
        bytes_per_record: archive_bytes as f64 / (records.max(1)) as f64,
        generate_records_per_sec: records as f64 / gen_secs,
        scan_rows_per_sec: rows as f64 / scan_secs,
        federated_scan_rows_per_sec: records as f64 / fed_secs,
        pruned_scan_rows_per_sec: records as f64 / pruned_secs,
        pruned_rows_matched: matched.len() as u64,
        cols_decoded_per_row: cols_decoded as f64 / rows_scanned.max(1) as f64,
        checksum_verify_rows_per_sec: records as f64 / verify_secs,
        scrub_rows_per_sec: records as f64 / scrub_secs,
        tier_classify_segments_per_sec: segments as f64 / classify_secs,
        parity_rebuild_rows_per_sec: records as f64 / rebuild_secs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_record_round_trips_the_pinned_workload() {
        let rec = run_bench(4994, 0.01, 2).expect("bench runs");
        assert!(rec.records > 0);
        assert!(rec.archive_bytes > 0);
        assert!(rec.bytes_per_record > 0.0);
        assert!(rec.federated_scan_rows_per_sec > 0.0);
        assert!(rec.pruned_scan_rows_per_sec > 0.0);
        assert!(rec.pruned_rows_matched > 0);
        // The whole point of the predicate-first scan: the pruned query
        // touches far fewer than the schema's ten cells per row.
        assert!(
            rec.cols_decoded_per_row < 10.0,
            "pruned scan decoded {:.2} cols/row",
            rec.cols_decoded_per_row
        );
        assert!(rec.checksum_verify_rows_per_sec > 0.0);
        assert!(rec.scrub_rows_per_sec > 0.0);
        assert!(rec.tier_classify_segments_per_sec > 0.0);
        assert!(rec.parity_rebuild_rows_per_sec > 0.0);
        let json = rec.to_json(7);
        assert!(json.contains("\"pr\": 7"));
        assert!(json.contains("\"records\": "));
        assert!(json.contains("\"federated_scan_rows_per_sec\": "));
        assert!(json.contains("\"pruned_scan_rows_per_sec\": "));
        assert!(json.contains("\"cols_decoded_per_row\": "));
        assert!(json.contains("\"checksum_verify_rows_per_sec\": "));
        assert!(json.contains("\"scrub_rows_per_sec\": "));
        assert!(json.contains("\"tier_classify_segments_per_sec\": "));
        assert!(json.contains("\"parity_rebuild_rows_per_sec\": "));
    }

    fn sample_record() -> BenchRecord {
        BenchRecord {
            seed: 4994,
            scale: 0.05,
            workers: 2,
            records: 1000,
            archive_bytes: 15_000,
            bytes_per_record: 15.0,
            generate_records_per_sec: 1e6,
            scan_rows_per_sec: 5e6,
            federated_scan_rows_per_sec: 4e6,
            pruned_scan_rows_per_sec: 2e7,
            pruned_rows_matched: 300,
            cols_decoded_per_row: 3.5,
            checksum_verify_rows_per_sec: 8e7,
            scrub_rows_per_sec: 3e7,
            tier_classify_segments_per_sec: 1e5,
            parity_rebuild_rows_per_sec: 2e7,
        }
    }

    #[test]
    fn compare_passes_against_an_equal_predecessor() {
        let rec = sample_record();
        let cmp = compare(&rec, &rec.to_json(7));
        assert!(cmp.failures.is_empty(), "{:?}", cmp.failures);
        assert!(cmp.warnings.is_empty(), "{:?}", cmp.warnings);
        assert!(cmp.skipped.is_empty(), "{:?}", cmp.skipped);
    }

    #[test]
    fn compare_fails_on_deterministic_regressions_only() {
        let mut rec = sample_record();
        let prev = rec.to_json(7);
        // 30% density regression: hard failure.
        rec.bytes_per_record *= 1.3;
        // Wall-clock collapse: advisory only.
        rec.scan_rows_per_sec /= 10.0;
        let cmp = compare(&rec, &prev);
        assert_eq!(cmp.failures.len(), 1, "{:?}", cmp.failures);
        assert!(cmp.failures[0].contains("bytes_per_record"));
        assert_eq!(cmp.warnings.len(), 1, "{:?}", cmp.warnings);
        assert!(cmp.warnings[0].contains("scan_rows_per_sec"));
    }

    #[test]
    fn compare_tolerates_deltas_inside_the_budget() {
        let mut rec = sample_record();
        let prev = rec.to_json(7);
        rec.bytes_per_record *= 1.2; // within 25%
        rec.pruned_rows_matched = 290; // within 25%
        let cmp = compare(&rec, &prev);
        assert!(cmp.failures.is_empty(), "{:?}", cmp.failures);
    }

    #[test]
    fn compare_skips_fields_an_older_record_lacks() {
        let rec = sample_record();
        // A PR-7-era record: no pruned-scan fields at all.
        let prev = "{\n  \"pr\": 7,\n  \"records\": 1000,\n  \"bytes_per_record\": 15.00,\n  \
                    \"scan_rows_per_sec\": 5000000\n}\n";
        let cmp = compare(&rec, prev);
        assert!(cmp.failures.is_empty(), "{:?}", cmp.failures);
        // Two deterministic and seven wall-clock fields are post-PR-7.
        assert_eq!(cmp.skipped.len(), 9, "{:?}", cmp.skipped);
    }
}
