//! `charisma-verify` — the workspace's correctness gate.
//!
//! ```text
//! charisma-verify lint [--root DIR] [--json]
//! charisma-verify determinism [--seed N] [--scale F] [--shards N]
//! charisma-verify metrics [--seed N] [--scale F] [--shards N]
//!                         [--fixture PATH] [--write]
//! charisma-verify chaos [--seed N] [--scale F] [--shards N]
//!                       [--fixture PATH] [--plan PATH] [--write]
//! charisma-verify archive [--seed N] [--scale F] [--workers N]
//!                         [--fixture PATH] [--write]
//! charisma-verify serve [--seed N] [--scale F] [--tenants N]
//! charisma-verify tier [--seed N] [--scale F]
//! charisma-verify bench [--seed N] [--scale F] [--workers N]
//!                       [--pr N] [--out PATH] [--compare PREV.json]
//! ```
//!
//! With `--shards N`, the determinism check runs the sharded pipeline on
//! `N` worker threads — twice for repeatability, and once against the
//! serial (1-worker) run to prove worker count does not change the output.
//!
//! The metrics check diffs the deterministic metrics core of a pipeline
//! run, plus a pinned tiering replay and serve exercise over its archive,
//! against the checked-in fixture (and, with `--shards N`, proves the
//! `N`-worker merged metrics equal the serial run's); `--write`
//! regenerates the fixture instead.
//!
//! The chaos check replays the determinism and metrics gates under the
//! canonical fault-injection plan: the plan fixture must match the
//! builtin, the faulted stream must be repeatable and worker-count
//! invariant, the fault counters must show the chaos machinery engaged,
//! and the chaos metrics core must match its own fixture. It then runs
//! the archive-fault drill: the same repeatability and invariance checks
//! on a pipeline run under the archive-fault plan (pinned as its own
//! fixture), then a replica set over that run's archive damaged at the
//! plan's replica corruption and loss rates, with byte-checked failover
//! and scrub repair, torn-tail recovery of the sealed prefix, and
//! degraded-tenant federation equal to the healthy one.
//!
//! The serve check proves the multi-tenant archive service keeps those
//! promises live: per-tenant catalog bytes identical across every ingest
//! worker count and interleave seed, mid-ingest snapshots equal to serial
//! replays of their pinned prefix, federated scans equal to the
//! concat-and-stable-sort oracle, and pipeline serve-sink bytes equal to
//! the memory-sink container.
//!
//! The tier check proves the segment-tiering layer is deterministic in
//! the access history and lossless under its own demotions: the pinned
//! skewed scan schedule classifies and places identically under every
//! scan worker count and in reverse order, every single cold-segment
//! loss is rebuilt byte-exactly from XOR parity, and a federated query
//! over a tiered, damaged tenant equals the healthy baseline.
//!
//! The archive check proves the columnar trace archive's three promises:
//! canonical bytes (worker-count invariant and matching the checked-in
//! hash fixture), exact round trip (all-pass query ≡ in-memory stream and
//! report), and conservative pruning (a time-window query prunes segments
//! yet returns exactly the filtered stream, serially and in parallel);
//! `--write` regenerates the hash fixture.
//!
//! All subcommands exit 0 on success and 1 on violation/divergence, so the
//! binary slots directly into CI.

use std::path::PathBuf;
use std::process::ExitCode;

use charisma_verify::{
    archive_fault_plan, archive_fixture_line, chaos_metrics_json, chaos_plan, check_archive_chaos,
    check_archive_gate, check_chaos_determinism, check_chaos_shard_equivalence,
    check_fault_activity, check_metrics_shard_equivalence, check_pipeline_determinism,
    check_serve_gate, check_shard_equivalence, check_sharded_determinism, check_tier_gate,
    compare_bench, core_metrics_json, diff_archive_plan, diff_json, diff_plan, findings_to_json,
    lint_workspace, run_bench, LintConfig,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: charisma-verify <command>\n\n\
         commands:\n\
           lint         [--root DIR] [--json]   run the CH001-CH010 static pass;\n\
                        --json emits findings as a JSON array for CI annotation\n\
           determinism  [--seed N] [--scale F] [--shards N]\n\
                        prove two same-seed pipeline runs agree; with --shards,\n\
                        run sharded on N workers and also diff against serial\n\
           metrics      [--seed N] [--scale F] [--shards N] [--fixture PATH] [--write]\n\
                        diff the deterministic metrics core (pipeline run plus\n\
                        a pinned tiering replay and serve exercise) against the\n\
                        fixture; with --shards, also prove N-worker metrics merge to the\n\
                        serial values; --write regenerates the fixture\n\
           chaos        [--seed N] [--scale F] [--shards N] [--fixture PATH]\n\
                        [--plan PATH] [--write]\n\
                        rerun the determinism and metrics gates under the\n\
                        canonical fault-injection plan, then drill a replica\n\
                        set over the run's archive at the archive-fault plan's\n\
                        rates (failover, scrub repair, torn-tail recovery,\n\
                        degraded federation); --write regenerates the plan\n\
                        and chaos-metrics fixtures\n\
           archive      [--seed N] [--scale F] [--workers N] [--fixture PATH]\n\
                        [--write]\n\
                        prove the columnar trace archive is canonical (worker-\n\
                        count invariant, hash fixture), round-trips exactly, and\n\
                        prunes without changing results; --write regenerates\n\
                        the hash fixture\n\
           serve        [--seed N] [--scale F] [--tenants N]\n\
                        prove the multi-tenant archive service publishes\n\
                        byte-identical catalogs under every ingest schedule,\n\
                        snapshots replay exactly their pinned prefix, and\n\
                        federated scans match the concat-and-sort oracle\n\
           tier         [--seed N] [--scale F]\n\
                        prove segment tiering is deterministic in the access\n\
                        history (worker-count- and scan-order-invariant\n\
                        assignments and placements), every cold-segment loss\n\
                        rebuilds byte-exactly from parity, and a degraded\n\
                        tiered tenant federates like a healthy one\n\
           bench        [--seed N] [--scale F] [--workers N] [--pr N] [--out PATH]\n\
                        [--compare PREV.json]\n\
                        run the pinned pipeline once, time generation plus\n\
                        full-archive, pruned, checksum-verify, and scrub\n\
                        passes, and print (or write) a\n\
                        BENCH_N.json perf record; with --compare, diff it\n\
                        against a committed predecessor — deterministic\n\
                        regressions >25% fail, wall-clock deltas warn"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some("determinism") => run_determinism(&args[1..]),
        Some("metrics") => run_metrics(&args[1..]),
        Some("chaos") => run_chaos(&args[1..]),
        Some("archive") => run_archive(&args[1..]),
        Some("serve") => run_serve(&args[1..]),
        Some("tier") => run_tier(&args[1..]),
        Some("bench") => run_bench_cmd(&args[1..]),
        _ => usage(),
    }
}

/// Locate the workspace root: walk upward from the current directory to the
/// first directory holding a `Cargo.toml` with a `[workspace]` table.
fn find_workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn run_lint(args: &[String]) -> ExitCode {
    let root = flag_value(args, "--root")
        .map(PathBuf::from)
        .unwrap_or_else(find_workspace_root);
    let json = args.iter().any(|a| a == "--json");
    let cfg = LintConfig::new(root);
    match lint_workspace(&cfg) {
        Ok(findings) if findings.is_empty() => {
            if json {
                print!("{}", findings_to_json(&findings));
            } else {
                println!("charisma-verify lint: clean");
            }
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            if json {
                print!("{}", findings_to_json(&findings));
            } else {
                for f in &findings {
                    println!("{f}");
                }
                println!("charisma-verify lint: {} violation(s)", findings.len());
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("charisma-verify lint: I/O error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_bench_cmd(args: &[String]) -> ExitCode {
    let (seed, scale, workers, pr) = match (
        parsed_flag(args, "--seed", 4994u64),
        parsed_flag(args, "--scale", 0.05f64),
        parsed_flag(args, "--workers", 4usize),
        parsed_flag(args, "--pr", 0u64),
    ) {
        (Ok(seed), Ok(scale), Ok(workers), Ok(pr)) => (seed, scale, workers, pr),
        (Err(e), _, _, _) | (_, Err(e), _, _) | (_, _, Err(e), _) | (_, _, _, Err(e)) => {
            eprintln!("charisma-verify bench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "charisma-verify bench: seed={seed} scale={scale} workers={workers}, \
         timing generate + scan..."
    );
    let record = match run_bench(seed, scale, workers) {
        Ok(record) => record,
        Err(e) => {
            eprintln!("charisma-verify bench: {e}");
            return ExitCode::from(2);
        }
    };
    let json = record.to_json(pr);
    match flag_value(args, "--out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("charisma-verify bench: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
            eprintln!("bench record written: {path}");
        }
        None => print!("{json}"),
    }

    // The perf-trajectory gate: diff this record against a committed
    // predecessor. Deterministic regressions fail; wall-clock ones warn.
    if let Some(prev_path) = flag_value(args, "--compare") {
        let prev = match std::fs::read_to_string(prev_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("charisma-verify bench: cannot read {prev_path}: {e}");
                return ExitCode::from(2);
            }
        };
        let cmp = compare_bench(&record, &prev);
        for s in &cmp.skipped {
            println!("bench compare: skipped {s}");
        }
        for w in &cmp.warnings {
            println!("bench compare WARNING: {w}");
        }
        if !cmp.failures.is_empty() {
            for f in &cmp.failures {
                println!("bench compare REGRESSION: {f}");
            }
            println!(
                "bench COMPARE FAILED against {prev_path}: {} deterministic regression(s)",
                cmp.failures.len()
            );
            return ExitCode::FAILURE;
        }
        println!("bench compare passed against {prev_path}");
    }
    ExitCode::SUCCESS
}

/// Parse an optional flag, distinguishing "absent" (use the default) from
/// "present but malformed" (a usage error, not a silent fallback).
fn parsed_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("invalid value for {flag}: {raw:?}")),
    }
}

fn run_determinism(args: &[String]) -> ExitCode {
    let (seed, scale, shards) = match (
        parsed_flag(args, "--seed", 4994u64),
        parsed_flag(args, "--scale", 0.05f64),
        parsed_flag(args, "--shards", 0usize),
    ) {
        (Ok(seed), Ok(scale), Ok(shards)) => (seed, scale, shards),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("charisma-verify determinism: {e}");
            return ExitCode::from(2);
        }
    };

    if shards == 0 {
        println!(
            "charisma-verify determinism: seed={seed} scale={scale}, running pipeline twice..."
        );
        return report_outcome("pipeline", &check_pipeline_determinism(seed, scale));
    }

    println!(
        "charisma-verify determinism: seed={seed} scale={scale} shards={shards}, \
         running sharded pipeline twice..."
    );
    if !print_outcome("sharded", &check_sharded_determinism(seed, scale, shards)) {
        return ExitCode::FAILURE;
    }
    println!("comparing {shards}-worker run against the serial run...");
    if !print_outcome(
        "serial-vs-sharded",
        &check_shard_equivalence(seed, scale, shards),
    ) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Default fixture location: `crates/verify/fixtures/metrics_snapshot.json`
/// under the workspace root.
fn default_fixture() -> PathBuf {
    find_workspace_root().join("crates/verify/fixtures/metrics_snapshot.json")
}

fn run_metrics(args: &[String]) -> ExitCode {
    let (seed, scale, shards) = match (
        parsed_flag(args, "--seed", 4994u64),
        parsed_flag(args, "--scale", 0.05f64),
        parsed_flag(args, "--shards", 1usize),
    ) {
        (Ok(seed), Ok(scale), Ok(shards)) => (seed, scale, shards),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("charisma-verify metrics: {e}");
            return ExitCode::from(2);
        }
    };
    let fixture = flag_value(args, "--fixture")
        .map(PathBuf::from)
        .unwrap_or_else(default_fixture);

    println!(
        "charisma-verify metrics: seed={seed} scale={scale} shards={shards}, \
         rendering the deterministic metrics core..."
    );
    let core = match core_metrics_json(seed, scale, shards) {
        Ok(core) => core,
        Err(e) => {
            eprintln!("charisma-verify metrics: pipeline error: {e}");
            return ExitCode::from(2);
        }
    };

    if args.iter().any(|a| a == "--write") {
        if let Err(e) = std::fs::write(&fixture, &core) {
            eprintln!(
                "charisma-verify metrics: cannot write {}: {e}",
                fixture.display()
            );
            return ExitCode::from(2);
        }
        println!("fixture regenerated: {}", fixture.display());
        return ExitCode::SUCCESS;
    }

    let expected = match std::fs::read_to_string(&fixture) {
        Ok(text) => text,
        Err(e) => {
            eprintln!(
                "charisma-verify metrics: cannot read {}: {e}\n\
                 (regenerate with: charisma-verify metrics --write)",
                fixture.display()
            );
            return ExitCode::from(2);
        }
    };
    let diffs = diff_json(&expected, &core);
    if !diffs.is_empty() {
        for d in diffs.iter().take(20) {
            println!("  {d}");
        }
        println!(
            "metrics SNAPSHOT MISMATCH: {} line(s) differ from {}\n\
             (if the change is intended, regenerate with: charisma-verify metrics --write)",
            diffs.len(),
            fixture.display()
        );
        return ExitCode::FAILURE;
    }
    println!(
        "metrics core matches the fixture ({} lines)",
        core.lines().count()
    );

    if shards > 1 {
        println!("comparing {shards}-worker merged metrics against the serial run...");
        match check_metrics_shard_equivalence(seed, scale, shards) {
            Ok(diffs) if diffs.is_empty() => {
                println!("metrics merge is worker-count invariant");
            }
            Ok(diffs) => {
                for d in diffs.iter().take(20) {
                    println!("  {d}");
                }
                println!(
                    "metrics MERGE DIVERGENCE: {} line(s) differ between serial \
                     and {shards}-worker runs",
                    diffs.len()
                );
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("charisma-verify metrics: pipeline error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    ExitCode::SUCCESS
}

/// Default chaos-metrics fixture:
/// `crates/verify/fixtures/metrics_snapshot_chaos.json`.
fn default_chaos_fixture() -> PathBuf {
    find_workspace_root().join("crates/verify/fixtures/metrics_snapshot_chaos.json")
}

/// Default chaos-plan fixture: `crates/verify/fixtures/fault_plan_chaos.txt`.
fn default_plan_fixture() -> PathBuf {
    find_workspace_root().join("crates/verify/fixtures/fault_plan_chaos.txt")
}

/// Default archive-fault plan fixture:
/// `crates/verify/fixtures/fault_plan_archive.txt`.
fn default_archive_plan_fixture() -> PathBuf {
    find_workspace_root().join("crates/verify/fixtures/fault_plan_archive.txt")
}

fn run_chaos(args: &[String]) -> ExitCode {
    let (seed, scale, shards) = match (
        parsed_flag(args, "--seed", 4994u64),
        parsed_flag(args, "--scale", 0.05f64),
        parsed_flag(args, "--shards", 4usize),
    ) {
        (Ok(seed), Ok(scale), Ok(shards)) => (seed, scale, shards),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("charisma-verify chaos: {e}");
            return ExitCode::from(2);
        }
    };
    let fixture = flag_value(args, "--fixture")
        .map(PathBuf::from)
        .unwrap_or_else(default_chaos_fixture);
    let plan_path = flag_value(args, "--plan")
        .map(PathBuf::from)
        .unwrap_or_else(default_plan_fixture);
    let write = args.iter().any(|a| a == "--write");

    println!(
        "charisma-verify chaos: seed={seed} scale={scale} shards={shards}, \
         invariants {}",
        if charisma_verify::INVARIANTS_ENABLED {
            "ENABLED"
        } else {
            "disabled (build with --features invariants for the full gate)"
        }
    );

    // 1. The checked-in plan fixtures must match the builtins — the
    // chaos plan and the archive-fault plan layered on top of it.
    let archive_plan_path = default_archive_plan_fixture();
    if write {
        if let Err(e) = std::fs::write(&plan_path, chaos_plan().encode()) {
            eprintln!(
                "charisma-verify chaos: cannot write {}: {e}",
                plan_path.display()
            );
            return ExitCode::from(2);
        }
        println!("plan fixture regenerated: {}", plan_path.display());
        if let Err(e) = std::fs::write(&archive_plan_path, archive_fault_plan().encode()) {
            eprintln!(
                "charisma-verify chaos: cannot write {}: {e}",
                archive_plan_path.display()
            );
            return ExitCode::from(2);
        }
        println!(
            "archive-fault plan fixture regenerated: {}",
            archive_plan_path.display()
        );
    } else {
        let text = match std::fs::read_to_string(&plan_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!(
                    "charisma-verify chaos: cannot read {}: {e}\n\
                     (regenerate with: charisma-verify chaos --write)",
                    plan_path.display()
                );
                return ExitCode::from(2);
            }
        };
        let parsed = match charisma_ipsc::FaultPlan::parse(&text) {
            Ok(plan) => plan,
            Err(e) => {
                println!("chaos PLAN FIXTURE UNPARSEABLE: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(divergence) = diff_plan(&parsed) {
            println!("chaos PLAN FIXTURE MISMATCH: {divergence}");
            return ExitCode::FAILURE;
        }
        println!("plan fixture matches the builtin chaos plan");
        let text = match std::fs::read_to_string(&archive_plan_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!(
                    "charisma-verify chaos: cannot read {}: {e}\n\
                     (regenerate with: charisma-verify chaos --write)",
                    archive_plan_path.display()
                );
                return ExitCode::from(2);
            }
        };
        let parsed = match charisma_ipsc::FaultPlan::parse(&text) {
            Ok(plan) => plan,
            Err(e) => {
                println!("chaos ARCHIVE PLAN FIXTURE UNPARSEABLE: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(divergence) = diff_archive_plan(&parsed) {
            println!("chaos ARCHIVE PLAN FIXTURE MISMATCH: {divergence}");
            return ExitCode::FAILURE;
        }
        println!("archive-fault plan fixture matches the builtin");
    }

    // 2. Repeatability: two faulted runs on the same worker count agree.
    println!("running the chaos pipeline twice on {shards} worker(s)...");
    if !print_outcome("chaos", &check_chaos_determinism(seed, scale, shards)) {
        return ExitCode::FAILURE;
    }

    // 3. Worker-count invariance under faults.
    if shards > 1 {
        println!("comparing the {shards}-worker chaos run against the serial run...");
        if !print_outcome(
            "chaos serial-vs-sharded",
            &check_chaos_shard_equivalence(seed, scale, shards),
        ) {
            return ExitCode::FAILURE;
        }
    }

    // 4. Fault-metrics snapshot: the chaos core JSON, faults.* included.
    println!("rendering the chaos metrics core...");
    let core = match chaos_metrics_json(seed, scale, shards) {
        Ok(core) => core,
        Err(e) => {
            eprintln!("charisma-verify chaos: pipeline error: {e}");
            return ExitCode::from(2);
        }
    };
    let complaints = check_fault_activity(&core);
    if !complaints.is_empty() {
        for c in &complaints {
            println!("  {c}");
        }
        println!(
            "chaos FAULT ACTIVITY MISSING: {} complaint(s)",
            complaints.len()
        );
        return ExitCode::FAILURE;
    }
    println!("fault counters show the chaos machinery engaged");

    // 5. The archive-fault drill: repeatability and invariance under the
    // archive plan, then a replica drill at its rates with byte-checked
    // failover and scrub repair, torn-tail recovery, and degraded
    // federation.
    println!("running the archive-fault drill on {shards} worker(s)...");
    match check_archive_chaos(seed, scale, shards) {
        Ok(complaints) if complaints.is_empty() => {
            println!(
                "archive faults heal: failover, scrub repair, torn-tail \
                 recovery, and degraded federation all byte-exact"
            );
        }
        Ok(complaints) => {
            for c in &complaints {
                println!("  {c}");
            }
            println!(
                "chaos ARCHIVE DRILL FAILED: {} complaint(s)",
                complaints.len()
            );
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("charisma-verify chaos: archive drill pipeline error: {e}");
            return ExitCode::from(2);
        }
    }

    if write {
        if let Err(e) = std::fs::write(&fixture, &core) {
            eprintln!(
                "charisma-verify chaos: cannot write {}: {e}",
                fixture.display()
            );
            return ExitCode::from(2);
        }
        println!("chaos metrics fixture regenerated: {}", fixture.display());
        return ExitCode::SUCCESS;
    }
    let expected = match std::fs::read_to_string(&fixture) {
        Ok(text) => text,
        Err(e) => {
            eprintln!(
                "charisma-verify chaos: cannot read {}: {e}\n\
                 (regenerate with: charisma-verify chaos --write)",
                fixture.display()
            );
            return ExitCode::from(2);
        }
    };
    let diffs = diff_json(&expected, &core);
    if !diffs.is_empty() {
        for d in diffs.iter().take(20) {
            println!("  {d}");
        }
        println!(
            "chaos SNAPSHOT MISMATCH: {} line(s) differ from {}\n\
             (if the change is intended, regenerate with: charisma-verify chaos --write)",
            diffs.len(),
            fixture.display()
        );
        return ExitCode::FAILURE;
    }
    println!(
        "chaos metrics core matches the fixture ({} lines)",
        core.lines().count()
    );
    ExitCode::SUCCESS
}

/// Default archive-hash fixture: `crates/verify/fixtures/archive_hash.txt`.
fn default_archive_fixture() -> PathBuf {
    find_workspace_root().join("crates/verify/fixtures/archive_hash.txt")
}

fn run_archive(args: &[String]) -> ExitCode {
    let (seed, scale, workers) = match (
        parsed_flag(args, "--seed", 4994u64),
        parsed_flag(args, "--scale", 0.05f64),
        parsed_flag(args, "--workers", 8usize),
    ) {
        (Ok(seed), Ok(scale), Ok(workers)) => (seed, scale, workers),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("charisma-verify archive: {e}");
            return ExitCode::from(2);
        }
    };
    let fixture = flag_value(args, "--fixture")
        .map(PathBuf::from)
        .unwrap_or_else(default_archive_fixture);

    if args.iter().any(|a| a == "--write") {
        println!("charisma-verify archive: seed={seed} scale={scale}, writing archive...");
        let line = match archive_fixture_line(seed, scale) {
            Ok(line) => line,
            Err(e) => {
                eprintln!("charisma-verify archive: pipeline error: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = std::fs::write(&fixture, &line) {
            eprintln!(
                "charisma-verify archive: cannot write {}: {e}",
                fixture.display()
            );
            return ExitCode::from(2);
        }
        print!("fixture regenerated: {}\n  {line}", fixture.display());
        return ExitCode::SUCCESS;
    }

    println!(
        "charisma-verify archive: seed={seed} scale={scale} workers={workers}, \
         writing and re-scanning the archive..."
    );
    let report = match check_archive_gate(seed, scale, workers) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("charisma-verify archive: pipeline error: {e}");
            return ExitCode::from(2);
        }
    };
    if !report.complaints.is_empty() {
        for c in &report.complaints {
            println!("  {c}");
        }
        println!(
            "archive GATE FAILED: {} complaint(s)",
            report.complaints.len()
        );
        return ExitCode::FAILURE;
    }
    println!("archive bytes canonical, round trip exact, pruning conservative");

    let expected = match std::fs::read_to_string(&fixture) {
        Ok(text) => text,
        Err(e) => {
            eprintln!(
                "charisma-verify archive: cannot read {}: {e}\n\
                 (regenerate with: charisma-verify archive --write)",
                fixture.display()
            );
            return ExitCode::from(2);
        }
    };
    if expected != report.fixture_line {
        println!(
            "archive HASH MISMATCH:\n  fixture:  {}\n  observed: {}\n\
             (if the format change is intended, regenerate with: \
             charisma-verify archive --write)",
            expected.trim_end(),
            report.fixture_line.trim_end()
        );
        return ExitCode::FAILURE;
    }
    print!(
        "archive hash matches the fixture:\n  {}",
        report.fixture_line
    );
    ExitCode::SUCCESS
}

fn run_serve(args: &[String]) -> ExitCode {
    let (seed, scale, tenants) = match (
        parsed_flag(args, "--seed", 4994u64),
        parsed_flag(args, "--scale", 0.05f64),
        parsed_flag(args, "--tenants", 4usize),
    ) {
        (Ok(seed), Ok(scale), Ok(tenants)) => (seed, scale, tenants),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("charisma-verify serve: {e}");
            return ExitCode::from(2);
        }
    };

    println!(
        "charisma-verify serve: seed={seed} scale={scale} tenants={tenants}, \
         ingesting under every (workers × interleave) schedule..."
    );
    let report = match check_serve_gate(seed, scale, tenants) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("charisma-verify serve: pipeline error: {e}");
            return ExitCode::from(2);
        }
    };
    if !report.complaints.is_empty() {
        for c in &report.complaints {
            println!("  {c}");
        }
        println!(
            "serve GATE FAILED: {} complaint(s)",
            report.complaints.len()
        );
        return ExitCode::FAILURE;
    }
    let hashes: Vec<String> = report
        .catalog_hashes
        .iter()
        .map(|h| format!("{h:#018x}"))
        .collect();
    println!(
        "serve gate passed: {} rows across {} tenants, catalogs schedule-\
         invariant, snapshots prefix-exact, federation matches the oracle\n  \
         catalog fnv1a: {}",
        report.rows,
        report.tenants,
        hashes.join(" ")
    );
    ExitCode::SUCCESS
}

fn run_tier(args: &[String]) -> ExitCode {
    let (seed, scale) = match (
        parsed_flag(args, "--seed", 4994u64),
        parsed_flag(args, "--scale", 0.05f64),
    ) {
        (Ok(seed), Ok(scale)) => (seed, scale),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("charisma-verify tier: {e}");
            return ExitCode::from(2);
        }
    };

    println!(
        "charisma-verify tier: seed={seed} scale={scale}, replaying the pinned \
         skewed scan schedule under every worker count..."
    );
    let report = match check_tier_gate(seed, scale) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("charisma-verify tier: pipeline error: {e}");
            return ExitCode::from(2);
        }
    };
    if !report.complaints.is_empty() {
        for c in &report.complaints {
            println!("  {c}");
        }
        println!("tier GATE FAILED: {} complaint(s)", report.complaints.len());
        return ExitCode::FAILURE;
    }
    println!(
        "tier gate passed: {} segments ({} hot / {} warm / {} cold, {} parity \
         group(s)), assignments worker- and order-invariant, {} cold loss(es) \
         rebuilt byte-exactly, degraded federation ≡ healthy\n  \
         tier report fnv1a: {:#018x}",
        report.segments,
        report.hot,
        report.warm,
        report.cold,
        report.parity_groups,
        report.cold_losses_rebuilt,
        report.report_hash
    );
    ExitCode::SUCCESS
}

fn report_outcome(label: &str, report: &charisma_verify::DeterminismReport) -> ExitCode {
    if print_outcome(label, report) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Print a determinism report; `true` means the streams agreed.
fn print_outcome(label: &str, report: &charisma_verify::DeterminismReport) -> bool {
    match &report.divergence {
        None => {
            println!(
                "{label} deterministic: {} records, stream hash {:#018x}",
                report.records_checked, report.stream_hash
            );
            true
        }
        Some(d) => {
            println!("{label} DIVERGENCE at record {}:", d.index);
            println!("  run 1: {}", truncated(&d.first));
            println!("  run 2: {}", truncated(&d.second));
            println!(
                "({} records agreed before the divergence)",
                report.records_checked
            );
            false
        }
    }
}

fn truncated(hex: &str) -> &str {
    if hex.is_empty() {
        "<stream ended>"
    } else if hex.len() > 128 {
        &hex[..128]
    } else {
        hex
    }
}
