//! `charisma-verify` — the workspace's correctness gate.
//!
//! ```text
//! charisma-verify lint [--root DIR] [--json]
//! charisma-verify determinism [--seed N] [--scale F] [--shards N]
//! charisma-verify metrics [--seed N] [--scale F] [--shards N] [--write]
//! charisma-verify chaos [--seed N] [--scale F] [--shards N] [--write]
//! charisma-verify archive [--seed N] [--scale F] [--workers N] [--write]
//! charisma-verify serve [--seed N] [--scale F] [--tenants N]
//! charisma-verify tier [--seed N] [--scale F]
//! ```
//!
//! Every gate but `lint` is a row of [`GATES`]: its count flag and a
//! `gate` function from the library, all built on the shared invariance
//! and fixture checks (see `charisma_verify::harness`). `--write`
//! regenerates the gate's fixtures instead of comparing against them.
//!
//! All subcommands exit 0 on success, 1 on violation/divergence, and 2
//! on a usage, pipeline, or fixture I/O error, so the binary slots
//! directly into CI. Performance is measured by `perfbench`, not here.

use std::path::PathBuf;
use std::process::ExitCode;

use charisma_verify::{
    archive, chaos, determinism, findings_to_json, lint_workspace, metrics, serve, tier, GateArgs,
    GateError, GateReport, LintConfig,
};

/// One gate subcommand.
struct Gate {
    name: &'static str,
    /// The count flag the gate takes, with its default.
    count: Option<(&'static str, usize)>,
    /// What the gate proves, for the usage text.
    proves: &'static str,
    run: fn(&GateArgs) -> Result<GateReport, GateError>,
}

const GATES: &[Gate] = &[
    Gate {
        name: "determinism",
        count: Some(("--shards", 0)),
        proves: "the record stream is byte-identical serially, at N shard workers,\n\
                 and on a repeat (without --shards: two unsharded runs)",
        run: determinism::gate,
    },
    Gate {
        name: "metrics",
        count: Some(("--shards", 1)),
        proves: "the deterministic metrics core (pipeline run plus a pinned tiering\n\
                 replay and serve exercise) matches its fixture, and N-worker\n\
                 metrics merge to the serial values; --write regenerates the fixture",
        run: metrics::gate,
    },
    Gate {
        name: "chaos",
        count: Some(("--shards", 4)),
        proves: "under the canonical fault plan: plan fixtures match, the faulted\n\
                 stream is repeatable and worker-count invariant, fault counters\n\
                 engage and match their fixture, and the archive-fault replica\n\
                 drill heals (failover, scrub repair, torn-tail recovery,\n\
                 degraded federation); --write regenerates its three fixtures",
        run: chaos::gate,
    },
    Gate {
        name: "archive",
        count: Some(("--workers", 8)),
        proves: "the columnar trace archive is canonical (worker-count invariant,\n\
                 hash fixture), round-trips exactly, and prunes without changing\n\
                 results; --write regenerates the hash fixture",
        run: archive::gate,
    },
    Gate {
        name: "serve",
        count: Some(("--tenants", 4)),
        proves: "the multi-tenant archive service publishes byte-identical\n\
                 catalogs under every ingest schedule, snapshots replay exactly\n\
                 their pinned prefix, and federated scans match the oracle",
        run: serve::gate,
    },
    Gate {
        name: "tier",
        count: None,
        proves: "segment tiering is worker-count- and scan-order-invariant, every\n\
                 cold-segment loss rebuilds byte-exactly from parity, and a\n\
                 degraded tiered tenant federates like a healthy one",
        run: tier::gate,
    },
];

fn usage() -> ExitCode {
    let indent = |text: &str| text.replace('\n', "\n               ");
    let mut text = "usage: charisma-verify <command>\n\ncommands:\n  \
                    lint         [--root DIR] [--json]\n               \
                    run the CH001-CH010 static pass; --json emits findings as a\n               \
                    JSON array for CI annotation\n"
        .to_owned();
    for gate in GATES {
        let count = gate
            .count
            .map_or(String::new(), |(flag, _)| format!(" [{flag} N]"));
        text.push_str(&format!(
            "  {:<12} [--seed N] [--scale F]{count}\n               {}\n",
            gate.name,
            indent(gate.proves)
        ));
    }
    eprint!("{text}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some(name) => match GATES.iter().find(|g| g.name == name) {
            Some(gate) => run_gate(gate, &args[1..]),
            None => usage(),
        },
        None => usage(),
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

/// Parse a gate's `--seed`, `--scale`, count and `--write` flags.
fn parse_gate_args(gate: &Gate, args: &[String]) -> Result<GateArgs, String> {
    let mut parsed = GateArgs::new(gate.name, 0);
    parsed.seed = parsed_flag(args, "--seed", parsed.seed)?;
    parsed.scale = parsed_flag(args, "--scale", parsed.scale)?;
    if let Some((flag, default)) = gate.count {
        parsed.count = parsed_flag(args, flag, default)?;
    }
    parsed.write = args.iter().any(|a| a == "--write");
    Ok(parsed)
}

/// Parse a gate's flags, run it, and print its report: the one path
/// every gate's output and exit code take.
fn run_gate(gate: &Gate, args: &[String]) -> ExitCode {
    let gate_args = match parse_gate_args(gate, args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("charisma-verify {}: {e}", gate.name);
            return ExitCode::from(2);
        }
    };
    let count = gate.count.map_or(String::new(), |(flag, _)| {
        format!(" {}={}", flag.trim_start_matches('-'), gate_args.count)
    });
    println!(
        "charisma-verify {}: seed={} scale={}{count}, invariants {}",
        gate.name,
        gate_args.seed,
        gate_args.scale,
        if charisma_verify::INVARIANTS_ENABLED {
            "ENABLED"
        } else {
            "disabled (build with --features invariants for the full gate)"
        }
    );
    match (gate.run)(&gate_args) {
        Ok(report) if report.complaints.is_empty() => {
            for line in &report.summary {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Ok(report) => {
            for c in &report.complaints {
                println!("  {c}");
            }
            println!(
                "{} GATE FAILED: {} complaint(s)",
                gate.name,
                report.complaints.len()
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("charisma-verify {}: {e}", gate.name);
            ExitCode::from(2)
        }
    }
}
