//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, on stdout, a stamp line, the workload's
//! own end-to-end numbers (`# metric <name> <value> <unit>` lines), and
//! as the last line one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end metrics; with `--trace 1` they are the per-layer
//! metrics, and the spans are written to
//! `.bench_out/<workload>-seed<n>.spans.jsonl`. Exits 0 only when every
//! operation's answer was correct.

use std::fmt::Write as _;
use std::process::ExitCode;

use perfbench::tracer::{vm_hwm_kb, Tracer};
use perfbench::{Config, Metric, Workload};

const USAGE: &str =
    "usage: perfbench --workload <reproduce|serve|cache_study> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--emit-trace") {
        return emit_trace(&argv[2..]);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = Config::new(args.workload, args.seed, args.seconds);
    let stamp = stamp(args.workload, &cfg);
    println!("# {stamp}");
    let tracer = Tracer::new(args.trace);
    let outcome = match perfbench::run(args.workload, &cfg, &tracer) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let peak_rss_kb = vm_hwm_kb();
    for m in &outcome.summary {
        println!("# metric {} {} {}", m.name, m.value, m.unit);
    }
    println!("# metric peak_rss_mb {} MB", peak_rss_kb as f64 / 1024.0);
    println!("# metric peak_records {} records", outcome.peak_records);
    let metrics = if args.trace {
        let out = perfbench::OUT_DIR;
        let path = format!(
            "{out}/{}-seed{}.spans.jsonl",
            args.workload.name(),
            args.seed
        );
        let written = std::fs::create_dir_all(out)
            .and_then(|()| std::fs::write(&path, tracer.to_jsonl(&stamp_json(&stamp))));
        match written {
            Ok(()) => println!("# spans {path}"),
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
        let rises = tracer.hwm_rise_mb();
        if let Some((layer, mb)) = rises.iter().max_by(|a, b| a.1.total_cmp(b.1)) {
            println!("# peak memory raised most by layer {layer} (+{mb:.1} MB)");
        }
        outcome.per_layer(&tracer)
    } else {
        outcome.end_to_end(peak_rss_kb as f64 * 1024.0)
    };
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics_json(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--emit-trace <path> --seed <n> --scale <x> --rows <n>`: the set-up
/// child process of workloads that load a generated trace.
fn emit_trace(argv: &[String]) -> ExitCode {
    let value = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or_else(|| format!("--emit-trace needs {flag}"))
    };
    let parsed = (|| -> Result<_, String> {
        let path = argv.first().ok_or("--emit-trace needs a path")?;
        let seed = value("--seed")?.parse().map_err(|_| "bad --seed")?;
        let scale = value("--scale")?.parse().map_err(|_| "bad --scale")?;
        let rows = value("--rows")?.parse().map_err(|_| "bad --rows")?;
        Ok((std::path::PathBuf::from(path), seed, scale, rows))
    })();
    let result = parsed
        .and_then(|(path, seed, scale, rows)| perfbench::gen::emit_input(seed, scale, rows, &path));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench --emit-trace: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What produced this output: inputs, parallelism, and the code.
fn stamp(workload: Workload, cfg: &Config) -> String {
    format!(
        "perfbench workload={} seed={} scale={} seconds={} workers={} \
         available_parallelism={} commit={} source_fnv={} rustc=\"{}\"",
        workload.name(),
        cfg.seed,
        cfg.scale,
        cfg.seconds,
        cfg.workers,
        perfbench::available_parallelism(),
        env!("PERFBENCH_COMMIT"),
        env!("PERFBENCH_SOURCE_FNV"),
        env!("PERFBENCH_RUSTC"),
    )
}

/// The stamp as a one-line JSON object of string fields.
fn stamp_json(stamp: &str) -> String {
    let mut out = String::from("{\"stamp\": \"");
    for c in stamp.chars() {
        if c == '"' || c == '\\' {
            out.push('\\');
        }
        out.push(c);
    }
    out.push_str("\"}");
    out
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // Non-finite values cannot appear in JSON; report them as 0.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push('}');
    out
}
