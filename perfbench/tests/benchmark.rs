//! The benchmark's own checks, at a tiny scale: every named metric is
//! emitted, a perturbed reference shows up as failed operations, and
//! the deterministic counts repeat exactly for the same seed.

use std::collections::BTreeSet;
use std::path::PathBuf;

use perfbench::tracer::Tracer;
use perfbench::{cache_study, reproduce, serve, Config, Outcome, Workload, END_TO_END, PER_LAYER};

/// A configuration that runs exactly one cycle of `workload` on a tiny
/// trace.
fn tiny(workload: Workload, seed: u64) -> Config {
    let mut cfg = Config::new(workload, seed, 0.0);
    cfg.scale = 0.01;
    cfg.rows = 8_000;
    cfg.setups = 1;
    cfg.exe = PathBuf::from(env!("CARGO_BIN_EXE_perfbench"));
    cfg
}

fn run(workload: Workload, seed: u64, traced: bool) -> (Outcome, Tracer) {
    let tracer = Tracer::new(traced);
    let outcome = perfbench::run(workload, &tiny(workload, seed), &tracer).expect("workload runs");
    (outcome, tracer)
}

/// The per-layer metrics each workload measures itself.
fn own_layers(workload: Workload) -> Vec<&'static str> {
    let ingest = [
        "workload.generate.ns_per_event",
        "trace.rectify.ns_per_record",
        "trace.merge.ns_per_record",
        "trace.merge.heap_ops_per_record",
    ];
    let own: &[&str] = match workload {
        Workload::Reproduce => &[
            "core.analyze.ns_per_record",
            "store.encode.ns_per_row",
            "store.encode.bytes_per_row",
            "store.open.ms",
            "store.verify.ns_per_row",
        ],
        Workload::Serve => &[
            "store.encode.ns_per_row",
            "store.encode.bytes_per_row",
            "store.open.ms",
            "store.scan.full.p50_ms",
            "store.scan.window.p50_ms",
            "store.scan.point.p50_ms",
            "store.scan.node.p50_ms",
            "store.scan.report.p50_ms",
            "store.scan.ns_per_row_scanned",
            "store.scan.cols_decoded_per_row",
            "store.scan.match_ratio",
            "store.scan.prune_ratio",
            "store.scan.late_skip_ratio",
            "store.verify.ns_per_row",
            "store.scrub.ns_per_row",
            "serve.ingest.ns_per_row",
            "serve.ingest.stalls_per_batch",
            "serve.ingest.shed_ratio",
            "serve.federate.p50_ms",
            "serve.federate.prune_ratio",
            "tier.classify.ns_per_segment",
            "tier.build.ns_per_segment",
            "tier.parity.ns_per_row",
        ],
        Workload::CacheStudy => &[
            "cachesim.index.ns_per_event",
            "cachesim.compute.ns_per_access",
            "cachesim.ionode.ns_per_access",
            "cachesim.combined.ns_per_access",
        ],
    };
    let mut names: Vec<&str> = own.to_vec();
    // Only reproduce generates in this process; the others receive the
    // generated trace from a child process.
    if workload == Workload::Reproduce {
        names.extend(ingest);
    }
    names.push("tracing.overhead_ratio");
    names
}

#[test]
fn every_named_metric_is_emitted_for_its_workloads() {
    for workload in Workload::ALL {
        let (untraced, _) = run(workload, 5, false);
        assert_eq!(untraced.failed, 0, "{workload:?}");
        let e2e = untraced.end_to_end(64.0 * 1024.0 * 1024.0);
        let names: Vec<&str> = e2e.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, expected, "{workload:?}");
        for m in &e2e {
            assert!(m.value > 0.0, "{workload:?}: {} is {}", m.name, m.value);
        }
        assert!(
            untraced.summary.iter().any(|m| m.name == "failed_op_ratio"),
            "{workload:?} prints failed_op_ratio"
        );

        let (traced, tracer) = run(workload, 5, true);
        assert_eq!(traced.failed, 0, "{workload:?}");
        let layer = traced.per_layer(&tracer);
        let names: Vec<&str> = layer.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, expected, "{workload:?}");
        for name in own_layers(workload) {
            assert!(
                traced.layers.contains_key(name),
                "{workload:?} does not measure {name}"
            );
        }
        assert!(!tracer.finished_spans().is_empty());
    }
}

#[test]
fn benchmark_json_names_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let section = |key: &str| -> BTreeSet<String> {
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    };
    let set = |list: &[(&str, &str)]| list.iter().map(|&(n, _)| n.to_string()).collect();
    assert_eq!(section("end_to_end"), set(&END_TO_END));
    assert_eq!(section("per_layer"), set(&PER_LAYER));
    let workloads = section("workloads");
    let ours: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn a_perturbed_reference_counts_as_failed_operations() {
    let tracer = Tracer::new(false);

    let cfg = tiny(Workload::Reproduce, 6);
    let mut bench = reproduce::Reproduce::setup(&cfg, &tracer).expect("setup");
    bench.expected[0] = Some(reproduce::Expected {
        rows: 1,
        archive_hash: 0,
    });
    let out = bench.run(&cfg, &tracer).expect("runs");
    assert!(out.failed > 0 && out.failed_op_ratio() > 0.0);

    let cfg = tiny(Workload::Serve, 6);
    let mut bench = serve::Serve::setup(&cfg, &tracer).expect("setup");
    for class in &mut bench.pool {
        for q in class.iter_mut() {
            q.rows += 1;
        }
    }
    let out = bench.run(&cfg, &tracer).expect("runs");
    assert!(out.failed > 0 && out.failed_op_ratio() > 0.0);

    let cfg = tiny(Workload::CacheStudy, 6);
    let mut bench = cache_study::CacheStudy::setup(&cfg, &tracer).expect("setup");
    bench.reference[0] += 1;
    let out = bench.run(&cfg, &tracer).expect("runs");
    assert_eq!(out.failed, out.attempted);
    assert!(out.failed_op_ratio() > 0.0);

    let mut bench = cache_study::CacheStudy::setup(&cfg, &tracer).expect("setup");
    bench.tally.1 += 1;
    let out = bench.run(&cfg, &tracer).expect("runs");
    assert_eq!(out.failed, out.attempted);
}

#[test]
fn deterministic_counts_repeat_for_the_same_seed() {
    for workload in Workload::ALL {
        let (a, _) = run(workload, 7, false);
        let (b, _) = run(workload, 7, false);
        assert!(!a.counts.is_empty(), "{workload:?} reports counts");
        assert_eq!(a.counts, b.counts, "{workload:?}");
        assert_eq!(a.peak_records, b.peak_records, "{workload:?}");
        let bytes_per_record = |o: &Outcome| {
            o.summary
                .iter()
                .find(|m| m.name == "bytes_per_record")
                .map(|m| m.value)
        };
        assert_eq!(bytes_per_record(&a), bytes_per_record(&b), "{workload:?}");
        let (c, _) = run(workload, 8, false);
        assert_ne!(
            a.counts, c.counts,
            "{workload:?}: another seed, other inputs"
        );
    }
}
