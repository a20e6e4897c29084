//! Trace generation: the calls `Pipeline::run` composes before its fused
//! analysis pass, one stage and one span at a time, and the fixed-size
//! input that `serve` and `cache_study` load from a child process.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use charisma::obs::MetricsRegistry;
use charisma::store::{write_archive, Archive, ArchiveMeta};
use charisma::trace::record::EventBody;
use charisma::trace::{postprocess, MergeMetrics, MergedEvents, OrderedEvent};
use charisma::workload::shard::try_generate_sharded;
use charisma::workload::GeneratorConfig;

use crate::tracer::Tracer;
use crate::{Config, OUT_DIR};

/// Generate the sharded workload for `cfg`, rectify every shard, and
/// merge them into the ordered event stream.
pub(crate) fn merged_trace(cfg: &Config, tracer: &Tracer) -> Result<Vec<OrderedEvent>, String> {
    let config = GeneratorConfig {
        scale: cfg.scale,
        seed: cfg.seed,
        ..GeneratorConfig::default()
    };
    let workload = tracer
        .span("workload.generate", || {
            try_generate_sharded(&config, cfg.workers)
        })
        .map_err(|e| format!("generation failed: {e}"))?;
    let dispatched = workload
        .metrics
        .counters
        .get("engine.events_dispatched")
        .copied()
        .unwrap_or(0);
    tracer.units("workload.generate", dispatched);

    let rectified: Vec<Vec<OrderedEvent>> = workload
        .shards
        .iter()
        .map(|shard| tracer.span("trace.rectify", || postprocess(&shard.trace)))
        .collect();
    drop(workload);
    let records = rectified.iter().map(Vec::len).sum::<usize>() as u64;
    tracer.units("trace.rectify", records);

    let registry = MetricsRegistry::new();
    let merge = MergeMetrics::register(&registry);
    let events: Vec<OrderedEvent> = tracer.span("trace.merge", || {
        let mut merged = MergedEvents::new(rectified);
        merged.attach_metrics(merge.clone());
        merged.collect()
    });
    tracer.units("trace.merge", records);
    tracer.units("trace.merge.heap_ops", merge.heap_ops.get());
    if events.len() as u64 != records {
        return Err(format!(
            "merge emitted {} of {records} rectified records",
            events.len()
        ));
    }
    Ok(events)
}

/// Independent traces a loaded input is drawn from. The generator's
/// output varies a lot from seed to seed (request sizes, how much each
/// job does), and so does the cost of serving or simulating it; mixing
/// several sites' traces per input averages that out.
pub const SITES: u32 = 4;

/// Identifier bits above the generator's per-shard namespaces: site `s`
/// owns the jobs, files and sessions `s << SITE_SHIFT ..`.
const SITE_SHIFT: u32 = 28;

/// The generator seed of `site` for benchmark seed `seed`.
fn site_seed(seed: u64, site: u32) -> u64 {
    seed.wrapping_mul(u64::from(SITES))
        .wrapping_add(u64::from(site))
}

/// Move `e`'s job, file and session identifiers into `site`'s namespace.
fn rebase(e: &OrderedEvent, site: u32) -> OrderedEvent {
    let base = site << SITE_SHIFT;
    let body = match e.body.with_id_base(base) {
        EventBody::JobStart { job, nodes, traced } => EventBody::JobStart {
            job: job + base,
            nodes,
            traced,
        },
        EventBody::JobEnd { job } => EventBody::JobEnd { job: job + base },
        EventBody::Open {
            job,
            file,
            session,
            mode,
            access,
            created,
        } => EventBody::Open {
            job: job + base,
            file,
            session,
            mode,
            access,
            created,
        },
        EventBody::Delete { job, file } => EventBody::Delete {
            job: job + base,
            file,
        },
        other => other,
    };
    OrderedEvent { body, ..*e }
}

/// Child side of [`Input::generate`]: for each of [`SITES`] sites, generate
/// its trace at `scale` and take its first `rows / SITES` records with
/// the site's identifiers; merge the sites by time and write the result
/// to `path` as an archive.
pub fn emit_input(seed: u64, scale: f64, rows: usize, path: &Path) -> Result<(), String> {
    let per_site = rows / SITES as usize;
    let mut events = Vec::with_capacity(per_site * SITES as usize);
    for site in 0..SITES {
        let cfg = Config {
            seed: site_seed(seed, site),
            scale,
            ..Config::new(crate::Workload::Serve, seed, 0.0)
        };
        let trace = merged_trace(&cfg, &Tracer::new(false))?;
        if trace.len() < per_site {
            return Err(format!(
                "seed {} generated {} records, fewer than the {per_site} required",
                cfg.seed,
                trace.len()
            ));
        }
        events.extend(trace[..per_site].iter().map(|e| rebase(e, site)));
    }
    events.sort_by_key(|e| (e.time, e.node));
    let bytes = write_archive(&events, ArchiveMeta { seed, scale });
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The input of the workloads that load a generated trace: `cfg.rows`
/// records, the same number for every seed, drawn equally from the
/// first records of [`SITES`] sites' traces (at one scale the generated
/// record count varies about 3× between seeds, so a fixed prefix keeps
/// the input size fixed).
///
/// A child process (`cfg.exe --emit-trace`) generates it once, before
/// set-up is timed, and hands it over as an archive file under
/// `.bench_out/`, deleted when the `Input` is dropped. So generation's
/// transient memory does not count in this process's peak, and its
/// seed-dependent cost does not count in `setup_s`.
pub(crate) struct Input {
    path: PathBuf,
    /// Wall time of the generating child process, in seconds.
    pub(crate) generate_s: f64,
}

impl Input {
    /// Run the child process that generates the input for `cfg`.
    pub(crate) fn generate(cfg: &Config) -> Result<Input, String> {
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
        // Owned from here on, so the file goes whatever happens next.
        let mut input = Input {
            path: Path::new(OUT_DIR).join(format!(
                "trace-{}-{}.archive",
                cfg.seed,
                std::process::id()
            )),
            generate_s: 0.0,
        };
        let started = Instant::now();
        let status = Command::new(&cfg.exe)
            .arg("--emit-trace")
            .arg(&input.path)
            .args(["--seed", &cfg.seed.to_string()])
            .args(["--scale", &cfg.scale.to_string()])
            .args(["--rows", &cfg.rows.to_string()])
            .status()
            .map_err(|e| format!("cannot run {}: {e}", cfg.exe.display()))?;
        if !status.success() {
            return Err(format!("trace generation exited with {status}"));
        }
        input.generate_s = started.elapsed().as_secs_f64();
        Ok(input)
    }

    /// Read the generated records: the part of set-up that `setup_s`
    /// times.
    pub(crate) fn load(&self) -> Result<Vec<OrderedEvent>, String> {
        Archive::open(&self.path)
            .and_then(|a| a.events())
            .map_err(|e| format!("cannot read the generated trace: {e}"))
    }
}

impl Drop for Input {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The `workload` and `trace` per-layer metrics of the spans
/// [`merged_trace`] recorded.
pub(crate) fn layers(tracer: &Tracer, out: &mut std::collections::BTreeMap<&'static str, f64>) {
    out.insert(
        "workload.generate.ns_per_event",
        crate::ns_per_unit(tracer, "workload.generate"),
    );
    out.insert(
        "trace.rectify.ns_per_record",
        crate::ns_per_unit(tracer, "trace.rectify"),
    );
    out.insert(
        "trace.merge.ns_per_record",
        crate::ns_per_unit(tracer, "trace.merge"),
    );
    let records = tracer.unit_count("trace.merge");
    if records > 0 {
        out.insert(
            "trace.merge.heap_ops_per_record",
            tracer.unit_count("trace.merge.heap_ops") as f64 / records as f64,
        );
    }
}
