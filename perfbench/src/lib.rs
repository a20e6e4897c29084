//! The repository benchmark: three workloads over the `charisma` crates,
//! their end-to-end metrics, correctness checks, and a traced run that
//! attributes time and peak memory to each layer.
//!
//! * [`reproduce`] — `Pipeline::run` from generation to an in-memory
//!   archive, as a researcher reproducing §4 runs it;
//! * [`serve`] — one closed-loop client issuing a seeded mix of queries,
//!   ingest batches and maintenance passes against a loaded archive and
//!   multi-tenant service;
//! * [`cache_study`] — the paper's §4.8 cache experiments over a trace
//!   built in set-up.
//!
//! See `README.md` in this directory for the metric glossary.

pub mod cache_study;
pub mod gen;
pub mod reproduce;
pub mod serve;
pub mod stats;
pub mod tracer;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use tracer::Tracer;

/// Where runs leave their outputs (span files, set-up hand-over files),
/// relative to the working directory.
pub const OUT_DIR: &str = ".bench_out";

/// End-to-end metrics every workload reports, with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_bytes_per_record", "B"),
    ("work_per_s", "units/s"),
    ("op_p50_ms", "ms"),
];

/// Per-layer metrics of the traced run, with their units. A workload
/// that does not run a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("workload.generate.ns_per_event", "ns"),
    ("trace.rectify.ns_per_record", "ns"),
    ("trace.merge.ns_per_record", "ns"),
    ("trace.merge.heap_ops_per_record", "count"),
    ("core.analyze.ns_per_record", "ns"),
    ("store.encode.ns_per_row", "ns"),
    ("store.encode.bytes_per_row", "B"),
    ("store.open.ms", "ms"),
    ("store.scan.full.p50_ms", "ms"),
    ("store.scan.window.p50_ms", "ms"),
    ("store.scan.point.p50_ms", "ms"),
    ("store.scan.node.p50_ms", "ms"),
    ("store.scan.report.p50_ms", "ms"),
    ("store.scan.ns_per_row_scanned", "ns"),
    ("store.scan.cols_decoded_per_row", "count"),
    ("store.scan.match_ratio", "ratio"),
    ("store.scan.prune_ratio", "ratio"),
    ("store.scan.late_skip_ratio", "ratio"),
    ("store.verify.ns_per_row", "ns"),
    ("store.scrub.ns_per_row", "ns"),
    ("serve.ingest.ns_per_row", "ns"),
    ("serve.ingest.stalls_per_batch", "count"),
    ("serve.ingest.shed_ratio", "ratio"),
    ("serve.federate.p50_ms", "ms"),
    ("serve.federate.prune_ratio", "ratio"),
    ("tier.classify.ns_per_segment", "ns"),
    ("tier.build.ns_per_segment", "ns"),
    ("tier.parity.ns_per_row", "ns"),
    ("cachesim.index.ns_per_event", "ns"),
    ("cachesim.compute.ns_per_access", "ns"),
    ("cachesim.ionode.ns_per_access", "ns"),
    ("cachesim.combined.ns_per_access", "ns"),
    ("tracing.overhead_ratio", "ratio"),
    ("mem.bench.hwm_rise_mb", "MB"),
    ("mem.workload.hwm_rise_mb", "MB"),
    ("mem.trace.hwm_rise_mb", "MB"),
    ("mem.core.hwm_rise_mb", "MB"),
    ("mem.store.hwm_rise_mb", "MB"),
    ("mem.serve.hwm_rise_mb", "MB"),
    ("mem.tier.hwm_rise_mb", "MB"),
    ("mem.cachesim.hwm_rise_mb", "MB"),
];

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `Pipeline::run` with an in-memory archive sink.
    Reproduce,
    /// The closed-loop query/ingest/maintenance mix.
    Serve,
    /// The §4.8 cache experiments.
    CacheStudy,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [Workload::Reproduce, Workload::Serve, Workload::CacheStudy];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Reproduce => "reproduce",
            Workload::Serve => "serve",
            Workload::CacheStudy => "cache_study",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The trace scale the workload runs at.
    pub fn scale(self) -> f64 {
        match self {
            Workload::Reproduce => reproduce::SCALE,
            Workload::Serve => serve::SCALE,
            Workload::CacheStudy => cache_study::SCALE,
        }
    }

    /// Set-up repetitions: enough for about 3 s of set-up on a 2-vCPU
    /// VM. Host load comes in bursts, and a median over a few seconds is
    /// steadier than one over three short set-ups. The count is fixed
    /// rather than the time, because repeated set-ups raise peak memory
    /// a little, and a faster set-up must not run more of them.
    pub fn setups(self) -> u32 {
        match self {
            Workload::Reproduce => 5,
            Workload::Serve => 13,
            Workload::CacheStudy => 27,
        }
    }

    /// Records the workload loads from the generated trace (0: it runs
    /// the whole pipeline instead).
    pub fn rows(self) -> usize {
        match self {
            Workload::Reproduce => 0,
            Workload::Serve => serve::ROWS,
            Workload::CacheStudy => cache_study::ROWS,
        }
    }
}

/// How one invocation runs.
#[derive(Clone, Debug)]
pub struct Config {
    /// Seed of every generated input.
    pub seed: u64,
    /// Workload trace scale.
    pub scale: f64,
    /// Records loaded from the generated trace, where the workload loads
    /// a fixed-size prefix.
    pub rows: usize,
    /// Measurement time: rounds start until this much time has passed.
    pub seconds: f64,
    /// Set-up repetitions; `setup_s` is their median.
    pub setups: u32,
    /// Worker threads for shard generation, scans and federation.
    pub workers: usize,
    /// The `perfbench` executable, run as a child process to generate
    /// set-up traces.
    pub exe: PathBuf,
}

impl Config {
    /// The configuration the command line runs `workload` with.
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Config {
        Config {
            seed,
            scale: workload.scale(),
            rows: workload.rows(),
            seconds,
            setups: workload.setups(),
            workers: available_parallelism(),
            exe: std::env::current_exe().unwrap_or_else(|_| PathBuf::from("perfbench")),
        }
    }
}

/// `std::thread::available_parallelism`, or 1 when unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// What one workload run measured.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were shed, or returned a wrong answer.
    pub failed: u64,
    /// Median set-up time (s).
    pub setup_s: f64,
    /// The most trace records the process held at once: what peak
    /// memory is divided by.
    pub peak_records: u64,
    /// Units of work through the measured phase per second.
    pub work_per_s: f64,
    /// Median latency of one operation (ms).
    pub op_p50_ms: f64,
    /// The workload's own end-to-end numbers, printed for readers.
    pub summary: Vec<Metric>,
    /// Per-layer values this workload measured (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Counts that are a pure function of the seed and the scale (per
    /// round, pass or cycle), for determinism checks.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Outcome {
    /// Failed operations over attempted ones.
    pub fn failed_op_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The end-to-end metrics, in [`END_TO_END`] order, given the
    /// process's peak resident set in bytes.
    pub fn end_to_end(&self, peak_rss_bytes: f64) -> Vec<Metric> {
        let per_record = peak_rss_bytes / self.peak_records.max(1) as f64;
        let values = [self.setup_s, per_record, self.work_per_s, self.op_p50_ms];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| Metric::new(name, v, unit))
            .collect()
    }

    /// The per-layer metrics, in [`PER_LAYER`] order: the workload's own
    /// values plus each layer's peak-memory rise from `tracer`.
    pub fn per_layer(&self, tracer: &Tracer) -> Vec<Metric> {
        let mut values = self.layers.clone();
        for (layer, rise) in tracer.hwm_rise_mb() {
            if let Some(&(name, _)) = PER_LAYER.iter().find(|(n, _)| {
                n.strip_prefix("mem.")
                    .and_then(|m| m.strip_suffix(".hwm_rise_mb"))
                    == Some(layer)
            }) {
                *values.entry(name).or_default() += rise;
            }
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric::new(name, values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}

/// Run `workload` under `cfg`, recording spans into `tracer` when it is
/// enabled.
pub fn run(workload: Workload, cfg: &Config, tracer: &Tracer) -> Result<Outcome, String> {
    match workload {
        Workload::Reproduce => reproduce::Reproduce::setup(cfg, tracer)?.run(cfg, tracer),
        Workload::Serve => serve::Serve::setup(cfg, tracer)?.run(cfg, tracer),
        Workload::CacheStudy => cache_study::CacheStudy::setup(cfg, tracer)?.run(cfg, tracer),
    }
}

/// The time-bounded round loop shared by the workloads. Rounds run in
/// whole cycles of `cycle` rounds (a workload whose rounds rotate over
/// several inputs covers each equally). In a traced run, rounds
/// alternate between traced and untraced, shifted by one every cycle,
/// so over two cycles every input runs both ways in the same process
/// and the tracing overhead is measured on the same inputs.
pub(crate) struct Rounds {
    started: Instant,
    seconds: f64,
    min: u32,
    cycle: u32,
    done: u32,
    traced: bool,
}

impl Rounds {
    pub(crate) fn new(cfg: &Config, tracer: &Tracer, cycle: u32) -> Rounds {
        let traced = tracer.enabled();
        let cycle = cycle.max(1);
        Rounds {
            started: Instant::now(),
            seconds: cfg.seconds,
            // A traced run needs every input traced and untraced once.
            min: if traced { 2 * cycle } else { 1 },
            cycle,
            done: 0,
            traced,
        }
    }

    /// The next round number, with the tracer switched on or off for it;
    /// `None` once the time is up and the cycle is complete.
    pub(crate) fn next(&mut self, tracer: &Tracer) -> Option<u32> {
        if self.done >= self.min
            && self.done.is_multiple_of(self.cycle)
            && self.started.elapsed().as_secs_f64() >= self.seconds
        {
            return None;
        }
        let round = self.done;
        self.done += 1;
        let phase = round % self.cycle + round / self.cycle;
        tracer.set_enabled(self.traced && phase.is_multiple_of(2));
        Some(round)
    }

    /// Whether this is a traced run.
    pub(crate) fn traced(&self) -> bool {
        self.traced
    }
}

/// Set up `cfg.setups` times, each in a `bench.setup` span, dropping each
/// state before building the next so peak memory holds one copy; returns
/// the last state and the median set-up time in seconds.
pub(crate) fn timed_setups<T>(
    cfg: &Config,
    tracer: &Tracer,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut state = None;
    let mut times = Vec::new();
    for i in 0..cfg.setups.max(1) {
        drop(state.take());
        tracer.begin_op(u64::from(i));
        let t = Instant::now();
        state = Some(tracer.span("bench.setup", &mut build)?);
        times.push(t.elapsed().as_secs_f64());
    }
    let state = state.ok_or("no set-up ran")?;
    Ok((state, stats::median(&times)))
}

/// Self time of `span` per unit counted against it, in ns; 0 when the
/// span never ran.
pub(crate) fn ns_per_unit(tracer: &Tracer, span: &str) -> f64 {
    let units = tracer.unit_count(span);
    if units == 0 {
        return 0.0;
    }
    tracer.self_ns(span) as f64 / units as f64
}

/// Time and work of the traced and the untraced rounds of a traced run.
#[derive(Clone, Debug, Default)]
pub(crate) struct Split {
    traced: (f64, u64),
    untraced: (f64, u64),
}

impl Split {
    /// Count a round of `secs` doing `units` of work.
    pub(crate) fn add(&mut self, traced: bool, secs: f64, units: u64) {
        let side = if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        };
        side.0 += secs;
        side.1 += units;
    }

    /// `tracing.overhead_ratio`: how much more time per unit of work the
    /// traced rounds took than the untraced ones, as a share of the
    /// untraced time per unit.
    pub(crate) fn overhead_ratio(&self) -> f64 {
        let per_unit = |(secs, units): (f64, u64)| secs / units.max(1) as f64;
        let untraced = per_unit(self.untraced);
        if untraced <= 0.0 || self.traced.1 == 0 {
            return 0.0;
        }
        per_unit(self.traced) / untraced - 1.0
    }

    /// Untraced work per second.
    pub(crate) fn untraced_rate(&self) -> f64 {
        if self.untraced.0 <= 0.0 {
            return 0.0;
        }
        self.untraced.1 as f64 / self.untraced.0
    }
}

/// 64-bit FNV-1a, the hash the store's checksums use.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A splitmix64 stream: the benchmark's seeded source of query
/// parameters and operation order.
#[derive(Clone, Debug)]
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}
