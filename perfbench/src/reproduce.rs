//! `reproduce`: what a researcher runs to reproduce §4 — generate →
//! rectify → merge → analyze → archive encode/seal in one
//! `Pipeline::run` with an in-memory archive sink, at a multi-second
//! scale. It carries nearly all of the `workload`, `trace` and `core`
//! time and the write path of `store`, and never scans.
//!
//! Traced rounds call the same public functions the facade composes,
//! one stage at a time (the facade fuses merge, analyze and encode into
//! one pass, which cannot be split from outside); untraced rounds call
//! `Pipeline::run` itself. The gap between them is reported as
//! `tracing.overhead_ratio`.

use std::time::Instant;

use charisma::core::report::Report;
use charisma::obs::MetricsRegistry;
use charisma::store::{Archive, ArchiveMeta, ArchiveWriter, StoreMetrics};
use charisma::{ArchiveSink, Pipeline};

use crate::tracer::Tracer;
use crate::{gen, ns_per_unit, stats, timed_setups, Config, Metric, Outcome, Rounds, Split};

/// Trace scale of one round: about 1.7–2.4 M records, depending on the
/// seed.
pub const SCALE: f64 = 0.25;

/// Rounds rotate over this many pipeline seeds derived from the
/// benchmark seed (one cycle), and every round of a seed must produce
/// the same archive. A trace's size varies about ±20 % with its seed at
/// this scale; covering several per cycle keeps the run's numbers
/// steady.
pub const SUBSEEDS: u32 = 4;

/// The pipeline seed of `round`.
pub fn subseed(seed: u64, round: u32) -> u64 {
    seed.wrapping_mul(u64::from(SUBSEEDS))
        .wrapping_add(u64::from(round % SUBSEEDS))
}

/// Set-up warms the process (worker threads, allocator, page cache of
/// the binary) by running `Pipeline::run` on small traces of the
/// pipeline seeds until this many records have gone through. A fixed
/// record count, not a fixed number of runs, keeps `setup_s` from
/// following the sizes of the seed's traces.
const WARMUP_RECORDS: u64 = 400_000;

/// Scale of one warm-up run: small, so that the last run overshoots
/// [`WARMUP_RECORDS`] by little.
const WARMUP_SCALE: f64 = 0.0025;

/// What every round of one invocation must reproduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expected {
    /// Archive rows (= generated trace records).
    pub rows: u64,
    /// FNV-1a of the archive bytes.
    pub archive_hash: u64,
}

/// The `reproduce` workload after set-up.
#[derive(Debug)]
pub struct Reproduce {
    /// Per pipeline seed, the archive each of its rounds must produce;
    /// taken from its first round when unset.
    pub expected: Vec<Option<Expected>>,
    setup_s: f64,
}

/// One round's product, before checking.
struct Produced {
    /// Records the generator emitted across all shards.
    generated: u64,
    /// The sealed archive container.
    archive: Vec<u8>,
}

impl Reproduce {
    /// Warm up with small pipeline runs, `cfg.setups` times.
    pub fn setup(cfg: &Config, tracer: &Tracer) -> Result<Reproduce, String> {
        let ((), setup_s) = timed_setups(cfg, tracer, || warm_up(cfg))?;
        Ok(Reproduce {
            expected: vec![None; SUBSEEDS as usize],
            setup_s,
        })
    }

    /// Run whole cycles of rounds until `cfg.seconds` have passed.
    pub fn run(mut self, cfg: &Config, tracer: &Tracer) -> Result<Outcome, String> {
        let mut out = Outcome {
            setup_s: self.setup_s,
            ..Outcome::default()
        };
        let mut rounds = Rounds::new(cfg, tracer, SUBSEEDS);
        let mut split = Split::default();
        let mut ms_per_million = Vec::new();
        let (mut rows_total, mut bytes_total) = (0u64, 0u64);
        while let Some(round) = rounds.next(tracer) {
            tracer.begin_op(u64::from(round));
            out.attempted += 1;
            let run_cfg = Config {
                seed: subseed(cfg.seed, round),
                ..cfg.clone()
            };
            let traced = tracer.enabled();
            let started = Instant::now();
            let produced = if traced {
                tracer.span("bench.op", || staged(&run_cfg, tracer))
            } else {
                fused(&run_cfg)
            };
            let secs = started.elapsed().as_secs_f64();
            let slot = (round % SUBSEEDS) as usize;
            match produced.and_then(|p| self.check(slot, p, tracer)) {
                Ok((rows, bytes)) => {
                    if round < SUBSEEDS {
                        rows_total += rows;
                        bytes_total += bytes;
                    }
                    out.peak_records = out.peak_records.max(rows);
                    split.add(traced, secs, rows);
                    if !traced {
                        ms_per_million.push(secs * 1e9 / rows.max(1) as f64);
                    }
                }
                Err(e) => {
                    eprintln!("reproduce round {round}: {e}");
                    out.failed += 1;
                }
            }
        }
        out.counts.insert("records_per_cycle", rows_total);
        out.counts.insert("archive_bytes_per_cycle", bytes_total);
        out.work_per_s = split.untraced_rate();
        // The operation is one million records: a round's own size
        // varies with its pipeline seed.
        out.op_p50_ms = stats::median(&ms_per_million);
        let bytes_per_record = bytes_total as f64 / rows_total.max(1) as f64;
        out.summary = vec![
            Metric::new("records_per_s", out.work_per_s, "records/s"),
            Metric::new("bytes_per_record", bytes_per_record, "B"),
            Metric::new("failed_op_ratio", out.failed_op_ratio(), "ratio"),
        ];
        if rounds.traced() {
            gen::layers(tracer, &mut out.layers);
            let layers = &mut out.layers;
            layers.insert(
                "core.analyze.ns_per_record",
                ns_per_unit(tracer, "core.analyze"),
            );
            layers.insert(
                "store.encode.ns_per_row",
                ns_per_unit(tracer, "store.encode"),
            );
            layers.insert("store.encode.bytes_per_row", bytes_per_record);
            layers.insert(
                "store.open.ms",
                stats::median(&tracer.durations_ms("store.open")),
            );
            layers.insert(
                "store.verify.ns_per_row",
                ns_per_unit(tracer, "store.verify"),
            );
            layers.insert("tracing.overhead_ratio", split.overhead_ratio());
        }
        Ok(out)
    }

    /// The round's correctness checks: the archive parses, its checksums
    /// verify, it holds every generated record, and its bytes hash the
    /// same as every other round of its pipeline seed (`slot`). Returns
    /// `(rows, archive bytes)`.
    fn check(&mut self, slot: usize, p: Produced, tracer: &Tracer) -> Result<(u64, u64), String> {
        let bytes = p.archive.len() as u64;
        let hash = crate::fnv1a(&p.archive);
        let archive = tracer
            .span("store.open", || Archive::from_bytes(p.archive))
            .map_err(|e| format!("archive does not parse: {e}"))?;
        let rows = archive.rows();
        tracer
            .span("store.verify", || archive.reader().verify())
            .map_err(|e| format!("archive does not verify: {e}"))?;
        tracer.units("store.verify", rows);
        if rows != p.generated {
            return Err(format!(
                "archive holds {rows} rows of {} generated records",
                p.generated
            ));
        }
        let got = Expected {
            rows,
            archive_hash: hash,
        };
        match self.expected[slot] {
            None => self.expected[slot] = Some(got),
            Some(want) if want == got => {}
            Some(want) => {
                return Err(format!(
                    "archive differs from its seed's first round: {got:?} vs {want:?}"
                ))
            }
        }
        Ok((rows, bytes))
    }
}

/// Run [`WARMUP_RECORDS`] records through `Pipeline::run` in small
/// traces, rotating over the pipeline seeds of `cfg.seed`.
fn warm_up(cfg: &Config) -> Result<(), String> {
    let (mut records, mut run) = (0, 0);
    while records < WARMUP_RECORDS {
        let warm = Config {
            seed: subseed(cfg.seed, run),
            scale: WARMUP_SCALE,
            ..cfg.clone()
        };
        let generated = fused(&warm)?.generated;
        if generated == 0 {
            return Err(format!("warm-up seed {} generated no records", warm.seed));
        }
        records += generated;
        run += 1;
    }
    Ok(())
}

/// One untraced round: the facade itself.
fn fused(cfg: &Config) -> Result<Produced, String> {
    let out = Pipeline::new()
        .scale(cfg.scale)
        .seed(cfg.seed)
        .shards(cfg.workers)
        .sink(ArchiveSink::Memory)
        .run()
        .map_err(|e| format!("pipeline failed: {e}"))?;
    let generated = out.workload.event_count() as u64;
    let archive = out.archive.ok_or("pipeline produced no archive")?;
    Ok(Produced { generated, archive })
}

/// One traced round: the stages of [`fused`], one span each.
fn staged(cfg: &Config, tracer: &Tracer) -> Result<Produced, String> {
    let events = gen::merged_trace(cfg, tracer)?;
    let records = events.len() as u64;
    let report = tracer.span("core.analyze", || {
        Report::from_stream(events.iter().copied())
    });
    tracer.units("core.analyze", records);
    drop(report);
    let registry = MetricsRegistry::new();
    let archive = tracer.span("store.encode", || {
        let mut writer = ArchiveWriter::new(ArchiveMeta {
            seed: cfg.seed,
            scale: cfg.scale,
        });
        writer.attach_metrics(StoreMetrics::register(&registry));
        for e in &events {
            writer.push(e);
        }
        writer.finish()
    });
    tracer.units("store.encode", records);
    Ok(Produced {
        generated: records,
        archive,
    })
}
