//! `cache_study`: the paper's §4.8 cache experiments over a trace built
//! in set-up — Figure 8 at 1, 10 and 50 buffers per node, a Figure 9
//! grid of I/O-node counts × total buffers × LRU/FIFO, and the combined
//! compute + I/O-node run. `cachesim` shares no code with the other
//! workloads, so a `cachesim` change shows here and a `store` or `serve`
//! change shows nothing here.

use std::collections::BTreeSet;
use std::time::Instant;

use charisma::cachesim::{combined_simulation, compute_cache_sim, sweep, Policy, SessionIndex};
use charisma::trace::record::EventBody;
use charisma::trace::OrderedEvent;

use crate::tracer::Tracer;
use crate::{gen, ns_per_unit, stats, timed_setups, Config, Metric, Outcome, Rounds, Split};

/// Generation scale of each site's trace: 180–640 k records, depending
/// on the seed.
pub const SCALE: f64 = 0.05;

/// Records simulated: the first 100 k records of each of four sites'
/// traces, the same for every seed.
pub const ROWS: usize = 400_000;

/// The scale a single trace of [`ROWS`] records typically comes from;
/// buffer counts are scaled by it.
const ROWS_SCALE: f64 = 0.05;

/// Figure 8 buffers per compute node.
const FIG8_BUFFERS: [usize; 3] = [1, 10, 50];

/// Figure 9 I/O-node counts: one node, and the machine's ten.
const FIG9_IO_NODES: [usize; 2] = [1, 10];

/// Figure 9 total buffers at scale 1.0, scaled to the trace the way
/// `repro` scales them (by [`ROWS_SCALE`]). At the machine's ten I/O
/// nodes the LRU knee sits near 4000, so the grid spans both sides of
/// it.
const FIG9_BUFFERS_AT_FULL_SCALE: [usize; 4] = [500, 2000, 8000, 25000];

/// The combined run: one buffer per compute node, 10 I/O nodes × 50.
const COMBINED: (usize, usize, usize) = (1, 10, 50);

/// The `cache_study` workload after set-up.
#[derive(Debug)]
pub struct CacheStudy {
    /// Hit and access counts of one pass, computed once in set-up;
    /// every measured pass must reproduce them exactly.
    pub reference: Vec<u64>,
    /// `(requests, block accesses)` every Figure 9 cell must count,
    /// tallied from the trace without `cachesim`.
    pub tally: (u64, u64),
    events: Vec<OrderedEvent>,
    buffers: Vec<usize>,
    setup_s: f64,
    generate_s: f64,
}

/// One pass's results, flattened to comparable counts.
struct Pass {
    counts: Vec<u64>,
    /// Request hits of Figure 8 and the Figure 9 grid.
    hits: u64,
    /// Whether every Figure 9 cell counted the tallied requests and
    /// block accesses.
    tally_ok: bool,
    /// Simulated requests, summed over the pass.
    requests: u64,
    /// Simulated cache accesses: block accesses where a simulator counts
    /// them (the Figure 9 grid), requests where it counts only those
    /// (Figure 8, the combined run). Time per pass follows this count
    /// far more closely than the request count, which is why it is the
    /// unit of work: request sizes, and so blocks per request, vary with
    /// the seed.
    accesses: u64,
}

impl CacheStudy {
    /// Generate the input, load it `cfg.setups` times, then run the
    /// reference pass.
    pub fn setup(cfg: &Config, tracer: &Tracer) -> Result<CacheStudy, String> {
        let input = gen::Input::generate(cfg)?;
        let ((events, tally), setup_s) = timed_setups(cfg, tracer, || {
            input.load().map(|events| {
                let tally = io_tally(&events);
                (events, tally)
            })
        })?;
        let buffers = FIG9_BUFFERS_AT_FULL_SCALE
            .iter()
            .map(|&b| ((b as f64 * ROWS_SCALE).round() as usize).max(8))
            .collect();
        let mut study = CacheStudy {
            reference: Vec::new(),
            tally,
            events,
            buffers,
            setup_s,
            generate_s: input.generate_s,
        };
        let enabled = tracer.enabled();
        tracer.set_enabled(false);
        study.reference = study.pass(tracer).counts;
        tracer.set_enabled(enabled);
        Ok(study)
    }

    /// Run passes until `cfg.seconds` have passed.
    pub fn run(self, cfg: &Config, tracer: &Tracer) -> Result<Outcome, String> {
        let mut out = Outcome {
            setup_s: self.setup_s,
            peak_records: cfg.rows as u64,
            ..Outcome::default()
        };
        let mut split = Split::default();
        let mut ms_per_million = Vec::new();
        let mut rounds = Rounds::new(cfg, tracer, 1);
        while let Some(round) = rounds.next(tracer) {
            tracer.begin_op(u64::from(round));
            out.attempted += 1;
            let traced = tracer.enabled();
            let started = Instant::now();
            let pass = tracer.span("bench.op", || self.pass(tracer));
            let secs = started.elapsed().as_secs_f64();
            if pass.counts != self.reference || !pass.tally_ok {
                eprintln!("cache_study pass {round}: hit/access counts differ from the reference");
                out.failed += 1;
                continue;
            }
            out.counts.insert("accesses_per_pass", pass.accesses);
            out.counts.insert("requests_per_pass", pass.requests);
            out.counts.insert("hits_per_pass", pass.hits);
            split.add(traced, secs, pass.accesses);
            if !traced {
                ms_per_million.push(secs * 1e9 / pass.accesses.max(1) as f64);
            }
        }
        out.work_per_s = split.untraced_rate();
        // The operation is one million cache accesses: a pass's own work
        // varies with the seed.
        out.op_p50_ms = stats::median(&ms_per_million);
        out.summary = vec![
            Metric::new("cache_accesses_per_s", out.work_per_s, "accesses/s"),
            Metric::new("failed_op_ratio", out.failed_op_ratio(), "ratio"),
            Metric::new("generate_s", self.generate_s, "s"),
        ];
        if rounds.traced() {
            let layers = &mut out.layers;
            layers.insert(
                "cachesim.index.ns_per_event",
                ns_per_unit(tracer, "cachesim.index"),
            );
            layers.insert(
                "cachesim.compute.ns_per_access",
                ns_per_unit(tracer, "cachesim.compute"),
            );
            layers.insert(
                "cachesim.ionode.ns_per_access",
                ns_per_unit(tracer, "cachesim.ionode"),
            );
            layers.insert(
                "cachesim.combined.ns_per_access",
                ns_per_unit(tracer, "cachesim.combined"),
            );
            layers.insert("tracing.overhead_ratio", split.overhead_ratio());
        }
        Ok(out)
    }

    /// One pass of the study. `counts` holds, in order: per Figure 8
    /// point its hits and requests; per Figure 9 cell its hits, accesses,
    /// block hits and block accesses; the combined run's three hit rates
    /// as IEEE bits.
    fn pass(&self, tracer: &Tracer) -> Pass {
        let events = &self.events;
        let index = tracer.span("cachesim.index", || SessionIndex::build(events));
        tracer.units("cachesim.index", events.len() as u64);
        let mut counts = Vec::new();
        let (mut hits, mut requests, mut accesses) = (0, 0, 0);
        let mut one_buffer_requests = 0;
        for buffers in FIG8_BUFFERS {
            let r = tracer.span("cachesim.compute", || {
                compute_cache_sim(events, &index, buffers)
            });
            tracer.units("cachesim.compute", r.requests);
            counts.extend([r.hits, r.requests]);
            hits += r.hits;
            requests += r.requests;
            accesses += r.requests;
            if buffers == COMBINED.0 {
                one_buffer_requests = r.requests;
            }
        }
        let grid = tracer.span("cachesim.ionode", || {
            sweep(
                events,
                &index,
                &FIG9_IO_NODES,
                &self.buffers,
                &[Policy::Lru, Policy::Fifo],
            )
        });
        let grid_blocks: u64 = grid.iter().map(|r| r.block_accesses).sum();
        tracer.units("cachesim.ionode", grid_blocks);
        requests += grid.iter().map(|r| r.accesses).sum::<u64>();
        accesses += grid_blocks;
        for r in &grid {
            counts.extend([r.hits, r.accesses, r.block_hits, r.block_accesses]);
            hits += r.hits;
        }
        let tally_ok = grid
            .iter()
            .all(|r| (r.accesses, r.block_accesses) == self.tally);
        let (compute_buffers, io_nodes, per_node) = COMBINED;
        let combined = tracer.span("cachesim.combined", || {
            combined_simulation(events, &index, compute_buffers, io_nodes, per_node)
        });
        // The combined run replays every request at its baseline I/O
        // nodes (the same traffic as any grid cell) and the read-only
        // reads through the one-buffer compute caches; its second I/O
        // bank's traffic is not exposed, so it is not counted.
        let baseline = grid
            .first()
            .map_or((0, 0), |r| (r.accesses, r.block_accesses));
        tracer.units("cachesim.combined", baseline.1 + one_buffer_requests);
        requests += baseline.0 + one_buffer_requests;
        accesses += baseline.1 + one_buffer_requests;
        counts.extend([
            combined.io_only_hit_rate.to_bits(),
            combined.combined_io_hit_rate.to_bits(),
            combined.compute_hit_rate.to_bits(),
        ]);
        Pass {
            counts,
            hits,
            tally_ok,
            requests,
            accesses,
        }
    }
}

/// Requests and block accesses an I/O-node cache simulation of `events`
/// must count: every read or write of a session opened in the trace,
/// and the 4 KB blocks it touches.
fn io_tally(events: &[OrderedEvent]) -> (u64, u64) {
    const BLOCK: u64 = 4096;
    let opened: BTreeSet<u32> = events
        .iter()
        .filter_map(|e| match e.body {
            EventBody::Open { session, .. } => Some(session),
            _ => None,
        })
        .collect();
    let (mut requests, mut blocks) = (0, 0);
    for e in events {
        let (EventBody::Read {
            session,
            offset,
            bytes,
        }
        | EventBody::Write {
            session,
            offset,
            bytes,
        }) = e.body
        else {
            continue;
        };
        if bytes > 0 && opened.contains(&session) {
            requests += 1;
            blocks += (offset + u64::from(bytes) - 1) / BLOCK - offset / BLOCK + 1;
        }
    }
    (requests, blocks)
}
