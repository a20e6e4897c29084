//! `serve`: one closed-loop client against a loaded archive and a
//! multi-tenant service — the read path of `store`, plus `serve` and
//! `tier`. The trace is generated in set-up only, so a generator change
//! moves nothing here but `setup_s`.
//!
//! Set-up loads one generated trace, less a held-back tail, into a
//! single-file [`Archive`] and into the static tenants of a [`Service`]
//! (split by node, like sites owning nodes), and places a replica set
//! for scrubbing. Each round then issues [`ROUND`]: queries of six
//! classes drawn from a seeded pool, ingest batches from the held-back
//! tail into a live tenant, so writes sit beside reads, and one
//! maintenance pass. The live tenant is a fresh one-tenant [`Service`]
//! every round, so what a round ingests, scans and federates is the same
//! however many rounds ran before it. Every answer is checked against a
//! reference computed once from the generated events.
//!
//! The mix is synthetic: no usage study of trace-archive queries weights
//! it. `README.md` names the gated metric each class drives.

use std::collections::BTreeMap;
use std::time::Instant;

use charisma::core::report::Report;
use charisma::obs::MetricsRegistry;
use charisma::serve::{Admission, ServeMetrics, Service, ServiceConfig, TenantFeed};
use charisma::store::{
    Archive, ArchiveMeta, ArchiveWriter, OpSet, ParityGroup, Query, ReplicaConfig, ReplicaSet,
    StoreMetrics,
};
use charisma::tier::{classify, demand, TierPlan, TieredSet};
use charisma::trace::record::EventBody;
use charisma::trace::OrderedEvent;

use crate::tracer::Tracer;
use crate::{gen, ns_per_unit, stats, timed_setups, Config, Metric, Outcome, Rng, Rounds, Split};

/// Generation scale of each site's trace: 180–640 k records, depending
/// on the seed.
pub const SCALE: f64 = 0.05;

/// Rows loaded: the first 100 k records of each of four sites' traces
/// (98 segments), the same for every seed.
pub const ROWS: usize = 400_000;

/// Tenants loaded in set-up. The live ingest target is a service of its
/// own, rebuilt every round (see [`live_service`]).
const STATIC_TENANTS: usize = 4;

/// The live tenant's index in its service.
const LIVE: usize = 0;

/// Share of the trace held back from set-up to feed ingest.
const HELD_BACK_SHARE: f64 = 0.1;

/// Rows per ingest batch.
const BATCH_ROWS: usize = 512;

/// Batches a tenant queue holds before a submission stalls and drains
/// it. Below the 8 batches a round submits between flushes, so every
/// round meets backpressure once.
const QUEUE_BATCHES: usize = 4;

/// Queries pre-drawn per class; each query slot picks one at random.
/// Window queries, the median operation, get a larger pool so its
/// latency does not hinge on a few draws (a window straddles two or
/// three segments depending on where it falls).
fn pool_size(class: Class) -> usize {
    if class == Class::Window {
        64
    } else {
        16
    }
}

/// Segments per parity group of the parity-rebuild check.
const PARITY_K: usize = 4;

/// Query classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// All-pass scan of the archive.
    Full,
    /// A time window holding 2 % of the rows, over request records.
    Window,
    /// One job or one file.
    Point,
    /// A node set holding at least 2 % of the rows.
    Node,
    /// A time window holding 5 % of the rows, fanned out over every
    /// tenant.
    Federated,
    /// `Scan::report` over a time window holding 10 % of the rows.
    Report,
}

impl Class {
    const ALL: [Class; 6] = [
        Class::Full,
        Class::Window,
        Class::Point,
        Class::Node,
        Class::Federated,
        Class::Report,
    ];

    /// The span a query of the class runs in, and the per-layer metric
    /// of its median latency.
    fn names(self) -> (&'static str, &'static str) {
        match self {
            Class::Full => ("store.scan.full", "store.scan.full.p50_ms"),
            Class::Window => ("store.scan.window", "store.scan.window.p50_ms"),
            Class::Point => ("store.scan.point", "store.scan.point.p50_ms"),
            Class::Node => ("store.scan.node", "store.scan.node.p50_ms"),
            Class::Federated => ("serve.federate", "serve.federate.p50_ms"),
            Class::Report => ("store.scan.report", "store.scan.report.p50_ms"),
        }
    }
}

/// One operation of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Query(Class),
    Ingest,
    Maintain(Maint),
}

/// The steps of a maintenance pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Maint {
    Verify,
    Scrub,
    Tier,
    Parity,
    Flush,
}

/// One round of the closed loop: 27 queries (14 window, 4 point,
/// 2 node, 4 federated, 2 report, 1 full), 8 ingest batches, and a
/// maintenance pass (verify, scrub, tier classify + build, a parity
/// rebuild, and a flush of the live tenant). The weights are synthetic,
/// chosen so that every class runs every round, not taken from observed
/// traffic. They decide the gated metrics: below the 8 ingest batches
/// (tens of µs each) the 14 window queries span the middle ranks, so
/// `op_p50_ms` is in effect window-query latency.
#[rustfmt::skip]
const ROUND: [Op; 40] = {
    use Class::*;
    use Maint::*;
    use Op::*;
    [
        Query(Window), Ingest, Query(Window), Query(Point), Query(Window),
        Query(Federated), Ingest, Query(Window), Query(Node), Query(Window),
        Ingest, Query(Point), Query(Window), Query(Report), Ingest,
        Query(Window), Query(Federated), Query(Window), Ingest, Query(Full),
        Query(Window), Query(Point), Ingest, Query(Window), Query(Federated),
        Query(Window), Query(Node), Ingest, Query(Window), Query(Point),
        Query(Report), Query(Window), Query(Federated), Ingest, Query(Window),
        Maintain(Verify), Maintain(Scrub), Maintain(Tier), Maintain(Parity),
        Maintain(Flush),
    ]
};

/// A pooled query and its reference answer.
#[derive(Clone, Debug)]
pub struct Pooled {
    /// The predicate.
    pub query: Query,
    /// Rows it returns from the archive (or the static tenants).
    pub rows: u64,
    /// For `report`: FNV-1a of the rendered reference report.
    pub report_hash: u64,
    /// For `federated`: matches among the first `i` held-back rows, for
    /// every `i` — the live tenant's share of the answer.
    pub live_prefix: Vec<u32>,
}

/// The `serve` workload after set-up.
pub struct Serve {
    /// The query pool with reference answers, per class (in
    /// [`Class::ALL`] order).
    pub pool: Vec<Vec<Pooled>>,
    loaded: Loaded,
    setup_s: f64,
    generate_s: f64,
}

/// What set-up builds.
struct Loaded {
    archive: Archive,
    service: Service,
    replicas: ReplicaSet,
    held: Vec<OrderedEvent>,
    /// The events loaded into the archive and static tenants; dropped
    /// once the reference is computed.
    main: Vec<OrderedEvent>,
}

impl Serve {
    /// Generate the input, load it `cfg.setups` times, then build the
    /// reference answers.
    pub fn setup(cfg: &Config, tracer: &Tracer) -> Result<Serve, String> {
        let input = gen::Input::generate(cfg)?;
        let (mut loaded, setup_s) = timed_setups(cfg, tracer, || load(cfg, tracer, &input))?;
        let main = std::mem::take(&mut loaded.main);
        let pool = reference_pool(cfg.seed, &main, &loaded.held);
        Ok(Serve {
            pool,
            loaded,
            setup_s,
            generate_s: input.generate_s,
        })
    }

    /// Run rounds until `cfg.seconds` have passed.
    pub fn run(self, cfg: &Config, tracer: &Tracer) -> Result<Outcome, String> {
        let Serve {
            pool,
            loaded,
            setup_s,
            generate_s,
        } = self;

        let registry = MetricsRegistry::new();
        let serve_metrics = ServeMetrics::register(&registry);
        let mut service = loaded.service;
        service.attach_metrics(serve_metrics.clone());
        let mut client = Client {
            cfg,
            tracer,
            pool,
            archive: loaded.archive,
            service,
            replicas: loaded.replicas,
            held: loaded.held,
            live: live_service(cfg, &serve_metrics),
            serve_metrics: serve_metrics.clone(),
            live_start: 0,
            store_metrics: StoreMetrics::register(&registry),
            ingested_batches: 0,
            parity_runs: 0,
            rng: Rng::new(cfg.seed ^ 0x5e7e),
            returned: 0,
            ingested_rows: 0,
        };

        let mut out = Outcome {
            setup_s,
            peak_records: cfg.rows as u64,
            ..Outcome::default()
        };
        let (mut all_ms, mut query_ms, mut ingest_ms) = (Vec::new(), Vec::new(), Vec::new());
        let mut split = Split::default();
        let mut ops = Split::default();
        let mut rounds = Rounds::new(cfg, tracer, 1);
        while let Some(round) = rounds.next(tracer) {
            let traced = tracer.enabled();
            client.new_live_tenant();
            let (returned0, ingested0) = (client.returned, client.ingested_rows);
            let mut round_s = 0.0;
            for (slot, &op) in ROUND.iter().enumerate() {
                tracer.begin_op(u64::from(round) * ROUND.len() as u64 + slot as u64);
                out.attempted += 1;
                match client.op(op) {
                    Ok(ms) => {
                        round_s += ms / 1e3;
                        if !traced {
                            all_ms.push(ms);
                            match op {
                                Op::Query(_) => query_ms.push(ms),
                                Op::Ingest => ingest_ms.push(ms),
                                Op::Maintain(_) => {}
                            }
                        }
                    }
                    Err(e) => {
                        eprintln!("serve round {round} op {op:?}: {e}");
                        out.failed += 1;
                    }
                }
            }
            let records = client.returned - returned0 + client.ingested_rows - ingested0;
            if round == 0 {
                out.counts.insert("ops_per_round", ROUND.len() as u64);
                out.counts
                    .insert("round0.rows_returned", client.returned - returned0);
                out.counts
                    .insert("round0.rows_ingested", client.ingested_rows - ingested0);
            }
            split.add(traced, round_s, records);
            ops.add(traced, round_s, ROUND.len() as u64);
        }

        out.work_per_s = split.untraced_rate();
        out.op_p50_ms = stats::median(&all_ms);
        let (tail_p, tail_ms) = stats::tail(&query_ms);
        out.summary = vec![
            Metric::new("serve_ops_per_s", ops.untraced_rate(), "ops/s"),
            Metric::new("query_p50_ms", stats::median(&query_ms), "ms"),
            Metric::new("query_tail_ms", tail_ms, "ms"),
            Metric::new("query_tail_percentile", tail_p, "pct"),
            Metric::new("query_samples", query_ms.len() as f64, "count"),
            Metric::new("ingest_p50_ms", stats::median(&ingest_ms), "ms"),
            Metric::new("failed_op_ratio", out.failed_op_ratio(), "ratio"),
            Metric::new("generate_s", generate_s, "s"),
        ];

        if rounds.traced() {
            let sm = &client.store_metrics;
            let layers = &mut out.layers;
            let rows = client.archive.rows().max(1) as f64;
            layers.insert(
                "store.encode.ns_per_row",
                ns_per_unit(tracer, "store.encode"),
            );
            layers.insert(
                "store.encode.bytes_per_row",
                client.archive.size_bytes() as f64 / rows,
            );
            layers.insert(
                "store.open.ms",
                stats::median(&tracer.durations_ms("store.open")),
            );
            let mut scan_ns = 0;
            for class in Class::ALL {
                let (span, p50_metric) = class.names();
                layers.insert(p50_metric, stats::median(&tracer.durations_ms(span)));
                if class != Class::Federated {
                    scan_ns += tracer.self_ns(span);
                }
            }
            let scanned = tracer.unit_count("store.scan").max(1) as f64;
            layers.insert("store.scan.ns_per_row_scanned", scan_ns as f64 / scanned);
            let rows_scanned = sm.rows_scanned.get().max(1) as f64;
            layers.insert(
                "store.scan.cols_decoded_per_row",
                sm.cols_decoded.get() as f64 / rows_scanned,
            );
            layers.insert(
                "store.scan.match_ratio",
                sm.rows_matched.get() as f64 / rows_scanned,
            );
            let considered = (sm.segments_pruned.get() + sm.segments_scanned.get()).max(1) as f64;
            layers.insert(
                "store.scan.prune_ratio",
                sm.segments_pruned.get() as f64 / considered,
            );
            layers.insert(
                "store.scan.late_skip_ratio",
                sm.rows_skipped_late.get() as f64 / rows_scanned,
            );
            layers.insert(
                "store.verify.ns_per_row",
                ns_per_unit(tracer, "store.verify"),
            );
            layers.insert("store.scrub.ns_per_row", ns_per_unit(tracer, "store.scrub"));
            layers.insert(
                "serve.ingest.ns_per_row",
                ns_per_unit(tracer, "serve.ingest"),
            );
            let shed = serve_metrics.batches_shed.get();
            let submitted = (serve_metrics.batches_ingested.get() + shed).max(1) as f64;
            let stalls = serve_metrics.backpressure_stalls.get();
            layers.insert("serve.ingest.stalls_per_batch", stalls as f64 / submitted);
            layers.insert("serve.ingest.shed_ratio", shed as f64 / submitted);
            let fed_pruned = serve_metrics.federated_segments_pruned.get();
            let fed_scanned = serve_metrics.federated_segments_scanned.get();
            layers.insert(
                "serve.federate.prune_ratio",
                fed_pruned as f64 / (fed_pruned + fed_scanned).max(1) as f64,
            );
            layers.insert(
                "tier.classify.ns_per_segment",
                ns_per_unit(tracer, "tier.classify"),
            );
            layers.insert(
                "tier.build.ns_per_segment",
                ns_per_unit(tracer, "tier.build"),
            );
            layers.insert("tier.parity.ns_per_row", ns_per_unit(tracer, "tier.parity"));
            layers.insert("tracing.overhead_ratio", ops.overhead_ratio());
        }
        Ok(out)
    }
}

/// Set-up proper: read the input, load the archive and the service,
/// place the replica set.
fn load(cfg: &Config, tracer: &Tracer, input: &gen::Input) -> Result<Loaded, String> {
    let mut events = input.load()?;
    let held_rows = (events.len() as f64 * HELD_BACK_SHARE) as usize;
    let held = events.split_off(events.len() - held_rows.max(1));
    let main = events;

    let bytes = tracer.span("store.encode", || {
        let mut writer = ArchiveWriter::new(ArchiveMeta {
            seed: cfg.seed,
            scale: cfg.scale,
        });
        for e in &main {
            writer.push(e);
        }
        writer.finish()
    });
    tracer.units("store.encode", main.len() as u64);
    let archive = tracer
        .span("store.open", || Archive::from_bytes(bytes))
        .map_err(|e| format!("archive does not open: {e}"))?;

    let service = Service::new(ServiceConfig {
        seed: cfg.seed,
        scale: cfg.scale,
        tenants: STATIC_TENANTS,
        queue_batches: QUEUE_BATCHES,
        ..ServiceConfig::default()
    });
    let mut streams = vec![Vec::new(); STATIC_TENANTS];
    for e in &main {
        streams[usize::from(e.node) % STATIC_TENANTS].push(*e);
    }
    let feeds: Vec<TenantFeed> = streams
        .into_iter()
        .enumerate()
        .map(|(tenant, events)| TenantFeed {
            tenant,
            batches: events.chunks(BATCH_ROWS).map(<[_]>::to_vec).collect(),
        })
        .collect();
    tracer
        .span("serve.load", || {
            service.run_ingest(&feeds, cfg.workers, cfg.seed)
        })
        .map_err(|e| format!("service load failed: {e}"))?;
    drop(feeds);

    let replicas = tracer.span("store.place", || {
        ReplicaSet::place(archive.reader(), ReplicaConfig::default(), cfg.seed)
    });
    Ok(Loaded {
        archive,
        service,
        replicas,
        held,
        main,
    })
}

/// An empty one-tenant service for the live ingest target, reporting
/// through `metrics`.
fn live_service(cfg: &Config, metrics: &ServeMetrics) -> Service {
    let mut live = Service::new(ServiceConfig {
        seed: cfg.seed,
        scale: cfg.scale,
        tenants: 1,
        queue_batches: QUEUE_BATCHES,
        ..ServiceConfig::default()
    });
    live.attach_metrics(metrics.clone());
    live
}

/// Draw [`pool_size`] queries per class from `seed` and answer each by a
/// plain filter over the generated events. Windows and node sets are
/// sized by rows, not by time or node count, so their selectivity is
/// the same for every seed.
fn reference_pool(seed: u64, main: &[OrderedEvent], held: &[OrderedEvent]) -> Vec<Vec<Pooled>> {
    let mut rng = Rng::new(seed ^ 0x0009_0001);
    let n = main.len().max(1);
    let window = |rng: &mut Rng, percent: usize| {
        let width = (n * percent / 100).max(1);
        let from = rng.below((n - width + 1) as u64) as usize;
        (main[from].time, main[from + width - 1].time)
    };
    let mut per_node: BTreeMap<u16, usize> = BTreeMap::new();
    for e in main {
        *per_node.entry(e.node).or_default() += 1;
    }
    let opens: Vec<(u32, u32)> = main
        .iter()
        .filter_map(|e| match e.body {
            EventBody::Open { job, file, .. } => Some((job, file)),
            _ => None,
        })
        .collect();
    Class::ALL
        .iter()
        .map(|&class| {
            (0..pool_size(class))
                .map(|i| {
                    let query = match class {
                        Class::Full => Query::all(),
                        Class::Window => {
                            let (a, b) = window(&mut rng, 2);
                            Query::all().time_window(a, b).ops(OpSet::requests())
                        }
                        Class::Point => {
                            let (job, file) = opens[rng.below(opens.len() as u64) as usize];
                            if i % 2 == 0 {
                                Query::all().job(job)
                            } else {
                                Query::all().file(file)
                            }
                        }
                        Class::Node => {
                            let mut nodes: Vec<(u16, usize)> =
                                per_node.iter().map(|(&k, &v)| (k, v)).collect();
                            let mut picked = Vec::new();
                            let mut rows = 0;
                            while rows * 50 < n && !nodes.is_empty() {
                                let (node, count) =
                                    nodes.swap_remove(rng.below(nodes.len() as u64) as usize);
                                picked.push(node);
                                rows += count;
                            }
                            picked.sort_unstable();
                            Query::all().nodes(&picked)
                        }
                        Class::Federated => {
                            let (a, b) = window(&mut rng, 5);
                            Query::all().time_window(a, b)
                        }
                        Class::Report => {
                            let (a, b) = window(&mut rng, 10);
                            Query::all().time_window(a, b)
                        }
                    };
                    let matched: Vec<OrderedEvent> =
                        main.iter().filter(|e| query.matches(e)).copied().collect();
                    let report_hash = if class == Class::Report {
                        crate::fnv1a(Report::from_events(&matched).render().as_bytes())
                    } else {
                        0
                    };
                    let live_prefix = if class == Class::Federated {
                        let mut prefix = Vec::with_capacity(held.len() + 1);
                        let mut matches = 0u32;
                        prefix.push(0);
                        for e in held {
                            matches += u32::from(query.matches(e));
                            prefix.push(matches);
                        }
                        prefix
                    } else {
                        Vec::new()
                    };
                    Pooled {
                        query,
                        rows: matched.len() as u64,
                        report_hash,
                        live_prefix,
                    }
                })
                .collect()
        })
        .collect()
}

/// What a query returned, before checking.
enum Answer {
    Rows(u64),
    Report(Box<Report>),
}

/// The closed-loop client's state.
struct Client<'a> {
    cfg: &'a Config,
    tracer: &'a Tracer,
    pool: Vec<Vec<Pooled>>,
    archive: Archive,
    service: Service,
    replicas: ReplicaSet,
    held: Vec<OrderedEvent>,
    /// The live tenant's service, rebuilt at the start of every round.
    live: Service,
    /// Attached to both services.
    serve_metrics: ServeMetrics,
    /// Where in the cyclic held-back stream this round's ingest began.
    live_start: u64,
    /// Attached to every archive query; its access ledger drives tiering.
    store_metrics: StoreMetrics,
    ingested_batches: u64,
    parity_runs: u64,
    rng: Rng,
    /// Rows returned by queries so far.
    returned: u64,
    /// Rows admitted by ingest so far.
    ingested_rows: u64,
}

impl Client<'_> {
    /// Replace the live tenant with an empty one; ingest goes on from
    /// where the held-back stream stopped.
    fn new_live_tenant(&mut self) {
        self.live = live_service(self.cfg, &self.serve_metrics);
        self.live_start = self.ingested_rows;
    }

    /// Run one operation; returns its latency in ms, or why its answer
    /// was wrong.
    fn op(&mut self, op: Op) -> Result<f64, String> {
        let tracer = self.tracer;
        match op {
            Op::Query(class) => {
                let idx = self.rng.below(pool_size(class) as u64) as usize;
                tracer.span("bench.op.query", || self.query(class, idx))
            }
            Op::Ingest => tracer.span("bench.op.ingest", || self.ingest()),
            Op::Maintain(step) => tracer.span("bench.op.maintain", || self.maintain(step)),
        }
    }

    fn query(&mut self, class: Class, idx: usize) -> Result<f64, String> {
        let class_pool = &self.pool[Class::ALL.iter().position(|&c| c == class).unwrap_or(0)];
        let spec = &class_pool[idx.min(class_pool.len() - 1)];
        let (workers, metrics) = (self.cfg.workers, &self.store_metrics);
        // A federated answer also holds the live tenant's sealed rows.
        let live_rows = match class {
            Class::Federated => self.live.snapshot(LIVE).map_err(|e| e.to_string())?.rows(),
            _ => 0,
        };
        let scanned = metrics.rows_scanned.get();
        let started = Instant::now();
        let answer = self.tracer.span(class.names().0, || {
            let scan = || {
                self.archive
                    .query(spec.query.clone())
                    .workers(workers)
                    .attach_metrics(metrics.clone())
            };
            match class {
                Class::Federated => {
                    let mut tenants = self.service.snapshot_all();
                    tenants.push(self.live.snapshot(LIVE).map_err(|e| e.to_string())?);
                    self.service
                        .federated_over(&tenants, &spec.query, workers)
                        .map(|rows| Answer::Rows(rows.len() as u64))
                        .map_err(|e| e.to_string())
                }
                Class::Report => scan()
                    .report()
                    .map(|r| Answer::Report(Box::new(r)))
                    .map_err(|e| e.to_string()),
                _ => scan()
                    .events()
                    .map(|rows| Answer::Rows(rows.len() as u64))
                    .map_err(|e| e.to_string()),
            }
        })?;
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.tracer
            .units("store.scan", metrics.rows_scanned.get() - scanned);
        let expected = spec.rows + live_matches(&spec.live_prefix, self.live_start + live_rows)
            - live_matches(&spec.live_prefix, self.live_start);
        let got = match answer {
            Answer::Rows(rows) => rows,
            Answer::Report(report) => {
                if crate::fnv1a(report.render().as_bytes()) != spec.report_hash {
                    return Err("report differs from the reference".into());
                }
                expected
            }
        };
        if got != expected {
            return Err(format!(
                "{class:?} query returned {got} rows, reference {expected}"
            ));
        }
        self.returned += got;
        Ok(ms)
    }

    fn ingest(&mut self) -> Result<f64, String> {
        let chunks = self.held.len().div_ceil(BATCH_ROWS).max(1) as u64;
        let chunk = (self.ingested_batches % chunks) as usize;
        self.ingested_batches += 1;
        let batch = &self.held[chunk * BATCH_ROWS..((chunk + 1) * BATCH_ROWS).min(self.held.len())];
        let started = Instant::now();
        let admission = self
            .tracer
            .span("serve.ingest", || self.live.submit(LIVE, batch))
            .map_err(|e| e.to_string())?;
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.tracer.units("serve.ingest", batch.len() as u64);
        match admission {
            Admission::Admitted { .. } => {
                self.ingested_rows += batch.len() as u64;
                Ok(ms)
            }
            Admission::Shed { batch_seq } => Err(format!("batch {batch_seq} was shed")),
        }
    }

    fn maintain(&mut self, step: Maint) -> Result<f64, String> {
        let tracer = self.tracer;
        let reader = self.archive.reader();
        let rows = reader.rows();
        let segments = reader.segment_count();
        let started = Instant::now();
        match step {
            Maint::Verify => {
                let verified = tracer
                    .span("store.verify", || reader.verify())
                    .map_err(|e| e.to_string())?;
                tracer.units("store.verify", rows);
                if verified != segments as u64 {
                    return Err(format!("verified {verified} of {segments} segments"));
                }
            }
            Maint::Scrub => {
                let report = tracer.span("store.scrub", || self.replicas.scrub());
                tracer.units("store.scrub", rows);
                if !report.healthy() || report.repaired != 0 {
                    return Err(format!("scrub of a clean set reported damage: {report:?}"));
                }
            }
            Maint::Tier => {
                let ledger = self.store_metrics.access.snapshot();
                let plan = TierPlan::default();
                let tiers = tracer.span("tier.classify", || {
                    let demands: Vec<u64> = (0..segments as u64)
                        .map(|s| ledger.get(&s).map_or(0, demand))
                        .collect();
                    classify(&demands, plan.hot_weight, plan.cold_weight)
                });
                tracer.units("tier.classify", segments as u64);
                let tiered = tracer.span("tier.build", || TieredSet::build(reader, &ledger, &plan));
                tracer.units("tier.build", segments as u64);
                if tiered.assignments() != tiers.as_slice() {
                    return Err("TieredSet::build disagrees with classify".into());
                }
            }
            Maint::Parity => {
                // Rotate over the groups of PARITY_K consecutive segments,
                // and over which member is lost.
                let groups = (segments / PARITY_K).max(1) as u64;
                let first = (self.parity_runs % groups) as usize * PARITY_K;
                let segs = reader.segments();
                let members: Vec<(u64, &[u8])> = (first..(first + PARITY_K).min(segments))
                    .map(|s| (s as u64, &segs[s].bytes()[..]))
                    .collect();
                let nth = (self.parity_runs / groups) as usize % members.len().max(1);
                self.parity_runs += 1;
                let lost = members.get(nth).ok_or("no segment to rebuild")?.0;
                let group = ParityGroup::build(&members).ok_or("no parity group to build")?;
                let survivors: Vec<(u64, &[u8])> = members
                    .iter()
                    .copied()
                    .filter(|&(s, _)| s != lost)
                    .collect();
                let rebuilt = tracer
                    .span("tier.parity", || group.reconstruct(lost, &survivors))
                    .ok_or("parity reconstruction failed")?;
                tracer.units("tier.parity", u64::from(segs[lost as usize].rows()));
                if rebuilt != segs[lost as usize].bytes()[..] {
                    return Err(format!(
                        "parity rebuild of segment {lost} is not byte-exact"
                    ));
                }
            }
            Maint::Flush => {
                tracer
                    .span("serve.flush", || self.live.flush(LIVE))
                    .map_err(|e| e.to_string())?;
                let admitted = self.live.admitted_rows(LIVE).map_err(|e| e.to_string())?;
                let sealed = self.live.snapshot(LIVE).map_err(|e| e.to_string())?.rows();
                let sent = self.ingested_rows - self.live_start;
                if admitted != sealed || admitted != sent {
                    return Err(format!(
                        "live tenant: {admitted} admitted, {sealed} in snapshot, {sent} sent"
                    ));
                }
            }
        }
        Ok(started.elapsed().as_secs_f64() * 1e3)
    }
}

/// Matches of a federated query among the first `rows` rows of the
/// held-back tail repeated end to end: ingest cycles through it in
/// order, so a live tenant that began at row `a` and holds `n` rows
/// matches `live_matches(p, a + n) - live_matches(p, a)`.
fn live_matches(prefix: &[u32], rows: u64) -> u64 {
    let held = prefix.len().saturating_sub(1) as u64;
    if held == 0 {
        return 0;
    }
    let full = u64::from(prefix[prefix.len() - 1]);
    (rows / held) * full + u64::from(prefix[(rows % held) as usize])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_composition_matches_its_documentation() {
        let count = |op: Op| ROUND.iter().filter(|&&o| o == op).count();
        let queries: Vec<usize> = Class::ALL.iter().map(|&c| count(Op::Query(c))).collect();
        // full, window, point, node, federated, report
        assert_eq!(queries, [1, 14, 4, 2, 4, 2]);
        assert_eq!(count(Op::Ingest), 8);
        assert_eq!(
            ROUND
                .iter()
                .filter(|o| matches!(o, Op::Maintain(_)))
                .count(),
            5
        );
    }

    #[test]
    fn live_matches_cycle_through_the_held_back_tail() {
        // Held-back tail of 4 rows, matches at rows 1 and 3.
        let prefix = [0, 0, 1, 1, 2];
        assert_eq!(live_matches(&prefix, 0), 0);
        assert_eq!(live_matches(&prefix, 2), 1);
        assert_eq!(live_matches(&prefix, 4), 2);
        assert_eq!(live_matches(&prefix, 10), 5);
        // A live tenant that began at row 2 and holds 4 rows: rows 2, 3, 0, 1.
        assert_eq!(live_matches(&prefix, 6) - live_matches(&prefix, 2), 2);
    }
}
