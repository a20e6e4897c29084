//! Synthetic production workload, calibrated to the CHARISMA paper.
//!
//! The NASA Ames traces were never released, so this crate substitutes a
//! *generator*: a job-mix model plus a library of application templates
//! whose generated trace reproduces the paper's published statistics —
//! job concurrency (Fig 1), node counts (Fig 2), file sizes (Fig 3),
//! request sizes (Fig 4), sequentiality (Figs 5-6), interval/request-size
//! regularity (Tables 2-3), I/O-mode usage (§4.6), sharing (Fig 7), and the
//! file census of §4.2. The cache experiments (Figs 8-9) are *not* fitted:
//! they are predictions from this workload's locality structure.
//!
//! * [`params`] — every calibrated constant, annotated with its paper
//!   target;
//! * [`program`] — the per-node op programs jobs execute;
//! * [`apps`] — application templates (CFD solvers, post-processors,
//!   broadcast readers, the out-of-core oddball, ...);
//! * [`mix`] — the job arrival/sizing model;
//! * [`generate`] — the discrete-event executor that runs the mix on the
//!   simulated machine + CFS and emits a CHARISMA trace;
//! * [`shard`] — the sharded parallel driver: partition the mix into
//!   logical shards, simulate them on worker threads, merge
//!   deterministically.

pub mod apps;
pub mod generate;
pub mod mix;
pub mod params;
pub mod program;
pub mod shard;

pub use generate::{generate, GenStats, GeneratedWorkload, GeneratorConfig};
pub use mix::{JobClass, JobPlan, Mix};
pub use program::{FileSlot, Op, Program};
pub use shard::{
    generate_sharded, try_generate_rectified, try_generate_sharded, RectifiedWorkload,
    ShardFailure, ShardedWorkload, WorkloadSummary, LOGICAL_SHARDS,
};
