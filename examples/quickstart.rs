//! Quick start: run the whole study — a scaled-down three-week workload,
//! its CHARISMA trace, and the paper's full characterization — through the
//! `Pipeline` facade.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use charisma::prelude::*;

fn main() -> Result<(), charisma::Error> {
    // 5% of the paper's job population — a few seconds of work. The
    // workload generates on 4 worker threads; the output is bit-identical
    // to a serial run (`.shards(1)`), so thread count is purely a speed knob.
    let scale = 0.05;
    println!("Generating {scale}x of the NASA Ames workload on 4 workers...");
    let out = Pipeline::new().scale(scale).seed(4994).shards(4).run()?;

    let stats = out.stats();
    println!(
        "  {} jobs ran, {} file sessions, {} I/O requests",
        stats.jobs, stats.sessions, stats.requests
    );
    println!(
        "  trace buffering saved {:.1}% of collection messages (paper: >90%)",
        100.0 * stats.message_reduction
    );
    println!(
        "  {} trace records rectified and merged\n",
        out.workload.event_count()
    );

    // Every table and figure of the paper's section 4.
    println!("{}", out.report.render());
    Ok(())
}
