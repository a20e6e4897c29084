//! Cache-policy study: LRU vs FIFO vs the paper's proposed
//! interprocess-locality-aware policy.
//!
//! The paper's §5 recommends that "replacement policies other than LRU or
//! FIFO should be developed … to optimize for interprocess locality rather
//! than traditional spatial and temporal locality". `Policy::Ipl`
//! implements that idea (evict blocks whose bytes have been fully
//! consumed); this example measures all three on the same generated trace.
//!
//! ```text
//! cargo run --release --example cache_study
//! ```

use charisma::cachesim::{io_cache_sim, Policy, SessionIndex};
use charisma::prelude::*;

fn main() -> Result<(), charisma::Error> {
    println!("Generating trace (10% scale, 4 workers)...");
    let out = Pipeline::new()
        .scale(0.10)
        .seed(4994)
        .shards(4)
        .collect_events()
        .run()?;
    let events = out.events;
    let index = SessionIndex::build(&events);
    println!("  {} events\n", events.len());

    println!("I/O-node cache hit rate, 10 I/O nodes (requests fully satisfied):");
    println!(
        "  {:>8}  {:>7}  {:>7}  {:>7}",
        "buffers", "LRU", "FIFO", "IPL"
    );
    for buffers in [50usize, 100, 200, 400, 800, 1600] {
        let mut rates = Vec::new();
        for policy in [Policy::Lru, Policy::Fifo, Policy::Ipl] {
            let r = io_cache_sim(&events, &index, 10, buffers, policy);
            rates.push(r.hit_rate());
        }
        println!(
            "  {:>8}  {:>6.1}%  {:>6.1}%  {:>6.1}%",
            buffers,
            100.0 * rates[0],
            100.0 * rates[1],
            100.0 * rates[2]
        );
    }
    println!(
        "\nThe IPL policy frees buffers as soon as interleaved readers have\n\
         consumed them, which helps most when buffers are scarce — exactly\n\
         the regime the 4 MB I/O nodes of the iPSC/860 lived in."
    );

    // The compute-node side (Figure 8): one buffer is nearly as good as
    // fifty, because the workload has spatial, not temporal, locality.
    println!("\nCompute-node cache (read-only files, per-node buffers):");
    for buffers in [1usize, 10, 50] {
        let r = compute_cache_sim(&events, &index, buffers);
        println!(
            "  {:>2} buffer(s): overall {:>5.1}%, {:>4.1}% of jobs above 75%",
            buffers,
            100.0 * r.hit_rate(),
            100.0 * r.fraction_of_jobs_above(0.75)
        );
    }
    Ok(())
}
