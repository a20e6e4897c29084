//! Integration tests for the `Pipeline` facade: the sharded parallel run
//! must be indistinguishable from the serial run, and bad configurations
//! must fail loudly instead of producing a quietly wrong study.

use charisma::prelude::*;

/// FNV-1a over an event stream's identity-relevant fields.
fn stream_hash(events: &[OrderedEvent]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in events {
        mix(&e.time.as_micros().to_le_bytes());
        mix(&e.node.to_le_bytes());
        mix(format!("{:?}", e.body).as_bytes());
    }
    hash
}

#[test]
fn worker_count_is_invisible_in_events_and_report() {
    let run = |workers: usize| {
        Pipeline::new()
            .scale(0.02)
            .seed(4994)
            .shards(workers)
            .collect_events()
            .run()
            .expect("valid config")
    };
    let serial = run(1);
    let serial_hash = stream_hash(&serial.events);
    let serial_report = serial.report.render();

    for workers in [2, 8] {
        let parallel = run(workers);
        assert_eq!(
            stream_hash(&parallel.events),
            serial_hash,
            "event stream changed with {workers} workers"
        );
        assert_eq!(
            parallel.report.render(),
            serial_report,
            "analysis changed with {workers} workers"
        );
        assert_eq!(parallel.events.len(), serial.events.len());
    }
}

#[test]
fn seeds_change_the_stream() {
    let run = |seed: u64| {
        Pipeline::new()
            .scale(0.02)
            .seed(seed)
            .collect_events()
            .run()
            .unwrap()
    };
    let (a, b) = (run(1), run(2));
    assert_ne!(stream_hash(&a.events), stream_hash(&b.events));
}

#[test]
fn output_is_internally_consistent() {
    let out = Pipeline::new()
        .scale(0.02)
        .shards(4)
        .collect_events()
        .run()
        .unwrap();
    assert_eq!(out.events.len(), out.workload.event_count());
    assert!(out.stats().jobs > 10);
    // The merged stream is globally ordered.
    for w in out.events.windows(2) {
        assert!((w[0].time, w[0].node) <= (w[1].time, w[1].node));
    }
}

#[test]
fn invalid_scale_is_rejected() {
    for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        match Pipeline::new().scale(bad).run() {
            Err(err @ charisma::Error::InvalidScale(_)) => {
                assert!(err.to_string().contains("scale"));
            }
            Err(err) => panic!("scale {bad} gave wrong error: {err}"),
            Ok(_) => panic!("scale {bad} was accepted"),
        }
    }
}

#[test]
fn zero_shards_is_rejected() {
    match Pipeline::new().scale(0.01).shards(0).run() {
        Err(charisma::Error::InvalidShards(0)) => {}
        Err(err) => panic!("wrong error: {err}"),
        Ok(_) => panic!("zero shards was accepted"),
    }
}
