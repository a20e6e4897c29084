//! Property tests for the characterization: the streaming analyzer must
//! agree with brute-force oracles on arbitrary request streams.

use charisma_core::analyze::analyze;
use charisma_core::cdf::Cdf;
use charisma_core::sequential::{session_percent, Metric};
use charisma_ipsc::SimTime;
use charisma_trace::record::{AccessKind, EventBody};
use charisma_trace::OrderedEvent;
use proptest::prelude::*;

fn events_for(requests: &[(u16, u64, u32)]) -> Vec<OrderedEvent> {
    let mut events = Vec::with_capacity(requests.len() + 4);
    let mut nodes: Vec<u16> = requests.iter().map(|r| r.0).collect();
    nodes.sort_unstable();
    nodes.dedup();
    for (i, &n) in nodes.iter().enumerate() {
        events.push(OrderedEvent {
            time: SimTime::from_micros(i as u64),
            node: n,
            body: EventBody::Open {
                job: 1,
                file: 1,
                session: 1,
                mode: 0,
                access: AccessKind::Read,
                created: false,
            },
        });
    }
    for (i, &(node, offset, bytes)) in requests.iter().enumerate() {
        events.push(OrderedEvent {
            time: SimTime::from_micros(100 + i as u64),
            node,
            body: EventBody::Read {
                session: 1,
                offset,
                bytes,
            },
        });
    }
    events
}

/// Brute-force per-node sequential/consecutive percentages.
fn oracle(requests: &[(u16, u64, u32)], consecutive: bool) -> Option<f64> {
    let mut counted = 0u64;
    let mut hits = 0u64;
    let mut nodes: Vec<u16> = requests.iter().map(|r| r.0).collect();
    nodes.sort_unstable();
    nodes.dedup();
    for n in nodes {
        let mine: Vec<_> = requests.iter().filter(|r| r.0 == n).collect();
        for w in mine.windows(2) {
            counted += 1;
            let prev_end = w[0].1 + u64::from(w[0].2);
            let ok = if consecutive {
                w[1].1 == prev_end
            } else {
                w[1].1 > w[0].1
            };
            if ok {
                hits += 1;
            }
        }
    }
    (counted > 0).then(|| 100.0 * hits as f64 / counted as f64)
}

proptest! {
    /// The analyzer's sequential/consecutive percentages equal a
    /// brute-force recomputation for arbitrary interleaved multi-node
    /// request streams.
    #[test]
    fn sequentiality_matches_oracle(
        requests in proptest::collection::vec((0u16..4, 0u64..100_000, 1u32..5000), 0..120),
    ) {
        let events = events_for(&requests);
        let c = analyze(&events);
        if requests.is_empty() {
            return Ok(());
        }
        let s = &c.sessions[&1];
        for (metric, brute) in [
            (Metric::Sequential, oracle(&requests, false)),
            (Metric::Consecutive, oracle(&requests, true)),
        ] {
            let got = session_percent(s, metric);
            match (got, brute) {
                (Some(g), Some(b)) => prop_assert!((g - b).abs() < 1e-9, "{g} vs {b}"),
                (None, None) => {}
                other => return Err(TestCaseError::fail(format!("mismatch: {other:?}"))),
            }
        }
    }

    /// Distinct interval and request-size counts match brute force (with
    /// the 4+ saturation).
    #[test]
    fn regularity_matches_oracle(
        requests in proptest::collection::vec((0u16..3, 0u64..50_000, 1u32..4000), 0..100),
    ) {
        let events = events_for(&requests);
        let c = analyze(&events);
        if requests.is_empty() {
            return Ok(());
        }
        let s = &c.sessions[&1];
        // Brute-force interval set.
        let mut gaps = std::collections::HashSet::new();
        for n in 0u16..3 {
            let mine: Vec<_> = requests.iter().filter(|r| r.0 == n).collect();
            for w in mine.windows(2) {
                gaps.insert(w[1].1 as i64 - (w[0].1 + u64::from(w[0].2)) as i64);
            }
        }
        let sizes: std::collections::HashSet<u32> =
            requests.iter().map(|r| r.2).collect();
        prop_assert_eq!(s.intervals.distinct(), gaps.len().min(6));
        prop_assert_eq!(s.request_sizes.distinct(), sizes.len().min(6));
    }

    /// CDF queries agree with naive counting for arbitrary samples.
    #[test]
    fn cdf_matches_naive(samples in proptest::collection::vec(0u64..10_000, 1..300), probe in 0u64..10_000) {
        let mut cdf = Cdf::new();
        for &s in &samples {
            cdf.add(s);
        }
        cdf.seal();
        let naive = samples.iter().filter(|&&s| s <= probe).count() as f64
            / samples.len() as f64;
        prop_assert!((cdf.fraction_le(probe) - naive).abs() < 1e-9);
        // Quantile inverse: CDF(quantile(q)) >= q.
        for q in [0.1, 0.5, 0.9, 1.0] {
            let v = cdf.quantile(q).unwrap();
            prop_assert!(cdf.fraction_le(v) + 1e-9 >= q);
        }
    }

    /// The by-value accumulation seals to exactly the curve a reference
    /// sort-and-collapse over the raw samples gives, for integer weights
    /// in any insertion order.
    #[test]
    fn cdf_by_value_matches_sort_and_collapse(
        samples in proptest::collection::vec((0u64..64, 0u32..100_000), 0..400),
        probe in 0u64..70,
    ) {
        let mut cdf = Cdf::new();
        for &(v, w) in &samples {
            cdf.add_weighted(v, f64::from(w));
        }
        cdf.seal();

        let mut sorted = samples.clone();
        sorted.sort_by_key(|&(v, _)| v);
        let mut reference: Vec<(u64, f64)> = Vec::new();
        for &(v, w) in &sorted {
            match reference.last_mut() {
                Some((lv, lw)) if *lv == v => *lw += f64::from(w),
                _ => reference.push((v, f64::from(w))),
            }
        }
        let mut acc = 0.0;
        for p in &mut reference {
            acc += p.1;
            p.1 = acc;
        }
        let total: f64 = samples.iter().map(|&(_, w)| f64::from(w)).sum();

        prop_assert_eq!(cdf.total(), total);
        prop_assert_eq!(cdf.distinct(), reference.len());
        let scale = total.max(f64::MIN_POSITIVE);
        let want_curve: Vec<(u64, f64)> = reference.iter().map(|&(v, a)| (v, a / scale)).collect();
        prop_assert_eq!(cdf.curve().collect::<Vec<_>>(), want_curve);
        let want_le = if total == 0.0 {
            0.0
        } else {
            reference
                .iter()
                .rev()
                .find(|&&(v, _)| v <= probe)
                .map_or(0.0, |&(_, a)| a / total)
        };
        prop_assert_eq!(cdf.fraction_le(probe), want_le);
        for q in [0.1, 0.5, 0.9, 1.0] {
            let want_q = if total == 0.0 {
                None
            } else {
                reference
                    .iter()
                    .find(|&&(_, a)| a + 1e-9 >= q * total)
                    .map(|&(v, _)| v)
            };
            prop_assert_eq!(cdf.quantile(q), want_q);
        }
        let want_mean = if total == 0.0 {
            0.0
        } else {
            let (mut prev, mut sum) = (0.0, 0.0);
            for &(v, a) in &reference {
                sum += v as f64 * (a - prev);
                prev = a;
            }
            sum / total
        };
        prop_assert_eq!(cdf.mean(), want_mean);
    }

    /// Sharing percentages are well-defined: bounded to [0, 100], present
    /// exactly when two nodes accessed the file, and any byte sharing
    /// implies some block sharing.
    #[test]
    fn sharing_percentages_are_consistent(
        requests in proptest::collection::vec((0u16..2, 0u64..200_000, 1u32..9000), 2..80),
    ) {
        use charisma_core::sharing::{shared_percent, Granularity};
        let both_nodes = requests.iter().any(|r| r.0 == 0) && requests.iter().any(|r| r.0 == 1);
        let events = events_for(&requests);
        let c = analyze(&events);
        let s = &c.sessions[&1];
        let bytes = shared_percent(s, Granularity::Bytes);
        let blocks = shared_percent(s, Granularity::Blocks);
        if !both_nodes {
            prop_assert_eq!(bytes, None);
            return Ok(());
        }
        let (Some(by), Some(bl)) = (bytes, blocks) else {
            return Err(TestCaseError::fail("expected sharing data"));
        };
        prop_assert!((0.0..=100.0).contains(&by));
        prop_assert!((0.0..=100.0).contains(&bl));
        if by > 0.0 {
            prop_assert!(bl > 0.0, "byte sharing implies block sharing");
        }
    }
}
