//! Property tests for the tiering policy: classification symmetry,
//! parity round-trips, and the layout-not-format promise.
//!
//! Three theorems, one per satellite claim:
//! * **Classification is permutation-invariant in the ledger** — a
//!   segment's tier depends on its own demand and the demand
//!   *distribution*, never on ledger order or the scan order that built
//!   it (all ledger merges are commutative).
//! * **Parity round-trips under arbitrary geometries** — for any ragged
//!   set of member blobs, XOR parity reconstructs every single lost
//!   member byte-exactly.
//! * **Tiering is layout, not format** — no sequence of replica-factor
//!   changes, and no tier plan, changes the canonical archive bytes a
//!   clean (or losslessly degraded) reader serializes to; the pinned
//!   `archive_hash.txt` fixture stays valid under any policy.

use std::collections::BTreeMap;

use charisma_ipsc::SimTime;
use charisma_store::{
    write_archive, AccessLedger, Archive, ArchiveMeta, ParityGroup, ReplicaConfig, ReplicaSet,
    SegmentAccess,
};
use charisma_tier::{classify, demand, Tier, TierPlan, TieredSet};
use charisma_trace::record::EventBody;
use charisma_trace::OrderedEvent;
use proptest::prelude::*;

const META: ArchiveMeta = ArchiveMeta {
    seed: 4994,
    scale: 0.05,
};

/// Short ordered streams (reads only: parity cares about bytes, not
/// record semantics), enough rows for several small segments.
fn arb_stream() -> impl Strategy<Value = Vec<OrderedEvent>> {
    proptest::collection::vec((0u64..100_000, 0u16..8, any::<u32>()), 1..400).prop_map(|raw| {
        let mut events: Vec<OrderedEvent> = raw
            .into_iter()
            .map(|(t, node, bytes)| OrderedEvent {
                time: SimTime::from_micros(t),
                node,
                body: EventBody::Read {
                    session: node.into(),
                    offset: t,
                    bytes,
                },
            })
            .collect();
        events.sort_by_key(|e| (e.time, e.node));
        events
    })
}

/// A permutation of `0..n`, derived by sorting random keys.
fn arb_permutation(n: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(any::<u64>(), n).prop_map(|keys| {
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by_key(|&i| (keys[i], i));
        order
    })
}

proptest! {
    /// Classifying a permuted demand vector permutes the assignment
    /// vector the same way: no segment's tier depends on where in the
    /// ledger it sits.
    #[test]
    fn classification_is_permutation_equivariant(
        demands in proptest::collection::vec(0u64..10_000, 1..64),
        weights in (1u32..5, 1u32..8),
        perm_keys in proptest::collection::vec(any::<u64>(), 64),
    ) {
        let (hot_w, cold_w) = weights;
        let mut order: Vec<usize> = (0..demands.len()).collect();
        order.sort_by_key(|&i| (perm_keys[i % perm_keys.len()], i));
        let base = classify(&demands, hot_w, cold_w);
        let permuted: Vec<u64> = order.iter().map(|&i| demands[i]).collect();
        let got = classify(&permuted, hot_w, cold_w);
        for (slot, &src) in order.iter().enumerate() {
            prop_assert_eq!(got[slot], base[src], "slot {} (was {})", slot, src);
        }
    }

    /// Feeding the ledger the same scans in any order yields the same
    /// ledger, hence the same classification: every merge the ledger
    /// does is commutative.
    #[test]
    fn ledger_scan_order_never_changes_assignments(
        scans in proptest::collection::vec(
            (proptest::collection::vec((0u64..24, 0u64..2000), 0..6), any::<u64>()),
            1..24,
        ),
        order in arb_permutation(24),
    ) {
        let forward = AccessLedger::default();
        for (touched, mask) in &scans {
            forward.record_scan(touched, *mask);
        }
        let shuffled = AccessLedger::default();
        for &i in order.iter().filter(|&&i| i < scans.len()) {
            let (touched, mask) = &scans[i];
            shuffled.record_scan(touched, *mask);
        }
        let tiers = |ledger: &AccessLedger| -> Vec<Tier> {
            let snap: BTreeMap<u64, SegmentAccess> = ledger.snapshot();
            let demands: Vec<u64> = (0..24u64)
                .map(|s| snap.get(&s).map_or(0, demand))
                .collect();
            classify(&demands, 2, 4)
        };
        prop_assert_eq!(forward.snapshot(), shuffled.snapshot());
        prop_assert_eq!(tiers(&forward), tiers(&shuffled));
    }

    /// XOR parity rebuilds any single lost member byte-exactly, for any
    /// member count, any ragged lengths (empty members included), and
    /// any segment ids.
    #[test]
    fn parity_round_trips_arbitrary_geometries(
        blobs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..300), 1..9),
        id_salt in any::<u32>(),
    ) {
        let members: Vec<(u64, &[u8])> = blobs
            .iter()
            .enumerate()
            .map(|(i, b)| (i as u64 * 13 + u64::from(id_salt), b.as_slice()))
            .collect();
        let group = ParityGroup::build(&members).expect("non-empty member list");
        for lost in 0..members.len() {
            let survivors: Vec<(u64, &[u8])> = members
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != lost)
                .map(|(_, &m)| m)
                .collect();
            let rebuilt = group.reconstruct(members[lost].0, &survivors);
            prop_assert_eq!(rebuilt.as_deref(), Some(&blobs[lost][..]), "member {}", lost);
        }
    }

    /// Replica-factor changes — raw on a `ReplicaSet` or via a full
    /// policy run — never alter the canonical archive bytes a lossless
    /// reader serializes to. Tiering is layout, not format.
    #[test]
    fn factor_changes_never_alter_canonical_bytes(
        events in arb_stream(),
        seed in any::<u64>(),
        tweaks in proptest::collection::vec((0usize..64, 1u32..6), 0..12),
        weights in (1u32..5, 1u32..8),
    ) {
        let bytes = write_archive(&events, META);
        let archive = Archive::from_bytes(bytes.clone()).expect("canonical bytes parse");

        // Raw factor surgery, in arbitrary order.
        let mut set = ReplicaSet::place(archive.reader(), ReplicaConfig::default(), seed);
        for &(seg_pick, factor) in &tweaks {
            set.set_replica_factor(seg_pick % set.segment_count(), factor);
        }
        let (reader, failovers) = set.failover_reader().expect("undamaged set reads");
        prop_assert_eq!(failovers, 0);
        prop_assert_eq!(reader.to_bytes(), bytes.clone());

        // A full policy run over a ledger fed by a real scan.
        let (hot_w, cold_w) = weights;
        let ledger = AccessLedger::default();
        ledger.record_scan(&[(0, 7)], u64::MAX);
        let plan = TierPlan { hot_weight: hot_w, cold_weight: cold_w, ..TierPlan::default() };
        let tiered = TieredSet::build(archive.reader(), &ledger.snapshot(), &plan);
        let (reader, report) = tiered.degraded_reader().expect("healthy tiered set reads");
        prop_assert_eq!(report.failovers, 0);
        prop_assert_eq!(report.reconstructed, 0);
        prop_assert_eq!(reader.to_bytes(), bytes);
    }
}
