//! Shard-merged telemetry ≡ single-engine telemetry: for any program of
//! object-shardable rules, the per-node metrics arena summed across keyed
//! shards must equal the arena of one engine that processed the whole
//! stream, and the shard-summed counter stats must match exactly.
//!
//! This is the observability analogue of the firing-equivalence suites:
//! keyed sharding partitions the stream by object, every shard compiles
//! the identical plan, and each counter is incremented per (observation,
//! node) independently of which engine holds the key — so the sums are
//! exact, not approximate. Prune counters are the one column the
//! equivalence excludes: each shard sweeps at its own batch boundaries,
//! and an entry one engine prunes in a sweep another discards at probe
//! time.

mod differential;
mod support;

use differential::{trace, Feed};
use proptest::prelude::*;
use rceda::{EngineConfig, ObserveLevel, ShardConfig};
use support::shapes::{self, WINDOWS};

/// The object-shardable shapes of the pool: the duplicate filter, the
/// `AND NOT` and right-negation waits, and the keyed two-sided join. Every
/// rule keys on the object EPC, so the keyed-shard pipeline runs with no
/// residual broadcast workers and the per-shard streams partition the
/// input exactly.
const KEYED: [usize; 4] = [0, 2, 5, 7];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Keyed sharding preserves both the firing multiset and the summed
    /// telemetry: node-for-node arena counts and the shard-sum-exact
    /// counter stats equal the single-engine run on the same stream.
    #[test]
    fn shard_merged_telemetry_equals_single_engine(
        program in proptest::collection::vec((0usize..KEYED.len(), 0usize..WINDOWS.len()), 1..=4)
    ) {
        let draws: Vec<_> = program.iter().map(|&(idx, w)| (KEYED[idx], w)).collect();
        let case = trace(1_500).case(shapes::program(&draws));
        let (single_firings, mut single) = case.run(Feed::Scalar, ObserveLevel::Counters);
        let config = ShardConfig {
            shards: 2,
            residual_workers: 1,
            batch_size: 32,
            engine: EngineConfig {
                observe: ObserveLevel::Counters,
                ..EngineConfig::default()
            },
            ..ShardConfig::default()
        };
        let (sharded_firings, sharded) = case.run_sharded(config);
        // Both fire what the reference fires, so they fire alike.
        case.check(&single_firings);
        case.check(&sharded_firings);
        let (single, sharded) = (single.telemetry(), sharded.telemetry().expect("counters level"));

        // Counter stats sum exactly across the partitioned streams — all
        // but `events`, which counts deliveries: a shard is not handed the
        // observations of readers none of its rules names.
        prop_assert!(sharded.stats.events <= single.stats.events);
        prop_assert!(sharded.stats.events >= sharded.stats.matched_events);
        prop_assert_eq!(single.stats.matched_events, sharded.stats.matched_events);
        prop_assert_eq!(single.stats.occurrences, sharded.stats.occurrences);
        prop_assert_eq!(single.stats.rule_firings, sharded.stats.rule_firings);
        prop_assert_eq!(single.stats.pseudo_scheduled, sharded.stats.pseudo_scheduled);
        prop_assert_eq!(single.stats.pseudo_fired, sharded.stats.pseudo_fired);

        // Every shard compiled the identical plan, so the merged arena
        // aligns node-for-node with the single engine's.
        prop_assert_eq!(
            single.ops.clone(),
            sharded.ops.clone(),
            "merged snapshot keeps the shared plan's op names"
        );
        prop_assert_eq!(single.nodes.len(), sharded.nodes.len());
        for node in 0..single.nodes.len() {
            let (mut one, mut merged) = (single.nodes.node(node), sharded.nodes.node(node));
            (one.prunes, merged.prunes) = (0, 0);
            prop_assert_eq!(
                one,
                merged,
                "node {} ({}) counters diverged",
                node,
                single.ops.get(node).copied().unwrap_or("?")
            );
        }
    }
}
