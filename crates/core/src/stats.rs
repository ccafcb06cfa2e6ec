//! Engine counters, used by tests, benches, and EXPERIMENTS.md tables.
//!
//! Every statistic is classified once, in the [`engine_stats!`] field table
//! below, as either a [`StatKind::Counter`] (monotone rate — merges by
//! summing) or a [`StatKind::Gauge`] (point-in-time level — merges by
//! maximum). `merge` is generated from that table, so a new field cannot
//! silently repeat the `retained_keys` sum-vs-max bug: adding it forces a
//! kind choice, and the audit test checks the merge against the table.

/// How a statistic combines across shards/workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatKind {
    /// A monotone throughput counter: merging sums the contributions.
    Counter,
    /// A point-in-time level (high-water mark or working-set size): merging
    /// takes the maximum, since summing a gauge over shards that observe
    /// overlapping state double-counts it.
    Gauge,
    /// One bucket of a log2 histogram ([`crate::obs::Histogram`]): a
    /// monotone sample population, so merging sums like a counter. Kept as
    /// its own kind so exports can tell distributions from plain rates and
    /// the merge audit covers histogram semantics explicitly.
    Histogram,
}

impl StatKind {
    /// Combines two observations of the same statistic.
    pub fn combine(self, a: u64, b: u64) -> u64 {
        match self {
            StatKind::Counter | StatKind::Histogram => a + b,
            StatKind::Gauge => a.max(b),
        }
    }
}

/// Declares [`EngineStats`]: one line per field with its merge kind. The
/// struct, the [`EngineStats::FIELDS`] table, [`EngineStats::merge`], and
/// the by-name accessor are all generated from this single list.
macro_rules! engine_stats {
    ($($(#[$doc:meta])* $field:ident : $kind:ident,)+) => {
        /// Counters and gauges the engine maintains while detecting.
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct EngineStats {
            $($(#[$doc])* pub $field: u64,)+
        }

        impl EngineStats {
            /// The single source of truth: every statistic's name and merge
            /// kind, in declaration order.
            pub const FIELDS: &'static [(&'static str, StatKind)] =
                &[$((stringify!($field), StatKind::$kind),)+];

            /// Combines two stat sets field-by-field according to each
            /// field's [`StatKind`]: counters add, gauges take the maximum.
            /// Merging is associative and commutative with
            /// [`EngineStats::default`] as identity, so per-shard stats can
            /// be folded in any order.
            #[must_use]
            pub fn merge(self, other: EngineStats) -> EngineStats {
                EngineStats {
                    $($field: StatKind::$kind.combine(self.$field, other.$field),)+
                }
            }

            /// Value of a field by its [`EngineStats::FIELDS`] name.
            pub fn get(&self, field: &str) -> Option<u64> {
                match field {
                    $(stringify!($field) => Some(self.$field),)+
                    _ => None,
                }
            }
        }
    };
}

engine_stats! {
    /// Primitive observations processed. Summed over the partitions of the
    /// sharded path this is observations *delivered*: one handed to two
    /// partitions counts twice, one no partition subscribes to not at all.
    events: Counter,
    /// Primitive observations that matched at least one leaf pattern.
    matched_events: Counter,
    /// Pseudo events scheduled.
    pseudo_scheduled: Counter,
    /// Pseudo events executed.
    pseudo_fired: Counter,
    /// Complex event occurrences emitted (all nodes, pre-rule fan-out).
    occurrences: Counter,
    /// Rule firings delivered to the sink.
    rule_firings: Counter,
    /// Instances evicted by the unbounded-buffer cap.
    capacity_drops: Counter,
    /// Buffer sweep passes performed.
    sweeps: Counter,
    /// Observation batches shipped to partitions. Only the sharded path
    /// ([`crate::shard::ShardedEngine`]) batches; zero single-threaded.
    batches: Counter,
    /// Deepest partition inbox observed, in batches (at most
    /// `ShardConfig::queue_depth`). Zero single-threaded.
    max_queue_depth: Gauge,
    /// Correlation keys currently retained in negation histories — the
    /// working set [`crate::state::NegationState::prune`] bounds. A gauge,
    /// snapshotted by `Engine::stats`; merging takes the per-shard maximum
    /// (broadcast workers retain overlapping key sets, so a sum would
    /// double-count the same keys).
    retained_keys: Gauge,
    /// Total instances currently held in join buffers, negation histories,
    /// aperiodic stores, open runs, and waits — the working-set gauge the
    /// solved retention bounds ([`crate::bounds`]) keep flat. Snapshotted
    /// by `Engine::stats`.
    buffered_entries: Gauge,
    /// Correlation keys currently indexed by join-side buffers (both sides
    /// of every two-sided node). Like `retained_keys`, but for joins.
    join_keys: Gauge,
    /// Pool threads serving the broadcast (rule-partitioned) partitions of
    /// the sharded pipeline — threads, not partitions. A gauge set by
    /// `ShardedEngine::stats`; zero single-threaded.
    residual_workers: Gauge,
    /// Nodes in the compiled execution plan (`crate::plan::CompiledPlan`),
    /// as of the last compile. Merging takes the maximum: the largest
    /// per-worker compiled slice, not the sum of overlapping slices.
    plan_nodes: Gauge,
    /// Bytes held by the compiled plan's flat arenas (tags, edges, rules,
    /// dispatch rows), as of the last compile. A gauge like `plan_nodes`.
    plan_arena_bytes: Gauge,
    /// Deepest open `TSEQ+` run observed, in elements — the high-water mark
    /// of the inline run buffers (`crate::plan::InlineBuf`).
    max_run_depth: Gauge,
    /// Run-buffer pushes that overflowed the inline capacity into the heap
    /// spill; nonzero means `crate::state::RUN_INLINE` is undersized for
    /// the workload.
    run_spills: Counter,
    /// Calls to `Engine::process_batch` with a non-empty batch; an
    /// `Engine::process` call counts as a batch of one.
    batches_processed: Counter,
    /// Batch-boundary sweep checks that found no due expiry deadline and
    /// therefore pruned nothing and visited no node.
    sweeps_skipped: Counter,
    /// Observations behind the engine clock, rejected unmatched and not
    /// counted in `events`.
    late_rejected: Counter,
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "events={} matched={} pseudo={}/{} occurrences={} firings={} drops={} sweeps={} \
             batches={} qdepth={} negkeys={} buffered={} joinkeys={} rworkers={} plan={}n/{}B \
             rundepth={} spills={} pbatches={} sweepskip={} late={}",
            self.events,
            self.matched_events,
            self.pseudo_fired,
            self.pseudo_scheduled,
            self.occurrences,
            self.rule_firings,
            self.capacity_drops,
            self.sweeps,
            self.batches,
            self.max_queue_depth,
            self.retained_keys,
            self.buffered_entries,
            self.join_keys,
            self.residual_workers,
            self.plan_nodes,
            self.plan_arena_bytes,
            self.max_run_depth,
            self.run_spills,
            self.batches_processed,
            self.sweeps_skipped,
            self.late_rejected,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> EngineStats {
        // Distinct values per field so a mis-mapped merge shows up.
        EngineStats {
            events: seed,
            matched_events: seed + 1,
            pseudo_scheduled: seed + 2,
            pseudo_fired: seed + 3,
            occurrences: seed + 4,
            rule_firings: seed + 5,
            capacity_drops: seed + 6,
            sweeps: seed + 7,
            batches: seed + 8,
            max_queue_depth: seed / 10,
            retained_keys: seed + 9,
            buffered_entries: seed / 6,
            join_keys: seed / 7,
            residual_workers: seed / 5,
            plan_nodes: seed / 2,
            plan_arena_bytes: seed / 3,
            max_run_depth: seed / 4,
            run_spills: seed + 10,
            batches_processed: seed + 11,
            sweeps_skipped: seed + 12,
            late_rejected: seed + 13,
        }
    }

    #[test]
    fn merge_is_associative_with_identity() {
        let (a, b, c) = (sample(10), sample(200), sample(3_000));
        assert_eq!(a.merge(b).merge(c), a.merge(b.merge(c)));
        assert_eq!(a.merge(b), b.merge(a), "and commutative");
        assert_eq!(
            a.merge(EngineStats::default()),
            a,
            "default is the identity"
        );
        assert_eq!(EngineStats::default().merge(a), a);
    }

    #[test]
    fn merge_sums_rates_and_maxes_depth() {
        let merged = sample(10).merge(sample(200));
        assert_eq!(merged.events, 210);
        assert_eq!(merged.rule_firings, 220);
        assert_eq!(
            merged.max_queue_depth, 20,
            "high-water mark takes the max, not the sum"
        );
    }

    /// Audit of the gauge/counter split, driven by the field table itself:
    /// every counter (monotone rate) must merge as a sum, every gauge
    /// (point-in-time level) as a max. A gauge that sums double-counts
    /// state observed by several shards — exactly the bug this test exists
    /// to catch.
    #[test]
    fn merge_audit_gauges_max_counters_sum() {
        let (a, b) = (sample(40), sample(300));
        let merged = a.merge(b);
        for &(name, kind) in EngineStats::FIELDS {
            let (va, vb) = (a.get(name).unwrap(), b.get(name).unwrap());
            let expected = match kind {
                StatKind::Counter | StatKind::Histogram => va + vb,
                StatKind::Gauge => va.max(vb),
            };
            assert_eq!(
                merged.get(name).unwrap(),
                expected,
                "field `{name}` must merge as a {kind:?}"
            );
        }
    }

    /// The histogram kind, used by [`crate::obs::Histogram`] bucket
    /// populations, merges like a counter (bucket counts over disjoint
    /// samples sum) — and bucket-wise merging under this kind must equal
    /// summing each bucket.
    #[test]
    fn histogram_kind_sums_bucketwise() {
        assert_eq!(StatKind::Histogram.combine(3, 4), 7);
        assert_eq!(StatKind::Histogram.combine(0, 9), 9);
        let mut a = crate::obs::Histogram::default();
        let mut b = crate::obs::Histogram::default();
        for v in [0u64, 2, 2, 70] {
            a.record(v);
        }
        for v in [2u64, 1 << 40] {
            b.record(v);
        }
        let mut merged = a;
        merged.merge_from(&b);
        for i in 0..crate::obs::HIST_BUCKETS {
            assert_eq!(
                merged.buckets[i],
                StatKind::Histogram.combine(a.buckets[i], b.buckets[i]),
                "bucket {i} must merge under StatKind::Histogram"
            );
        }
        assert_eq!(merged.count, a.count + b.count);
    }

    /// The classification itself: the stats every shard observes about the
    /// *same* shared resource (queues, retained key sets, worker pools) are
    /// gauges; everything that counts disjoint work is a counter.
    #[test]
    fn field_table_pins_the_classification() {
        let gauges: Vec<&str> = EngineStats::FIELDS
            .iter()
            .filter(|(_, k)| *k == StatKind::Gauge)
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(
            gauges,
            [
                "max_queue_depth",
                "retained_keys",
                "buffered_entries",
                "join_keys",
                "residual_workers",
                "plan_nodes",
                "plan_arena_bytes",
                "max_run_depth",
            ],
            "re-classifying a field is a semantic change: update this test \
             and the EXPERIMENTS.md tables together"
        );
        assert_eq!(EngineStats::FIELDS.len(), 21);
    }
}
