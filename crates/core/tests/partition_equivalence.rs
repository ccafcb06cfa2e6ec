//! The foundation of rule-partitioned residual execution, as a property:
//! rules are mutually independent detection trees over a shared stream
//! (§4.3's merged graph shares structure, never state across roots), so
//! **any** partition of a rule set — not just the merge-aware one the
//! pipeline computes — run as one engine per part over the full stream,
//! fires exactly the union of the rules' firings, each as the reference
//! interpreter (`support/reference.rs`) matches it on its own.

mod differential;
mod support;

use differential::{trace, Case, Feed};
use proptest::prelude::*;
use rceda::ObserveLevel;
use support::shapes;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The mixed rule set (`support/shapes.rs`) mixes every execution plan
    /// the partitions can cut across: self-joins, negation waits, keyless
    /// chronicle joins, and global runs.
    #[test]
    fn any_partition_preserves_the_union_of_firings(
        assignment in proptest::collection::vec(0usize..4, shapes::mixed().len())
    ) {
        let case = trace(1_500).case(shapes::mixed());
        let mut union = Vec::new();
        for part in 0..4usize {
            let members: Vec<usize> = (0..case.rules.len())
                .filter(|&i| assignment[i] == part)
                .collect();
            let rules = members.iter().map(|&i| case.rules[i].clone()).collect();
            let part = Case::new(case.catalog, rules, case.stream);
            let (fired, _) = part.run(Feed::Scalar, ObserveLevel::Off);
            union.extend(fired.into_iter().map(|(rule, inst)| (members[rule as usize] as u32, inst)));
        }
        assert!(!union.is_empty(), "the workload must fire rules");
        case.check(&union);
    }
}
