//! The foundation of rule-partitioned residual execution, as a property:
//! rules are mutually independent detection trees over a shared stream
//! (§4.3's merged graph shares structure, never state across roots), so
//! **any** partition of a rule set — not just the merge-aware one the
//! pipeline computes — run as one engine per part over the full stream,
//! fires exactly the union of the rules' firings, each as the reference
//! interpreter (`support/reference.rs`) matches it on its own.

mod support;

use std::sync::OnceLock;

use proptest::prelude::*;
use rceda::engine::{Engine, EngineConfig, RuleId};
use rfid_events::{EventExpr, Instance, Observation, Span};
use rfid_simulator::{SimConfig, SupplyChain};
use support::reference::{self, Fingerprint};

/// Rule pool mixing every execution plan the partitions can cut across:
/// self-joins, negation waits, keyless chronicle joins, and global runs.
fn rules() -> Vec<(&'static str, EventExpr)> {
    let dup = EventExpr::observation()
        .bind_reader("r")
        .bind_object("o")
        .seq(EventExpr::observation().bind_reader("r").bind_object("o"))
        .within(Span::from_secs(5));
    let missing = EventExpr::observation_in_group("shelves")
        .bind_object("o")
        .not()
        .seq(EventExpr::observation_in_group("shelves").bind_object("o"))
        .within(Span::from_secs(2));
    let and_neg = EventExpr::observation_in_group("pos")
        .bind_object("o")
        .and(
            EventExpr::observation_in_group("exits")
                .bind_object("o")
                .not(),
        )
        .within(Span::from_secs(3));
    let keyless = EventExpr::observation_in_group("docks")
        .seq(EventExpr::observation_in_group("pos"))
        .within(Span::from_secs(10));
    let run = EventExpr::observation_in_group("shelves")
        .tseq_plus(Span::ZERO, Span::from_millis(1_500))
        .within(Span::from_secs(30));
    vec![
        ("dup", dup),
        ("missing", missing),
        ("and-neg", and_neg),
        ("keyless", keyless),
        ("run", run),
    ]
}

struct Fixture {
    sim: SupplyChain,
    stream: Vec<Observation>,
    reference: Vec<Fingerprint>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let sim = SupplyChain::build(SimConfig::default());
        let stream = sim.generate(1_500).observations;
        let events: Vec<EventExpr> = rules().into_iter().map(|(_, event)| event).collect();
        let reference = reference::fire(&sim.catalog, &events, &stream);
        assert!(!reference.is_empty(), "workload must fire rules");
        Fixture {
            sim,
            stream,
            reference,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn any_partition_preserves_the_union_of_firings(
        assignment in proptest::collection::vec(0usize..4, rules().len())
    ) {
        let fx = fixture();
        let pool = rules();
        let mut union: Vec<Fingerprint> = Vec::new();
        for part in 0..4usize {
            let members: Vec<usize> = (0..pool.len())
                .filter(|&i| assignment[i] == part)
                .collect();
            if members.is_empty() {
                continue;
            }
            let mut engine = Engine::with_rules(
                fx.sim.catalog.clone(),
                EngineConfig::default(),
                members.iter().map(|&i| (pool[i].0, &pool[i].1)),
            )
            .expect("valid rules");
            let mut sink = |rule: RuleId, inst: &Instance| {
                union.push((
                    members[rule.0 as usize] as u32,
                    inst.t_begin(),
                    inst.t_end(),
                    inst.observations(),
                ));
            };
            for &obs in &fx.stream {
                engine.process(obs, &mut sink);
            }
            engine.finish(&mut sink);
        }
        union.sort();
        prop_assert_eq!(&union, &fx.reference);
    }
}
