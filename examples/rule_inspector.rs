//! Inspect what the engine does with a rule set: the compiled event graph's
//! static analysis (detection modes, plans, propagated windows) and a
//! Graphviz rendering in the style of the paper's Figs. 5–7.
//!
//! ```text
//! cargo run --example rule_inspector            # analysis table
//! cargo run --example rule_inspector -- --dot   # graphviz to stdout
//! ```

use rfid_cep::engine::{Engine, EngineConfig};
use rfid_cep::rules::rule_events;

const SCRIPT: &str = "\
DEFINE E1 = observation('r1', o1, t1) \
DEFINE E2 = observation('r2', o2, t2) \
CREATE RULE r4, containment_rule \
ON TSEQ(TSEQ+(E1, 0.1 sec, 1 sec); E2, 10 sec, 20 sec) \
IF true DO BULK INSERT INTO OBJECTCONTAINMENT VALUES (o1, o2, t2, UC) \
CREATE RULE r5, asset_monitoring \
ON WITHIN((observation('r4', oa, ta), type(oa) = 'laptop') \
    AND NOT (observation('r4', ob, tb), type(ob) = 'superuser'), 5 sec) \
IF true DO send_alarm(oa) \
CREATE RULE r1, duplicate_detection \
ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5 sec) \
IF true DO send_duplicate_msg(r, o, t1)";

fn main() {
    let mut catalog = rfid_cep::events::Catalog::new();
    for (name, group) in [("r1", "conv"), ("r2", "case"), ("r4", "exit")] {
        catalog.readers.register(name, group, name);
    }
    let rules = rule_events(SCRIPT).expect("script compiles");
    let named = rules.iter().map(|r| (r.name.as_str(), &r.event));
    let mut engine =
        Engine::with_rules(catalog, EngineConfig::default(), named).expect("rules are valid");

    if std::env::args().any(|a| a == "--dot") {
        print!("{}", engine.graph().to_dot());
    } else {
        println!(
            "{} rules compiled into {} nodes ({} compile requests served by merging)\n",
            engine.rule_count(),
            engine.graph().len(),
            engine.graph().merged_hits(),
        );
        print!("{}", engine.program().describe());
        println!("\n(pass --dot for a Graphviz rendering)");
    }
}
