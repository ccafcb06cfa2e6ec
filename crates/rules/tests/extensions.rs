//! Tests for the language extensions beyond the paper's core examples:
//! `ALL(…)` (which §2.2 defines as an AND chain) and `EXISTS(…)` store
//! queries in conditions (§3 allows SQL queries there).

use rfid_epc::{Epc, Gid96};
use rfid_events::{Catalog, Observation, Timestamp};
use rfid_rules::RuleRuntime;
use rfid_store::Value;

fn epc(class: u64, serial: u64) -> Epc {
    Gid96::new(1, class, serial).unwrap().into()
}

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.readers.register("r1", "r1", "a");
    c.readers.register("r2", "r2", "b");
    c.readers.register("r3", "r3", "c");
    c
}

#[test]
fn all_requires_every_constituent() {
    let mut rt = RuleRuntime::new(catalog());
    rt.load(
        "CREATE RULE a, all_three \
         ON WITHIN(ALL(observation('r1', o1, t1), observation('r2', o2, t2), \
                       observation('r3', o3, t3)), 1 min) \
         IF true DO done(o1, o2, o3)",
    )
    .unwrap();

    let r1 = rt.engine().catalog().reader("r1").unwrap();
    let r2 = rt.engine().catalog().reader("r2").unwrap();
    let r3 = rt.engine().catalog().reader("r3").unwrap();

    // Only two of three: no firing.
    rt.process(Observation::new(r1, epc(1, 1), Timestamp::from_secs(1)));
    rt.process(Observation::new(r2, epc(1, 2), Timestamp::from_secs(2)));
    assert_eq!(rt.procedures().calls("done").count(), 0);

    // Third arrives (order-free): fires once with all three bound.
    rt.process(Observation::new(r3, epc(1, 3), Timestamp::from_secs(3)));
    rt.finish();
    let calls: Vec<&[Value]> = rt.procedures().calls("done").collect();
    assert_eq!(calls.len(), 1);
    assert_eq!(calls[0].len(), 3);
}

#[test]
fn all_merges_with_equivalent_and_chain() {
    let mut rt = RuleRuntime::new(catalog());
    rt.load(
        "CREATE RULE a, with_all \
         ON WITHIN(ALL(observation('r1', o1, t1), observation('r2', o2, t2)), 1 min) \
         IF true DO fa() \
         CREATE RULE b, with_and \
         ON WITHIN(observation('r1', o1, t1) AND observation('r2', o2, t2), 1 min) \
         IF true DO fb()",
    )
    .unwrap();
    assert!(
        rt.engine().graph().merged_hits() > 0,
        "ALL compiled to the same nodes as the AND chain"
    );
}

#[test]
fn exists_condition_gates_on_store_state() {
    let mut rt = RuleRuntime::new(catalog());
    // Alert only for objects the store already knows a location for.
    rt.load(
        "CREATE RULE e, known_objects_only \
         ON observation(r, o, t) \
         IF EXISTS(OBJECTLOCATION WHERE object_epc = o) \
         DO seen_again(o)",
    )
    .unwrap();

    let r1 = rt.engine().catalog().reader("r1").unwrap();
    let known = epc(1, 1);
    let unknown = epc(1, 2);
    rt.db_mut()
        .record_location(known, "warehouse", Timestamp::ZERO)
        .unwrap();

    rt.process(Observation::new(r1, unknown, Timestamp::from_secs(1)));
    rt.process(Observation::new(r1, known, Timestamp::from_secs(2)));
    rt.finish();

    let calls: Vec<&[Value]> = rt.procedures().calls("seen_again").collect();
    assert_eq!(calls.len(), 1);
    assert_eq!(calls[0][0], Value::Epc(known));
}

#[test]
fn exists_sees_rows_written_by_earlier_rules() {
    // Rule order matters: a location rule writes, a later rule's EXISTS
    // reads — within the same observation's processing.
    let mut rt = RuleRuntime::new(catalog());
    rt.load(
        "CREATE RULE w, writer \
         ON observation(r, o, t) \
         IF true \
         DO INSERT INTO OBJECTLOCATION VALUES (o, location(r), t, UC) \
         CREATE RULE g, gated \
         ON observation(r, o, t) \
         IF EXISTS(OBJECTLOCATION WHERE object_epc = o AND tend = UC) \
         DO gated_fired(o)",
    )
    .unwrap();

    let r1 = rt.engine().catalog().reader("r1").unwrap();
    // First sighting: the writer inserts; whether `gated` sees it depends on
    // leaf fan-out order, so assert on the *second* sighting where the row
    // definitely exists.
    rt.process(Observation::new(r1, epc(1, 1), Timestamp::from_secs(1)));
    let first = rt.procedures().calls("gated_fired").count();
    rt.process(Observation::new(r1, epc(1, 1), Timestamp::from_secs(10)));
    rt.finish();
    assert!(rt.procedures().calls("gated_fired").count() > first);
}

#[test]
fn duplicate_rule_ids_are_rejected() {
    let mut rt = RuleRuntime::new(catalog());
    rt.load("CREATE RULE r1, first ON observation(r, o, t) IF true DO a()")
        .unwrap();
    // Same id again, later load: rejected.
    let err = rt
        .load("CREATE RULE r1, second ON observation(r, o, t) IF true DO b()")
        .unwrap_err();
    assert!(err.to_string().contains("duplicate rule id"), "{err}");
    // Same id twice within one script: rejected atomically (nothing loads).
    let before = rt.engine().rule_count();
    let err = rt
        .load(
            "CREATE RULE r9, a ON observation(r, o, t) IF true DO a() \
             CREATE RULE r9, b ON observation(r, o, t) IF true DO b()",
        )
        .unwrap_err();
    assert!(err.to_string().contains("r9"), "{err}");
    assert_eq!(
        rt.engine().rule_count(),
        before,
        "batch rejected before any rule loaded"
    );
    // Several clashes: the error names the first rule of the script that
    // has one, whichever rule repeats first.
    let rule = |id: &str| format!("CREATE RULE {id}, n ON observation(r, o, t) IF true DO a() ");
    let script: String = ["r7", "r8", "r8", "r7"].iter().map(|id| rule(id)).collect();
    let err = rt.load(&script).unwrap_err();
    assert!(err.to_string().contains("r7"), "{err}");
    let script: String = ["r5", "r6", "r1", "r6"].iter().map(|id| rule(id)).collect();
    let err = rt.load(&script).unwrap_err();
    assert!(err.to_string().contains("r6"), "{err}");
    assert_eq!(rt.engine().rule_count(), before);
}

#[test]
fn drop_rule_disables_by_declared_id() {
    let mut rt = RuleRuntime::new(catalog());
    rt.load("CREATE RULE r1, watcher ON observation(r, o, t) IF true DO seen(o)")
        .unwrap();
    let reader = rt.engine().catalog().reader("r1").unwrap();

    rt.process(Observation::new(reader, epc(1, 1), Timestamp::from_secs(1)));
    assert_eq!(rt.procedures().calls("seen").count(), 1);

    rt.load("DROP RULE r1").unwrap();
    rt.process(Observation::new(reader, epc(1, 2), Timestamp::from_secs(2)));
    assert_eq!(
        rt.procedures().calls("seen").count(),
        1,
        "dropped rule stays silent"
    );

    // Re-enable through the API.
    let was = rt.set_rule_enabled_by_id("r1", true).unwrap();
    assert!(!was);
    rt.process(Observation::new(reader, epc(1, 3), Timestamp::from_secs(3)));
    assert_eq!(rt.procedures().calls("seen").count(), 2);

    // Dropping an unknown id is an error.
    assert!(rt.load("DROP RULE ghost").is_err());
    assert!(rt.set_rule_enabled_by_id("ghost", true).is_err());
}

#[test]
fn exists_on_missing_table_is_false_not_an_error() {
    let mut rt = RuleRuntime::new(catalog());
    rt.load(
        "CREATE RULE m, missing \
         ON observation(r, o, t) \
         IF EXISTS(NO_SUCH_TABLE) \
         DO never()",
    )
    .unwrap();
    let r1 = rt.engine().catalog().reader("r1").unwrap();
    rt.process(Observation::new(r1, epc(1, 1), Timestamp::from_secs(1)));
    rt.finish();
    assert_eq!(rt.procedures().calls("never").count(), 0);
    assert!(
        rt.errors().is_empty(),
        "unknown table in EXISTS is just false"
    );
}

/// A script that fails loads nothing: not its rules before the failing
/// statement, not its defines, not its drops.
#[test]
fn a_failed_load_loads_nothing() {
    let mut rt = RuleRuntime::new(catalog());
    let watcher = "CREATE RULE a, watcher ON observation(r, o, t) IF true DO seen(o)";
    // A drop of an id nothing has.
    let err = rt.load(&format!("{watcher} DROP RULE ghost")).unwrap_err();
    assert!(
        matches!(&err, rfid_rules::RuntimeError::UnknownRuleId(id) if id == "ghost"),
        "{err}"
    );
    assert_eq!(rt.engine().rule_count(), 0);
    // So the same rule loads on a retry, under the same id.
    assert_eq!(rt.load(watcher).unwrap().len(), 1);
    assert_eq!(rt.engine().rule_count(), 1);

    // A batch whose second rule is invalid (§4.4: a negation with no
    // finite window), with a define before it.
    let mut rt = RuleRuntime::new(catalog());
    let err = rt
        .load(&format!(
            "DEFINE SEEN = observation(r, o, t) {watcher} \
             CREATE RULE b, never ON NOT observation(r, o, t) IF true DO f()"
        ))
        .unwrap_err();
    assert!(matches!(err, rfid_rules::RuntimeError::Invalid(_)), "{err}");
    assert_eq!(rt.engine().rule_count(), 0);
    let err = rt
        .load("CREATE RULE c, aliased ON SEEN IF true DO g()")
        .unwrap_err();
    assert!(err.to_string().contains("SEEN"), "{err}");
    let r1 = rt.engine().catalog().reader("r1").unwrap();
    rt.process(Observation::new(r1, epc(1, 1), Timestamp::from_secs(1)));
    rt.finish();
    assert!(
        rt.procedures().log.is_empty(),
        "no rule of the batch is live"
    );
    assert_eq!(rt.load(watcher).unwrap().len(), 1);
}
