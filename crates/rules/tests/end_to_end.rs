//! End-to-end rule-language tests: scripts in, store rows and procedure
//! calls out — the complete pipeline of Fig. 2 for the paper's Rules 1–5.

use rfid_epc::{Epc, Gid96, ReaderId};
use rfid_events::{Catalog, Observation, Span, Timestamp};
use rfid_rules::{stdlib, RuleRuntime};
use rfid_store::{Cond, Filter, Value};

fn epc(class: u64, serial: u64) -> Epc {
    Gid96::new(1, class, serial).unwrap().into()
}

struct Deployment {
    rt: RuleRuntime,
    readers: Vec<ReaderId>,
}

impl Deployment {
    fn new() -> Self {
        let mut catalog = Catalog::new();
        let readers = vec![
            catalog.readers.register("r1", "packing", "packing-line"),
            catalog
                .readers
                .register("r2", "packing", "packing-line-case"),
            catalog.readers.register("r3", "dock", "dock-door"),
            catalog.readers.register("r4", "exit", "building-exit"),
        ];
        catalog.types.map_class_of(epc(10, 0), "laptop");
        catalog.types.map_class_of(epc(20, 0), "superuser");
        catalog.types.map_class_of(epc(30, 0), "item");
        catalog.types.map_class_of(epc(40, 0), "case");
        Self {
            rt: RuleRuntime::new(catalog),
            readers,
        }
    }

    fn feed(&mut self, events: &[(usize, Epc, f64)]) {
        let stream: Vec<Observation> = events
            .iter()
            .map(|&(r, o, secs)| {
                Observation::new(
                    self.readers[r - 1],
                    o,
                    Timestamp::from_millis((secs * 1000.0).round() as u64),
                )
            })
            .collect();
        self.rt.process_all(stream);
    }
}

#[test]
fn rule1_duplicate_messages() {
    let mut d = Deployment::new();
    d.rt.load(&stdlib::duplicate_detection("r1", Span::from_secs(5)))
        .unwrap();

    d.feed(&[
        (1, epc(30, 1), 0.0),
        (1, epc(30, 1), 2.0), // duplicate
        (1, epc(30, 1), 9.0), // outside window
        (2, epc(30, 1), 9.5), // different reader: not a duplicate
    ]);

    let dups: Vec<&[Value]> = d.rt.procedures().calls("send_duplicate_msg").collect();
    assert_eq!(dups.len(), 1);
    assert_eq!(dups[0][0], Value::str("r1"));
    assert_eq!(dups[0][1], Value::Epc(epc(30, 1)));
    assert_eq!(
        dups[0][2],
        Value::Time(Timestamp::ZERO),
        "the earlier event is flagged"
    );
    assert!(
        d.rt.errors().is_empty(),
        "{:?}",
        d.rt.errors().first().map(|e| e.to_string())
    );
}

#[test]
fn rule2_infield_inserts_first_sightings_only() {
    let mut d = Deployment::new();
    d.rt.load(&stdlib::infield_filtering("r2", Span::from_secs(30)))
        .unwrap();

    d.feed(&[
        (3, epc(30, 1), 0.0),
        (3, epc(30, 1), 10.0),
        (3, epc(30, 1), 20.0),
        (3, epc(30, 2), 25.0),
    ]);

    let table = d.rt.db().table("OBSERVATION").unwrap();
    assert_eq!(table.len(), 2, "one row per distinct tag");
    let rows = table
        .select(&Filter::on(Cond::eq("object_epc", epc(30, 1))))
        .unwrap();
    assert_eq!(rows[0][2], Value::Time(Timestamp::ZERO));
}

#[test]
fn rule3_location_history_builds_up() {
    let mut d = Deployment::new();
    d.rt.load(&stdlib::location_change("r3a", "packing"))
        .unwrap();
    d.rt.load(&stdlib::location_change("r3b", "dock")).unwrap();

    let item = epc(30, 7);
    d.feed(&[(1, item, 0.0), (3, item, 100.0)]);

    let db = d.rt.db();
    assert_eq!(
        db.location_at(item, Timestamp::from_secs(50))
            .unwrap()
            .as_deref(),
        Some("packing-line")
    );
    assert_eq!(
        db.current_location(item).unwrap().as_deref(),
        Some("dock-door")
    );
    let history = db.location_history(item).unwrap();
    assert_eq!(history.len(), 2);
    assert_eq!(history[0].period.to, Some(Timestamp::from_secs(100)));
}

#[test]
fn rule4_bulk_containment() {
    let mut d = Deployment::new();
    d.rt.load(&stdlib::containment(
        "r4",
        "r1",
        "r2",
        Span::from_millis(100),
        Span::from_secs(1),
        Span::from_secs(10),
        Span::from_secs(20),
    ))
    .unwrap();

    let case = epc(40, 1);
    d.feed(&[
        (1, epc(30, 1), 0.0),
        (1, epc(30, 2), 0.5),
        (1, epc(30, 3), 1.0),
        (2, case, 13.0),
    ]);

    let db = d.rt.db();
    let mut contents = db.contents_at(case, Timestamp::from_secs(60)).unwrap();
    contents.sort();
    assert_eq!(contents, vec![epc(30, 1), epc(30, 2), epc(30, 3)]);
    assert_eq!(
        db.parent_at(epc(30, 2), Timestamp::from_secs(60)).unwrap(),
        Some(case)
    );
    assert!(d.rt.errors().is_empty());
}

/// A negated initiator whose window the terminator outlasts: no `r1` read
/// can stand in `[10 s − 2 s, min(10 s − 1 s, 0 s)]`, so the script loads
/// and the rule fires once, the `r1` read inside the terminator's span
/// blocking nothing.
#[test]
fn a_negated_window_the_terminator_outlasts_fires() {
    let mut d = Deployment::new();
    d.rt.load(
        "CREATE RULE e1, empty \
         ON TSEQ(NOT observation('r1', o, t1); \
                 (observation('r2', o, t2); observation('r3', o, t3)), 1 sec, 2 sec) \
         IF true DO note(o)",
    )
    .unwrap();

    d.feed(&[
        (2, epc(30, 1), 0.0),
        (1, epc(30, 1), 5.0),
        (3, epc(30, 1), 10.0),
    ]);

    assert!(d.rt.errors().is_empty());
    let notes: Vec<&[Value]> = d.rt.procedures().calls("note").collect();
    assert_eq!(notes, [[Value::Epc(epc(30, 1))]]);
}

#[test]
fn rule5_alarm_only_without_badge() {
    let mut d = Deployment::new();
    d.rt.load(&stdlib::asset_monitoring("r5", "r4", Span::from_secs(5)))
        .unwrap();

    d.feed(&[
        (4, epc(10, 1), 0.0),  // laptop
        (4, epc(20, 1), 2.0),  // superuser badge: authorized
        (4, epc(10, 2), 20.0), // laptop alone: alarm
    ]);

    let alarms: Vec<&[Value]> = d.rt.procedures().calls("send_alarm").collect();
    assert_eq!(alarms.len(), 1);
    assert_eq!(alarms[0][0], Value::Epc(epc(10, 2)));
}

#[test]
fn full_rule_set_runs_together() {
    // All five rules loaded at once over one mixed stream — the Fig. 2
    // pipeline, with subgraph sharing in the engine underneath.
    let mut d = Deployment::new();
    d.rt.load(&stdlib::duplicate_detection("r1", Span::from_secs(5)))
        .unwrap();
    d.rt.load(&stdlib::infield_filtering("r2", Span::from_secs(30)))
        .unwrap();
    d.rt.load(&stdlib::location_change("r3", "dock")).unwrap();
    d.rt.load(&stdlib::containment(
        "r4",
        "r1",
        "r2",
        Span::from_millis(100),
        Span::from_secs(1),
        Span::from_secs(10),
        Span::from_secs(20),
    ))
    .unwrap();
    d.rt.load(&stdlib::asset_monitoring("r5", "r4", Span::from_secs(5)))
        .unwrap();

    let case = epc(40, 1);
    d.feed(&[
        (1, epc(30, 1), 0.0),
        (1, epc(30, 2), 0.5),
        (2, case, 12.0),
        (3, case, 30.0),       // dock: location change
        (4, epc(10, 1), 40.0), // laptop leaves, no badge
    ]);

    assert!(d.rt.errors().is_empty(), "{}", d.rt.errors()[0]);
    assert_eq!(
        d.rt.db()
            .contents_at(case, Timestamp::from_secs(99))
            .unwrap()
            .len(),
        2,
        "containment aggregated"
    );
    assert_eq!(
        d.rt.db().current_location(case).unwrap().as_deref(),
        Some("dock-door"),
        "location transformed"
    );
    assert_eq!(
        d.rt.procedures().calls("send_alarm").count(),
        1,
        "alarm raised"
    );
}

#[test]
fn conditions_gate_actions() {
    let mut d = Deployment::new();
    d.rt.load(
        "CREATE RULE c1, laptops_only \
         ON observation(r, o, t), group(r) = 'exit' \
         IF type(o) = 'laptop' \
         DO log_laptop(o)",
    )
    .unwrap();

    d.feed(&[(4, epc(10, 1), 0.0), (4, epc(30, 5), 1.0)]);
    assert_eq!(d.rt.procedures().calls("log_laptop").count(), 1);
}

#[test]
fn invalid_rule_is_rejected_at_load() {
    let mut d = Deployment::new();
    let err =
        d.rt.load("CREATE RULE bad, never ON NOT observation(r, o, t) IF true DO f()")
            .unwrap_err();
    assert!(err.to_string().contains("invalid rule"), "{err}");
}

#[test]
fn registered_handlers_run() {
    let mut d = Deployment::new();
    d.rt.load(&stdlib::asset_monitoring("r5", "r4", Span::from_secs(5)))
        .unwrap();
    let count = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let c2 = count.clone();
    d.rt.register_procedure("send_alarm", move |_args| {
        c2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    });
    d.feed(&[(4, epc(10, 1), 0.0)]);
    assert_eq!(count.load(std::sync::atomic::Ordering::SeqCst), 1);
}

#[test]
fn retrospective_replay_asks_new_questions_of_old_data() {
    // Live rules record infield sightings; later, a retrospective analysis
    // asks "which objects were first seen on a shelf?" via a new rule over
    // the recorded history.
    let mut d = Deployment::new();
    d.rt.load(&stdlib::infield_filtering("r2", Span::from_secs(30)))
        .unwrap();
    d.feed(&[
        (3, epc(10, 1), 0.0), // a laptop on the dock reader
        (3, epc(30, 1), 5.0),
        (3, epc(30, 1), 10.0), // re-read: not recorded again
    ]);
    assert_eq!(d.rt.db().table("OBSERVATION").unwrap().len(), 2);

    let (analysis, skipped) =
        d.rt.replay_observations_with(
            "CREATE RULE q, laptops_seen ON observation(r, o, t) \
             IF type(o) = 'laptop' DO found_laptop(o, t)",
        )
        .unwrap();
    assert_eq!(skipped, 0);
    let hits: Vec<&[Value]> = analysis.procedures().calls("found_laptop").collect();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0][0], Value::Epc(epc(10, 1)));
    assert!(analysis.errors().is_empty());
}

#[test]
fn persist_and_restore_round_trips_the_store() {
    let path =
        std::env::temp_dir().join(format!("rfid-runtime-persist-{}.wal", std::process::id()));
    let mut d = Deployment::new();
    d.rt.load(&stdlib::location_change("r3", "dock")).unwrap();
    d.feed(&[(3, epc(30, 7), 10.0)]);
    assert_eq!(
        d.rt.db().current_location(epc(30, 7)).unwrap().as_deref(),
        Some("dock-door")
    );
    d.rt.persist(&path).unwrap();

    // A new process: restore and keep querying/processing.
    let catalog = {
        let mut c = Catalog::new();
        c.readers.register("r3", "dock", "dock-door");
        c
    };
    let restored = RuleRuntime::with_restored(catalog, &path).unwrap();
    assert_eq!(
        restored
            .db()
            .current_location(epc(30, 7))
            .unwrap()
            .as_deref(),
        Some("dock-door"),
        "location history survived the restart"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn rule_decl_lookup() {
    let mut d = Deployment::new();
    let ids =
        d.rt.load(&stdlib::duplicate_detection("rd", Span::from_secs(5)))
            .unwrap();
    let (id, name) = d.rt.rule_decl(ids[0]).unwrap();
    assert_eq!(id, "rd");
    assert_eq!(name, "duplicate_detection");
}

#[test]
fn sharded_runtime_matches_single_threaded() {
    // Same script, same stream: the sharded pipeline must leave the store
    // and the procedure log in the same state (up to firing order) as the
    // single-threaded runtime.
    let load = |d: &mut Deployment| {
        d.rt.load(&stdlib::duplicate_detection("R1", Span::from_secs(5)))
            .unwrap();
        d.rt.load(&stdlib::infield_filtering("R2", Span::from_secs(2)))
            .unwrap();
        d.rt.load(&stdlib::outfield_filtering("R3", Span::from_secs(2)))
            .unwrap();
    };
    // Seven objects cycling through the packing reader; every visit is a
    // double read, so all three rules fire repeatedly.
    let events: Vec<(usize, Epc, f64)> = (0..40u64)
        .flat_map(|i| {
            let item = epc(30, (i % 7) + 1);
            let t = i as f64 * 0.9;
            vec![(1, item, t), (1, item, t + 0.4)]
        })
        .collect();

    let mut single = Deployment::new();
    load(&mut single);
    single.feed(&events);

    let mut shard = Deployment::new();
    load(&mut shard);
    let stream: Vec<Observation> = events
        .iter()
        .map(|&(r, o, secs)| {
            Observation::new(
                shard.readers[r - 1],
                o,
                Timestamp::from_millis((secs * 1000.0).round() as u64),
            )
        })
        .collect();
    let config = rceda::ShardConfig {
        shards: 3,
        ..rceda::ShardConfig::default()
    };
    let stats = shard
        .rt
        .process_all_sharded(stream.clone(), config)
        .unwrap();
    assert!(stats.batches > 0, "sharded path batches its input");
    assert!(shard.rt.errors().is_empty(), "{:?}", shard.rt.errors());

    let log_fp = |d: &Deployment| {
        let mut v: Vec<String> =
            d.rt.procedures()
                .log
                .iter()
                .map(|e| format!("{e:?}"))
                .collect();
        v.sort();
        v
    };
    assert!(
        !log_fp(&single).is_empty(),
        "workload must invoke procedures"
    );
    assert_eq!(log_fp(&single), log_fp(&shard));

    let rows_fp = |d: &Deployment| {
        let mut v: Vec<String> =
            d.rt.db()
                .table("OBSERVATION")
                .map(|t| t.iter().map(|r| format!("{r:?}")).collect())
                .unwrap_or_default();
        v.sort();
        v
    };
    assert!(
        !rows_fp(&single).is_empty(),
        "infield filtering must record rows"
    );
    assert_eq!(rows_fp(&single), rows_fp(&shard));

    // Rule-partitioned broadcast partitions: same stream again through an
    // explicit config cutting the residual rules into partitions served by
    // two extra pool threads must leave identical store rows and procedure
    // log too.
    let mut parted = Deployment::new();
    load(&mut parted);
    let config = rceda::ShardConfig {
        shards: 2,
        residual_workers: 2,
        ..rceda::ShardConfig::default()
    };
    let stats = parted.rt.process_all_sharded(stream, config).unwrap();
    assert!(parted.rt.errors().is_empty(), "{:?}", parted.rt.errors());
    assert!(
        stats.residual_workers <= 2,
        "pool threads for the broadcast partitions: at most the configured two"
    );
    assert_eq!(log_fp(&single), log_fp(&parted));
    assert_eq!(rows_fp(&single), rows_fp(&parted));
}

/// A rule sees the stream from its load (docs/SEMANTICS.md §6), through
/// the rules layer. A second script loaded after 3,000 observations spells
/// nodes of the running one: window siblings of its duplicate, in-field
/// and asset rules, and the `TSEQ+` run inside its containment rules. Its
/// rules fire exactly what they fire in a runtime that loaded it alone and
/// saw only the rest of the stream.
#[test]
fn a_script_loaded_mid_stream_fires_what_it_fires_alone() {
    let sim = rfid_simulator::SupplyChain::build(rfid_simulator::SimConfig::default());
    let stream = sim.generate(6_000).observations;
    let (head, tail) = stream.split_at(3_000);
    let late = sim.rule_family(12);
    let feed = |rt: &mut RuleRuntime, part: &[Observation]| {
        for batch in part.chunks(256) {
            rt.process_batch(batch);
        }
    };

    let mut running = RuleRuntime::new(sim.catalog.clone());
    running.load(&sim.rule_set()).unwrap();
    feed(&mut running, head);
    let ids = running.load(&late).unwrap();
    feed(&mut running, tail);
    running.finish();

    let mut alone = RuleRuntime::new(sim.catalog.clone());
    alone.load(&late).unwrap();
    feed(&mut alone, tail);
    alone.finish();

    let fired = &running.engine().firings_per_rule()[ids[0].0 as usize..];
    assert_eq!(fired, alone.engine().firings_per_rule());
    assert!(fired.iter().filter(|&&n| n > 0).count() >= 9, "{fired:?}");
}
