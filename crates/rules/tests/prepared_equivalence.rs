//! Prepared ≡ interpreted: the firing path `RuleRuntime` runs
//! ([`rfid_rules::prepared`]) against the by-name reference it replaced
//! (`bind` → `eval_cond` → `execute`).
//!
//! A case is a generated rule — an event AST from `bind_model.rs`'s
//! generator (shadowed names, more variables than a row holds inline, `OR`
//! whose left attempt fails, `SEQ+`/`TSEQ+` runs, nested aperiodics,
//! unresolved aliases, reader ids the catalog lacks), a condition and a `DO`
//! list over variables, literals and functions — and a few instances of its
//! event. Each side fires them in turn into its own store and procedure
//! registry, a table appearing between two firings. Table contents (row
//! order included), the procedure log and the errors, in order, must be
//! equal. Two more tests drive `RuleRuntime` itself next to a bare engine
//! whose sink is the reference.

use std::sync::Arc;

use proptest::prelude::*;
use rfid_epc::{Epc, Gid96, ReaderId};
use rfid_events::{Catalog, Instance, Observation, Span, Timestamp};
use rfid_rules::actions::{execute, ActionError};
use rfid_rules::ast::{
    ActionAst, CompareOp, CondAst, CondTerm, EventAst, RuleDecl, Term, ValueExpr, WhereCond,
};
use rfid_rules::bind::bind;
use rfid_rules::cond::eval_cond;
use rfid_rules::prepared::{FiringError, PreparedRule, Scratch};
use rfid_rules::{parse_script, rule_events, Procedures, RuleRuntime};
use rfid_store::{ColumnType, Database, Row, Schema, TableError, Value};

const NAMES: [&str; 7] = ["r", "o", "t", "a", "b", "c", "d"];

/// Readers 0 and 1 are deployed; reader 9 binds the fallback name.
const OBSERVED_READERS: [u32; 3] = [0, 1, 9];

/// `MISSING` never exists; `LATE` is created between two firings.
const TABLES: [&str; 5] = ["OBSERVATION", "OBJECTLOCATION", "AUDIT", "MISSING", "LATE"];

/// Column names a statement may use, whatever its table has.
const COLUMNS: [&str; 7] = ["object_epc", "loc_id", "tend", "who", "what", "n", "bogus"];

const AUDIT: [(&str, ColumnType); 4] = [
    ("who", ColumnType::Str),
    ("what", ColumnType::Epc),
    ("at", ColumnType::Time),
    ("n", ColumnType::Int),
];

/// The columns of a table of [`TABLES`], where it has any.
fn columns_of(table: &str) -> &'static [(&'static str, ColumnType)] {
    match table {
        "OBSERVATION" => &[
            ("reader", ColumnType::Str),
            ("object_epc", ColumnType::Epc),
            ("at", ColumnType::Time),
        ],
        "OBJECTLOCATION" => &[
            ("object_epc", ColumnType::Epc),
            ("loc_id", ColumnType::Str),
            ("tstart", ColumnType::Time),
            ("tend", ColumnType::Time),
        ],
        _ => &AUDIT,
    }
}

/// The variable names an event's patterns give each term.
#[derive(Debug, Default)]
struct Roles {
    readers: Vec<String>,
    objects: Vec<String>,
    times: Vec<String>,
}

impl Roles {
    fn of(event: &EventAst) -> Self {
        let mut roles = Self::default();
        roles.collect(event);
        roles
    }

    fn collect(&mut self, event: &EventAst) {
        match event {
            EventAst::Observation {
                reader,
                object,
                time,
                ..
            } => {
                for (term, names) in [
                    (reader, &mut self.readers),
                    (object, &mut self.objects),
                    (time, &mut self.times),
                ] {
                    if let Term::Var(v) = term {
                        names.push(v.clone());
                    }
                }
            }
            EventAst::Alias(_) => {}
            EventAst::Not(x)
            | EventAst::SeqPlus(x)
            | EventAst::TSeqPlus { inner: x, .. }
            | EventAst::Within { inner: x, .. } => self.collect(x),
            EventAst::Or(a, b)
            | EventAst::And(a, b)
            | EventAst::Seq(a, b)
            | EventAst::TSeq {
                first: a,
                second: b,
                ..
            } => {
                self.collect(a);
                self.collect(b);
            }
        }
    }
}

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.readers.register("r1", "docks", "dock-a");
    c.readers.register("r2", "shelves", "shelf-b");
    // Objects of class 1 are typed; class 2 is not.
    c.types.map_class_of(epc(1, 0), "laptop");
    c
}

fn epc(class: u64, serial: u64) -> Epc {
    Gid96::new(1, class, serial).expect("small serial").into()
}

fn audit_schema() -> Schema {
    Schema::new(&AUDIT)
}

/// The standard tables and `AUDIT`, indexed on `what` only, each with a
/// few rows about the objects the generated instances are of.
fn database() -> Database {
    let mut db = Database::rfid();
    let audit = db.create_table("AUDIT", audit_schema());
    audit.create_index("what").expect("a column of its");
    for k in 0..6u64 {
        let (object, at) = (
            Value::Epc(epc(1 + k % 2, k)),
            Value::Time(Timestamp::from_millis(k)),
        );
        let rows = [
            (
                "OBSERVATION",
                vec![Value::str("r1"), object.clone(), at.clone()],
            ),
            (
                "OBJECTLOCATION",
                vec![object.clone(), Value::str("dock-a"), at.clone(), Value::Uc],
            ),
            (
                "AUDIT",
                vec![Value::str("r2"), object, at, Value::Int(k as i64 % 3)],
            ),
        ];
        for (table, row) in rows {
            db.table_mut(table)
                .expect("created")
                .insert(row)
                .expect("fits");
        }
    }
    db
}

/// Turns a string of random bytes into choices; zeros once it runs out.
struct Picks<'a>(std::slice::Iter<'a, u8>);

impl Picks<'_> {
    fn below(&mut self, n: u8) -> u8 {
        self.0.next().map_or(0, |p| p % n)
    }

    fn of<T: Copy>(&mut self, choices: &[T]) -> T {
        choices[usize::from(self.below(choices.len() as u8))]
    }

    fn name(&mut self) -> String {
        self.of(&NAMES).to_owned()
    }

    /// Rule 4's shape — a run, then one more read — over generated names.
    fn packing_event(&mut self) -> EventAst {
        EventAst::TSeq {
            first: Box::new(EventAst::TSeqPlus {
                inner: Box::new(self.event(0)),
                min_gap: Span::ZERO,
                max_gap: Span::from_secs(1),
            }),
            second: Box::new(self.event(0)),
            min_dist: Span::ZERO,
            max_dist: Span::from_secs(9),
        }
    }

    /// `bind_model.rs`'s event generator.
    fn event(&mut self, depth: u8) -> EventAst {
        let shape = if depth == 0 { 0 } else { self.below(12) };
        let sub = |p: &mut Self| Box::new(p.event(depth - 1));
        match shape {
            0..=2 => EventAst::Observation {
                reader: match self.below(4) {
                    0 => Term::Literal("r1".to_owned()),
                    _ => Term::Var(self.name()),
                },
                object: Term::Var(self.name()),
                time: Term::Var(self.name()),
                preds: Vec::new(),
            },
            3 => EventAst::Seq(sub(self), sub(self)),
            4 => EventAst::And(sub(self), sub(self)),
            5 => EventAst::TSeq {
                first: sub(self),
                second: sub(self),
                min_dist: Span::ZERO,
                max_dist: Span::from_secs(9),
            },
            6 => EventAst::Within {
                inner: sub(self),
                window: Span::from_secs(9),
            },
            7 => EventAst::Not(sub(self)),
            8 | 9 => EventAst::Or(sub(self), sub(self)),
            10 => EventAst::SeqPlus(sub(self)),
            _ => match self.below(8) {
                0 => EventAst::Alias("undefined".to_owned()),
                _ => EventAst::TSeqPlus {
                    inner: sub(self),
                    min_gap: Span::ZERO,
                    max_gap: Span::from_secs(1),
                },
            },
        }
    }

    /// An instance the engine could have detected for `ast`; a run may be
    /// one element long (an empty one is not an instance).
    fn instance(&mut self, ast: &EventAst) -> Arc<Instance> {
        Arc::new(match ast {
            EventAst::Observation { .. } | EventAst::Alias(_) => {
                let reader = self.of(&OBSERVED_READERS);
                let object = epc(u64::from(self.below(2)) + 1, u64::from(self.below(12)));
                let at = Timestamp::from_millis(u64::from(self.below(250)));
                Instance::observation(Observation::new(ReaderId(reader), object, at))
            }
            EventAst::Within { inner, .. } => return self.instance(inner),
            EventAst::Not(_) => Instance::absence(Timestamp::ZERO, Timestamp::from_secs(1)),
            EventAst::And(a, b) | EventAst::Seq(a, b) => {
                Instance::pair("SEQ", self.instance(a), self.instance(b))
            }
            EventAst::TSeq { first, second, .. } => {
                Instance::pair("TSEQ", self.instance(first), self.instance(second))
            }
            EventAst::Or(a, b) => {
                let taken = if self.below(2) == 0 { a } else { b };
                Instance::wrap("OR", self.instance(taken))
            }
            EventAst::SeqPlus(inner) | EventAst::TSeqPlus { inner, .. } => {
                let run = (0..=self.below(4)).map(|_| self.instance(inner)).collect();
                Instance::composite("SEQ+", run)
            }
        })
    }

    fn value(&mut self) -> ValueExpr {
        match self.below(12) {
            0..=4 => ValueExpr::Var(self.name()),
            5 => ValueExpr::Str(self.of(&["dock-a", "r1", "sold"]).to_owned()),
            6 => ValueExpr::Int(i64::from(self.below(3))),
            7 => ValueExpr::Uc,
            8 => ValueExpr::Now,
            9 => ValueExpr::LocationOf(self.name()),
            10 => ValueExpr::GroupOf(self.name()),
            _ => ValueExpr::TypeOf(self.name()),
        }
    }

    fn values(&mut self, at_most: u8) -> Vec<ValueExpr> {
        (0..self.below(at_most + 1)).map(|_| self.value()).collect()
    }

    fn compare_op(&mut self) -> CompareOp {
        use CompareOp::*;
        self.of(&[Eq, Eq, Eq, Ne, Lt, Le, Gt, Ge])
    }

    /// An operand that fits a column of type `ty`, if the event binds the
    /// variables by the roles their names suggest (shadowing may not).
    fn typed(&mut self, ty: ColumnType, roles: &Roles) -> ValueExpr {
        let var = |p: &mut Self, names: &[String]| match names {
            [] => p.name(),
            _ => names[usize::from(p.below(names.len() as u8))].clone(),
        };
        match ty {
            ColumnType::Epc => ValueExpr::Var(var(self, &roles.objects)),
            ColumnType::Int => ValueExpr::Int(i64::from(self.below(3))),
            ColumnType::Time => match self.below(4) {
                0 => ValueExpr::Now,
                1 => ValueExpr::Uc,
                _ => ValueExpr::Var(var(self, &roles.times)),
            },
            ColumnType::Str => match self.below(6) {
                0 => ValueExpr::Str(self.of(&["dock-a", "r1", "sold"]).to_owned()),
                1 => ValueExpr::LocationOf(var(self, &roles.readers)),
                2 => ValueExpr::GroupOf(var(self, &roles.readers)),
                3 => ValueExpr::TypeOf(var(self, &roles.objects)),
                _ => ValueExpr::Var(var(self, &roles.readers)),
            },
        }
    }

    /// `column op value`: any column and value, or (`fitting`) a column of
    /// the table with a value of its type, mostly under `=`.
    fn where_cond(&mut self, table: &str, fitting: bool, roles: &Roles) -> WhereCond {
        if !fitting {
            return WhereCond {
                column: self.of(&COLUMNS).into(),
                op: self.compare_op(),
                value: self.value(),
            };
        }
        // Half of them on the object column, which every table indexes.
        let (column, ty) = match self.below(2) {
            0 => *columns_of(table)
                .iter()
                .find(|(_, ty)| *ty == ColumnType::Epc)
                .expect("every table has one"),
            _ => self.of(columns_of(table)),
        };
        WhereCond {
            column: column.into(),
            op: match self.below(3) {
                0 => self.compare_op(),
                _ => CompareOp::Eq,
            },
            value: self.typed(ty, roles),
        }
    }

    fn wheres(&mut self, table: &str, fitting: bool, roles: &Roles) -> Vec<WhereCond> {
        (0..self.below(3))
            .map(|_| self.where_cond(table, fitting, roles))
            .collect()
    }

    /// One statement: half the time of values and columns that fit its
    /// table, so that stores fill and filters match; else of any.
    fn action(&mut self, roles: &Roles) -> ActionAst {
        let table = self.of(&TABLES).to_owned();
        let fitting = self.below(2) == 0;
        let row = |p: &mut Self| {
            if fitting {
                let columns = columns_of(&table).iter();
                columns.map(|(_, ty)| p.typed(*ty, roles)).collect()
            } else {
                p.values(5)
            }
        };
        match self.below(8) {
            0 | 1 => ActionAst::Insert {
                values: row(self),
                table,
            },
            2 | 3 => ActionAst::BulkInsert {
                values: row(self),
                table,
            },
            4 | 5 => ActionAst::Update {
                sets: (0..=self.below(2))
                    .map(|_| {
                        if fitting {
                            let (column, ty) = self.of(columns_of(&table));
                            (column.to_owned(), self.typed(ty, roles))
                        } else {
                            (self.of(&COLUMNS).to_owned(), self.value())
                        }
                    })
                    .collect(),
                wheres: self.wheres(&table, fitting, roles),
                table,
            },
            6 => ActionAst::Delete {
                wheres: self.wheres(&table, fitting, roles),
                table,
            },
            _ => ActionAst::Call {
                name: self.of(&["notify", "alarm"]).to_owned(),
                args: self.values(3),
            },
        }
    }

    fn term(&mut self) -> CondTerm {
        match self.below(9) {
            0..=2 => CondTerm::Var(self.name()),
            3 => CondTerm::Str(self.of(&["docks", "laptop", "r1"]).to_owned()),
            4 => CondTerm::Int(i64::from(self.below(4))),
            5 => CondTerm::Duration(Span::from_millis(u64::from(self.below(200)))),
            6 => CondTerm::TypeOf(self.name()),
            7 => CondTerm::GroupOf(self.name()),
            _ => self
                .of(&[CondTerm::Count, CondTerm::Interval].each_ref())
                .clone(),
        }
    }

    fn condition(&mut self, depth: u8, roles: &Roles) -> CondAst {
        let shape = if depth == 0 {
            self.below(5)
        } else {
            self.below(9)
        };
        let sub = |p: &mut Self| Box::new(p.condition(depth - 1, roles));
        match shape {
            0 | 1 => CondAst::True,
            2 => CondAst::Compare {
                lhs: self.term(),
                op: self.compare_op(),
                rhs: self.term(),
            },
            3 => {
                let table = self.of(&TABLES).to_owned();
                let fitting = self.below(2) == 0;
                CondAst::Exists {
                    wheres: self.wheres(&table, fitting, roles),
                    table,
                }
            }
            4 => CondAst::False,
            5 => CondAst::And(sub(self), sub(self)),
            6 => CondAst::Or(sub(self), sub(self)),
            _ => CondAst::Not(sub(self)),
        }
    }
}

/// A generated rule, the instances it fires on, and when `LATE` appears.
struct Case {
    rule: RuleDecl,
    firings: Vec<Arc<Instance>>,
    /// `LATE` is created before the firing with this index.
    late_before: usize,
}

impl Case {
    fn generate(picks: &[u8], depth: u8) -> Self {
        let mut picks = Picks(picks.iter());
        // The generator seldom puts a run where its rows are kept.
        let event = match picks.below(4) {
            0 => picks.packing_event(),
            _ => picks.event(depth),
        };
        let roles = Roles::of(&event);
        let condition = match picks.below(2) {
            0 => CondAst::True,
            _ => picks.condition(2, &roles),
        };
        let actions = (0..picks.of(&[1, 1, 2, 4]))
            .map(|_| picks.action(&roles))
            .collect();
        let firings: Vec<_> = (0..picks.of(&[1, 1, 2, 4]))
            .map(|_| picks.instance(&event))
            .collect();
        let late_before = usize::from(picks.below(4));
        let rule = RuleDecl {
            id: "g".into(),
            name: "generated".into(),
            event,
            condition,
            actions,
        };
        Self {
            rule,
            firings,
            late_before,
        }
    }
}

/// What a side of the comparison is left with.
#[derive(Debug, PartialEq)]
struct Outcome {
    tables: Vec<(&'static str, Option<Vec<Row>>)>,
    calls: Vec<(String, Vec<Value>)>,
    errors: Vec<FiringError>,
}

impl Outcome {
    fn of(db: &Database, procs: Procedures, errors: Vec<FiringError>) -> Self {
        let rows = |name| db.table(name).map(|t| t.iter().cloned().collect());
        Self {
            tables: TABLES.iter().map(|&name| (name, rows(name))).collect(),
            calls: procs.log,
            errors,
        }
    }
}

/// `assert_eq!` on two outcomes, naming the first part that differs (a
/// store of a few thousand rows is not a readable panic message).
fn assert_same(ours: &Outcome, reference: &Outcome) {
    for ((name, a), (_, b)) in ours.tables.iter().zip(&reference.tables) {
        let (a, b) = (
            a.as_deref().unwrap_or_default(),
            b.as_deref().unwrap_or_default(),
        );
        let differ = a.iter().zip(b).position(|(x, y)| x != y);
        assert_eq!(
            differ.map(|at| (at, &a[at], &b[at])),
            None,
            "rows of {name}"
        );
        assert_eq!(a.len(), b.len(), "rows in {name}");
    }
    let differ = ours
        .calls
        .iter()
        .zip(&reference.calls)
        .position(|(x, y)| x != y);
    assert_eq!(
        differ.map(|at| (at, &ours.calls[at], &reference.calls[at])),
        None
    );
    assert_eq!(ours.calls.len(), reference.calls.len(), "calls");
    let differ = ours
        .errors
        .iter()
        .zip(&reference.errors)
        .position(|(x, y)| x != y);
    assert_eq!(
        differ.map(|at| (at, &ours.errors[at], &reference.errors[at])),
        None
    );
    assert_eq!(ours.errors.len(), reference.errors.len(), "errors");
    assert!(ours == reference);
}

/// The firing as `RuleRuntime` ran it before the prepared path, and as the
/// ledger's harness sink still does.
fn interpret(
    rule: &RuleDecl,
    inst: &Instance,
    catalog: &Catalog,
    db: &mut Database,
    procs: &mut Procedures,
    errors: &mut Vec<FiringError>,
) {
    let bindings = match bind(&rule.event, inst, catalog) {
        Ok(b) => b,
        Err(e) => return errors.push(FiringError::Bind(e)),
    };
    if rule.condition != CondAst::True && !eval_cond(&rule.condition, &bindings, inst, catalog, db)
    {
        return;
    }
    for action in &rule.actions {
        if let Err(e) = execute(action, &bindings, inst, catalog, db, procs) {
            errors.push(FiringError::Action(e));
        }
    }
}

/// Runs a case on both sides: `(prepared, interpreted)`.
fn run(case: &Case) -> (Outcome, Outcome) {
    let catalog = catalog();
    let (mut db_p, mut db_i) = (database(), database());
    let (mut procs_p, mut procs_i) = (Procedures::new(), Procedures::new());
    let (mut errors_p, mut errors_i) = (Vec::new(), Vec::new());
    // Lowered once, against the store as it is at `load`.
    let mut prepared = PreparedRule::new(&case.rule, &case.rule.event, &db_p);
    let mut scratch = Scratch::default();
    for (i, inst) in case.firings.iter().enumerate() {
        if i == case.late_before {
            for db in [&mut db_p, &mut db_i] {
                let late = db.create_table("LATE", audit_schema());
                late.create_index("who").expect("a column of its");
            }
        }
        prepared.fire(inst, &catalog, &mut db_p, &mut procs_p, &mut scratch, |e| {
            errors_p.push(e);
        });
        interpret(
            &case.rule,
            inst,
            &catalog,
            &mut db_i,
            &mut procs_i,
            &mut errors_i,
        );
    }
    (
        Outcome::of(&db_p, procs_p, errors_p),
        Outcome::of(&db_i, procs_i, errors_i),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn prepared_firings_leave_what_interpreted_ones_leave(
        picks in prop::collection::vec(any::<u8>(), 16..240),
        depth in 0u8..5,
    ) {
        let case = Case::generate(&picks, depth);
        let (prepared, interpreted) = run(&case);
        prop_assert_eq!(prepared, interpreted, "{:#?}\non {:?}", case.rule, case.firings);
    }
}

/// A pair of absences binds nothing, yet its shape is checked: an instance
/// with an observation where the pair should be is a bind error on both
/// sides, although every pattern that binds a variable fits.
#[test]
fn a_pair_of_absences_is_shape_checked() {
    let script = "CREATE RULE n, n \
                  ON (NOT observation(r, a, t1) ; NOT observation(r, b, t2)) AND observation(r, o, t) \
                  IF true DO f(o)";
    let rule = parse_script(script).expect("parses").rules.remove(0);
    let read = Arc::new(Instance::observation(Observation::new(
        ReaderId(0),
        epc(1, 1),
        Timestamp::from_millis(10),
    )));
    let fits = Instance::pair(
        "AND",
        Arc::new(Instance::pair("SEQ", Arc::clone(&read), Arc::clone(&read))),
        Arc::clone(&read),
    );
    let misfit = Instance::pair("AND", Arc::clone(&read), read);
    let case = Case {
        rule,
        firings: vec![Arc::new(fits), Arc::new(misfit)],
        late_before: usize::MAX,
    };
    let (prepared, interpreted) = run(&case);
    assert_eq!(prepared, interpreted);
    assert_eq!(prepared.calls.len(), 1);
    assert!(matches!(prepared.errors[..], [FiringError::Bind(_)]));
}

/// What the generated cases must reach for the property above to mean
/// something: every statement kind succeeding and failing in every way,
/// every binder error, and the store states the statements depend on.
#[derive(Debug, Default)]
struct Coverage {
    inserts: usize,
    bulk_no_rows: usize,
    bulk_one_row: usize,
    bulk_many_rows: usize,
    bulk_failed_after_a_row: usize,
    updates_indexed: usize,
    updates_unindexed: usize,
    deletes: usize,
    calls: usize,
    late_table_written: usize,
    condition_false: usize,
    exists_true: usize,
    unbound: usize,
    unresolvable_reader: usize,
    not_a_reader: usize,
    not_an_epc: usize,
    untyped: usize,
    no_table: usize,
    no_column: usize,
    arity: usize,
    wrong_type: usize,
    bind_shape: usize,
    bind_nested: usize,
    bind_alias: usize,
    unknown_reader_bound: usize,
    or_right_taken: usize,
}

impl Coverage {
    fn see(&mut self, case: &Case, outcome: &Outcome) {
        let seeded = Outcome::of(&database(), Procedures::new(), Vec::new());
        let rows = |of: &Outcome| -> usize {
            let tables = of.tables.iter();
            tables
                .map(|(_, rows)| rows.as_ref().map_or(0, Vec::len))
                .sum()
        };
        let (before, after) = (rows(&seeded), rows(outcome));
        let changed = outcome.tables[..3] != seeded.tables[..3];
        let clean = outcome.errors.is_empty();
        // What one statement did is plain where it was the only one.
        let sole = match &case.rule.actions[..] {
            [action] => Some(action),
            _ => None,
        };
        let once = case.firings.len() == 1;
        match sole {
            Some(ActionAst::Insert { .. }) => self.inserts += usize::from(clean && after > before),
            Some(ActionAst::BulkInsert { table, .. }) => {
                let bound = !outcome
                    .errors
                    .iter()
                    .any(|e| matches!(e, FiringError::Bind(_)));
                // No error although the table is not there: it was not named.
                self.bulk_no_rows += usize::from(clean && bound && table == "MISSING");
                self.bulk_one_row += usize::from(once && clean && after == before + 1);
                self.bulk_many_rows += usize::from(once && clean && after > before + 1);
                self.bulk_failed_after_a_row +=
                    usize::from(once && bound && !clean && after > before);
            }
            Some(ActionAst::Update { wheres, .. }) => {
                let indexed = |w: &WhereCond| ["object_epc", "what"].contains(&&*w.column);
                let driven = wheres.iter().any(|w| indexed(w) && w.op == CompareOp::Eq);
                self.updates_indexed += usize::from(changed && driven);
                self.updates_unindexed += usize::from(changed && !driven);
            }
            Some(ActionAst::Delete { .. }) => self.deletes += usize::from(after < before),
            Some(ActionAst::Call { .. }) => self.calls += outcome.calls.len(),
            None => {}
        }
        let late = &outcome.tables[4].1;
        self.late_table_written += usize::from(late.as_ref().is_some_and(|rows| !rows.is_empty()));
        let acted = changed || !outcome.calls.is_empty() || !clean;
        self.condition_false += usize::from(case.rule.condition != CondAst::True && !acted);
        let exists = matches!(case.rule.condition, CondAst::Exists { .. });
        self.exists_true += usize::from(exists && acted);

        let count =
            |pred: &dyn Fn(&FiringError) -> bool| outcome.errors.iter().filter(|e| pred(e)).count();
        let unresolvable = |what: &str| {
            count(
                &|e| matches!(e, FiringError::Action(ActionError::Unresolvable(m)) if m.contains(what)),
            )
        };
        let store = |pred: fn(&TableError) -> bool| {
            count(&|e| matches!(e, FiringError::Action(ActionError::Store(t)) if pred(t)))
        };
        let bind = |what: &str| count(&|e| matches!(e, FiringError::Bind(b) if b.0.contains(what)));
        self.unbound += count(&|e| matches!(e, FiringError::Action(ActionError::UnboundVar(_))));
        self.unresolvable_reader += unresolvable("reader `");
        self.not_a_reader += unresolvable("is not a reader name");
        self.not_an_epc += unresolvable("is not an EPC");
        self.untyped += unresolvable("type of");
        self.no_table +=
            store(|t| matches!(t, TableError::NoSuchColumn(c) if c.starts_with("table ")));
        self.no_column +=
            store(|t| matches!(t, TableError::NoSuchColumn(c) if !c.starts_with("table ")));
        self.arity += store(|t| matches!(t, TableError::Arity { .. }));
        self.wrong_type += store(|t| matches!(t, TableError::Type { .. }));
        self.bind_shape += bind("expected");
        self.bind_nested += bind("nested aperiodic");
        self.bind_alias += bind("unresolved alias");
        let written = format!("{:?}{:?}", outcome.calls, outcome.tables);
        self.unknown_reader_bound += usize::from(written.contains("reader#9"));
        let or_rule = matches!(case.rule.event, EventAst::Or(..));
        self.or_right_taken += usize::from(or_rule && bind("") == 0);
    }
}

#[test]
fn generated_cases_cover_every_statement_kind_and_error() {
    use proptest::strategy::Strategy;
    use proptest::test_runner::TestRng;

    let mut rng = TestRng::for_test("coverage");
    let bytes = prop::collection::vec(any::<u8>(), 16..240);
    let mut seen = Coverage::default();
    for _ in 0..20_000 {
        let picks = bytes.sample(&mut rng);
        let case = Case::generate(&picks, 3);
        let (prepared, interpreted) = run(&case);
        assert_eq!(prepared, interpreted, "{:#?}", case.rule);
        seen.see(&case, &prepared);
    }
    let Coverage {
        inserts,
        bulk_no_rows,
        bulk_one_row,
        bulk_many_rows,
        bulk_failed_after_a_row,
        updates_indexed,
        updates_unindexed,
        deletes,
        calls,
        late_table_written,
        condition_false,
        exists_true,
        unbound,
        unresolvable_reader,
        not_a_reader,
        not_an_epc,
        untyped,
        no_table,
        no_column,
        arity,
        wrong_type,
        bind_shape,
        bind_nested,
        bind_alias,
        unknown_reader_bound,
        or_right_taken,
    } = seen;
    let floor = [
        ("inserts", inserts, 20),
        ("bulk_no_rows", bulk_no_rows, 20),
        ("bulk_one_row", bulk_one_row, 3),
        ("bulk_many_rows", bulk_many_rows, 5),
        ("bulk_failed_after_a_row", bulk_failed_after_a_row, 1),
        ("updates_indexed", updates_indexed, 5),
        ("updates_unindexed", updates_unindexed, 50),
        ("deletes", deletes, 50),
        ("calls", calls, 50),
        ("late_table_written", late_table_written, 5),
        ("condition_false", condition_false, 50),
        ("exists_true", exists_true, 3),
        ("unbound", unbound, 100),
        ("unresolvable_reader", unresolvable_reader, 5),
        ("not_a_reader", not_a_reader, 20),
        ("not_an_epc", not_an_epc, 20),
        ("untyped", untyped, 5),
        ("no_table", no_table, 100),
        ("no_column", no_column, 50),
        ("arity", arity, 50),
        ("wrong_type", wrong_type, 50),
        ("bind_shape", bind_shape, 5),
        ("bind_nested", bind_nested, 20),
        ("bind_alias", bind_alias, 5),
        ("unknown_reader_bound", unknown_reader_bound, 5),
        ("or_right_taken", or_right_taken, 50),
    ];
    for (what, count, at_least) in floor {
        assert!(
            count >= at_least,
            "{what}: {count} < {at_least} in {seen:?}"
        );
    }
}

/// The reference the two tests below hold `RuleRuntime` to: the same rules
/// in a bare engine whose sink interprets.
fn interpreted_stream(
    catalog: &Catalog,
    script: &str,
    mut db: Database,
    stream: &[Observation],
    mut between: impl FnMut(usize, &mut Database),
) -> Outcome {
    let compiled = rule_events(script).expect("compiles");
    let named = compiled.iter().map(|r| (r.name.as_str(), &r.event));
    let config = rceda::EngineConfig::default();
    let mut engine = rceda::Engine::with_rules(catalog.clone(), config, named).expect("valid");
    // `interpret` binds off the declared event, so it must be alias-free.
    let parsed = parse_script(script).expect("parses");
    assert!(
        parsed.defines.is_empty(),
        "the interpreting sink takes no DEFINE"
    );
    let rules = parsed.rules;
    let mut procs = Procedures::new();
    let mut errors = Vec::new();
    for (i, obs) in stream.iter().enumerate() {
        between(i, &mut db);
        engine.process(*obs, &mut |rule, inst| {
            let rule = &rules[rule.0 as usize];
            interpret(rule, inst, catalog, &mut db, &mut procs, &mut errors);
        });
    }
    engine.finish(&mut |rule, inst| {
        let rule = &rules[rule.0 as usize];
        interpret(rule, inst, catalog, &mut db, &mut procs, &mut errors);
    });
    Outcome::of(&db, procs, errors)
}

/// What a runtime was left with. It keeps the first 1024 errors only, so
/// the reference's list is cut to as many (and the count compared).
fn runtime_outcome(rt: RuleRuntime, reference: &mut Outcome) -> Outcome {
    assert_eq!(rt.error_count(), reference.errors.len() as u64);
    reference.errors.truncate(rt.errors().len());
    let errors = rt
        .errors()
        .iter()
        .map(|e| match e {
            rfid_rules::RuntimeError::Bind(b) => FiringError::Bind(b.clone()),
            rfid_rules::RuntimeError::Action(a) => FiringError::Action(a.clone()),
            other => panic!("not a firing error: {other}"),
        })
        .collect();
    let mut procs = Procedures::new();
    procs.log.clone_from(&rt.procedures().log);
    Outcome::of(rt.db(), procs, errors)
}

/// The simulator's Rule 1–5 program plus statements that fail, over a
/// simulated trace: `RuleRuntime` ends where the interpreting sink ends.
#[test]
fn runtime_over_a_supply_chain_trace_matches_the_interpreting_sink() {
    let sim = rfid_simulator::SupplyChain::build(rfid_simulator::SimConfig::default());
    let script = format!(
        "{} \
         CREATE RULE audit, audit ON observation(r, o, t), group(r) = 'docks' \
         IF EXISTS(OBJECTLOCATION WHERE object_epc = o) AND type(o) != 'pallet' \
         DO INSERT INTO AUDIT VALUES (r, o, t, 1); \
            UPDATE AUDIT SET n = 2 WHERE what = o AND at < t; \
            DELETE FROM AUDIT WHERE what = o AND n = 2; \
            INSERT INTO NOWHERE VALUES (o); \
            UPDATE AUDIT SET bogus = 1 WHERE what = o; \
            notify(location(r), type(o), missing)",
        sim.rule_set()
    );
    let outcome = runtime_against_the_interpreting_sink(&sim, &script, 6_000);
    assert!(outcome
        .tables
        .iter()
        .all(|(n, rows)| rows.is_some() == (*n != "MISSING" && *n != "LATE")));
    assert!(outcome.calls.len() > 10 && outcome.errors.len() > 100);
}

/// The Fig. 9(b) family at 500 rules, whose 500 rules share 4 firing
/// programs, over a short trace: `RuleRuntime` ends where the interpreting
/// sink ends.
#[test]
fn runtime_over_the_500_rule_family_matches_the_interpreting_sink() {
    let sim = rfid_simulator::SupplyChain::build(rfid_simulator::SimConfig::default());
    let outcome = runtime_against_the_interpreting_sink(&sim, &sim.rule_family(500), 2_000);
    let called = |name: &str| outcome.calls.iter().any(|(n, _)| n == name);
    let kinds = [
        "send_duplicate_msg",
        "send_infield_msg",
        "send_containment_msg",
    ];
    assert!(
        kinds.iter().all(|name| called(name)),
        "{} calls",
        outcome.calls.len()
    );
}

/// `RuleRuntime` and the interpreting sink over about `events` simulated
/// observations: what the runtime was left with, which must be what the
/// sink was left with.
fn runtime_against_the_interpreting_sink(
    sim: &rfid_simulator::SupplyChain,
    script: &str,
    events: usize,
) -> Outcome {
    let trace = sim.generate(events);
    let mut rt = RuleRuntime::with_parts(
        sim.catalog.clone(),
        database(),
        rceda::EngineConfig::default(),
    );
    rt.load(script).expect("loads");
    rt.process_all(trace.observations.iter().copied());
    let mut reference = interpreted_stream(
        &sim.catalog,
        script,
        database(),
        &trace.observations,
        |_, _| {},
    );
    let outcome = runtime_outcome(rt, &mut reference);
    assert_same(&outcome, &reference);
    outcome
}

/// A table created, and one replaced, through `db_mut()` after `load`: the
/// next firing writes to them, by the new column positions.
#[test]
fn runtime_sees_tables_created_and_replaced_after_load() {
    let catalog = catalog();
    let script = "CREATE RULE late, late ON observation(r, o, t) IF true \
                  DO INSERT INTO LATE VALUES (r, o, t, 0); \
                     UPDATE LATE SET n = 7 WHERE what = o; \
                     UPDATE AUDIT SET n = 1 WHERE what = o";
    let read =
        |serial, ms| Observation::new(ReaderId(0), epc(1, serial), Timestamp::from_millis(ms));
    let stream = [read(1, 10), read(2, 20), read(1, 30), read(3, 40)];
    // Before read 1: LATE appears. Before read 3: AUDIT is replaced by a
    // table whose `what` and `n` sit elsewhere.
    let change = |before: usize, db: &mut Database| match before {
        1 => {
            db.create_table("LATE", audit_schema());
        }
        3 => {
            let moved = Schema::new(&[("n", ColumnType::Int), ("what", ColumnType::Epc)]);
            let audit = db.create_table("AUDIT", moved);
            audit
                .insert(vec![Value::Int(0), Value::Epc(epc(1, 3))])
                .expect("fits");
        }
        _ => {}
    };
    let mut rt =
        RuleRuntime::with_parts(catalog.clone(), database(), rceda::EngineConfig::default());
    rt.load(script).expect("loads");
    for (i, obs) in stream.iter().enumerate() {
        change(i, rt.db_mut());
        rt.process(*obs);
    }
    rt.finish();
    let mut reference = interpreted_stream(&catalog, script, database(), &stream, change);
    let outcome = runtime_outcome(rt, &mut reference);
    assert_same(&outcome, &reference);
    let rows = |name: &str| {
        let (_, rows) = outcome
            .tables
            .iter()
            .find(|(n, _)| *n == name)
            .expect("listed");
        rows.clone().expect("exists")
    };
    assert_eq!(
        rows("LATE").len(),
        3,
        "every firing after the table appeared"
    );
    assert!(rows("LATE").iter().all(|row| row[3] == Value::Int(7)));
    assert_eq!(
        rows("AUDIT"),
        vec![vec![Value::Int(1), Value::Epc(epc(1, 3))]]
    );
    assert_eq!(
        outcome.errors.len(),
        2,
        "LATE was missing for the first firing"
    );
}
