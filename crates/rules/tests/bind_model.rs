//! Model-based tests of the binder's rows.
//!
//! [`rfid_rules::bind::Row`] is an inline association list standing in for a
//! `HashMap<&str, Value>`. The model here *is* that map: a reference binder
//! written against `HashMap` rows, as plainly as the semantics allow, run on
//! generated event ASTs and instances that match them. Whatever the
//! reference binds, the real binder must bind — through shadowed names
//! (later insert wins), more variables than a row holds inline, `OR`
//! branches whose failed left attempt bound something first, `TSEQ+` rows,
//! and the lookup order of [`Bindings::get`] — and `location(v)`/`group(v)`
//! must resolve as if the reader's name had been looked up again.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use rfid_epc::{Epc, Gid96, ReaderId};
use rfid_events::{Catalog, Instance, InstanceKind, Observation, Span, Timestamp};
use rfid_rules::actions::{eval, ActionError};
use rfid_rules::ast::{EventAst, Term, ValueExpr};
use rfid_rules::bind::{bind, Bindings, Row, INLINE_VARS};
use rfid_store::Value;

/// Few names, so generated patterns shadow each other; more than a row
/// holds inline, so some spill.
const NAMES: [&str; 7] = ["r", "o", "t", "a", "b", "c", "d"];
const _: () = assert!(NAMES.len() > INLINE_VARS);

/// Readers 0 and 1 are deployed; an observation by reader 9 binds the
/// fallback name `reader#9`, which no catalog lookup resolves.
const OBSERVED_READERS: [u32; 3] = [0, 1, 9];

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.readers.register("r1", "docks", "dock-a");
    c.readers.register("r2", "shelves", "shelf-b");
    c
}

/// Turns a string of random bytes into choices; zeros once it runs out.
struct Picks<'a>(std::slice::Iter<'a, u8>);

impl Picks<'_> {
    fn below(&mut self, n: u8) -> u8 {
        self.0.next().map_or(0, |p| p % n)
    }

    fn name(&mut self) -> String {
        NAMES[usize::from(self.below(NAMES.len() as u8))].to_owned()
    }

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

    /// An instance the engine could have detected for `ast`.
    fn instance(&mut self, ast: &EventAst) -> Arc<Instance> {
        Arc::new(match ast {
            EventAst::Observation { .. } | EventAst::Alias(_) => {
                let reader = OBSERVED_READERS[usize::from(self.below(3))];
                let object: Epc = Gid96::new(1, 1, u64::from(self.below(200)))
                    .expect("small serial")
                    .into();
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
}

type ModelRow<'a> = HashMap<&'a str, Value>;

#[derive(Debug, Default)]
struct Model<'a> {
    scalar: ModelRow<'a>,
    bulk: Vec<ModelRow<'a>>,
}

impl Model<'_> {
    /// Scalar first, then the given bulk row, then the first bulk row.
    fn get(&self, var: &str, row: Option<usize>) -> Option<&Value> {
        self.scalar
            .get(var)
            .or_else(|| row.and_then(|i| self.bulk[i].get(var)))
            .or_else(|| self.bulk.first().and_then(|r| r.get(var)))
    }

    /// `location(var)`/`group(var)`, by the bound reader name alone.
    fn reader_field(
        &self,
        var: &str,
        row: Option<usize>,
        catalog: &Catalog,
        location: bool,
    ) -> Result<Value, ActionError> {
        let value = self
            .get(var, row)
            .ok_or_else(|| ActionError::UnboundVar(var.to_owned()))?;
        let name = value
            .as_str()
            .ok_or_else(|| ActionError::Unresolvable(format!("`{var}` is not a reader name")))?;
        let id = catalog
            .readers
            .id_of(name)
            .ok_or_else(|| ActionError::Unresolvable(format!("reader `{name}`")))?;
        let field = if location {
            catalog.readers.location_of(id)
        } else {
            catalog.readers.group_of(id)
        };
        Ok(Value::str(field.expect("a registered reader has both")))
    }
}

/// The reference binder. `bulk` is `None` inside an aperiodic element.
fn model_bind<'a>(
    ast: &'a EventAst,
    inst: &Instance,
    catalog: &Catalog,
    scalar: &mut ModelRow<'a>,
    bulk: &mut Option<&mut Vec<ModelRow<'a>>>,
) -> Result<(), ()> {
    let two = |inst: &Instance| match inst.kind() {
        InstanceKind::Composite { children, .. } if children.len() == 2 => {
            Ok((children[0].clone(), children[1].clone()))
        }
        _ => Err(()),
    };
    match ast {
        EventAst::Alias(_) => Err(()),
        EventAst::Observation {
            reader,
            object,
            time,
            ..
        } => {
            let InstanceKind::Observation(obs) = inst.kind() else {
                return Err(());
            };
            if let Term::Var(v) = reader {
                let name = match catalog.readers.def(obs.reader) {
                    Some(def) => Value::Str(def.name.clone()),
                    None => Value::str(obs.reader.to_string()),
                };
                scalar.insert(v, name);
            }
            if let Term::Var(v) = object {
                scalar.insert(v, Value::Epc(obs.object));
            }
            if let Term::Var(v) = time {
                scalar.insert(v, Value::Time(obs.at));
            }
            Ok(())
        }
        EventAst::Within { inner, .. } => model_bind(inner, inst, catalog, scalar, bulk),
        EventAst::Not(_) => Ok(()),
        EventAst::And(a, b)
        | EventAst::Seq(a, b)
        | EventAst::TSeq {
            first: a,
            second: b,
            ..
        } => {
            let (left, right) = two(inst)?;
            model_bind(a, &left, catalog, scalar, bulk)?;
            model_bind(b, &right, catalog, scalar, bulk)
        }
        EventAst::Or(a, b) => {
            let InstanceKind::Composite { children, .. } = inst.kind() else {
                return Err(());
            };
            let [child] = &children[..] else {
                return Err(());
            };
            // Left first; an attempt that fails must leave nothing behind.
            for branch in [a, b] {
                let mut attempt = scalar.clone();
                let mut attempt_bulk = Vec::new();
                if model_bind(
                    branch,
                    child,
                    catalog,
                    &mut attempt,
                    &mut Some(&mut attempt_bulk),
                )
                .is_ok()
                {
                    *scalar = attempt;
                    if let Some(bulk) = bulk.as_deref_mut() {
                        bulk.extend(attempt_bulk);
                    }
                    return Ok(());
                }
            }
            Err(())
        }
        EventAst::SeqPlus(inner) | EventAst::TSeqPlus { inner, .. } => {
            let Some(bulk) = bulk.as_deref_mut() else {
                return Err(()); // nested aperiodic
            };
            let InstanceKind::Composite { children, .. } = inst.kind() else {
                return Err(());
            };
            for element in children.iter() {
                let mut row = ModelRow::new();
                model_bind(inner, element, catalog, &mut row, &mut None)?;
                bulk.push(row);
            }
            Ok(())
        }
    }
}

fn assert_row_is(row: &Row<'_>, model: &ModelRow<'_>) {
    assert_eq!(row.len(), model.len(), "{row:?} vs {model:?}");
    assert_eq!(row.is_empty(), model.is_empty());
    let listed: HashMap<&str, Value> = row.iter().map(|(k, v)| (k, v.clone())).collect();
    assert_eq!(&listed, model);
    for name in NAMES {
        assert_eq!(row.get(name), model.get(name), "{name}");
        assert_eq!(row.contains_key(name), model.contains_key(name));
        if let Some(v) = model.get(name) {
            assert_eq!(&row[name], v);
        }
    }
}

fn assert_bindings_are(b: &Bindings<'_>, model: &Model<'_>, inst: &Instance, catalog: &Catalog) {
    assert_row_is(&b.scalar, &model.scalar);
    assert_eq!(b.bulk.len(), model.bulk.len());
    for (row, model_row) in b.bulk.iter().zip(&model.bulk) {
        assert_row_is(row, model_row);
    }
    let rows = std::iter::once(None).chain((0..b.bulk.len()).map(Some));
    for at in rows {
        let row = at.map(|i| &b.bulk[i]);
        for name in NAMES {
            assert_eq!(b.get(name, row), model.get(name, at), "{name} in {at:?}");
            for location in [true, false] {
                let expr = if location {
                    ValueExpr::LocationOf(name.to_owned())
                } else {
                    ValueExpr::GroupOf(name.to_owned())
                };
                assert_eq!(
                    eval(&expr, b, row, inst, catalog),
                    model.reader_field(name, at, catalog, location),
                    "{expr:?} in {at:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn binder_agrees_with_the_hash_map_model(
        picks in prop::collection::vec(any::<u8>(), 8..160),
        depth in 0u8..5,
    ) {
        let catalog = catalog();
        let mut picks = Picks(picks.iter());
        let ast = picks.event(depth);
        let inst = picks.instance(&ast);

        let mut model = Model::default();
        let expected = model_bind(&ast, &inst, &catalog, &mut model.scalar, &mut Some(&mut model.bulk));
        match bind(&ast, &inst, &catalog) {
            Ok(bound) => {
                prop_assert!(expected.is_ok(), "bound what the model rejects: {ast:?}");
                assert_bindings_are(&bound, &model, &inst, &catalog);
            }
            Err(e) => prop_assert!(expected.is_err(), "{e} on {ast:?}"),
        }
    }

    #[test]
    fn row_is_a_map_whatever_the_insert_order(
        inserts in prop::collection::vec((0usize..NAMES.len(), 0i64..4), 0..24),
    ) {
        let mut row = Row::default();
        let mut model = ModelRow::new();
        for (name, value) in inserts {
            row.insert(NAMES[name], Value::Int(value));
            model.insert(NAMES[name], Value::Int(value));
            assert_row_is(&row, &model);
        }
        let mut reversed = Row::default();
        let mut pairs: Vec<_> = row.iter().map(|(k, v)| (k, v.clone())).collect();
        pairs.reverse();
        for (k, v) in pairs {
            reversed.insert(k, v);
        }
        prop_assert_eq!(reversed, row, "equality ignores binding order");
    }
}

/// The case the `OR` property is about, spelled out: the left branch binds
/// `r` and `a` from the first read and then fails on the second, the right
/// branch matches. Nothing of the left attempt may remain — neither the new
/// `a` nor its `r`, which would have replaced the outer one.
#[test]
fn failed_left_or_attempt_leaves_no_bindings() {
    let ast = rfid_rules::parser::parse_event(
        "observation(r, o, t); \
         (SEQ(observation(r, a, t1); SEQ(observation(r, b, t2); observation(r, c, t3))) \
          OR SEQ(observation('r2', b, t2); observation('r2', c, t3)))",
    )
    .expect("parses");
    let read = |reader, serial, secs| {
        let object: Epc = Gid96::new(1, 1, serial).expect("small serial").into();
        let at = Timestamp::from_secs(secs);
        Arc::new(Instance::observation(Observation::new(
            ReaderId(reader),
            object,
            at,
        )))
    };
    let taken = Instance::pair("SEQ", read(1, 20, 2), read(1, 30, 3));
    let inst = Instance::pair(
        "SEQ",
        read(0, 10, 1),
        Arc::new(Instance::wrap("OR", Arc::new(taken))),
    );
    let catalog = catalog();
    let bound = bind(&ast, &inst, &catalog).expect("the right branch matches");
    assert_eq!(bound.scalar["r"], Value::str("r1"), "the outer reader");
    assert!(!bound.scalar.contains_key("a"));
    assert!(!bound.scalar.contains_key("t1"));
    assert_eq!(bound.scalar.len(), 7, "r o t + b t2 c t3: the row spilled");
    let location = ValueExpr::LocationOf("r".to_owned());
    assert_eq!(
        eval(&location, &bound, None, &inst, &catalog),
        Ok(Value::str("dock-a"))
    );
}

/// The generator reaches what the properties are about; if a change to it
/// stopped producing these, the properties above would pass vacuously.
#[test]
fn generated_cases_cover_spills_shadowing_failed_or_branches_and_bulk_rows() {
    use proptest::strategy::Strategy;
    use proptest::test_runner::TestRng;

    let catalog = catalog();
    let mut rng = TestRng::for_test("coverage");
    let bytes = prop::collection::vec(any::<u8>(), 8..160);
    let (mut spilled, mut shadowed, mut bulk_rows, mut rejected, mut readers) = (0, 0, 0, 0, 0);
    for _ in 0..2000 {
        let picks = bytes.sample(&mut rng);
        let mut picks = Picks(picks.iter());
        let ast = picks.event(4);
        let inst = picks.instance(&ast);
        let Ok(bound) = bind(&ast, &inst, &catalog) else {
            rejected += 1;
            continue;
        };
        spilled += usize::from(bound.scalar.len() > INLINE_VARS);
        bulk_rows += bound.bulk.len();
        let var_sites = format!("{ast:?}").matches("Var(").count();
        shadowed += usize::from(var_sites > bound.scalar.len() && bound.bulk.is_empty());
        let location = ValueExpr::LocationOf("r".to_owned());
        readers += usize::from(eval(&location, &bound, None, &inst, &catalog).is_ok());
    }
    assert!(spilled > 50, "{spilled} rows spilled");
    assert!(shadowed > 200, "{shadowed} cases rebound a name");
    assert!(bulk_rows > 200, "{bulk_rows} bulk rows");
    assert!(rejected > 20, "{rejected} unbindable cases");
    assert!(readers > 100, "{readers} resolved reader variables");
}
