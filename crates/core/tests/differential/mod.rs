//! The differential driver: one [`Case`] — a catalog, a rule program and a
//! stream — run through the engine along an axis (how the stream is fed,
//! the observe level, a point of the shard grid) and held by [`Case::check`]
//! to the reference interpreter of docs/SEMANTICS.md
//! (`support/reference.rs`) as a multiset of full instances, absence
//! witnesses included. Every differential suite is a case source, its axes
//! and its pins over this module. It names the engine, so it lives beside
//! `support/`, whose engine-free gate (`scripts/check.sh`) it would fail.

// Each suite uses its own part of the module.
#![allow(dead_code)]

use std::sync::{Arc, Mutex, OnceLock};

use rceda::{Engine, EngineConfig, ObserveLevel, RuleId, ShardConfig, ShardedEngine};
use rfid_events::{Catalog, EventExpr, Instance, Observation, Timestamp};
use rfid_simulator::{SimConfig, SupplyChain};

use crate::support::reference;

/// A firing as a suite sees it: the rule's index in its case and the
/// instance the rule fired.
pub type Firing = (u32, Instance);

/// A firing identified independently of emission order: rule index,
/// instance window, constituent observations.
pub type Fingerprint = (u32, Timestamp, Timestamp, Vec<Observation>);

pub fn fingerprint(rule: RuleId, inst: &Instance) -> Fingerprint {
    (rule.0, inst.t_begin(), inst.t_end(), inst.observations())
}

/// The sorted fingerprints of `fired`.
pub fn fingerprints(fired: &[Firing]) -> Vec<Fingerprint> {
    let mut out: Vec<_> = fired
        .iter()
        .map(|(r, i)| fingerprint(RuleId(*r), i))
        .collect();
    out.sort();
    out
}

/// The default deployment and the first `len` observations of its trace.
pub struct Trace {
    pub sim: SupplyChain,
    pub stream: Vec<Observation>,
    len: usize,
}

/// The traces built so far in this test binary.
static TRACES: Mutex<Vec<&'static Trace>> = Mutex::new(Vec::new());

/// What the reference fires for one rule over the trace of one length.
type Memo = (usize, EventExpr, Arc<[Instance]>);
static FIRED: Mutex<Vec<Memo>> = Mutex::new(Vec::new());

/// The trace of `len` observations, built once per test binary.
pub fn trace(len: usize) -> &'static Trace {
    let mut traces = TRACES.lock().unwrap();
    if let Some(&trace) = traces.iter().find(|t| t.len == len) {
        return trace;
    }
    let sim = SupplyChain::build(SimConfig::default());
    let stream = sim.generate(len).observations;
    let trace: &'static Trace = Box::leak(Box::new(Trace { sim, stream, len }));
    traces.push(trace);
    trace
}

impl Trace {
    pub fn case(&'static self, rules: Vec<EventExpr>) -> Case<'static> {
        Case {
            on_trace: Some(self.len),
            ..Case::new(&self.sim.catalog, rules, &self.stream)
        }
    }
}

/// How a run feeds the stream to the engine.
#[derive(Debug, Clone, Copy)]
pub enum Feed {
    /// One `process` call per observation.
    Scalar,
    /// `process_batch` over chunks of this size.
    Chunks(usize),
    /// Chunks of this size, alternately one `process_batch` call and one
    /// `process` call per element, on the same engine.
    Mixed(usize),
}

/// A rule program over a stream; rule `i` is registered `r{i}`.
pub struct Case<'a> {
    pub catalog: &'a Catalog,
    pub rules: Vec<EventExpr>,
    pub stream: &'a [Observation],
    /// The length of the [`trace`] the case runs on, if it does.
    on_trace: Option<usize>,
    expected: OnceLock<Vec<Firing>>,
}

impl<'a> Case<'a> {
    pub fn new(catalog: &'a Catalog, rules: Vec<EventExpr>, stream: &'a [Observation]) -> Self {
        Case {
            catalog,
            rules,
            stream,
            on_trace: None,
            expected: OnceLock::new(),
        }
    }

    pub fn engine(&self, config: EngineConfig) -> Engine {
        let mut engine = Engine::new(self.catalog.clone(), config);
        for (pos, rule) in self.rules.iter().enumerate() {
            let name = format!("r{pos}");
            engine.add_rule(&name, rule.clone()).expect("valid rule");
        }
        engine
    }

    pub fn sharded(&self, config: ShardConfig) -> ShardedEngine {
        let mut engine = ShardedEngine::new(self.catalog.clone(), config);
        for (pos, rule) in self.rules.iter().enumerate() {
            let name = format!("r{pos}");
            engine.add_rule(&name, rule.clone()).expect("valid rule");
        }
        engine
    }

    /// Feeds the whole stream and finishes: the firings in delivery order,
    /// and the engine for its counters. A capped run is outside the
    /// reference's domain, so none may cap.
    pub fn run(&self, feed: Feed, observe: ObserveLevel) -> (Vec<Firing>, Engine) {
        let config = EngineConfig {
            observe,
            ..EngineConfig::default()
        };
        let mut engine = self.engine(config);
        let mut fired = Vec::new();
        let mut sink = |rule: RuleId, inst: &Instance| fired.push((rule.0, inst.clone()));
        let size = match feed {
            Feed::Scalar => 1,
            Feed::Chunks(n) | Feed::Mixed(n) => n,
        };
        for (i, chunk) in self.stream.chunks(size).enumerate() {
            let per_observation = match feed {
                Feed::Scalar => true,
                Feed::Chunks(_) => false,
                Feed::Mixed(_) => i % 2 == 1,
            };
            if per_observation {
                for &obs in chunk {
                    engine.process(obs, &mut sink);
                }
            } else {
                engine.process_batch(chunk, &mut sink);
            }
        }
        engine.finish(&mut sink);
        let drops = engine.stats().capacity_drops;
        assert_eq!(drops, 0, "a capped run is outside the reference's domain");
        (fired, engine)
    }

    /// [`Case::run`] on the sharded pipeline, whose barriers promise
    /// delivery in `t_end` order across partitions.
    pub fn run_sharded(&self, config: ShardConfig) -> (Vec<Firing>, ShardedEngine) {
        let mut engine = self.sharded(config);
        let mut fired = Vec::new();
        engine.process_all(self.stream.iter().copied(), &mut |rule, inst| {
            fired.push((rule.0, inst.clone()));
        });
        let in_order = fired.windows(2).all(|w| w[0].1.t_end() <= w[1].1.t_end());
        assert!(in_order, "a barrier delivers in t_end order");
        (fired, engine)
    }

    /// What the reference fires, by rule index, each rule's in the order it
    /// fired: computed once per case, and on a [`trace`] once per rule, as
    /// each rule is matched on its own.
    pub fn expected(&self) -> &[Firing] {
        self.expected.get_or_init(|| {
            let Some(len) = self.on_trace else {
                return reference::fire(self.catalog, &self.rules, self.stream);
            };
            let mut out = Vec::new();
            for (pos, rule) in self.rules.iter().enumerate() {
                let fired = self.fired_on_trace(len, rule);
                out.extend(fired.iter().map(|inst| (pos as u32, inst.clone())));
            }
            out
        })
    }

    fn fired_on_trace(&self, len: usize, rule: &EventExpr) -> Arc<[Instance]> {
        let memo = FIRED
            .lock()
            .unwrap()
            .iter()
            .find(|(n, r, _)| *n == len && r == rule)
            .map(|m| Arc::clone(&m.2));
        memo.unwrap_or_else(|| {
            let fired = reference::fire(self.catalog, std::slice::from_ref(rule), self.stream);
            let fired: Arc<[Instance]> = fired.into_iter().map(|(_, inst)| inst).collect();
            FIRED
                .lock()
                .unwrap()
                .push((len, rule.clone(), Arc::clone(&fired)));
            fired
        })
    }

    /// Engine ≡ reference: `fired` is the reference's multiset of full
    /// instances. Both sides are sorted by fingerprint, and each run of
    /// equal fingerprints must hold equal instances.
    pub fn check(&self, fired: &[Firing]) {
        let (got, want) = (by_fingerprint(fired), by_fingerprint(self.expected()));
        let got_keys: Vec<_> = got.iter().map(|k| &k.0).collect();
        let want_keys: Vec<_> = want.iter().map(|k| &k.0).collect();
        assert_eq!(
            got_keys, want_keys,
            "firing multiset diverged from the reference"
        );
        let same = |a: &(Fingerprint, &Instance), b: &(Fingerprint, &Instance)| a.0 == b.0;
        for (got, want) in got.chunk_by(same).zip(want.chunk_by(same)) {
            let mut left: Vec<&Instance> = want.iter().map(|k| k.1).collect();
            for (key, inst) in got {
                let Some(at) = left.iter().position(|w| w == inst) else {
                    panic!("{key:?} fired as {inst:?}; the reference: {left:?}");
                };
                left.swap_remove(at);
            }
        }
    }
}

/// `fired` keyed by fingerprint, sorted.
fn by_fingerprint(fired: &[Firing]) -> Vec<(Fingerprint, &Instance)> {
    let keyed = fired
        .iter()
        .map(|(rule, inst)| (fingerprint(RuleId(*rule), inst), inst));
    let mut out: Vec<_> = keyed.collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}
