//! The five workloads: what each feeds the program, and why.
//!
//! Inputs are a function of the seed alone. The program under test receives
//! only these inputs (text lines or observations, a catalog, a rule script).

use std::fmt::Write as _;
use std::time::Instant;

use rceda::{Engine, EngineConfig, ShardConfig, ShardedEngine};
use rfid_epc::{Epc, Gid96};
use rfid_events::{Catalog, EventExpr, Observation, Span, Timestamp};
use rfid_rules::ast::{EventAst, RuleDecl};
use rfid_rules::compile::{build_defines, compile_event, resolve_aliases};
use rfid_rules::parse_script;
use rfid_simulator::{GroundTruth, SimConfig, SupplyChain};

/// Observations handed over per call, as `rfid-cli run` and
/// `RuleRuntime::process_all` do.
pub const CHUNK: usize = rceda::PROCESS_ALL_BATCH;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Canonical,
    Detect,
    Rules500,
    Freshkeys,
    Sharded,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Canonical,
        Workload::Detect,
        Workload::Rules500,
        Workload::Freshkeys,
        Workload::Sharded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Canonical => "canonical",
            Workload::Detect => "detect",
            Workload::Rules500 => "rules500",
            Workload::Freshkeys => "freshkeys",
            Workload::Sharded => "sharded",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the rules' `DO` lists run (through `RuleRuntime`), or only
    /// detection with a counting sink.
    pub fn runs_actions(self) -> bool {
        matches!(self, Workload::Canonical | Workload::Rules500)
    }
}

/// Logical seconds of the paper-scale supply chain (≈1300 events per
/// logical second) replayed by `canonical`, `detect` and `sharded`.
const SUPPLY_CHAIN_HORIZON_S: u64 = 300;
/// Logical seconds replayed by `rules500`. An event costs ~50× a canonical
/// one under 500 distinct rules, so the stream is short; not shorter, or a
/// pass has too few chunks for a steady median chunk.
const RULES500_HORIZON_S: u64 = 80;
/// Shelves in `rules500`'s deployment, an eighth of paper scale. Every tag
/// of a shelf's first bulk read is a first sighting and fires each of the
/// 125 infield rules; with all 768 shelves that opening burst alone is
/// 1.9M firings and five seconds.
const RULES500_SHELVES: usize = 96;
/// Rules in `rules500`: the endpoint of the paper's Fig. 9(b).
const RULES500_RULES: usize = 500;
/// Observations in `freshkeys`: two per fresh EPC plus the probes.
const FRESHKEYS_EVENTS: usize = 1_200_000;
/// `--smoke` divides every size by this. Not more: a case is read 10–20 s
/// after its items, so a shorter supply-chain stream packs nothing.
const SMOKE_DIVISOR: u64 = 10;

/// One rule of a compiled script.
pub struct Rule {
    pub decl: RuleDecl,
    /// Alias-free event, as `bind::bind` wants it.
    pub event: EventAst,
    pub expr: EventExpr,
}

/// A rule script, parsed and compiled through `rfid-rules`' public
/// functions, for the paths that drive a bare engine.
pub struct Program {
    pub script: String,
    pub rules: Vec<Rule>,
}

impl Program {
    pub fn compile(script: String) -> Self {
        let parsed = parse_script(&script).expect("generated script parses");
        let defines = build_defines(&parsed.defines).expect("defines build");
        let rules = parsed
            .rules
            .into_iter()
            .map(|decl| {
                let event = resolve_aliases(&decl.event, &defines).expect("aliases resolve");
                let expr = compile_event(&event).expect("event compiles");
                Rule { decl, event, expr }
            })
            .collect();
        Self { script, rules }
    }

    /// A fresh engine with the plan lowered and the bounds solved, so the
    /// first timed chunk does not pay for them.
    pub fn engine(&self, catalog: &Catalog, config: EngineConfig) -> Engine {
        let mut engine = Engine::new(catalog.clone(), config);
        for rule in &self.rules {
            engine
                .add_rule(&rule.decl.name, rule.expr.clone())
                .expect("generated rule is valid");
        }
        engine.compiled_plan();
        engine
    }

    /// A fresh sharded engine: one keyed shard and two residual workers,
    /// plus the feeding thread. Workers spawn on the first observation.
    pub fn sharded(&self, catalog: &Catalog, engine: EngineConfig) -> ShardedEngine {
        let config = ShardConfig {
            shards: 1,
            residual_workers: 2,
            engine,
            ..ShardConfig::default()
        };
        let mut sharded = ShardedEngine::new(catalog.clone(), config);
        for rule in &self.rules {
            sharded
                .add_rule(&rule.decl.name, rule.expr.clone())
                .expect("generated rule is valid");
        }
        sharded
    }
}

/// Everything a pass needs, generated from the seed.
pub struct Inputs {
    pub workload: Workload,
    pub catalog: Catalog,
    pub stream: Vec<Observation>,
    /// `canonical` only: the stream as `time_ms,reader,epc` lines, header
    /// first, as `rfid-cli simulate` writes it.
    pub csv: Option<String>,
    pub program: Program,
    /// Supply-chain workloads: what a correct detector must find.
    pub truth: Option<GroundTruth>,
    /// Stream generation (and CSV rendering) time.
    pub generate_ms: f64,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, smoke: bool) -> Self {
        let scale = if smoke { SMOKE_DIVISOR } else { 1 };
        let start = Instant::now();
        match workload {
            Workload::Freshkeys => {
                let catalog = freshkeys_catalog();
                let stream = freshkeys_stream(&catalog, seed, FRESHKEYS_EVENTS / scale as usize);
                let generate_ms = start.elapsed().as_secs_f64() * 1e3;
                Self {
                    workload,
                    catalog,
                    stream,
                    csv: None,
                    program: Program::compile(FRESHKEYS_RULES.to_owned()),
                    truth: None,
                    generate_ms,
                }
            }
            _ => {
                let mut cfg = SimConfig {
                    seed,
                    ..SimConfig::paper_scale()
                };
                if workload == Workload::Rules500 {
                    cfg.shelves = RULES500_SHELVES;
                }
                let sim = SupplyChain::build(cfg);
                let horizon = match workload {
                    Workload::Rules500 => RULES500_HORIZON_S,
                    _ => SUPPLY_CHAIN_HORIZON_S,
                };
                // Sized by logical horizon: `generate(n)` undershoots its
                // target at paper scale.
                let until = Timestamp::from_millis(horizon * 1000 / scale);
                let trace = sim.generate_until(until);
                let csv = (workload == Workload::Canonical)
                    .then(|| render_csv(&sim.catalog, &trace.observations));
                let generate_ms = start.elapsed().as_secs_f64() * 1e3;
                let script = match workload {
                    Workload::Rules500 => sim.rule_family(RULES500_RULES),
                    _ => sim.rule_set(),
                };
                Self {
                    workload,
                    catalog: sim.catalog.clone(),
                    stream: trace.observations,
                    csv,
                    program: Program::compile(script),
                    truth: Some(trace.truth),
                    generate_ms,
                }
            }
        }
    }

    /// A hash of the stream, the same in every process (`DefaultHasher::new`
    /// is unkeyed): tells two seeds' inputs apart when their counts agree.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.stream.hash(&mut h);
        h.finish()
    }

    /// The CSV body as lines, header dropped.
    pub fn lines(&self) -> Vec<&str> {
        self.csv
            .as_deref()
            .map(|text| text.lines().skip(1).collect())
            .unwrap_or_default()
    }
}

fn render_csv(catalog: &Catalog, stream: &[Observation]) -> String {
    let mut out = String::with_capacity(stream.len() * 64);
    out.push_str("time_ms,reader,epc\n");
    for obs in stream {
        let name = &catalog
            .readers
            .def(obs.reader)
            .expect("the simulator registered its readers")
            .name;
        let _ = writeln!(
            out,
            "{},{},{}",
            obs.at.as_millis(),
            name,
            obs.object.to_uri()
        );
    }
    out
}

fn freshkeys_catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.readers.register("in1", "in", "dock-in");
    cat.readers.register("out1", "out", "dock-out");
    cat.readers.register("probe1", "probe", "spot-check");
    cat
}

/// `mem_profile`'s four rules in the rule language. Every object is a fresh
/// EPC seen in → out, so `reverse` holds only dead candidates (expired at
/// 30 s), `open` is unbounded on its left side, `linger`'s day-long gap is
/// the lag the bounds solver must keep off the other rules, and `arrival`
/// records every `out` in a negation history bounded at 60 s.
const FRESHKEYS_RULES: &str = "\
CREATE RULE reverse, reverse \
ON WITHIN(observation('out1', o, t1); observation('in1', o, t2), 30 sec) \
IF true DO note_reverse(o) \
CREATE RULE open, open \
ON observation('probe1', o, t1); observation('out1', o, t2) \
IF true DO note_open(o) \
CREATE RULE linger, linger \
ON WITHIN(TSEQ+(observation('probe1', o, t), 0 sec, 86400 sec), 172800 sec) \
IF true DO note_linger() \
CREATE RULE arrival, arrival \
ON WITHIN(NOT observation('out1', o, t1); observation('in1', o, t2), 60 sec) \
IF true DO note_arrival(o) ";

/// SplitMix64: the only randomness `freshkeys` needs.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One fresh EPC per 10 ms of logical time, read in → out 5 ms apart; one
/// object in each block of 1000 is also read by the probe. The seed picks
/// the serial range and which object of each block is probed.
fn freshkeys_stream(catalog: &Catalog, seed: u64, events: usize) -> Vec<Observation> {
    let reader = |name| catalog.reader(name).expect("registered above");
    let (r_in, r_out, r_probe) = (reader("in1"), reader("out1"), reader("probe1"));
    let mut rng = seed;
    // GID-96 serials are 36 bits; leave room for the stream's own count.
    let base = splitmix(&mut rng) % (1 << 35);
    let mut out = Vec::with_capacity(events + 3);
    let mut probed = 0u64;
    let mut n = 0u64;
    while out.len() < events {
        if n.is_multiple_of(1000) {
            probed = n + splitmix(&mut rng) % 1000;
        }
        let epc = Epc::from(Gid96::new(1, 1, base + n).expect("serial fits 36 bits"));
        let t = Timestamp::from_millis((n + 1) * 10);
        out.push(Observation::new(r_in, epc, t));
        if n == probed {
            out.push(Observation::new(r_probe, epc, t + Span::from_millis(2)));
        }
        out.push(Observation::new(r_out, epc, t + Span::from_millis(5)));
        n += 1;
    }
    out.truncate(events);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in [Workload::Canonical, Workload::Freshkeys] {
            let a = Inputs::generate(w, 7, true);
            let b = Inputs::generate(w, 7, true);
            let c = Inputs::generate(w, 8, true);
            assert_eq!(a.stream, b.stream, "{}", w.name());
            assert_eq!(a.csv, b.csv);
            assert_ne!(a.stream, c.stream, "{}", w.name());
            assert!(a.stream.windows(2).all(|p| p[0].at <= p[1].at));
        }
    }

    #[test]
    fn csv_has_one_line_per_observation() {
        let inputs = Inputs::generate(Workload::Canonical, 42, true);
        assert_eq!(inputs.lines().len(), inputs.stream.len());
        assert!(inputs.lines()[0].contains(",urn:epc:id:"));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
