//! A run: set-up, passes for the asked time, output checks, metrics.
//!
//! An end-to-end run (`--trace 0`) measures what a user of the system sees,
//! with tracing, allocation counting and engine counters off. A traced run
//! (`--trace 1`) alternates end-to-end and traced passes and reports what
//! each layer did.

use std::time::Instant;

use crate::alloc;
use crate::json::Metric;
use crate::oracle::{self, Oracle, Verdict};
use crate::passes::{self, PassOut};
use crate::procfs;
use crate::quant::{median, percentile};
use crate::span::{Name, SpanTrace};
use crate::workloads::{Inputs, Workload};

/// End-to-end metrics: `(name, unit)`. `BENCHMARK.json` fixes direction
/// and bound for each.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_eps", "events/s"),
    ("cpu_us_per_event", "us"),
    ("chunk_p50_us", "us"),
    ("chunk_p90_us", "us"),
    ("rss_growth_mb", "MB"),
];

/// How a per-layer metric behaves across two passes on the same inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A duration, or derived from one: reported as the least over passes.
    Time,
    /// A count of work done: must repeat exactly on the single-threaded
    /// workloads.
    Count,
    /// An allocation count. The program's `std` hash maps are seeded at
    /// random, and whether a map with churn rehashes in place or grows
    /// depends on where its tombstones fell: one allocation in a million
    /// comes and goes. Must repeat to within [`ALLOC_TOLERANCE`].
    Allocs,
}

use Kind::{Allocs, Count, Time};

/// Share by which an allocation count may differ between two passes on the
/// same inputs.
pub const ALLOC_TOLERANCE: f64 = 1e-3;

/// Per-layer metrics: `(name, unit, kind)`. The part before the dot is the
/// layer: the crate whose code the metric describes.
pub const PER_LAYER: [(&str, &str, Kind); 48] = [
    ("simulator.generate_ms", "ms", Time),
    ("simulator.events", "count", Count),
    ("epc.decode_ns_per_event", "ns", Time),
    ("epc.decode_failed", "count", Count),
    ("epc.allocs_per_event", "count", Allocs),
    ("edge.offer_ns_per_event", "ns", Time),
    ("edge.dropped_share", "ratio", Count),
    ("edge.allocs_per_event", "count", Allocs),
    ("core.match_ns_per_event", "ns", Time),
    ("core.finish_ms", "ms", Time),
    ("core.firings_per_kevent", "count", Count),
    ("core.occurrences_per_event", "count", Count),
    ("core.pseudo_per_kevent", "count", Count),
    ("core.probes_per_event", "count", Count),
    ("core.admissions_per_event", "count", Count),
    ("core.prunes_per_event", "count", Count),
    ("core.firings_per_probe", "ratio", Count),
    ("core.buffered_peak", "count", Count),
    ("core.retained_keys_peak", "count", Count),
    ("core.sweeps", "count", Count),
    ("core.sweeps_skipped", "count", Count),
    ("core.plan_nodes", "count", Count),
    ("core.plan_arena_bytes", "bytes", Count),
    ("core.allocs_per_event", "count", Allocs),
    ("core.alloc_bytes_per_event", "bytes", Allocs),
    ("rules.load_ms", "ms", Time),
    ("rules.bind_ns_per_firing", "ns", Time),
    ("rules.cond_ns_per_firing", "ns", Time),
    ("rules.action_ns_per_firing", "ns", Time),
    ("rules.insert_ns_per_row", "ns", Time),
    ("rules.update_ns_per_call", "ns", Time),
    ("rules.call_ns_per_call", "ns", Time),
    ("rules.errors", "count", Count),
    ("rules.allocs_per_firing", "count", Allocs),
    ("store.insert_ns_per_row", "ns", Time),
    ("store.update_ns_per_call", "ns", Time),
    ("store.replay_ms", "ms", Time),
    ("store.rows_final", "count", Count),
    ("shard.coordinator_ns_per_event", "ns", Time),
    ("shard.drain_ms", "ms", Time),
    ("shard.batches", "count", Count),
    ("shard.max_queue_depth", "count", Count),
    ("shard.worker_event_skew", "ratio", Count),
    ("shard.delivered_per_event", "ratio", Count),
    ("shard.cpu_over_single", "ratio", Time),
    ("trace.overhead_pct", "%", Time),
    ("trace.spans", "count", Count),
    ("chunk_p99_us", "us", Time),
];

/// What to run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// 1/10-size inputs, one set-up, one measured pass.
    pub smoke: bool,
}

/// What a run found.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    /// Observations offered plus firings expected, over the measured passes.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Lines for a reader: sample counts, oracle notes.
    pub notes: Vec<String>,
    /// [`Inputs::fingerprint`] of what the run was fed.
    pub inputs: u64,
}

/// Set-ups per end-to-end run, spread over the run: each is followed by a
/// third of the measuring time (and by one pass at least).
const SETUPS: usize = 3;

fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The least of `values`; 0 when empty.
///
/// Why the least and not the median: other tenants of the sandbox slow a
/// pass down by anything up to 3×, for seconds at a time, and never speed it
/// up. The fastest of a dozen passes over identical inputs is the one they
/// disturbed least; the median moves with whatever they happened to do.
fn fastest(values: impl IntoIterator<Item = f64>) -> f64 {
    let least = values.into_iter().fold(f64::INFINITY, f64::min);
    if least.is_finite() {
        least
    } else {
        0.0
    }
}

/// Chunk service times of the faster half of `passes`, pooled, ascending,
/// each pass first scaled to the fastest pass's level (`× fastest wall ÷ its
/// own wall`). Dropping the slower half drops the passes a neighbour
/// disturbed; the scaling takes the machine's slower drift out of the rest
/// and keeps every pass's shape: which of its chunks were slow, by how much.
fn level_chunks(passes: &[PassOut]) -> Vec<u64> {
    let mut by_wall: Vec<&PassOut> = passes.iter().collect();
    by_wall.sort_by_key(|p| p.wall_ns);
    by_wall.truncate(passes.len().div_ceil(2));
    let floor = by_wall.first().map_or(0.0, |p| p.wall_ns as f64);
    let mut all: Vec<u64> = by_wall
        .iter()
        .flat_map(|p| {
            let scale = per(floor, p.wall_ns as f64);
            p.chunk_ns.iter().map(move |&c| (c as f64 * scale) as u64)
        })
        .collect();
    all.sort_unstable();
    all
}

/// `--trace 0`.
pub fn end_to_end(a: &Args) -> Outcome {
    let mut notes = Vec::new();
    let mut v = Verdict::default();
    let mut setup_s = Vec::new();
    let mut rss_growth_mb = 0.0;
    let mut measured: Vec<PassOut> = Vec::new();
    let mut state: Option<(Inputs, PassOut)> = None;
    let setups = if a.smoke { 1 } else { SETUPS };
    for k in 0..setups {
        // The previous set-up's inputs go before the next are built, so
        // every set-up sees the same memory.
        drop(state.take());
        let t0 = Instant::now();
        let inputs = Inputs::generate(a.workload, a.seed, a.smoke);
        let rss_before = procfs::rss_mb();
        let warm = passes::untraced(&inputs);
        setup_s.push(t0.elapsed().as_secs_f64());
        if k == 0 {
            // The first pass of the process: nothing the program freed
            // earlier hides what this one needs.
            rss_growth_mb = warm.rss_alive_mb - rss_before;
        }

        let oracle = Oracle::new(&inputs, &warm);
        let window = Instant::now();
        loop {
            let pass = passes::untraced(&inputs);
            oracle.check(&mut v, &pass);
            measured.push(pass);
            if a.smoke || window.elapsed().as_secs_f64() >= a.seconds / setups as f64 {
                break;
            }
        }
        state = Some((inputs, warm));
    }
    let (inputs, warm) = state.expect("at least one set-up ran");
    cross_check(&mut v, &inputs, &warm);

    let events = warm.offered as f64;
    let walls: Vec<f64> = measured.iter().map(|p| p.wall_ns as f64 / 1e9).collect();
    let chunks = level_chunks(&measured);
    let p50 = percentile(&chunks, 50.0);
    let p90 = percentile(&chunks, 90.0);
    if p90.is_none() {
        notes.push(format!(
            "only {} chunk samples: too few for a 90th percentile, reporting the slowest",
            chunks.len()
        ));
    }
    let slowest = chunks.last().copied().unwrap_or(0);
    let values = [
        fastest(setup_s.iter().copied()),
        per(events, fastest(walls.iter().copied())),
        per(fastest(measured.iter().map(|p| p.cpu_s)) * 1e6, events),
        us(p50.unwrap_or(slowest)),
        us(p90.unwrap_or(slowest)),
        rss_growth_mb,
    ];
    notes.push(format!(
        "{} events per pass, {} measured passes, {} set-ups (a warm-up pass each), \
         {} chunk samples, {} firings per pass",
        warm.offered,
        measured.len(),
        setup_s.len(),
        chunks.len(),
        warm.total_firings()
    ));
    notes.push(format!(
        "pass wall: fastest {:.1} ms, median {:.1} ms, slowest {:.1} ms; set-ups {:.3?} s",
        fastest(walls.iter().copied()) * 1e3,
        median(&walls) * 1e3,
        walls.iter().copied().fold(0.0, f64::max) * 1e3,
        setup_s
    ));
    let attempted = measured.len() as u64 * (warm.offered + warm.total_firings());
    finish(v, &inputs, attempted, &END_TO_END, &values, notes)
}

/// Checks a workload's path against another path over the same inputs.
fn cross_check(v: &mut Verdict, inputs: &Inputs, reference: &PassOut) {
    match inputs.workload {
        // Same rules, same stream, one engine on one thread.
        Workload::Sharded => v.same_firings(
            "sharded vs single engine",
            &reference.firings,
            &passes::detect_reference(inputs).firings,
        ),
        // The decoded, unfiltered stream through a bare engine: `detect`'s
        // path. It must differ from `canonical` by the duplicates alone.
        Workload::Canonical => {
            let bare = passes::detect_reference(inputs);
            let want = oracle::expected_firings(inputs, false).expect("truth is known");
            v.same_firings("bare engine vs truth", &bare.firings, &want);
            v.same_firings(
                "canonical vs bare engine, past the duplicate rule",
                &reference.firings[1..],
                &bare.firings[1..],
            );
        }
        _ => {}
    }
}

fn finish(
    v: Verdict,
    inputs: &Inputs,
    attempted: u64,
    names: &[(&'static str, &'static str)],
    values: &[f64],
    mut notes: Vec<String>,
) -> Outcome {
    notes.extend(v.notes.iter().map(|n| format!("FAILED {n}")));
    Outcome {
        correct: v.failed == 0,
        attempted: attempted.max(1),
        failed: v.failed,
        metrics: names
            .iter()
            .zip(values)
            .map(|(&(name, unit), &value)| Metric { name, unit, value })
            .collect(),
        notes,
        inputs: inputs.fingerprint(),
    }
}

/// `--trace 1`. With `iterations`, runs exactly that many (the determinism
/// self-check); otherwise as many as fit in `--seconds`.
pub fn traced(a: &Args, iterations: Option<usize>, out_dir: Option<&std::path::Path>) -> Outcome {
    let mut notes = Vec::new();
    let mut v = Verdict::default();
    let inputs = Inputs::generate(a.workload, a.seed, a.smoke);
    let load_ms = passes::load_ms(&inputs);
    let warm = passes::untraced(&inputs);
    let oracle = Oracle::new(&inputs, &warm);

    // One entry per iteration.
    let mut untraced: Vec<PassOut> = Vec::new();
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut traced_wall_ns = Vec::new();
    // `sharded` only: CPU of a single-engine pass over the same stream.
    let mut single_cpu_s = Vec::new();
    let mut last_trace;
    let window = Instant::now();
    loop {
        let plain = passes::untraced(&inputs);
        oracle.check(&mut v, &plain);
        untraced.push(plain);

        let mut t = SpanTrace::new();
        alloc::set_counting(true);
        let mut pass = passes::traced(&inputs, &mut t);
        alloc::set_counting(false);
        oracle.check(&mut v, &pass);
        let covered = t.self_ns_total() as f64 / pass.wall_ns as f64;
        if !(0.95..=1.05).contains(&covered) {
            v.failed += 1;
            v.notes.push(format!(
                "self times cover {:.1}% of the traced pass",
                covered * 100.0
            ));
        }

        let replay = passes::replay_store(std::mem::take(&mut pass.store_ops));
        v.equal("store replay failures", replay.failed, 0);
        v.equal(
            "store replay rows vs traced pass",
            replay.rows_final,
            pass.rows.iter().sum(),
        );
        if a.workload == Workload::Sharded {
            single_cpu_s.push(passes::detect_reference(&inputs).cpu_s);
        }
        rows.push(layer_values(&inputs, &pass, &t, &replay, load_ms));
        traced_wall_ns.push(pass.wall_ns as f64);
        last_trace = t;
        let done = match iterations {
            Some(n) => rows.len() >= n,
            None => a.smoke || window.elapsed().as_secs_f64() >= a.seconds,
        };
        if done {
            break;
        }
    }
    cross_check(&mut v, &inputs, &warm);

    // The least of each time (see `fastest`); counts must not differ between
    // iterations, except on `sharded`, where the workers' interleaving moves
    // allocation and batch counts.
    let mut values = Vec::with_capacity(PER_LAYER.len());
    for (i, &(name, _, kind)) in PER_LAYER.iter().enumerate().take(PER_LAYER.len() - 4) {
        let column: Vec<f64> = rows.iter().map(|r| r[i]).collect();
        let mid = median(&column);
        let repeats = match kind {
            _ if a.workload == Workload::Sharded => true,
            Time => true,
            Count => column.iter().all(|x| x.to_bits() == column[0].to_bits()),
            Allocs => column
                .iter()
                .all(|x| (x - mid).abs() <= ALLOC_TOLERANCE * mid),
        };
        if !repeats {
            v.failed += 1;
            v.notes
                .push(format!("{name} differs between traced passes: {column:?}"));
        }
        values.push(match kind {
            Time => fastest(column.iter().copied()),
            Count => column[0],
            Allocs => mid,
        });
    }
    let chunks = level_chunks(&untraced);
    let t = last_trace;
    values.push(per(
        fastest(untraced.iter().map(|p| p.cpu_s)),
        fastest(single_cpu_s),
    ));
    let overhead = per(
        fastest(traced_wall_ns),
        fastest(untraced.iter().map(|p| p.wall_ns as f64)),
    );
    values.push((overhead - 1.0) * 100.0);
    values.push(t.spans() as f64);
    values.push(us(percentile(&chunks, 99.0).unwrap_or(0)));

    let layers = ["epc", "edge", "core", "rules", "shard", "harness"];
    notes.push(format!(
        "self time by layer, last traced pass: {}",
        layers
            .iter()
            .map(|l| {
                let share = per(t.layer(l).self_ns as f64, t.self_ns_total() as f64);
                format!("{l} {:.1}%", share * 100.0)
            })
            .collect::<Vec<_>>()
            .join(", ")
    ));
    notes.push(format!(
        "{} events per pass, {} traced passes, {} spans in the last ({} kept for the file), \
         {} chunk samples",
        warm.offered,
        rows.len(),
        t.spans(),
        t.kept.len(),
        chunks.len()
    ));
    if let Some(dir) = out_dir {
        let path = dir.join(format!("trace-{}.jsonl", a.workload.name()));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, t.to_jsonl())) {
            Ok(()) => notes.push(format!("spans written to {}", path.display())),
            Err(e) => {
                v.failed += 1;
                v.notes.push(format!("{}: {e}", path.display()));
            }
        }
    }
    let attempted = 2 * rows.len() as u64 * (warm.offered + warm.total_firings());
    let names = PER_LAYER.map(|(n, u, _)| (n, u));
    finish(v, &inputs, attempted, &names, &values, notes)
}

/// The per-layer values one traced pass yields, in [`PER_LAYER`] order up
/// to `shard.delivered_per_event`.
fn layer_values(
    inputs: &Inputs,
    p: &PassOut,
    t: &SpanTrace,
    replay: &passes::Replay,
    load_ms: f64,
) -> Vec<f64> {
    let events = p.offered as f64;
    let firings = p.total_firings() as f64;
    let ns = |name: Name| t.of(name).self_ns as f64;
    let calls = |name: Name| t.of(name).count as f64;
    let core_allocs = t.of(Name::CoreBatch).self_allocs + t.of(Name::CoreFinish).self_allocs;
    let core_bytes = t.of(Name::CoreBatch).self_bytes + t.of(Name::CoreFinish).self_bytes;
    let action_ns = ns(Name::RulesInsert) + ns(Name::RulesUpdate) + ns(Name::RulesCall);
    let workers = p.worker_events.len() as f64;
    let delivered: u64 = p.worker_events.iter().sum();
    let busiest = p.worker_events.iter().copied().max().unwrap_or(0) as f64;
    vec![
        inputs.generate_ms,
        events,
        per(ns(Name::EpcDecode), events),
        p.rejected as f64,
        per(t.of(Name::EpcDecode).self_allocs as f64, events),
        per(ns(Name::EdgeOffer), events),
        per(p.edge_dropped as f64, events),
        per(t.of(Name::EdgeOffer).self_allocs as f64, events),
        per(ns(Name::CoreBatch), events),
        ns(Name::CoreFinish) / 1e6,
        per(firings * 1e3, events),
        per(p.stats.occurrences as f64, events),
        per(p.stats.pseudo_fired as f64 * 1e3, events),
        per(p.nodes.probes as f64, events),
        per(p.nodes.admissions as f64, events),
        per(p.nodes.prunes as f64, events),
        per(firings, p.nodes.probes as f64),
        p.buffered_peak as f64,
        p.retained_keys_peak as f64,
        p.stats.sweeps as f64,
        p.stats.sweeps_skipped as f64,
        p.stats.plan_nodes as f64,
        p.stats.plan_arena_bytes as f64,
        per(core_allocs as f64, events),
        per(core_bytes as f64, events),
        load_ms,
        per(ns(Name::RulesBind), firings),
        per(ns(Name::RulesCond), firings),
        per(action_ns, firings),
        per(ns(Name::RulesInsert), replay.inserts as f64),
        per(ns(Name::RulesUpdate), calls(Name::RulesUpdate)),
        per(ns(Name::RulesCall), calls(Name::RulesCall)),
        p.errors as f64,
        per(t.layer("rules").self_allocs as f64, firings),
        per(replay.insert_ns as f64, replay.inserts as f64),
        per(replay.update_ns as f64, replay.updates as f64),
        replay.total_ns as f64 / 1e6,
        replay.rows_final as f64,
        per(ns(Name::ShardFeed), events),
        ns(Name::ShardDrain) / 1e6,
        p.stats.batches as f64,
        p.stats.max_queue_depth as f64,
        per(busiest * workers, delivered as f64),
        per(delivered as f64, events),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let units = END_TO_END
            .iter()
            .map(|m| m.1)
            .chain(PER_LAYER.iter().map(|m| m.1));
        for unit in units {
            assert!(unit.len() <= 16, "{unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for name in &names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.iter().any(|m| m == &("setup_s", "s")));
    }

    #[test]
    fn benchmark_json_lists_what_the_code_reports() {
        use crate::json::Json;
        let text = std::fs::read_to_string(crate::SPEC).expect("BENCHMARK.json is readable");
        let spec = Json::parse(&text).unwrap();
        let pairs = |key: &str, second: &str| -> Vec<(String, String)> {
            let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_owned();
            let list = spec.get(key).and_then(Json::as_arr).unwrap();
            list.iter()
                .map(|m| (field(m, "name"), field(m, second)))
                .collect()
        };
        let own = |n: &str, u: &str| (n.to_owned(), u.to_owned());
        assert_eq!(
            pairs("end_to_end", "unit"),
            END_TO_END.map(|(n, u)| own(n, u)).to_vec()
        );
        assert_eq!(
            pairs("per_layer", "unit"),
            PER_LAYER.map(|(n, u, _)| own(n, u)).to_vec()
        );
        let workloads: Vec<String> = pairs("workloads", "why").into_iter().map(|p| p.0).collect();
        assert_eq!(
            workloads,
            Workload::ALL.map(|w| w.name().to_owned()).to_vec()
        );
    }

    #[test]
    fn layer_values_line_up_with_the_table() {
        let inputs = Inputs::generate(Workload::Canonical, 42, true);
        let mut t = SpanTrace::new();
        let mut p = passes::traced(&inputs, &mut t);
        let replay = passes::replay_store(std::mem::take(&mut p.store_ops));
        let values = layer_values(&inputs, &p, &t, &replay, 1.0);
        assert_eq!(values.len() + 4, PER_LAYER.len());
        let at = |name: &str| values[PER_LAYER.iter().position(|m| m.0 == name).unwrap()];
        assert_eq!(at("simulator.events"), inputs.stream.len() as f64);
        assert_eq!(at("store.rows_final"), p.rows.iter().sum::<u64>() as f64);
        assert_eq!(at("rules.load_ms"), 1.0);
        assert!(at("core.match_ns_per_event") > 0.0);
        assert!(at("rules.bind_ns_per_firing") > 0.0);
        assert_eq!(at("shard.delivered_per_event"), 0.0);
    }

    #[test]
    fn smoke_runs_of_both_kinds_are_correct() {
        let a = Args {
            workload: Workload::Freshkeys,
            seed: 42,
            seconds: 0.0,
            smoke: true,
        };
        let e2e = end_to_end(&a);
        assert!(e2e.correct, "{:?}", e2e.notes);
        assert_eq!(e2e.metrics.len(), END_TO_END.len());
        assert!(e2e.attempted > 0 && e2e.failed == 0);
        let tr = traced(&a, Some(2), None);
        assert_eq!(tr.metrics.len(), PER_LAYER.len());
        // The allocation counters are process-wide and the other tests run
        // on parallel threads, so only allocation counts may disagree here.
        let failures = tr.notes.iter().filter(|n| n.starts_with("FAILED"));
        for note in failures {
            assert!(note.contains("alloc"), "{note}");
        }
    }
}
