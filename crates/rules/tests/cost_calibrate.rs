//! Calibration of the static cost model (`rceda::cost`) against measured
//! runtime load.
//!
//! The model predicts, per plan node, an expected CPU weight from nothing
//! but the compiled graph, the solved retention bounds, and catalog
//! metadata. The engine, run at `ObserveLevel::Counters`, measures the
//! actual per-node arrivals and partner-buffer probes. The model earns its
//! keep if the *ranking* it induces matches the measured ranking — that is
//! what the cost-weighted residual partitioner and the N002 hotspot report
//! consume. Absolute rates are not comparable (the model assumes a nominal
//! 1000 ev/s stream and uniform reader traffic), so the gate is Spearman
//! rank correlation, not relative error.

use rceda::{EngineConfig, ObserveLevel};
use rfid_rules::RuleRuntime;
use rfid_simulator::{SimConfig, SupplyChain};
use rfid_store::Database;

/// Tie-averaged ranks (the standard treatment for Spearman): equal values
/// share the mean of the rank positions they span.
fn ranks(values: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).unwrap());
    let mut out = vec![0.0; values.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        let rank = (i + j) as f64 / 2.0;
        for &idx in &order[i..=j] {
            out[idx] = rank;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation: Pearson correlation of the tie-averaged
/// ranks.
fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let (ra, rb) = (ranks(a), ranks(b));
    let n = ra.len() as f64;
    let (ma, mb) = (ra.iter().sum::<f64>() / n, rb.iter().sum::<f64>() / n);
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in ra.iter().zip(&rb) {
        cov += (x - ma) * (y - mb);
        va += (x - ma).powi(2);
        vb += (y - mb).powi(2);
    }
    cov / (va.sqrt() * vb.sqrt())
}

#[test]
fn static_cost_ranking_tracks_measured_probes() {
    let sim = SupplyChain::build(SimConfig::paper_scale());
    let config = EngineConfig {
        observe: ObserveLevel::Counters,
        ..EngineConfig::default()
    };
    let mut rt = RuleRuntime::with_parts(sim.catalog.clone(), Database::rfid(), config);
    rt.load(&sim.rule_set()).expect("canonical program loads");

    let stream = sim.generate(60_000).observations;
    rt.process_all(stream);

    let cost = rt.cost().clone();
    let snap = rt.telemetry();
    assert!(
        !snap.node_cost.is_empty(),
        "telemetry must carry the static cost column"
    );
    // Gate: the model's probes/sec prediction against the arena's probe
    // counters — the quantity the model actually claims to estimate. A
    // catalog-only model cannot know per-reader traffic asymmetry, so the
    // cpu_weight column (probes plus a nominal dispatch charge on every
    // arrival) is reported for the record but not gated.
    let mut predicted = Vec::new();
    let mut measured = Vec::new();
    let mut predicted_cpu = Vec::new();
    let mut measured_cpu = Vec::new();
    for i in 0..cost.len().min(snap.nodes.len()) {
        let c = snap.nodes.node(i);
        predicted.push(cost.node(rceda::NodeId(i as u32)).probes_per_sec);
        measured.push(c.probes as f64);
        predicted_cpu.push(snap.node_cost[i]);
        measured_cpu.push(c.probes as f64 + 0.25 * c.arrivals as f64);
    }
    let rho = spearman(&predicted, &measured);
    let rho_cpu = spearman(&predicted_cpu, &measured_cpu);
    eprintln!(
        "cost calibration: {} nodes, Spearman rho(probes) = {rho:.3}, rho(cpu_weight) = {rho_cpu:.3}",
        predicted.len()
    );
    assert!(
        rho >= 0.7,
        "static cost ranking diverged from measured load: rho = {rho:.3}"
    );
}

#[test]
fn spearman_helpers_behave() {
    assert!((spearman(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]) - 1.0).abs() < 1e-12);
    assert!((spearman(&[1.0, 2.0, 3.0], &[30.0, 20.0, 10.0]) + 1.0).abs() < 1e-12);
    // Ties are averaged, not ordered by index.
    assert_eq!(ranks(&[5.0, 5.0]), vec![0.5, 0.5]);
}
