//! Output checks: what a pass must have produced, counted as failures.
//!
//! Every check adds the size of its discrepancy to a failure count instead
//! of stopping at the first, so `failed ÷ attempted` says how wrong a run
//! was; any failure makes the run incorrect and the exit code non-zero.

use std::collections::HashMap;

use rfid_epc::{Epc, ReaderId};

use crate::passes::PassOut;
use crate::workloads::{Inputs, Workload};

/// Failures found so far, with a line for each.
#[derive(Debug, Default)]
pub struct Verdict {
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Verdict {
    /// Requires `got == want`; a difference counts `|got − want|` failures.
    pub fn equal(&mut self, what: &str, got: u64, want: u64) {
        if got != want {
            self.failed += got.abs_diff(want);
            self.notes.push(format!("{what}: got {got}, want {want}"));
        }
    }

    /// Requires two per-rule firing vectors to agree rule by rule.
    pub fn same_firings(&mut self, what: &str, got: &[u64], want: &[u64]) {
        self.equal(
            &format!("{what}: rule count"),
            got.len() as u64,
            want.len() as u64,
        );
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            self.equal(&format!("{what}: firings of rule #{i}"), *g, *w);
        }
    }
}

/// Firings per rule a correct run must produce, where the inputs say: the
/// simulator's ground truth for the canonical rule set, the generator's own
/// arithmetic for `freshkeys`. `rules500` has no independent truth; its
/// passes are checked against each other and across sinks.
///
/// With `edge_filtered`, the dedup filter has removed the re-reads Rule 1
/// would flag.
pub fn expected_firings(inputs: &Inputs, edge_filtered: bool) -> Option<Vec<u64>> {
    match inputs.workload {
        Workload::Rules500 => None,
        Workload::Freshkeys => {
            let reads_at = |name: &str| {
                let reader = inputs.catalog.reader(name);
                inputs
                    .stream
                    .iter()
                    .filter(|o| Some(o.reader) == reader)
                    .count() as u64
            };
            let (ins, probes) = (reads_at("in1"), reads_at("probe1"));
            // The stream is cut at a fixed length, so the last object may
            // have lost its `out` (and with it a probed object's `open`).
            let last_probe_closed = inputs
                .stream
                .iter()
                .rev()
                .take(2)
                .all(|o| inputs.catalog.reader("probe1") != Some(o.reader));
            let open = probes - u64::from(probes > 0 && !last_probe_closed);
            // reverse: no object is read out before in. open: every probed
            // object is read out next. linger: the probes form one run.
            // arrival: no `in` has an `out` before it.
            Some(vec![0, open, u64::from(probes > 0), ins])
        }
        _ => {
            let truth = inputs
                .truth
                .as_ref()
                .expect("supply-chain inputs carry truth");
            // Script order: dup, infield, loc, sale, asset, then one
            // containment rule per packing line.
            let mut want = vec![
                if edge_filtered {
                    0
                } else {
                    truth.duplicates.len() as u64
                },
                truth.infields.len() as u64,
                truth.location_changes.len() as u64,
                truth.sales.len() as u64,
                truth.alarms.len() as u64,
            ];
            // A case is read once, at its line's case reader `caser<i>`,
            // which rule `pack<i>` names.
            let lines = inputs.program.rules.len() - want.len();
            let line_of: HashMap<ReaderId, usize> = (0..lines)
                .filter_map(|i| Some((inputs.catalog.reader(&format!("caser{i}"))?, i)))
                .collect();
            let case_line: HashMap<Epc, usize> = inputs
                .stream
                .iter()
                .filter_map(|o| Some((o.object, *line_of.get(&o.reader)?)))
                .collect();
            let mut per_line = vec![0u64; lines];
            for c in &truth.containments {
                per_line[case_line[&c.case]] += 1;
            }
            want.extend(per_line);
            Some(want)
        }
    }
}

/// The ground-truth equalities of `tests/supply_chain_end_to_end.rs` and
/// `tests/edge_filtering.rs`, on `canonical`'s store and procedure log.
fn canonical_outputs(v: &mut Verdict, inputs: &Inputs, pass: &PassOut) {
    let truth = inputs.truth.as_ref().expect("canonical inputs carry truth");
    let items: usize = truth.containments.iter().map(|c| c.items.len()).sum();
    let calls = |name: &str| pass.calls.get(name).copied().unwrap_or(0);
    v.equal(
        "OBSERVATION rows vs infields",
        pass.rows[0],
        truth.infields.len() as u64,
    );
    v.equal(
        "OBJECTLOCATION rows vs location changes + sales",
        pass.rows[1],
        (truth.location_changes.len() + truth.sales.len()) as u64,
    );
    v.equal(
        "OBJECTCONTAINMENT rows vs packed items",
        pass.rows[2],
        items as u64,
    );
    v.equal(
        "send_alarm calls vs alarms",
        calls("send_alarm"),
        truth.alarms.len() as u64,
    );
    v.equal(
        "edge drops vs duplicates",
        pass.edge_dropped,
        truth.duplicates.len() as u64,
    );
    v.equal("send_duplicate_msg calls", calls("send_duplicate_msg"), 0);
}

/// Checks passes against the reference pass of the same run (the warm-up)
/// and against what the inputs say must come out. The expectation is worked
/// out once: it scans the stream, and passes are checked between timed
/// passes.
pub struct Oracle<'a> {
    inputs: &'a Inputs,
    reference: &'a PassOut,
    want: Option<Vec<u64>>,
}

impl<'a> Oracle<'a> {
    pub fn new(inputs: &'a Inputs, reference: &'a PassOut) -> Self {
        Self {
            inputs,
            reference,
            want: expected_firings(inputs, inputs.workload == Workload::Canonical),
        }
    }

    pub fn check(&self, v: &mut Verdict, pass: &PassOut) {
        let reference = self.reference;
        v.equal("rejected input lines", pass.rejected, 0);
        v.equal("runtime errors", pass.errors, 0);
        v.equal("capacity drops", pass.stats.capacity_drops, 0);
        v.same_firings("pass vs warm-up", &pass.firings, &reference.firings);
        for (i, table) in crate::passes::TABLES.iter().enumerate() {
            v.equal(
                &format!("{table} rows vs warm-up"),
                pass.rows[i],
                reference.rows[i],
            );
        }
        v.equal(
            "procedure calls vs warm-up",
            pass.calls.values().sum(),
            reference.calls.values().sum(),
        );
        if let Some(want) = &self.want {
            v.same_firings("pass vs truth", &pass.firings, want);
        }
        match self.inputs.workload {
            Workload::Canonical => canonical_outputs(v, self.inputs, pass),
            // Every family rule is `IF true DO <one call>`.
            Workload::Rules500 => v.equal(
                "procedure calls vs firings",
                pass.calls.values().sum(),
                pass.total_firings(),
            ),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes;

    #[test]
    fn every_workload_passes_its_oracle_at_smoke_size() {
        for w in Workload::ALL {
            let inputs = Inputs::generate(w, 42, true);
            let reference = passes::untraced(&inputs);
            let pass = passes::untraced(&inputs);
            let mut v = Verdict::default();
            Oracle::new(&inputs, &reference).check(&mut v, &pass);
            assert_eq!(v.failed, 0, "{}: {:?}", w.name(), v.notes);
            assert!(pass.total_firings() > 0, "{} fires", w.name());
        }
    }

    #[test]
    fn discrepancies_are_counted_not_just_flagged() {
        let mut v = Verdict::default();
        v.equal("a", 7, 10);
        v.same_firings("b", &[1, 2, 3], &[1, 4, 3]);
        assert_eq!(v.failed, 3 + 2);
        assert_eq!(v.notes.len(), 2);
    }

    #[test]
    fn a_wrong_store_is_caught() {
        let inputs = Inputs::generate(Workload::Canonical, 42, true);
        let reference = passes::untraced(&inputs);
        let mut broken = reference.clone();
        assert!(reference.rows[2] > 0, "smoke size still packs cases");
        broken.rows[2] -= 1;
        broken.firings[1] += 2;
        let mut v = Verdict::default();
        Oracle::new(&inputs, &reference).check(&mut v, &broken);
        // Each is seen twice: against the warm-up and against the truth.
        assert_eq!(v.failed, 2 * (1 + 2), "{:?}", v.notes);
    }
}
