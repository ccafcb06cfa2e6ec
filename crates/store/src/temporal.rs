//! Temporal (UC-aware) operations over the standard RFID tables.
//!
//! These implement the data-model semantics the paper's rules rely on:
//! Rule 3's "update the object's current location by changing its tend from
//! UC to t and insert a new location", Rule 4's bulk containment insertion,
//! and the snapshot/history queries an application asks afterwards ("where
//! was pallet P at 3pm?", "what did case C contain when it left the dock?").

use rfid_epc::Epc;
use rfid_events::Timestamp;

use crate::db::Database;
use crate::table::{Cond, CondOp, Filter, TableError};
use crate::value::Value;

/// One closed-or-open validity period.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Period {
    /// Start (inclusive).
    pub from: Timestamp,
    /// End (exclusive); `None` = "Until Changed".
    pub to: Option<Timestamp>,
}

impl Period {
    /// Whether the period covers `t` (`from <= t < to`).
    pub fn covers(&self, t: Timestamp) -> bool {
        self.from <= t && self.to.is_none_or(|end| t < end)
    }
}

/// A location fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocationFact {
    /// The object.
    pub object: Epc,
    /// Symbolic location.
    pub location: String,
    /// Validity.
    pub period: Period,
}

/// A node of the nested containment structure at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainmentTree {
    /// This node's EPC.
    pub object: Epc,
    /// Directly contained objects (sorted by EPC for determinism).
    pub children: Vec<ContainmentTree>,
}

impl ContainmentTree {
    /// Total objects in the tree, excluding the root.
    pub fn size(&self) -> usize {
        self.children.iter().map(|c| 1 + c.size()).sum()
    }

    /// Depth of the tree (a leaf has depth 0).
    pub fn depth(&self) -> usize {
        self.children
            .iter()
            .map(|c| 1 + c.depth())
            .max()
            .unwrap_or(0)
    }
}

impl Database {
    /// Rule 3: closes the object's current (`UC`) location at `t` and opens
    /// a new one at `location` starting at `t`.
    pub fn record_location(
        &mut self,
        object: Epc,
        location: &str,
        t: Timestamp,
    ) -> Result<(), TableError> {
        let table = self.require_mut("OBJECTLOCATION")?;
        table.update(
            &Filter::on(Cond::eq("object_epc", object)).and(Cond::new(
                "tend",
                CondOp::Eq,
                Value::Uc,
            )),
            &[("tend".to_owned(), Value::Time(t))],
        )?;
        table.insert(vec![
            Value::Epc(object),
            Value::str(location),
            Value::Time(t),
            Value::Uc,
        ])
    }

    /// Rule 4: records that each of `children` entered `parent` at `t`,
    /// closing any previous open containment of those children.
    pub fn record_containment(
        &mut self,
        parent: Epc,
        children: &[Epc],
        t: Timestamp,
    ) -> Result<(), TableError> {
        let table = self.require_mut("OBJECTCONTAINMENT")?;
        for &child in children {
            table.update(
                &Filter::on(Cond::eq("object_epc", child)).and(Cond::new(
                    "tend",
                    CondOp::Eq,
                    Value::Uc,
                )),
                &[("tend".to_owned(), Value::Time(t))],
            )?;
            table.insert(vec![
                Value::Epc(child),
                Value::Epc(parent),
                Value::Time(t),
                Value::Uc,
            ])?;
        }
        Ok(())
    }

    /// Ends the open containment of `child` at `t` (e.g. unpacking).
    pub fn end_containment(&mut self, child: Epc, t: Timestamp) -> Result<usize, TableError> {
        let table = self.require_mut("OBJECTCONTAINMENT")?;
        table.update(
            &Filter::on(Cond::eq("object_epc", child)).and(Cond::new(
                "tend",
                CondOp::Eq,
                Value::Uc,
            )),
            &[("tend".to_owned(), Value::Time(t))],
        )
    }

    /// The object's location at `t`, if recorded.
    pub fn location_at(&self, object: Epc, t: Timestamp) -> Result<Option<String>, TableError> {
        Ok(self
            .location_history(object)?
            .into_iter()
            .find(|f| f.period.covers(t))
            .map(|f| f.location))
    }

    /// The object's current (open) location.
    pub fn current_location(&self, object: Epc) -> Result<Option<String>, TableError> {
        let rows = self.require("OBJECTLOCATION")?.select(
            &Filter::on(Cond::eq("object_epc", object)).and(Cond::new(
                "tend",
                CondOp::Eq,
                Value::Uc,
            )),
        )?;
        Ok(rows
            .into_iter()
            .next()
            .and_then(|r| r[1].as_str().map(str::to_owned)))
    }

    /// Every location the object has held, in insertion (chronological)
    /// order.
    pub fn location_history(&self, object: Epc) -> Result<Vec<LocationFact>, TableError> {
        let rows = self
            .require("OBJECTLOCATION")?
            .select(&Filter::on(Cond::eq("object_epc", object)))?;
        Ok(rows
            .into_iter()
            .filter_map(|r| {
                Some(LocationFact {
                    object: r[0].as_epc()?,
                    location: r[1].as_str()?.to_owned(),
                    period: period_of(&r[2], &r[3])?,
                })
            })
            .collect())
    }

    /// The container holding `object` at `t`, if any.
    pub fn parent_at(&self, object: Epc, t: Timestamp) -> Result<Option<Epc>, TableError> {
        let rows = self
            .require("OBJECTCONTAINMENT")?
            .select(&Filter::on(Cond::eq("object_epc", object)))?;
        Ok(rows.into_iter().find_map(|r| {
            let period = period_of(&r[2], &r[3])?;
            if period.covers(t) {
                r[1].as_epc()
            } else {
                None
            }
        }))
    }

    /// The direct contents of `parent` at `t`.
    pub fn contents_at(&self, parent: Epc, t: Timestamp) -> Result<Vec<Epc>, TableError> {
        let rows = self
            .require("OBJECTCONTAINMENT")?
            .select(&Filter::on(Cond::eq("parent_epc", parent)))?;
        Ok(rows
            .into_iter()
            .filter_map(|r| {
                let period = period_of(&r[2], &r[3])?;
                if period.covers(t) {
                    r[0].as_epc()
                } else {
                    None
                }
            })
            .collect())
    }

    /// The transitive contents of `parent` at `t` (items in cases in
    /// pallets…), depth-first. Containment cycles (data corruption) are
    /// tolerated: each object is visited once.
    pub fn contents_recursive(&self, parent: Epc, t: Timestamp) -> Result<Vec<Epc>, TableError> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        let mut stack = vec![parent];
        while let Some(p) = stack.pop() {
            for child in self.contents_at(p, t)? {
                if seen.insert(child) {
                    out.push(child);
                    stack.push(child);
                }
            }
        }
        Ok(out)
    }

    /// Every object recorded at `location` at time `t` — the inverse of
    /// [`Database::location_at`], the "what was in the warehouse at 3pm"
    /// query of history-oriented tracking.
    pub fn objects_at(&self, location: &str, t: Timestamp) -> Result<Vec<Epc>, TableError> {
        let rows = self
            .require("OBJECTLOCATION")?
            .select(&Filter::on(Cond::eq("loc_id", location)))?;
        Ok(rows
            .into_iter()
            .filter_map(|r| {
                let period = period_of(&r[2], &r[3])?;
                if period.covers(t) {
                    r[0].as_epc()
                } else {
                    None
                }
            })
            .collect())
    }

    /// Whether two objects were recorded at the same location at time `t`.
    pub fn were_colocated(&self, a: Epc, b: Epc, t: Timestamp) -> Result<bool, TableError> {
        Ok(match (self.location_at(a, t)?, self.location_at(b, t)?) {
            (Some(la), Some(lb)) => la == lb,
            _ => false,
        })
    }

    /// The nested containment structure under `root` at time `t` — cases in
    /// pallets in containers, rendered as a tree. Cycles (data corruption)
    /// are cut rather than recursed into.
    pub fn containment_tree(&self, root: Epc, t: Timestamp) -> Result<ContainmentTree, TableError> {
        let mut seen = std::collections::HashSet::new();
        seen.insert(root);
        self.tree_under(root, t, &mut seen)
    }

    fn tree_under(
        &self,
        node: Epc,
        t: Timestamp,
        seen: &mut std::collections::HashSet<Epc>,
    ) -> Result<ContainmentTree, TableError> {
        let mut children = Vec::new();
        for child in self.contents_at(node, t)? {
            if seen.insert(child) {
                children.push(self.tree_under(child, t, seen)?);
            }
        }
        children.sort_by_key(|c| c.object);
        Ok(ContainmentTree {
            object: node,
            children,
        })
    }

    /// Total time `object` spent at `location` up to `now` (open periods
    /// count until `now`) — the dwell-time analytics query of
    /// history-oriented tracking.
    pub fn dwell_time(
        &self,
        object: Epc,
        location: &str,
        now: Timestamp,
    ) -> Result<rfid_events::Span, TableError> {
        let mut total_ms = 0u64;
        for fact in self.location_history(object)? {
            if fact.location != location {
                continue;
            }
            let end = fact.period.to.unwrap_or(now).min(now);
            if end > fact.period.from {
                total_ms += end.as_millis() - fact.period.from.as_millis();
            }
        }
        Ok(rfid_events::Span::from_millis(total_ms))
    }
}

fn period_of(start: &Value, end: &Value) -> Option<Period> {
    let from = match start {
        Value::Time(t) => *t,
        _ => return None,
    };
    let to = match end {
        Value::Uc => None,
        Value::Time(t) => Some(*t),
        _ => return None,
    };
    Some(Period { from, to })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_epc::Gid96;

    fn epc(n: u64) -> Epc {
        Gid96::new(1, 1, n).unwrap().into()
    }

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn rule3_location_transformation() {
        let mut db = Database::rfid();
        db.record_location(epc(1), "warehouse", ts(0)).unwrap();
        db.record_location(epc(1), "truck", ts(100)).unwrap();
        db.record_location(epc(1), "store", ts(200)).unwrap();

        assert_eq!(
            db.location_at(epc(1), ts(50)).unwrap().as_deref(),
            Some("warehouse")
        );
        assert_eq!(
            db.location_at(epc(1), ts(100)).unwrap().as_deref(),
            Some("truck")
        );
        assert_eq!(
            db.location_at(epc(1), ts(500)).unwrap().as_deref(),
            Some("store")
        );
        assert_eq!(
            db.current_location(epc(1)).unwrap().as_deref(),
            Some("store")
        );

        let history = db.location_history(epc(1)).unwrap();
        assert_eq!(history.len(), 3);
        assert_eq!(
            history[0].period.to,
            Some(ts(100)),
            "old row closed at move time"
        );
        assert_eq!(history[2].period.to, None, "latest row open (UC)");
    }

    #[test]
    fn location_of_unknown_object_is_none() {
        let db = Database::rfid();
        assert_eq!(db.location_at(epc(9), ts(0)).unwrap(), None);
        assert_eq!(db.current_location(epc(9)).unwrap(), None);
    }

    #[test]
    fn rule4_containment_and_snapshot() {
        let mut db = Database::rfid();
        let case = epc(100);
        let items = [epc(1), epc(2), epc(3)];
        db.record_containment(case, &items, ts(10)).unwrap();

        assert_eq!(db.parent_at(epc(1), ts(10)).unwrap(), Some(case));
        assert_eq!(db.parent_at(epc(1), ts(5)).unwrap(), None, "before packing");
        let mut contents = db.contents_at(case, ts(50)).unwrap();
        contents.sort();
        assert_eq!(contents, items.to_vec());
    }

    #[test]
    fn repacking_closes_previous_containment() {
        let mut db = Database::rfid();
        let (case_a, case_b, item) = (epc(100), epc(101), epc(1));
        db.record_containment(case_a, &[item], ts(10)).unwrap();
        db.record_containment(case_b, &[item], ts(50)).unwrap();

        assert_eq!(db.parent_at(item, ts(20)).unwrap(), Some(case_a));
        assert_eq!(db.parent_at(item, ts(60)).unwrap(), Some(case_b));
        assert!(db.contents_at(case_a, ts(60)).unwrap().is_empty());
    }

    #[test]
    fn unpacking_ends_containment() {
        let mut db = Database::rfid();
        db.record_containment(epc(100), &[epc(1)], ts(10)).unwrap();
        let n = db.end_containment(epc(1), ts(30)).unwrap();
        assert_eq!(n, 1);
        assert_eq!(db.parent_at(epc(1), ts(40)).unwrap(), None);
        assert_eq!(db.parent_at(epc(1), ts(20)).unwrap(), Some(epc(100)));
    }

    #[test]
    fn transitive_contents() {
        let mut db = Database::rfid();
        let (pallet, case1, case2) = (epc(200), epc(100), epc(101));
        db.record_containment(case1, &[epc(1), epc(2)], ts(10))
            .unwrap();
        db.record_containment(case2, &[epc(3)], ts(10)).unwrap();
        db.record_containment(pallet, &[case1, case2], ts(20))
            .unwrap();

        let mut all = db.contents_recursive(pallet, ts(30)).unwrap();
        all.sort();
        let mut expected = vec![epc(1), epc(2), epc(3), case1, case2];
        expected.sort();
        assert_eq!(all, expected);
    }

    #[test]
    fn transitive_contents_tolerates_cycles() {
        let mut db = Database::rfid();
        db.record_containment(epc(1), &[epc(2)], ts(0)).unwrap();
        db.record_containment(epc(2), &[epc(1)], ts(0)).unwrap();
        let contents = db.contents_recursive(epc(1), ts(10)).unwrap();
        assert_eq!(contents.len(), 2, "terminates despite the cycle");
    }

    #[test]
    fn objects_at_inverts_location_at() {
        let mut db = Database::rfid();
        db.record_location(epc(1), "warehouse", ts(0)).unwrap();
        db.record_location(epc(2), "warehouse", ts(5)).unwrap();
        db.record_location(epc(1), "truck", ts(10)).unwrap();

        let mut at_7 = db.objects_at("warehouse", ts(7)).unwrap();
        at_7.sort();
        assert_eq!(at_7, vec![epc(1), epc(2)]);
        let at_20 = db.objects_at("warehouse", ts(20)).unwrap();
        assert_eq!(at_20, vec![epc(2)], "object 1 moved to the truck");
        assert!(db.objects_at("nowhere", ts(7)).unwrap().is_empty());
    }

    #[test]
    fn colocation_queries() {
        let mut db = Database::rfid();
        db.record_location(epc(1), "dock", ts(0)).unwrap();
        db.record_location(epc(2), "dock", ts(0)).unwrap();
        db.record_location(epc(2), "truck", ts(10)).unwrap();
        assert!(db.were_colocated(epc(1), epc(2), ts(5)).unwrap());
        assert!(!db.were_colocated(epc(1), epc(2), ts(15)).unwrap());
        assert!(
            !db.were_colocated(epc(1), epc(9), ts(5)).unwrap(),
            "unknown object"
        );
    }

    #[test]
    fn dwell_time_sums_periods() {
        let mut db = Database::rfid();
        db.record_location(epc(1), "dock", ts(0)).unwrap();
        db.record_location(epc(1), "truck", ts(10)).unwrap();
        db.record_location(epc(1), "dock", ts(30)).unwrap(); // returns, open-ended

        let dwell = db.dwell_time(epc(1), "dock", ts(50)).unwrap();
        assert_eq!(dwell, rfid_events::Span::from_secs(10 + 20));
        let truck = db.dwell_time(epc(1), "truck", ts(50)).unwrap();
        assert_eq!(truck, rfid_events::Span::from_secs(20));
        // `now` inside the first period truncates it.
        let early = db.dwell_time(epc(1), "dock", ts(5)).unwrap();
        assert_eq!(early, rfid_events::Span::from_secs(5));
        // Unknown object/location: zero.
        assert_eq!(
            db.dwell_time(epc(9), "dock", ts(50)).unwrap(),
            rfid_events::Span::ZERO
        );
    }

    #[test]
    fn containment_tree_renders_nesting() {
        let mut db = Database::rfid();
        let (pallet, case1, case2) = (epc(200), epc(100), epc(101));
        db.record_containment(case1, &[epc(1), epc(2)], ts(10))
            .unwrap();
        db.record_containment(case2, &[epc(3)], ts(10)).unwrap();
        db.record_containment(pallet, &[case1, case2], ts(20))
            .unwrap();

        let tree = db.containment_tree(pallet, ts(30)).unwrap();
        assert_eq!(tree.object, pallet);
        assert_eq!(tree.size(), 5, "two cases + three items");
        assert_eq!(tree.depth(), 2);
        assert_eq!(tree.children.len(), 2);
        let case1_node = tree
            .children
            .iter()
            .find(|c| c.object == case1)
            .expect("case1 present");
        assert_eq!(case1_node.children.len(), 2);

        // Before the pallet packing, the tree under the pallet is empty.
        let early = db.containment_tree(pallet, ts(15)).unwrap();
        assert_eq!(early.size(), 0);
        assert_eq!(early.depth(), 0);
    }

    #[test]
    fn period_covers_semantics() {
        let closed = Period {
            from: ts(10),
            to: Some(ts(20)),
        };
        assert!(!closed.covers(ts(9)));
        assert!(closed.covers(ts(10)));
        assert!(closed.covers(ts(19)));
        assert!(!closed.covers(ts(20)), "end is exclusive");
        let open = Period {
            from: ts(10),
            to: None,
        };
        assert!(open.covers(ts(1_000_000)));
    }
}
