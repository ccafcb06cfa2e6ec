//! The equality index of a table column: hash of a cell → the rows holding it.
//!
//! An index does not store its keys. A slot is eight bytes — 32 bits of the
//! cell's hash and the newest row with that hash, in the workspace's one
//! open-addressing table ([`TagTable`]) — and rows with equal
//! hashes are chained through one `u32` per row, newest first. What a
//! lookup returns is therefore a *candidate* list: every row whose cell
//! equals the probe is on it, and a row that merely shares the 32 bits may
//! be too, so the caller compares the cell (a `WHERE` evaluates all of its
//! conditions on every candidate anyway). In exchange an index over 150k
//! EPCs is 2 MB of slots instead of 17 MB of `(Value, row list)` entries:
//! it stays within reach of the cache and the TLB while a table grows, and
//! growing it re-reads only itself.

use std::hash::BuildHasher;

use rfid_epc::hash::{MixBuild, TagTable};

use crate::arena::Arena;
use crate::value::Value;

/// `row + 1`, so that zero is "none".
type Link = u32;

/// Hash multimap from a cell's value to row ids.
#[derive(Debug, Clone)]
pub(crate) struct Index {
    /// By tag: the newest row of the chain. One cell per tag — rows whose
    /// cells merely share the 32 bits share the chain.
    heads: TagTable,
    /// By row: the next older row with the same tag.
    older: Arena<Link>,
}

impl Default for Index {
    fn default() -> Self {
        Self {
            heads: TagTable::default(),
            older: Arena::new(1),
        }
    }
}

fn tag_of(value: &Value) -> u32 {
    MixBuild::default().hash_one(value) as u32
}

impl Index {
    /// Rows an index can number.
    pub(crate) const MAX_ROWS: usize = Link::MAX as usize;

    /// Number of distinct hashes held (distinct keys, but for collisions).
    #[cfg(test)]
    pub(crate) fn keys(&self) -> usize {
        self.heads.len()
    }

    /// Adds `row` under `value`. Rows may come in any order; appending the
    /// table's newest row is the constant-time case.
    pub(crate) fn add(&mut self, value: &Value, row: usize) {
        debug_assert!(row < Self::MAX_ROWS);
        self.older.grow_to(row + 1);
        let tag = tag_of(value);
        let link = row as Link + 1;
        match self.heads.find(tag, |_| true) {
            None => {
                self.heads.insert(tag, link);
                *self.older_mut(row) = 0;
            }
            Some((at, head)) if head < link => {
                *self.older_mut(row) = head;
                self.heads.set(at, link);
            }
            Some((_, head)) => {
                // A row moved here by an update: keep the chain newest-first.
                let mut newer = head;
                while self.older(newer as usize - 1) > link {
                    newer = self.older(newer as usize - 1);
                }
                *self.older_mut(row) = self.older(newer as usize - 1);
                *self.older_mut(newer as usize - 1) = link;
            }
        }
    }

    fn older(&self, row: usize) -> Link {
        *self.older.get(row, 0)
    }

    fn older_mut(&mut self, row: usize) -> &mut Link {
        self.older.get_mut(row, 0)
    }

    /// Takes `row` out from under `value`; frees the cell with its last row.
    pub(crate) fn remove(&mut self, value: &Value, row: usize) {
        let Some((at, head)) = self.heads.find(tag_of(value), |_| true) else {
            return;
        };
        let link = row as Link + 1;
        if head == link {
            match self.older(row) {
                0 => self.heads.remove(at),
                older => self.heads.set(at, older),
            }
            return;
        }
        let mut newer = head;
        while newer != 0 {
            let next = self.older(newer as usize - 1);
            if next == link {
                *self.older_mut(newer as usize - 1) = self.older(row);
                return;
            }
            newer = next;
        }
    }

    /// The rows that may hold `value`, newest first.
    pub(crate) fn candidates(&self, value: &Value) -> impl Iterator<Item = usize> + '_ {
        let head = self
            .heads
            .find(tag_of(value), |_| true)
            .map(|(_, head)| head);
        std::iter::successors(head, |&link| {
            Some(self.older(link as usize - 1)).filter(|&older| older != 0)
        })
        .map(|link| link as usize - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn rows_of(index: &Index, key: i64) -> Vec<usize> {
        index.candidates(&Value::Int(key)).collect()
    }

    /// Against a map of sorted lists, through growth, chains, moves and
    /// removals that free slots in the middle of probe runs.
    #[test]
    fn behaves_as_a_multimap() {
        let mut index = Index::default();
        let mut model: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
        let mut state = 7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut key_of_row: Vec<Option<i64>> = Vec::new();
        for step in 0..20_000 {
            match next() % 4 {
                // append a row under one of a few hundred keys
                0 | 1 => {
                    let key = (next() % 300) as i64;
                    let row = key_of_row.len();
                    index.add(&Value::Int(key), row);
                    model.entry(key).or_default().push(row);
                    key_of_row.push(Some(key));
                }
                // remove a row
                2 if !key_of_row.is_empty() => {
                    let row = next() % key_of_row.len();
                    if let Some(key) = key_of_row[row].take() {
                        index.remove(&Value::Int(key), row);
                        let rows = model.get_mut(&key).unwrap();
                        rows.retain(|&r| r != row);
                        if rows.is_empty() {
                            model.remove(&key);
                        }
                    }
                }
                // move a row to another key
                _ if !key_of_row.is_empty() => {
                    let row = next() % key_of_row.len();
                    if let Some(key) = key_of_row[row] {
                        let to = (next() % 300) as i64;
                        index.remove(&Value::Int(key), row);
                        index.add(&Value::Int(to), row);
                        model.get_mut(&key).unwrap().retain(|&r| r != row);
                        if model[&key].is_empty() {
                            model.remove(&key);
                        }
                        let rows = model.entry(to).or_default();
                        rows.push(row);
                        rows.sort_unstable();
                        key_of_row[row] = Some(to);
                    }
                }
                _ => {}
            }
            if step % 500 == 0 {
                assert_eq!(index.keys(), model.len(), "step {step}");
            }
        }
        assert_eq!(index.keys(), model.len());
        for key in 0..300 {
            let mut expected = model.get(&key).cloned().unwrap_or_default();
            expected.reverse();
            assert_eq!(rows_of(&index, key), expected, "key {key}");
        }
        // Emptied, it holds nothing and still answers.
        for (row, key) in key_of_row.iter().enumerate() {
            if let Some(key) = key {
                index.remove(&Value::Int(*key), row);
            }
        }
        assert_eq!(index.keys(), 0);
        assert!(rows_of(&index, 5).is_empty());
    }

    #[test]
    fn an_empty_index_answers_and_ignores_removals() {
        let mut index = Index::default();
        assert!(rows_of(&index, 1).is_empty());
        index.remove(&Value::Int(1), 0);
        assert_eq!(index.keys(), 0);
    }
}
