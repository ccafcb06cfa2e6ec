//! The equality index of a table column: hash of a cell → the rows holding it.
//!
//! An index does not store its keys. A slot is eight bytes — 32 bits of the
//! cell's hash and the newest row with that hash — and rows with equal
//! hashes are chained through one `u32` per row, newest first. What a
//! lookup returns is therefore a *candidate* list: every row whose cell
//! equals the probe is on it, and a row that merely shares the 32 bits may
//! be too, so the caller compares the cell (a `WHERE` evaluates all of its
//! conditions on every candidate anyway). In exchange an index over 150k
//! EPCs is 2 MB of slots instead of 17 MB of `(Value, row list)` entries:
//! it stays within reach of the cache and the TLB while a table grows, and
//! growing it re-reads only itself.

use std::hash::BuildHasher;

use rfid_epc::hash::MixBuild;

use crate::value::Value;

/// `row + 1`, so that zero is "none".
type Link = u32;

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    tag: u32,
    /// The newest row of the chain; zero marks the slot free.
    head: Link,
}

/// Hash multimap from a cell's value to row ids.
#[derive(Debug, Clone, Default)]
pub(crate) struct Index {
    /// Open addressing, linear probing; a power of two long, or empty.
    slots: Vec<Slot>,
    used: usize,
    /// By row: the next older row with the same tag.
    older: Vec<Link>,
}

fn tag_of(value: &Value) -> u32 {
    MixBuild::default().hash_one(value) as u32
}

impl Index {
    /// Rows an index can number.
    pub(crate) const MAX_ROWS: usize = Link::MAX as usize;

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// The slot holding `tag`, or the free slot where it would go.
    fn find(&self, tag: u32) -> usize {
        let mut at = tag as usize & self.mask();
        while self.slots[at].head != 0 && self.slots[at].tag != tag {
            at = (at + 1) & self.mask();
        }
        at
    }

    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); len]);
        for slot in old.into_iter().filter(|s| s.head != 0) {
            let at = self.find(slot.tag);
            self.slots[at] = slot;
        }
    }

    /// Number of distinct hashes held (distinct keys, but for collisions).
    #[cfg(test)]
    pub(crate) fn keys(&self) -> usize {
        self.used
    }

    /// Adds `row` under `value`. Rows may come in any order; appending the
    /// table's newest row is the constant-time case.
    pub(crate) fn add(&mut self, value: &Value, row: usize) {
        debug_assert!(row < Self::MAX_ROWS);
        // At most half full: probe sequences stay short without tombstones.
        if (self.used + 1) * 2 > self.slots.len() {
            self.grow();
        }
        if self.older.len() <= row {
            self.older.resize(row + 1, 0);
        }
        let tag = tag_of(value);
        let link = row as Link + 1;
        let at = self.find(tag);
        let slot = &mut self.slots[at];
        if slot.head == 0 {
            self.used += 1;
            *slot = Slot { tag, head: link };
            self.older[row] = 0;
        } else if slot.head < link {
            self.older[row] = slot.head;
            slot.head = link;
        } else {
            // A row moved here by an update: keep the chain newest-first.
            let mut newer = slot.head;
            while self.older[newer as usize - 1] > link {
                newer = self.older[newer as usize - 1];
            }
            self.older[row] = self.older[newer as usize - 1];
            self.older[newer as usize - 1] = link;
        }
    }

    /// Takes `row` out from under `value`; frees the slot with its last row.
    pub(crate) fn remove(&mut self, value: &Value, row: usize) {
        if self.slots.is_empty() {
            return;
        }
        let link = row as Link + 1;
        let at = self.find(tag_of(value));
        let head = self.slots[at].head;
        if head == link {
            self.slots[at].head = self.older[row];
            if self.slots[at].head == 0 {
                self.free(at);
            }
            return;
        }
        let mut newer = head;
        while newer != 0 {
            let next = self.older[newer as usize - 1];
            if next == link {
                self.older[newer as usize - 1] = self.older[row];
                return;
            }
            newer = next;
        }
    }

    /// Frees slot `at`, moving back whatever probed past it.
    fn free(&mut self, mut at: usize) {
        self.used -= 1;
        let mask = self.mask();
        let mut next = (at + 1) & mask;
        while self.slots[next].head != 0 {
            let home = self.slots[next].tag as usize & mask;
            // `next` may move to `at` unless its home lies strictly after
            // `at` on the way to `next`.
            if (next.wrapping_sub(home) & mask) >= (next.wrapping_sub(at) & mask) {
                self.slots[at] = self.slots[next];
                at = next;
            }
            next = (next + 1) & mask;
        }
        self.slots[at] = Slot::default();
    }

    /// The rows that may hold `value`, newest first.
    pub(crate) fn candidates(&self, value: &Value) -> impl Iterator<Item = usize> + '_ {
        let head = if self.slots.is_empty() {
            0
        } else {
            self.slots[self.find(tag_of(value))].head
        };
        std::iter::successors((head != 0).then_some(head), |&link| {
            Some(self.older[link as usize - 1]).filter(|&older| older != 0)
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
