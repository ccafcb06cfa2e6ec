//! One fixed hasher for maps keyed by identities.
//!
//! Tag and reader identities key a map at every layer an observation
//! crosses: the edge filters' last-sighting maps, the engine's correlation
//! keys, the store's equality indexes. They are dense machine words (a
//! 96-bit EPC, a `u32` reader id), so hashing them means mixing one to three
//! words — not running `std`'s keyed SipHash over their bytes. [`mix64`] is
//! that mixer and [`MixHasher`] applies it to whatever a `Hash` impl writes,
//! so every layer agrees on one function and a map's growth pattern (and
//! with it the allocation counts the benchmark gates) repeats between runs.
//!
//! The hasher is unkeyed: it gives up `RandomState`'s defence against keys
//! crafted to collide. The engine has made that trade for the same EPC bits
//! since its keys were packed; maps whose keys are free-form text from
//! outside (reader names in a trace file) stay on the default hasher.
//!
//! Where the keys are already stored somewhere the value leads to — a
//! table's rows, the engine's key slots — [`TagTable`] is the index to put
//! in front of them: eight bytes per key, no second copy of the key.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The splitmix64 finalizer: a fast, well-distributed 64-bit mixer.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds every written word into the state with [`mix64`]. Byte strings go
/// in eight bytes at a time, the last chunk zero-padded (`str`'s `Hash`
/// appends its own terminator, slices their own length).
#[derive(Debug, Default, Clone, Copy)]
pub struct MixHasher(u64);

impl Hasher for MixHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = mix64(self.0 ^ v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.write_u64(v as u64);
        self.write_u64((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// Builds [`MixHasher`]s (stateless, so two maps hash alike).
pub type MixBuild = BuildHasherDefault<MixHasher>;

/// A `HashMap` on the fixed hasher.
pub type MixMap<K, V> = HashMap<K, V, MixBuild>;

/// An open-addressing table of eight-byte cells that stores no keys: a cell
/// is 32 bits of its key's hash (the *tag*) over a non-zero `u32` value the
/// caller resolves — a slot id, a row link. The cell array is a power of two
/// long, a key's home is its tag masked, collisions probe linearly, and the
/// table doubles before it is more than half full, re-reading only itself
/// (the tag is all a cell needs to find its new home). Deletion shifts the
/// rest of the probe run back, so there are no tombstones and a table under
/// key churn stays as small as its peak population.
///
/// A tag match is a *candidate*: [`TagTable::find`] asks the caller's
/// predicate whether the value is the one it wants — the engine compares
/// the key stored in the slot the value names, the store accepts any (its
/// rows are compared by the `WHERE` that asked).
#[derive(Debug, Clone, Default)]
pub struct TagTable {
    /// `tag << 32 | value`; zero marks a free cell.
    cells: Vec<u64>,
    used: usize,
}

impl TagTable {
    /// Cells in use.
    pub fn len(&self) -> usize {
        self.used
    }

    /// Whether no cell is in use.
    pub fn is_empty(&self) -> bool {
        self.used == 0
    }

    /// Length of the cell array (at least twice [`TagTable::len`]).
    pub fn cells(&self) -> usize {
        self.cells.len()
    }

    /// The first cell on `tag`'s probe run that carries `tag` and whose
    /// value `is` accepts: its position and value.
    #[inline]
    pub fn find(&self, tag: u32, mut is: impl FnMut(u32) -> bool) -> Option<(usize, u32)> {
        if self.cells.is_empty() {
            return None;
        }
        let mask = self.cells.len() - 1;
        let mut at = tag as usize & mask;
        loop {
            let cell = self.cells[at];
            if cell == 0 {
                return None;
            }
            if (cell >> 32) as u32 == tag && is(cell as u32) {
                return Some((at, cell as u32));
            }
            at = (at + 1) & mask;
        }
    }

    /// Puts `cell` in the first free cell of its probe run.
    fn place(&mut self, cell: u64) {
        let mask = self.cells.len() - 1;
        let mut at = (cell >> 32) as usize & mask;
        while self.cells[at] != 0 {
            at = (at + 1) & mask;
        }
        self.cells[at] = cell;
    }

    /// Adds a cell for `tag`; does not look for one that is already there.
    pub fn insert(&mut self, tag: u32, value: u32) {
        assert!(value != 0, "zero marks a free cell");
        // At most half full: probe runs stay short and always end.
        if (self.used + 1) * 2 > self.cells.len() {
            let len = (self.cells.len() * 2).max(16);
            let old = std::mem::replace(&mut self.cells, vec![0; len]);
            for cell in old.into_iter().filter(|&c| c != 0) {
                self.place(cell);
            }
        }
        self.place(u64::from(tag) << 32 | u64::from(value));
        self.used += 1;
    }

    /// Replaces the value of the cell at `at` (a position [`TagTable::find`]
    /// returned since the last insert or remove).
    pub fn set(&mut self, at: usize, value: u32) {
        assert!(value != 0, "zero marks a free cell");
        self.cells[at] = self.cells[at] >> 32 << 32 | u64::from(value);
    }

    /// Frees the cell at `at`, moving back whatever probed past it.
    pub fn remove(&mut self, mut at: usize) {
        self.used -= 1;
        let mask = self.cells.len() - 1;
        let mut next = (at + 1) & mask;
        while self.cells[next] != 0 {
            let home = (self.cells[next] >> 32) as usize & mask;
            // `next` may move to `at` unless its home lies strictly after
            // `at` on the way to `next`.
            if (next.wrapping_sub(home) & mask) >= (next.wrapping_sub(at) & mask) {
                self.cells[at] = self.cells[next];
                at = next;
            }
            next = (next + 1) & mask;
        }
        self.cells[at] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Epc, Gid96, ReaderId};
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        MixBuild::default().hash_one(v)
    }

    #[test]
    fn same_value_same_hash_in_every_map() {
        let key = (ReaderId(3), Epc::from(Gid96::new(1, 1, 77).unwrap()));
        assert_eq!(hash_of(&key), hash_of(&key));
        assert_ne!(
            hash_of(&key),
            hash_of(&(ReaderId(4), key.1)),
            "the reader word reaches the hash"
        );
    }

    #[test]
    fn consecutive_serials_spread_over_the_low_and_high_bits() {
        // hashbrown takes the bucket from the low bits and its control byte
        // from the top seven: neither may be constant over a serial range.
        let hashes: Vec<u64> = (0..256u64)
            .map(|n| hash_of(&Epc::from(Gid96::new(1, 1, n).unwrap())))
            .collect();
        let distinct = |f: fn(u64) -> u64| {
            let mut seen: Vec<u64> = hashes.iter().map(|&h| f(h)).collect();
            seen.sort_unstable();
            seen.dedup();
            seen.len()
        };
        assert!(distinct(|h| h & 0xFF) > 128, "low byte");
        assert!(distinct(|h| h >> 57) > 64, "top seven bits");
    }

    #[test]
    fn byte_strings_hash_by_content_and_length() {
        assert_eq!(hash_of(&"dock-a"), hash_of(&String::from("dock-a")));
        assert_ne!(hash_of(&"dock-a"), hash_of(&"dock-b"));
        assert_ne!(
            hash_of(&"12345678"),
            hash_of(&"123456789"),
            "a ninth byte opens a second word"
        );
    }

    /// Against a set of `(tag, value)` pairs, with every home in the last
    /// eight cells: runs wrap, tags repeat, removals free the middle of runs.
    #[test]
    fn tag_table_holds_what_was_inserted_and_not_removed() {
        let mut table = TagTable::default();
        let mut model = std::collections::BTreeSet::new();
        assert_eq!(table.find(7, |_| true), None, "empty, it still answers");
        let mut state = 3u64;
        let mut next = move || {
            state = mix64(state);
            (state >> 40) as u32
        };
        for step in 0..20_000 {
            let (tag, value) = (u32::MAX - next() % 8, 1 + next() % 64);
            let found = table.find(tag, |v| v == value);
            assert_eq!(found.is_some(), model.contains(&(tag, value)), "{step}");
            match (found, next() % 3) {
                (None, 0 | 1) => {
                    table.insert(tag, value);
                    model.insert((tag, value));
                }
                (Some((at, v)), 2) => {
                    assert_eq!(v, value);
                    table.remove(at);
                    model.remove(&(tag, value));
                }
                _ => {}
            }
            assert_eq!(table.len(), model.len());
            assert!(table.cells() >= 2 * table.len());
        }
        assert!(table.cells() >= 512, "grew: {} pairs", model.len());
        for &(tag, value) in &model {
            let (at, _) = table.find(tag, |v| v == value).unwrap();
            table.set(at, value + 64);
            assert!(table.find(tag, |v| v == value).is_none());
            assert!(table.find(tag, |v| v == value + 64).is_some());
        }
    }

    #[test]
    fn mix_map_is_a_hash_map() {
        let mut m: MixMap<Epc, u32> = MixMap::default();
        for n in 0..1000u64 {
            m.insert(Gid96::new(1, 1, n).unwrap().into(), n as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&Epc::from(Gid96::new(1, 1, 500).unwrap())], 500);
    }
}
