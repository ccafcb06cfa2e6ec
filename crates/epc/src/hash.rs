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
