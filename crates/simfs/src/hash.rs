//! The hasher behind the simulators' id-keyed tables.
//!
//! `SimFs` keys its inode table by [`InodeId`](crate::InodeId) and
//! `lustre-sim` keys its FID, MDT and layout tables by inode ids and
//! FIDs. Every such key is minted by the simulator itself, a counter or
//! a `(sequence, counter, 0)` triple, never read from outside the
//! process, so no caller can choose keys that collide and std's
//! flood-resistant SipHash buys nothing there. [`IdHasher`] is one
//! multiply per word instead.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ, odd: multiplying by it permutes the low bits of a counter
/// (so consecutive ids fill consecutive buckets) and spreads each word
/// into the high bits the table's control bytes read.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiply-shift hashing of integer ids: each word is folded into the
/// state and multiplied by an odd constant; `finish` shifts the high
/// half, where the product's entropy gathers, down over the low half.
///
/// Only for keys the process mints itself (see the module docs).
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(K);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A `HashMap` keyed by simulator-minted ids, hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InodeId;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash(key: impl Hash) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    /// Buckets `keys` use out of 4096, by the low bits a table indexes
    /// with: a random function fills 1 - 1/e ≈ 63 % of them.
    fn buckets_used(keys: impl Iterator<Item = u64>) -> usize {
        keys.map(|k| hash(InodeId(k)) & 4095).collect::<HashSet<_>>().len()
    }

    #[test]
    fn ids_spread_over_the_buckets_and_the_control_tags() {
        assert!(buckets_used(1..=4096) > 2500, "consecutive ids");
        assert!(buckets_used((1..=4096).map(|k| k << 32)) > 2500, "ids differing in high bits");
        let tags: HashSet<u64> = (1..=4096).map(|k| hash(InodeId(k)) >> 57).collect();
        assert_eq!(tags.len(), 128, "every 7-bit control tag is reached");
    }

    #[test]
    fn every_word_of_a_key_counts() {
        assert_ne!(hash((1u64, 2u32, 0u32)), hash((1u64, 3u32, 0u32)));
        assert_ne!(hash((1u64, 2u32, 0u32)), hash((2u64, 2u32, 0u32)));
        assert_ne!(hash((1u64, 2u32, 0u32)), hash((1u64, 2u32, 1u32)));
    }
}
