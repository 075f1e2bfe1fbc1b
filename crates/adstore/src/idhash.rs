//! The workspace's one hasher for dense `u32` ids.
//!
//! [`AdId`](crate::AdId)s and [`TermId`](adcast_text::dictionary::TermId)s
//! are issued densely by this program, never taken from outside input, so
//! std's SipHash (whose point is resisting keys crafted to collide) buys
//! nothing on them while costing ~20 ns on every probe. [`IdHasher`] is a
//! single Fibonacci multiply: the product's low bits (hashbrown's bucket
//! index) are a bijection of the id's low bits, so consecutive ids never
//! share a bucket, and its top bits (hashbrown's 7-bit control tag) mix
//! every bit of the id.
//!
//! Use [`IdMap`] for maps keyed by such ids; keep the default hasher for
//! anything keyed by outside input, and [`idmap_bytes`] to charge an
//! `IdMap` to a `memory_bytes` estimate.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ, odd: the Fibonacci-hashing multiplier.
const PHI: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiplicative hasher for dense integer ids (see the module docs).
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u32(&mut self, id: u32) {
        self.write_u64(u64::from(id));
    }

    #[inline]
    fn write_u64(&mut self, id: u64) {
        self.0 = (self.0 ^ id).wrapping_mul(PHI);
    }

    /// Byte-wise fallback for key types that do not hash as one integer.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
}

/// `HashMap` keyed by a dense id, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Heap bytes held by an [`IdMap<K, V>`] whose `capacity()` is
/// `capacity`. std's map (hashbrown) allocates a power-of-two bucket count
/// with a 7/8 load factor: one `(K, V)` slot and one control byte per
/// bucket, plus one trailing 16-byte SIMD group of control bytes. A map
/// of capacity 0 has not allocated.
pub fn idmap_bytes<K, V>(capacity: usize) -> usize {
    const GROUP: usize = 16;
    let buckets = match capacity {
        0 => return 0,
        1..=3 => 4,
        4..=7 => 8,
        _ => (capacity * 8 / 7).next_power_of_two(),
    };
    (buckets * std::mem::size_of::<(K, V)>()).next_multiple_of(GROUP) + buckets + GROUP
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdId;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(id: impl Hash) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(id)
    }

    #[test]
    fn ids_hash_as_one_multiply() {
        assert_eq!(hash_of(AdId(0)), 0);
        assert_eq!(hash_of(AdId(1)), PHI);
        assert_eq!(hash_of(AdId(7)), 7u64.wrapping_mul(PHI));
    }

    #[test]
    fn consecutive_ids_fill_distinct_buckets_and_tags() {
        // Low 10 bits: 1 024 consecutive ids land in 1 024 distinct buckets.
        let mut buckets: Vec<u64> = (0..1024u32).map(|i| hash_of(AdId(i)) & 1023).collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert_eq!(buckets.len(), 1024);
        // Top 7 bits (the control tag) take every one of their 128 values.
        let mut tags: Vec<u64> = (0..1024u32).map(|i| hash_of(AdId(i)) >> 57).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), 128);
    }

    #[test]
    fn idmap_bytes_follows_the_bucket_layout() {
        // `capacity()` reports 7/8 of a power-of-two bucket count.
        let cap = |n: usize| {
            IdMap::<AdId, f32>::with_capacity_and_hasher(n, Default::default()).capacity()
        };
        assert_eq!((cap(1), cap(5), cap(14), cap(1_528)), (3, 7, 14, 1_792));
        assert_eq!(idmap_bytes::<AdId, f32>(0), 0);
        assert_eq!(idmap_bytes::<AdId, f32>(3), 4 * 8 + 4 + 16);
        assert_eq!(idmap_bytes::<AdId, f32>(7), 8 * 8 + 8 + 16);
        assert_eq!(idmap_bytes::<AdId, f32>(14), 16 * 8 + 16 + 16);
        // A 1 528-entry score cache: 2 048 buckets of 9 B.
        assert_eq!(idmap_bytes::<AdId, f32>(1_792), 2_048 * 9 + 16);
        // Slots round up to the control bytes' 16-byte alignment.
        assert_eq!(idmap_bytes::<u8, ()>(3), 16 + 4 + 16);
    }

    #[test]
    fn id_map_behaves_as_a_map() {
        let mut m: IdMap<AdId, f32> = IdMap::default();
        for i in 0..500u32 {
            m.insert(AdId(i * 3), i as f32);
        }
        assert_eq!(m.len(), 500);
        assert_eq!(m.get(&AdId(30)), Some(&10.0));
        assert_eq!(m.get(&AdId(31)), None);
    }
}
