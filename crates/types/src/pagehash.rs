//! A small multiplicative hasher for maps and sets keyed by page or frame
//! numbers.
//!
//! The standard library's default SipHash resists hash flooding, which
//! simulator-internal tables keyed by page numbers do not need, and costs
//! several times more per lookup. [`PageHasher`] folds a 128-bit product of
//! the key with an odd constant, so both the low bits (bucket index) and
//! the high bits (control byte) of the result depend on every key bit.
//!
//! Only use these maps where the iteration order is never observed: the
//! order differs from a `RandomState` map's and is fixed across runs.
//!
//! # Examples
//!
//! ```
//! use mehpt_types::pagehash::{PageMap, PageSet};
//!
//! let mut mapped = PageSet::default();
//! mapped.insert(0x7f00_1234u64);
//! assert!(mapped.contains(&0x7f00_1234));
//!
//! let mut owner: PageMap<u64, u32> = PageMap::default();
//! owner.insert(7, 1);
//! assert_eq!(owner.get(&7), Some(&1));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier: 2^64 divided by the golden ratio, made odd.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// A fast, deterministic, non-cryptographic [`Hasher`] for integer keys.
#[derive(Clone, Copy, Debug, Default)]
pub struct PageHasher {
    state: u64,
}

impl PageHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        let product = u128::from(self.state ^ word) * u128::from(K);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for PageHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
}

/// Builds [`PageHasher`]s.
pub type PageHashBuilder = BuildHasherDefault<PageHasher>;

/// A `HashMap` keyed by page or frame numbers, hashed with [`PageHasher`].
pub type PageMap<K, V> = HashMap<K, V, PageHashBuilder>;

/// A `HashSet` of page or frame numbers, hashed with [`PageHasher`].
pub type PageSet<K> = HashSet<K, PageHashBuilder>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(x: T) -> u64 {
        PageHashBuilder::default().hash_one(x)
    }

    #[test]
    fn deterministic_and_key_sensitive() {
        assert_eq!(hash(42u64), hash(42u64));
        assert_ne!(hash(42u64), hash(43u64));
        assert_ne!(hash(0u64), hash(1u64 << 63));
    }

    #[test]
    fn strided_keys_spread_over_low_and_high_bits() {
        // Page numbers of 2MB-aligned pages share their low 9 bits; the
        // fold must still spread them over buckets and control bytes.
        let mut low = [0u32; 64];
        let mut high = [0u32; 64];
        for i in 0..6400u64 {
            let h = hash(i << 9);
            low[(h & 63) as usize] += 1;
            high[(h >> 58) as usize] += 1;
        }
        for (l, h) in low.iter().zip(&high) {
            assert!((50..150).contains(l), "low-bit bucket {l}");
            assert!((50..150).contains(h), "high-bit bucket {h}");
        }
    }

    #[test]
    fn byte_writes_match_word_writes() {
        let mut a = PageHasher::default();
        a.write(&0x1234_5678_9abc_def0u64.to_le_bytes());
        let mut b = PageHasher::default();
        b.write_u64(0x1234_5678_9abc_def0);
        assert_eq!(a.finish(), b.finish());
    }
}
