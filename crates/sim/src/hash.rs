//! The hasher of the simulator's address-keyed maps.
//!
//! The store log and the memory images are looked up once per
//! simulated load and store. Their keys are addresses the simulator
//! generates itself, so they need no protection against adversarial
//! collisions, and SipHash's per-key cost is pure overhead. This is a
//! multiply-rotate hash (the FxHash family): each word is folded in
//! with a rotate, an xor and a multiply by a 64-bit odd constant, and
//! `finish` rotates the product so the well-mixed high bits land where
//! the table takes its bucket index (word-aligned addresses would
//! otherwise leave the low bits of every hash zero).
//!
//! No output depends on it: no caller reads a map's iteration order in
//! a way that reaches a result (DESIGN.md §13).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use tms_ddg::InstId;

/// Odd multiplier of the fold: the product carries every input bit
/// into the high bits, which `finish` rotates down.
const K: u64 = 0xF135_7AEA_2E62_A9C5;

/// Multiply-rotate hasher for the simulator's `u64` address keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.add(x);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// A `HashMap` keyed through [`FastHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A final memory image: address → `(store inst, original iteration)`
/// of the program-order-last store to it.
pub type MemoryImage = FastMap<u64, (InstId, u64)>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(x: u64) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(x)
    }

    #[test]
    fn word_aligned_keys_spread_over_the_low_bits() {
        // Consecutive 8-byte addresses must not share their low hash
        // bits, where the table takes its bucket index.
        let mut seen = std::collections::HashSet::new();
        for i in 0..256u64 {
            seen.insert(hash((1 << 20) + 8 * i) & 0xFF);
        }
        assert!(
            seen.len() > 128,
            "only {} of 256 low-byte values",
            seen.len()
        );
    }

    #[test]
    fn byte_writes_fold_whole_words() {
        let mut a = FastHasher::default();
        a.write(&7u64.to_le_bytes());
        let mut b = FastHasher::default();
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
        let mut c = FastHasher::default();
        c.write(&[1, 2, 3]);
        assert_ne!(c.finish(), FastHasher::default().finish());
    }
}
