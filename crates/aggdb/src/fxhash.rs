//! A minimal FxHash implementation.
//!
//! The Rust perf book recommends `rustc-hash` for integer-keyed maps in
//! hot paths; the algorithm is tiny, so we bundle it instead of adding a
//! dependency. It is the same multiply-rotate construction rustc uses.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit Fx hasher: word-at-a-time multiply-rotate. Not HashDoS-safe;
/// keys here are internal cell ids and trip ids, never attacker input.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.add_to_hash(word);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = 0u64;
            for (i, b) in rem.iter().enumerate() {
                word |= (*b as u64) << (i * 8);
            }
            self.add_to_hash(word);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.add_to_hash(n as u64);
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// Hashes a single `u64` — used by the HyperLogLog sketch and to
/// assign the fit's rows to shards by cell.
#[inline]
pub fn hash_u64(v: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(v);
    // Finalize with a xor-shift avalanche; raw Fx output has weak low bits,
    // and HLL needs uniformly distributed leading zeros.
    let mut x = h.finish();
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash_u64(42), hash_u64(42));
    }

    #[test]
    fn distinct_inputs_distinct_hashes() {
        // Not guaranteed in general, but these must differ for sane use.
        assert_ne!(hash_u64(1), hash_u64(2));
    }

    #[test]
    fn avalanche_spreads_low_bits() {
        // Sequential keys must not produce sequential hashes.
        let h1 = hash_u64(100);
        let h2 = hash_u64(101);
        assert!(h1.wrapping_sub(h2) != 1 && h2.wrapping_sub(h1) != 1);
        // Leading-zero distribution sanity: over 1000 keys, max rho > 5.
        let max_rho = (0..1000u64)
            .map(|v| hash_u64(v).leading_zeros())
            .max()
            .unwrap();
        assert!(max_rho > 5, "max leading zeros {max_rho}");
    }

    #[test]
    fn map_works() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, (i * 2) as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&500], 1000);
    }
}
