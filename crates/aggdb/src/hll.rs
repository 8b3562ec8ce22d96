//! HyperLogLog — the sketch behind `approx_count_distinct`.
//!
//! The paper counts distinct vessels per cell and distinct trips per cell
//! transition with DuckDB's `approx_count_distinct`, which is a
//! HyperLogLog. This is a dense HLL with the classic Flajolet et al.
//! estimator plus linear-counting small-range correction; relative error
//! is ≈ `1.04 / sqrt(2^precision)` (~1.6% at the default precision 12).

use crate::fxhash::hash_u64;

/// Default precision: 2^12 = 4096 registers, ~1.6% standard error.
pub const DEFAULT_PRECISION: u8 = 12;

/// A dense HyperLogLog sketch over 64-bit hashes.
#[derive(Debug, Clone)]
pub struct HyperLogLog {
    precision: u8,
    registers: Vec<u8>,
}

impl HyperLogLog {
    /// Creates a sketch with `2^precision` registers. Precision is clamped
    /// to `4..=18`.
    pub fn new(precision: u8) -> Self {
        let p = precision.clamp(4, 18);
        Self {
            precision: p,
            registers: vec![0; 1 << p],
        }
    }

    /// Creates a sketch with the default precision.
    pub fn default_precision() -> Self {
        Self::new(DEFAULT_PRECISION)
    }

    /// The precision parameter `p`.
    pub fn precision(&self) -> u8 {
        self.precision
    }

    /// Inserts a pre-hashed 64-bit value.
    #[inline]
    pub fn insert_hash(&mut self, hash: u64) {
        let p = self.precision as u32;
        let idx = (hash >> (64 - p)) as usize;
        // Rank = position of the first 1-bit in the remaining bits.
        let remaining = hash << p;
        let rank = (remaining.leading_zeros() + 1).min(64 - p + 1) as u8;
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Inserts a `u64` key (hashed internally).
    #[inline]
    pub fn insert_u64(&mut self, v: u64) {
        self.insert_hash(hash_u64(v));
    }

    /// Merges another sketch of the same precision into this one.
    ///
    /// # Panics
    /// Panics if precisions differ.
    pub fn merge(&mut self, other: &HyperLogLog) {
        assert_eq!(
            self.precision, other.precision,
            "cannot merge HLLs of different precision"
        );
        for (a, b) in self.registers.iter_mut().zip(&other.registers) {
            if *b > *a {
                *a = *b;
            }
        }
    }

    /// Estimated number of distinct inserted values.
    pub fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            n => 0.7213 / (1.0 + 1.079 / n as f64),
        };
        let sum: f64 = self.registers.iter().map(|&r| 2f64.powi(-(r as i32))).sum();
        let raw = alpha * m * m / sum;

        if raw <= 2.5 * m {
            // Small-range correction: linear counting on empty registers.
            let zeros = self.registers.iter().filter(|&&r| r == 0).count();
            if zeros > 0 {
                return m * (m / zeros as f64).ln();
            }
        }
        raw
    }

    /// Estimate rounded to the nearest integer (what SQL reports).
    pub fn count(&self) -> u64 {
        self.estimate().round() as u64
    }

    /// Size of the sketch in bytes.
    pub fn byte_size(&self) -> usize {
        self.registers.len() + 2
    }

    /// The raw register array (length `2^precision`). Registers fully
    /// determine the sketch, which is what makes HLL state serializable
    /// and merge bit-exact: serializing and restoring the registers
    /// reproduces the estimator's state exactly.
    pub fn registers(&self) -> &[u8] {
        &self.registers
    }

    /// Rebuilds a sketch from a register array previously obtained via
    /// [`HyperLogLog::registers`]. Returns `None` when the register
    /// count does not match `2^precision` (corrupt input) or the
    /// precision is outside `4..=18`.
    fn from_registers(precision: u8, registers: Vec<u8>) -> Option<Self> {
        if !(4..=18).contains(&precision) || registers.len() != 1usize << precision {
            return None;
        }
        let max_rank = 64 - precision + 1;
        if registers.iter().any(|&r| r > max_rank) {
            return None;
        }
        Some(Self {
            precision,
            registers,
        })
    }

    /// Appends the sketch's serialized record: a representation byte,
    /// the precision, then either sparse `(index u32, rank u8)` pairs of
    /// the non-zero registers (most per-group sketches see a few values)
    /// or the dense register array — whichever is smaller, by a fixed
    /// rule, so the bytes are a pure function of the registers.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let nnz = self.registers.iter().filter(|&&r| r != 0).count();
        if sparse_is_smaller(nnz, self.registers.len()) {
            out.push(SPARSE);
            out.push(self.precision);
            out.extend_from_slice(&(nnz as u32).to_le_bytes());
            for (i, &r) in self.registers.iter().enumerate() {
                if r != 0 {
                    out.extend_from_slice(&(i as u32).to_le_bytes());
                    out.push(r);
                }
            }
        } else {
            out.push(DENSE);
            out.push(self.precision);
            out.extend_from_slice(&self.registers);
        }
    }

    /// Decodes a record written by [`HyperLogLog::encode_into`],
    /// advancing `buf`. Only [`DEFAULT_PRECISION`] sketches are accepted,
    /// checked before any register is allocated, and only in the
    /// representation `encode_into` itself picks (sparse indices strictly
    /// ascending with non-zero ranks), so an accepted record re-encodes
    /// to the same bytes. `None` on anything else.
    pub fn decode_from(buf: &mut &[u8]) -> Option<Self> {
        const M: usize = 1 << DEFAULT_PRECISION;
        let [repr, precision] = take::<2>(buf)?;
        if precision != DEFAULT_PRECISION {
            return None;
        }
        let (registers, nnz) = match repr {
            DENSE => {
                let registers = take::<M>(buf)?.to_vec();
                let nnz = registers.iter().filter(|&&r| r != 0).count();
                (registers, nnz)
            }
            SPARSE => {
                let nnz = u32::from_le_bytes(take::<4>(buf)?) as usize;
                let mut registers = vec![0u8; M];
                let mut next_free = 0;
                for _ in 0..nnz {
                    let idx = u32::from_le_bytes(take::<4>(buf)?) as usize;
                    let [rank] = take::<1>(buf)?;
                    if idx < next_free || idx >= M || rank == 0 {
                        return None;
                    }
                    registers[idx] = rank;
                    next_free = idx + 1;
                }
                (registers, nnz)
            }
            _ => return None,
        };
        if (repr == SPARSE) != sparse_is_smaller(nnz, M) {
            return None;
        }
        Self::from_registers(precision, registers)
    }
}

/// Representation tags of a serialized sketch.
const DENSE: u8 = 0;
const SPARSE: u8 = 1;

/// The encoder's fixed choice: sparse when its `4 + 5·nnz` bytes beat
/// the `m`-byte register array.
fn sparse_is_smaller(nnz: usize, m: usize) -> bool {
    4 + nnz * 5 < m
}

fn take<const N: usize>(buf: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = buf.split_first_chunk::<N>()?;
    *buf = rest;
    Some(*head)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_counts_zero() {
        assert_eq!(HyperLogLog::default_precision().count(), 0);
    }

    #[test]
    fn exact_for_tiny_cardinalities() {
        let mut h = HyperLogLog::default_precision();
        for v in 0..10u64 {
            h.insert_u64(v);
        }
        assert_eq!(h.count(), 10, "linear counting regime must be near-exact");
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut h = HyperLogLog::default_precision();
        for _ in 0..10_000 {
            h.insert_u64(7);
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn error_within_bound_at_10k() {
        let mut h = HyperLogLog::new(12);
        let n = 10_000u64;
        for v in 0..n {
            h.insert_u64(v);
        }
        let est = h.estimate();
        let rel = (est - n as f64).abs() / n as f64;
        // 1.04/sqrt(4096) ≈ 1.6%; allow 4 sigma.
        assert!(rel < 0.065, "relative error {rel}");
    }

    #[test]
    fn precision_trades_error() {
        let n = 50_000u64;
        let mut coarse = HyperLogLog::new(6);
        let mut fine = HyperLogLog::new(14);
        for v in 0..n {
            coarse.insert_u64(v);
            fine.insert_u64(v);
        }
        let fine_err = (fine.estimate() - n as f64).abs() / n as f64;
        assert!(fine_err < 0.03, "fine error {fine_err}");
        assert!(coarse.byte_size() < fine.byte_size());
    }

    #[test]
    fn merge_equals_union() {
        let mut a = HyperLogLog::new(12);
        let mut b = HyperLogLog::new(12);
        let mut union = HyperLogLog::new(12);
        for v in 0..5_000u64 {
            a.insert_u64(v);
            union.insert_u64(v);
        }
        for v in 2_500..7_500u64 {
            b.insert_u64(v);
            union.insert_u64(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), union.count());
    }

    #[test]
    #[should_panic(expected = "different precision")]
    fn merge_rejects_mismatched_precision() {
        let mut a = HyperLogLog::new(10);
        a.merge(&HyperLogLog::new(12));
    }

    #[test]
    fn register_round_trip_preserves_state() {
        let mut h = HyperLogLog::new(10);
        for v in 0..3_000u64 {
            h.insert_u64(v);
        }
        let back = HyperLogLog::from_registers(h.precision(), h.registers().to_vec()).unwrap();
        assert_eq!(back.count(), h.count());
        assert_eq!(back.registers(), h.registers());

        assert!(HyperLogLog::from_registers(10, vec![0; 5]).is_none());
        assert!(HyperLogLog::from_registers(3, vec![0; 8]).is_none());
        assert!(
            HyperLogLog::from_registers(4, vec![255; 16]).is_none(),
            "impossible ranks rejected"
        );
    }

    fn encoded(h: &HyperLogLog) -> Vec<u8> {
        let mut out = Vec::new();
        h.encode_into(&mut out);
        out
    }

    #[test]
    fn codec_round_trips_both_representations() {
        for n in [0u64, 3, 2_000] {
            let mut h = HyperLogLog::default_precision();
            (0..n).for_each(|v| h.insert_u64(v));
            let mut bytes = encoded(&h);
            assert_eq!(bytes[0], if n < 800 { SPARSE } else { DENSE }, "n={n}");
            bytes.extend_from_slice(b"tail");
            let mut buf = bytes.as_slice();
            let back = HyperLogLog::decode_from(&mut buf).expect("decodes");
            assert_eq!(buf, b"tail", "self-delimiting");
            assert_eq!(back.registers(), h.registers());
        }
    }

    /// Only the record `encode_into` would write decodes: the default
    /// precision, sparse entries strictly ascending with non-zero ranks,
    /// and the representation the size rule picks.
    #[test]
    fn decoder_accepts_only_canonical_records() {
        let mut h = HyperLogLog::default_precision();
        (0..3u64).for_each(|v| h.insert_u64(v));
        let good = encoded(&h);
        let decodes = |bytes: &[u8]| HyperLogLog::decode_from(&mut &bytes[..]).is_some();
        assert!(decodes(&good));

        // A precision-18 sparse record is 7 bytes; it must not decode
        // into a 256 KB register array.
        assert!(!decodes(&[SPARSE, 18, 0, 0, 0, 0]));
        let mut other_precision = HyperLogLog::new(10);
        other_precision.insert_u64(1);
        assert!(!decodes(&encoded(&other_precision)));

        let entry = |i: usize| 6 + 5 * i;
        let mut swapped = good.clone();
        let (a, b) = (entry(0), entry(1));
        let first: Vec<u8> = swapped[a..b].to_vec();
        swapped.copy_within(b..b + 5, a);
        swapped[b..b + 5].copy_from_slice(&first);
        assert!(!decodes(&swapped), "sparse indices out of order");
        let mut zero_rank = good.clone();
        zero_rank[entry(0) + 4] = 0;
        assert!(!decodes(&zero_rank), "sparse entry with rank 0");

        let mut dense = vec![DENSE, DEFAULT_PRECISION];
        dense.extend_from_slice(h.registers());
        assert!(!decodes(&dense), "dense record where sparse is smaller");
    }
}
