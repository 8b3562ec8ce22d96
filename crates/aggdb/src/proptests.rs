//! Property-based tests: the HyperLogLog against exact distinct counts.

use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
    /// HyperLogLog distinct estimate stays within 8% at these
    /// cardinalities (pessimistic bound: σ ≈ 1.04/√2¹⁴ ≈ 0.8% at the
    /// default precision, so 8% is ~10σ — failures indicate bugs, not
    /// noise).
    #[test]
    fn hll_error_bounded(ids in proptest::collection::vec(0u64..100_000, 1..4_000)) {
        let exact = ids.iter().collect::<BTreeSet<_>>().len() as f64;
        let mut hll = crate::hll::HyperLogLog::default_precision();
        for id in &ids {
            hll.insert_u64(*id);
        }
        let est = hll.count() as f64;
        prop_assert!((est - exact).abs() / exact <= 0.08,
            "estimate {est} vs exact {exact}");
    }
}
