//! Property-based tests: partitioning, lag, CSV and HLL against naive
//! reference implementations on randomized AIS-shaped tables.

use crate::column::Column;
use crate::csv::{read_csv, write_csv};
use crate::table::Table;
use crate::window::lag_over;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// A randomized AIS-shaped table: `key` (cell-like, few distinct values),
/// `vessel` (medium cardinality), `x` (measurements, may repeat).
fn ais_like_table() -> impl Strategy<Value = Table> {
    (1usize..200).prop_flat_map(|n| {
        (
            proptest::collection::vec(0u64..8, n),
            proptest::collection::vec(0u64..32, n),
            proptest::collection::vec(-1000i64..1000, n),
        )
            .prop_map(|(keys, vessels, xs)| {
                Table::from_columns(vec![
                    ("key", Column::from_u64(keys)),
                    ("vessel", Column::from_u64(vessels)),
                    (
                        "x",
                        Column::from_f64(xs.into_iter().map(|v| v as f64).collect()),
                    ),
                ])
                .expect("equal lengths")
            })
    })
}

proptest! {
    /// Groups preserve first-appearance order and cover every input row.
    #[test]
    fn group_rows_partition_the_table(table in ais_like_table()) {
        let groups = table.group_rows("key").expect("group_rows");
        let keys = table.column_by_name("key").unwrap().u64_values().unwrap();
        let distinct: BTreeSet<u64> = keys.iter().copied().collect();
        prop_assert_eq!(distinct.len(), groups.len());
        prop_assert!(groups.windows(2).all(|w| w[0][0] < w[1][0]), "first-appearance order");
        let mut seen = vec![false; table.num_rows()];
        for rows in &groups {
            prop_assert!(!rows.is_empty(), "no empty groups");
            prop_assert!(rows.iter().all(|&r| keys[r] == keys[rows[0]]), "one key per group");
            for &r in rows {
                prop_assert!(!seen[r], "row {} assigned twice", r);
                seen[r] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "all rows covered");
    }

    /// `lag_over` returns each row's predecessor within its partition in
    /// order-column order, and null for partition heads.
    #[test]
    #[allow(clippy::needless_range_loop)] // parallel column access by row index
    fn lag_matches_naive_reference(table in ais_like_table()) {
        // Use `x` as the order column (may contain ties; lag is then any
        // stable predecessor under the engine's sort — compare sets).
        let lagged = lag_over(&table, "key", "x", "vessel").expect("lag");
        prop_assert_eq!(lagged.len(), table.num_rows());

        let keys = table.column_by_name("key").unwrap().u64_values().unwrap();
        let xs = table.column_by_name("x").unwrap().f64_values().unwrap();

        // Per partition: number of nulls is exactly 1 (the head), unless
        // the partition has a single row.
        let mut partitions: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for i in 0..table.num_rows() {
            partitions.entry(keys[i]).or_default().push(i);
        }
        for (_, rows) in partitions {
            let nulls = rows.iter().filter(|&&r| lagged.value(r).is_null()).count();
            prop_assert_eq!(nulls, 1, "each partition has one head");
            // Every non-null lag comes from a row of the same partition
            // with order value ≤ the row's own.
            let values: BTreeSet<u64> = rows
                .iter()
                .map(|&r| table.column_by_name("vessel").unwrap().value(r).as_u64().unwrap())
                .collect();
            for &r in &rows {
                if let Some(v) = lagged.value(r).as_u64() {
                    prop_assert!(values.contains(&v));
                    // Predecessor order ≤ own order.
                    let has_leq = rows.iter().any(|&o| o != r && xs[o] <= xs[r]);
                    prop_assert!(has_leq);
                }
            }
        }
    }

    /// CSV round trip: write then read reproduces every cell.
    #[test]
    fn csv_round_trip(table in ais_like_table()) {
        let mut buf = Vec::new();
        write_csv(&table, &mut buf).expect("write");
        let back = read_csv(buf.as_slice()).expect("read");
        prop_assert_eq!(back.num_rows(), table.num_rows());
        prop_assert_eq!(back.num_columns(), table.num_columns());
        for c in 0..table.num_columns() {
            for r in 0..table.num_rows() {
                let a = table.column(c).value(r);
                let b = back.column(c).value(r);
                // Int columns may come back as Int64 (u64 -> i64); compare
                // through f64 which is lossless at these magnitudes.
                let fa = a.as_f64().expect("numeric");
                let fb = b.as_f64().expect("numeric");
                prop_assert!((fa - fb).abs() < 1e-9, "({c},{r}): {fa} vs {fb}");
            }
        }
    }

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
