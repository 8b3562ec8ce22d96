//! Window functions: `lag` over partitions.
//!
//! The paper's CTE augments every AIS message with its previous H3 cell
//! along the trip: `lag(cl) OVER (PARTITION BY trip_id ORDER BY ts)`.
//! [`lag_over`] implements exactly that.

use crate::column::Column;
use crate::error::AggError;
use crate::table::{compare_values, Table};
use crate::value::Value;

/// The partition/order pass of a window clause, computed **once** and
/// reusable across any number of lag columns.
///
/// The previous implementation re-sorted every partition's rows for
/// every lag column. This struct replaces that with a single stable
/// global sort by the order column (ties keep input order, so within a
/// partition the row sequence is exactly what a per-partition stable
/// sort produced) plus one partition-id pass; [`PartitionedOrder::lag`]
/// is then a linear scan per value column. Integer order columns (the
/// trip table's `ts`) sort through a typed `sort_by_key` fast path
/// instead of dynamic [`Value`] comparisons.
pub struct PartitionedOrder {
    /// All row indices, stably sorted by the order column (nulls last).
    sorted: Vec<usize>,
    /// Partition id per row.
    partition: Vec<usize>,
    /// Number of partitions.
    partitions: usize,
}

impl PartitionedOrder {
    /// Builds the shared sort for `PARTITION BY partition_col ORDER BY
    /// order_col` over `table`; the partition column must be `UInt64`.
    pub fn new(table: &Table, partition_col: &str, order_col: &str) -> Result<Self, AggError> {
        let order = table.column_by_name(order_col)?;
        let groups = table.group_rows(partition_col)?;
        let mut partition = vec![0usize; table.num_rows()];
        for (g, rows) in groups.iter().enumerate() {
            for &row in rows {
                partition[row] = g;
            }
        }

        let mut sorted: Vec<usize> = (0..table.num_rows()).collect();
        match (order.null_count(), order.i64_values(), order.u64_values()) {
            // Typed fast paths: no per-comparison Value materialization.
            (0, Some(ts), _) => sorted.sort_by_key(|&i| ts[i]),
            (0, None, Some(ts)) => sorted.sort_by_key(|&i| ts[i]),
            _ => sorted.sort_by(|&a, &b| compare_values(&order.value(a), &order.value(b))),
        }

        Ok(Self {
            sorted,
            partition,
            partitions: groups.len(),
        })
    }

    /// Computes `lag(value_col, 1)` over this partition/order clause:
    /// one linear scan of the pre-sorted rows, tracking the previous row
    /// per partition.
    pub fn lag(&self, table: &Table, value_col: &str) -> Result<Column, AggError> {
        let value = table.column_by_name(value_col)?;
        let mut lagged: Vec<Value> = vec![Value::Null; table.num_rows()];
        let mut last: Vec<Option<usize>> = vec![None; self.partitions];
        for &row in &self.sorted {
            let p = self.partition[row];
            if let Some(prev) = last[p] {
                lagged[row] = value.value(prev);
            }
            last[p] = Some(row);
        }

        let mut col = Column::new_empty(value.dtype());
        for v in lagged {
            col.push(v).expect("lag preserves the source dtype");
        }
        Ok(col)
    }
}

/// Computes `lag(value_col, 1) OVER (PARTITION BY partition_col ORDER BY
/// order_col)` and returns it as a new column aligned with the input rows.
///
/// The first row of each partition gets `Null`. Row order of the table is
/// untouched; only the lag semantics follow the partition/order clause.
pub fn lag_over(
    table: &Table,
    partition_col: &str,
    order_col: &str,
    value_col: &str,
) -> Result<Column, AggError> {
    PartitionedOrder::new(table, partition_col, order_col)?.lag(table, value_col)
}

/// Convenience: appends the lag column to the table under `alias`.
pub fn with_lag(
    table: Table,
    partition_col: &str,
    order_col: &str,
    value_col: &str,
    alias: &str,
) -> Result<Table, AggError> {
    with_lags(table, partition_col, order_col, &[(value_col, alias)])
}

/// Appends one lag column per `(value_col, alias)` pair, all derived
/// from a **single** stable sort of the partition/order clause.
pub fn with_lags(
    table: Table,
    partition_col: &str,
    order_col: &str,
    cols: &[(&str, &str)],
) -> Result<Table, AggError> {
    let order = PartitionedOrder::new(&table, partition_col, order_col)?;
    let mut out = table;
    for (value_col, alias) in cols {
        let col = order.lag(&out, value_col)?;
        out = out.with_column(alias, col)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn trips() -> Table {
        // Two trips with interleaved, unordered rows.
        Table::from_columns(vec![
            ("trip", Column::from_u64(vec![1, 2, 1, 2, 1])),
            ("ts", Column::from_i64(vec![10, 100, 30, 110, 20])),
            ("cl", Column::from_u64(vec![7, 40, 9, 41, 8])),
        ])
        .unwrap()
    }

    #[test]
    fn lag_follows_partition_and_order() {
        let t = trips();
        let lag = lag_over(&t, "trip", "ts", "cl").unwrap();
        // trip 1 ordered by ts: rows 0(ts10,cl7) -> 4(ts20,cl8) -> 2(ts30,cl9)
        assert_eq!(lag.value(0), Value::Null);
        assert_eq!(lag.value(4), Value::UInt(7));
        assert_eq!(lag.value(2), Value::UInt(8));
        // trip 2: rows 1(ts100,cl40) -> 3(ts110,cl41)
        assert_eq!(lag.value(1), Value::Null);
        assert_eq!(lag.value(3), Value::UInt(40));
    }

    #[test]
    fn with_lag_appends_column() {
        let t = with_lag(trips(), "trip", "ts", "cl", "lag_cl").unwrap();
        assert_eq!(t.num_columns(), 4);
        assert_eq!(t.column_by_name("lag_cl").unwrap().null_count(), 2);
    }

    #[test]
    fn single_row_partitions_are_all_null() {
        let t = Table::from_columns(vec![
            ("trip", Column::from_u64(vec![1, 2, 3])),
            ("ts", Column::from_i64(vec![1, 2, 3])),
            ("cl", Column::from_u64(vec![5, 6, 7])),
        ])
        .unwrap();
        let lag = lag_over(&t, "trip", "ts", "cl").unwrap();
        assert_eq!(lag.null_count(), 3);
    }

    #[test]
    fn with_lags_shares_one_sort_across_columns() {
        let t = with_lags(trips(), "trip", "ts", &[("cl", "lag_cl"), ("ts", "lag_ts")]).unwrap();
        assert_eq!(t.num_columns(), 5);
        // Same semantics as two independent lag_over calls.
        let base = trips();
        let lag_cl = lag_over(&base, "trip", "ts", "cl").unwrap();
        let lag_ts = lag_over(&base, "trip", "ts", "ts").unwrap();
        for row in 0..base.num_rows() {
            assert_eq!(
                t.column_by_name("lag_cl").unwrap().value(row),
                lag_cl.value(row)
            );
            assert_eq!(
                t.column_by_name("lag_ts").unwrap().value(row),
                lag_ts.value(row)
            );
        }
    }

    #[test]
    fn ties_in_order_column_keep_input_order() {
        // Two rows of trip 1 share ts=10: the stable sort must keep row
        // 0 before row 2, so row 2 lags row 0's value.
        let t = Table::from_columns(vec![
            ("trip", Column::from_u64(vec![1, 1, 1])),
            ("ts", Column::from_i64(vec![10, 5, 10])),
            ("cl", Column::from_u64(vec![7, 6, 9])),
        ])
        .unwrap();
        let lag = lag_over(&t, "trip", "ts", "cl").unwrap();
        assert_eq!(lag.value(1), Value::Null);
        assert_eq!(lag.value(0), Value::UInt(6));
        assert_eq!(lag.value(2), Value::UInt(7));
    }

    #[test]
    fn float_order_column_uses_the_dynamic_path() {
        let t = Table::from_columns(vec![
            ("trip", Column::from_u64(vec![1, 1, 1])),
            ("ts", Column::from_f64(vec![3.5, 1.5, 2.5])),
            ("cl", Column::from_u64(vec![30, 10, 20])),
        ])
        .unwrap();
        let lag = lag_over(&t, "trip", "ts", "cl").unwrap();
        assert_eq!(lag.value(1), Value::Null);
        assert_eq!(lag.value(2), Value::UInt(10));
        assert_eq!(lag.value(0), Value::UInt(20));
    }

    #[test]
    fn unknown_columns_error() {
        let t = trips();
        assert!(lag_over(&t, "trip", "ts", "nope").is_err());
        assert!(lag_over(&t, "nope", "ts", "cl").is_err());
        assert!(lag_over(&t, "trip", "nope", "cl").is_err());
    }
}
