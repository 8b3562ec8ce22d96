//! The window step of graph generation: `lag(cl) OVER (PARTITION BY
//! trip_id ORDER BY ts)` over a typed [`TripTable`].
//!
//! Ties in `ts` keep input order, as a stable sort would. One pass
//! checks whether the rows are already in `(trip_id, ts)` order —
//! [`ais::trips_to_table`] over segmented trips always is — and the row
//! indices are stable-sorted only when they are not. Each trip is then
//! one contiguous run, and its lag is the cell of the run's previous
//! row.

use ais::TripTable;

/// One row of the lagged trip table: a report with its cell and the
/// cell of the report before it in its trip.
#[derive(Debug, Clone, Copy)]
pub struct LaggedRow {
    /// The report's row in the [`TripTable`].
    pub row: usize,
    /// `cl`: the report's cell id.
    pub cl: u64,
    /// `lag(cl)`: `None` for the first report of a trip.
    pub lag_cl: Option<u64>,
}

/// The lagged trip table: the rows of a [`TripTable`] that the two
/// group-bys of [`crate::FitState`] accumulate, in `(trip_id, ts)`
/// order. Built by [`crate::graphgen::lagged_trip_table`];
/// [`LaggedTrips::partition`] splits it into row subsets, each of which
/// accumulates on its own.
#[derive(Debug)]
pub struct LaggedTrips<'a> {
    table: &'a TripTable,
    rows: Vec<LaggedRow>,
}

impl<'a> LaggedTrips<'a> {
    /// The trip table the rows index into.
    pub fn table(&self) -> &'a TripTable {
        self.table
    }

    /// The lagged rows.
    pub fn rows(&self) -> &[LaggedRow] {
        &self.rows
    }

    /// Splits the rows into `parts` subsets by `part_of` (which must
    /// return an index below `parts`), keeping this table's row order
    /// within each part.
    pub fn partition(&self, parts: usize, part_of: impl Fn(&LaggedRow) -> usize) -> Vec<Self> {
        let mut out: Vec<Self> = (0..parts)
            .map(|_| Self {
                table: self.table,
                rows: Vec::new(),
            })
            .collect();
        for row in &self.rows {
            out[part_of(row)].rows.push(*row);
        }
        out
    }
}

/// Lags `cells` (row `i`'s cell is `cells[i]`) over `table`'s trips.
/// `keep` sees each trip's rows in window order; a trip it refuses
/// contributes no rows.
pub(crate) fn lag_cells<'a>(
    table: &'a TripTable,
    cells: &[u64],
    mut keep: impl FnMut(&[usize]) -> bool,
) -> LaggedTrips<'a> {
    let (trip, ts) = (table.trip_id(), table.ts());
    let mut order: Vec<usize> = (0..table.len()).collect();
    if !order
        .windows(2)
        .all(|w| (trip[w[0]], ts[w[0]]) <= (trip[w[1]], ts[w[1]]))
    {
        order.sort_by_key(|&i| (trip[i], ts[i]));
    }
    let mut rows = Vec::with_capacity(table.len());
    for run in order.chunk_by(|&a, &b| trip[a] == trip[b]) {
        if !keep(run) {
            continue;
        }
        let mut lag_cl = None;
        for &row in run {
            rows.push(LaggedRow {
                row,
                cl: cells[row],
                lag_cl,
            });
            lag_cl = Some(cells[row]);
        }
    }
    LaggedTrips { table, rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ais::{trips_to_table, AisPoint, Trip};

    /// One single-report trip per `(trip_id, ts)`, in the given order:
    /// the table's rows are exactly these pairs.
    fn table(rows: &[(u64, i64)]) -> TripTable {
        let trips: Vec<Trip> = rows
            .iter()
            .map(|&(trip_id, ts)| Trip {
                trip_id,
                mmsi: 1,
                points: vec![AisPoint::new(1, ts, 10.0, 56.0, 0.0, 0.0)],
            })
            .collect();
        trips_to_table(&trips)
    }

    /// `lag(cl)` per input row (`None` also for a dropped row).
    fn lag_by_row(table: &TripTable, cells: &[u64]) -> Vec<Option<u64>> {
        let mut lags = vec![None; table.len()];
        for r in lag_cells(table, cells, |_| true).rows() {
            assert_eq!(r.cl, cells[r.row]);
            lags[r.row] = r.lag_cl;
        }
        lags
    }

    #[test]
    fn lag_follows_partition_and_order() {
        // Two trips with interleaved, unordered rows.
        let t = table(&[(1, 10), (2, 100), (1, 30), (2, 110), (1, 20)]);
        // trip 1 by ts: rows 0 (cl 7) -> 4 (cl 8) -> 2 (cl 9);
        // trip 2: rows 1 (cl 40) -> 3 (cl 41).
        assert_eq!(
            lag_by_row(&t, &[7, 40, 9, 41, 8]),
            [None, None, Some(8), Some(40), Some(7)]
        );
    }

    #[test]
    fn single_row_partitions_are_all_null() {
        let t = table(&[(1, 1), (2, 2), (3, 3)]);
        assert_eq!(lag_by_row(&t, &[5, 6, 7]), [None; 3]);
    }

    #[test]
    fn ties_in_order_column_keep_input_order() {
        // Rows 0 and 2 of trip 1 share ts = 10: row 0 stays before row
        // 2, so row 2 lags row 0's cell.
        let t = table(&[(1, 10), (1, 5), (1, 10)]);
        assert_eq!(lag_by_row(&t, &[7, 6, 9]), [Some(6), None, Some(7)]);
    }

    #[test]
    fn refused_trips_contribute_no_rows_and_parts_cover_the_rest() {
        let t = table(&[(1, 0), (2, 0), (1, 60), (2, 60), (3, 0)]);
        let lagged = lag_cells(&t, &[1, 2, 3, 4, 5], |trip| trip.len() > 1);
        let rows: Vec<usize> = lagged.rows().iter().map(|r| r.row).collect();
        assert_eq!(rows, [0, 2, 1, 3], "(trip_id, ts) order, trip 3 dropped");
        let parts = lagged.partition(2, |r| (r.cl % 2) as usize);
        let cells: Vec<Vec<u64>> = parts
            .iter()
            .map(|p| p.rows().iter().map(|r| r.cl).collect())
            .collect();
        assert_eq!(cells, [vec![2, 4], vec![1, 3]]);
    }
}
