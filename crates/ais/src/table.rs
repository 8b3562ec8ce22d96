//! The trip table: segmented trips as seven typed columns.
//!
//! The paper's phase 2 reads trip data "from the source files" into
//! DuckDB as one fixed seven-column table. [`TripTable`] is that table,
//! typed: one row per AIS report, the layout the HABIT graph-generation
//! CTE consumes. [`trips_to_table`] is its only constructor, so every
//! column has the same length and no slot is null.

use crate::trips::Trip;

/// One row per AIS report of segmented trips, as seven equal-length
/// columns: `trip_id`, `vessel_id`, `ts`, `lon`, `lat`, `sog`, `cog`.
#[derive(Debug, Clone)]
pub struct TripTable {
    trip_id: Vec<u64>,
    vessel_id: Vec<u64>,
    ts: Vec<i64>,
    lon: Vec<f64>,
    lat: Vec<f64>,
    sog: Vec<f64>,
    cog: Vec<f64>,
}

impl TripTable {
    /// Number of rows (AIS reports).
    pub fn len(&self) -> usize {
        self.trip_id.len()
    }

    /// `true` when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.trip_id.is_empty()
    }

    /// The trip each report belongs to.
    pub fn trip_id(&self) -> &[u64] {
        &self.trip_id
    }

    /// The reporting vessel's MMSI.
    pub fn vessel_id(&self) -> &[u64] {
        &self.vessel_id
    }

    /// Report timestamps, epoch seconds.
    pub fn ts(&self) -> &[i64] {
        &self.ts
    }

    /// Longitudes, WGS-84 degrees.
    pub fn lon(&self) -> &[f64] {
        &self.lon
    }

    /// Latitudes, WGS-84 degrees.
    pub fn lat(&self) -> &[f64] {
        &self.lat
    }

    /// Speeds over ground, knots.
    pub fn sog(&self) -> &[f64] {
        &self.sog
    }

    /// Courses over ground, degrees.
    pub fn cog(&self) -> &[f64] {
        &self.cog
    }
}

/// Converts segmented trips into a trip table (one row per report, in
/// trip then point order).
pub fn trips_to_table(trips: &[Trip]) -> TripTable {
    let n: usize = trips.iter().map(|t| t.points.len()).sum();
    let mut table = TripTable {
        trip_id: Vec::with_capacity(n),
        vessel_id: Vec::with_capacity(n),
        ts: Vec::with_capacity(n),
        lon: Vec::with_capacity(n),
        lat: Vec::with_capacity(n),
        sog: Vec::with_capacity(n),
        cog: Vec::with_capacity(n),
    };
    for trip in trips {
        for p in &trip.points {
            table.trip_id.push(trip.trip_id);
            table.vessel_id.push(p.mmsi);
            table.ts.push(p.t);
            table.lon.push(p.pos.lon);
            table.lat.push(p.pos.lat);
            table.sog.push(p.sog);
            table.cog.push(p.cog);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::AisPoint;

    fn two_trips() -> Vec<Trip> {
        vec![
            Trip {
                trip_id: 7,
                mmsi: 111,
                points: vec![
                    AisPoint::new(111, 10, 1.0, 2.0, 9.0, 45.0),
                    AisPoint::new(111, 20, 1.1, 2.1, 9.5, 46.0),
                ],
            },
            Trip {
                trip_id: 8,
                mmsi: 222,
                points: vec![AisPoint::new(222, 5, 3.0, 4.0, 10.0, 90.0)],
            },
        ]
    }

    /// One row per report, in trip then point order (not time order).
    #[test]
    fn layout_and_order() {
        let t = trips_to_table(&two_trips());
        assert_eq!(t.len(), 3);
        assert_eq!(t.trip_id(), &[7, 7, 8]);
        assert_eq!(t.ts(), &[10, 20, 5]);
    }

    /// Each accessor returns its own column of the report fields.
    #[test]
    fn construction_and_access() {
        let t = trips_to_table(&two_trips());
        assert!(!t.is_empty());
        assert_eq!(t.vessel_id(), &[111, 111, 222]);
        assert_eq!(t.lon(), &[1.0, 1.1, 3.0]);
        assert_eq!(t.lat(), &[2.0, 2.1, 4.0]);
        assert_eq!(t.sog(), &[9.0, 9.5, 10.0]);
        assert_eq!(t.cog(), &[45.0, 46.0, 90.0]);
    }

    #[test]
    fn empty_input_gives_empty_table() {
        let t = trips_to_table(&[]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
