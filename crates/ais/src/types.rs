//! AIS message and vessel types.

use geo_kernel::GeoPoint;

/// One AIS positional report.
///
/// Field names follow the paper's §2: MMSI, LON/LAT, SOG (knots), COG
/// (degrees from north), plus heading. The timestamp is assigned at
/// message *reception* (Unix seconds), which is why duplicates and
/// out-of-order records occur and must be cleaned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AisPoint {
    /// Maritime Mobile Service Identity of the reporting vessel.
    pub mmsi: u64,
    /// Reception timestamp, Unix seconds.
    pub t: i64,
    /// Reported position.
    pub pos: GeoPoint,
    /// Speed over ground, knots.
    pub sog: f64,
    /// Course over ground, degrees clockwise from true north.
    pub cog: f64,
    /// True heading, degrees (may differ from COG when drifting).
    pub heading: f64,
}

impl AisPoint {
    /// Creates a report with heading equal to COG (common for synthetic
    /// and decoded class-B data).
    pub fn new(mmsi: u64, t: i64, lon: f64, lat: f64, sog: f64, cog: f64) -> Self {
        Self {
            mmsi,
            t,
            pos: GeoPoint::new(lon, lat),
            sog,
            cog,
            heading: cog,
        }
    }
}

/// Broad vessel categories, mirroring the AIS ship-type groups the paper
/// distinguishes (passenger for DAN/KIEL; "all types" for SAR).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VesselType {
    /// Ferries and cruise ships — scheduled, recurring routes.
    Passenger,
    /// General cargo / container vessels.
    Cargo,
    /// Oil/chemical tankers — slow, deep draught.
    Tanker,
    /// Fishing vessels — loitering, irregular tracks.
    Fishing,
    /// Pleasure craft — erratic, seasonal.
    Pleasure,
    /// High-speed craft (hydrofoils, fast ferries).
    HighSpeed,
    /// Tugs and service craft.
    Tug,
    /// Anything else / unknown.
    Other,
}

impl VesselType {
    /// A stable small integer code (serialization, tables).
    pub fn code(&self) -> u8 {
        match self {
            VesselType::Passenger => 0,
            VesselType::Cargo => 1,
            VesselType::Tanker => 2,
            VesselType::Fishing => 3,
            VesselType::Pleasure => 4,
            VesselType::HighSpeed => 5,
            VesselType::Tug => 6,
            VesselType::Other => 7,
        }
    }

    /// Inverse of [`VesselType::code`].
    pub fn from_code(code: u8) -> VesselType {
        match code {
            0 => VesselType::Passenger,
            1 => VesselType::Cargo,
            2 => VesselType::Tanker,
            3 => VesselType::Fishing,
            4 => VesselType::Pleasure,
            5 => VesselType::HighSpeed,
            6 => VesselType::Tug,
            _ => VesselType::Other,
        }
    }
}

/// Static vessel metadata (from AIS type-5 messages).
#[derive(Debug, Clone)]
pub struct VesselInfo {
    /// MMSI.
    pub mmsi: u64,
    /// Ship type.
    pub vtype: VesselType,
    /// Overall length, meters.
    pub length_m: f64,
    /// Draught, meters.
    pub draught_m: f64,
    /// Ship name.
    pub name: String,
}

/// A time-ordered sequence of reports from one vessel.
#[derive(Debug, Clone, Default)]
pub struct Trajectory {
    /// MMSI of the vessel (0 for an empty trajectory).
    pub mmsi: u64,
    /// Reports, expected sorted by `t` after cleaning.
    pub points: Vec<AisPoint>,
}

impl Trajectory {
    /// Creates a trajectory, sorting points by timestamp.
    pub fn new(mmsi: u64, mut points: Vec<AisPoint>) -> Self {
        points.sort_by_key(|p| p.t);
        Self { mmsi, points }
    }

    /// Number of reports.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when there are no reports.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Positions only, in order.
    pub fn positions(&self) -> Vec<GeoPoint> {
        self.points.iter().map(|p| p.pos).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trajectory_sorts_on_construction() {
        let t = Trajectory::new(
            123,
            vec![
                AisPoint::new(123, 300, 10.0, 55.0, 9.0, 0.0),
                AisPoint::new(123, 100, 10.0, 55.0, 9.0, 0.0),
                AisPoint::new(123, 200, 10.0, 55.0, 9.0, 0.0),
            ],
        );
        let ts: Vec<i64> = t.points.iter().map(|p| p.t).collect();
        assert_eq!(ts, vec![100, 200, 300]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn vessel_type_codes_round_trip() {
        for vt in [
            VesselType::Passenger,
            VesselType::Cargo,
            VesselType::Tanker,
            VesselType::Fishing,
            VesselType::Pleasure,
            VesselType::HighSpeed,
            VesselType::Tug,
            VesselType::Other,
        ] {
            assert_eq!(VesselType::from_code(vt.code()), vt);
        }
        assert_eq!(VesselType::from_code(200), VesselType::Other);
    }

    #[test]
    fn empty_trajectory() {
        let t = Trajectory::default();
        assert!(t.is_empty());
    }
}
