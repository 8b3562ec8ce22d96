//! Vessel-type-aware imputation — the paper's first future-work item
//! (§5: "incorporating features related to the vessel's state (e.g.,
//! draught)").
//!
//! Different vessel classes sail different networks: tankers hold deep-
//! water lanes and avoid narrow straits, fishing vessels loiter off-lane,
//! high-speed craft cut corners displacement ferries cannot. A single
//! global transition graph blurs those behaviours together. A
//! [`TypeModels`] fits **one HABIT model per vessel type** (for types
//! with enough training trips) plus a global fallback model, and routes
//! each gap query to the graph of the querying vessel's class. Because
//! each class graph only contains cells that class historically
//! occupied, constraints like draught limits are honoured *data-driven*:
//! a tanker query cannot be imputed through a strait no tanker ever
//! crossed.

use crate::config::HabitConfig;
use crate::error::HabitError;
use crate::impute::{GapQuery, Imputation};
use crate::model::HabitModel;
use aggdb::fxhash::FxHashMap;
use ais::{trips_to_table, Trip, VesselInfo, VesselType};

/// Configuration of a per-vessel-type fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TypeModelsConfig {
    /// Base HABIT configuration used for every sub-model.
    pub habit: HabitConfig,
    /// Minimum training trips a vessel type needs for its own model;
    /// types below the threshold fall back to the global model.
    pub min_trips_per_type: usize,
}

impl Default for TypeModelsConfig {
    fn default() -> Self {
        Self {
            habit: HabitConfig::default(),
            min_trips_per_type: 10,
        }
    }
}

/// Which model answered a vessel-type-routed query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// The vessel type's dedicated model.
    TypeModel(VesselType),
    /// The global model (unknown type, too little class data, or the
    /// class model had no path).
    Global,
}

/// A per-vessel-type family of HABIT models with a global fallback.
pub struct TypeModels {
    global: HabitModel,
    per_type: FxHashMap<u8, HabitModel>,
    mmsi_types: FxHashMap<u64, VesselType>,
}

impl TypeModels {
    /// Fits the global model and one model per sufficiently represented
    /// vessel type. `vessels` maps MMSIs to static metadata; trips of
    /// unknown MMSIs train only the global model.
    pub fn fit(
        trips: &[Trip],
        vessels: &[VesselInfo],
        config: TypeModelsConfig,
    ) -> Result<Self, HabitError> {
        let mmsi_types: FxHashMap<u64, VesselType> =
            vessels.iter().map(|v| (v.mmsi, v.vtype)).collect();

        // No sub-model is ever refitted, so none keeps its fit state.
        let global = HabitModel::fit(&trips_to_table(trips), config.habit)?.without_state();

        let mut by_type: FxHashMap<u8, Vec<Trip>> = FxHashMap::default();
        for trip in trips {
            if let Some(vtype) = mmsi_types.get(&trip.mmsi) {
                by_type.entry(vtype.code()).or_default().push(trip.clone());
            }
        }
        // One class after another, so one class fit at a time is in
        // memory.
        let per_type = by_type
            .into_iter()
            .filter(|(_, class_trips)| class_trips.len() >= config.min_trips_per_type)
            .filter_map(|(code, class_trips)| {
                // A class model can legitimately fail to fit (e.g. every
                // trip filtered by the cell-span rule); the global model
                // covers the class.
                HabitModel::fit(&trips_to_table(&class_trips), config.habit)
                    .ok()
                    .filter(|m| m.node_count() > 0)
                    .map(|m| (code, m.without_state()))
            })
            .collect();
        Ok(Self {
            global,
            per_type,
            mmsi_types,
        })
    }

    /// The global fallback model.
    pub fn global(&self) -> &HabitModel {
        &self.global
    }

    /// The dedicated model for a vessel type, if one was fitted.
    pub fn type_model(&self, vtype: VesselType) -> Option<&HabitModel> {
        self.per_type.get(&vtype.code())
    }

    /// Vessel types with dedicated models.
    pub fn modeled_types(&self) -> Vec<VesselType> {
        let mut types: Vec<VesselType> = self
            .per_type
            .keys()
            .map(|&c| VesselType::from_code(c))
            .collect();
        types.sort_by_key(|t| t.code());
        types
    }

    /// Imputes a gap for a vessel identified by MMSI: the class model is
    /// tried first, the global model covers unknown vessels, classes
    /// without a model, and class-graph dead ends.
    pub fn impute_for_mmsi(
        &self,
        mmsi: u64,
        gap: &GapQuery,
    ) -> Result<(Imputation, ServedBy), HabitError> {
        match self.mmsi_types.get(&mmsi) {
            Some(&vtype) => self.impute_for_type(vtype, gap),
            None => self.global.impute(gap).map(|i| (i, ServedBy::Global)),
        }
    }

    /// Imputes a gap for a known vessel type (same fallback rules).
    pub fn impute_for_type(
        &self,
        vtype: VesselType,
        gap: &GapQuery,
    ) -> Result<(Imputation, ServedBy), HabitError> {
        if let Some(model) = self.per_type.get(&vtype.code()) {
            match model.impute(gap) {
                Ok(imp) => return Ok((imp, ServedBy::TypeModel(vtype))),
                // Class graph cannot serve this gap (endpoints outside the
                // class's historical footprint, or no path); fall through.
                Err(HabitError::NoPath { .. }) | Err(HabitError::EmptyModel) => {}
                Err(e) => return Err(e),
            }
        }
        self.global.impute(gap).map(|i| (i, ServedBy::Global))
    }

    /// Total serialized size of all sub-models, bytes.
    pub fn storage_bytes(&self) -> usize {
        self.global.storage_bytes()
            + self
                .per_type
                .values()
                .map(|m| m.storage_bytes())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ais::AisPoint;

    /// Two vessel classes on two separate parallel lanes:
    /// passenger ferries on lat 56.0, tankers on lat 56.3.
    fn two_class_world() -> (Vec<Trip>, Vec<VesselInfo>) {
        let mut trips = Vec::new();
        let mut vessels = Vec::new();
        for k in 0..12u64 {
            let (mmsi, lat, vtype) = if k % 2 == 0 {
                (100 + k, 56.0, VesselType::Passenger)
            } else {
                (200 + k, 56.3, VesselType::Tanker)
            };
            vessels.push(VesselInfo {
                mmsi,
                vtype,
                length_m: 150.0,
                draught_m: 8.0,
                name: format!("V{k}"),
            });
            trips.push(Trip {
                trip_id: k + 1,
                mmsi,
                points: (0..150)
                    .map(|i| {
                        AisPoint::new(
                            mmsi,
                            i as i64 * 60,
                            10.0 + i as f64 * 0.003,
                            lat,
                            12.0,
                            90.0,
                        )
                    })
                    .collect(),
            });
        }
        (trips, vessels)
    }

    fn models() -> TypeModels {
        let (trips, vessels) = two_class_world();
        TypeModels::fit(
            &trips,
            &vessels,
            TypeModelsConfig {
                min_trips_per_type: 3,
                ..TypeModelsConfig::default()
            },
        )
        .expect("fit")
    }

    #[test]
    fn fits_one_model_per_represented_type() {
        let f = models();
        assert_eq!(
            f.modeled_types(),
            vec![VesselType::Passenger, VesselType::Tanker]
        );
        assert!(f.type_model(VesselType::Passenger).is_some());
        assert!(f.type_model(VesselType::Fishing).is_none());
        // Class graphs are disjoint lanes; each is smaller than global.
        let g = f.global().node_count();
        let p = f.type_model(VesselType::Passenger).unwrap().node_count();
        let t = f.type_model(VesselType::Tanker).unwrap().node_count();
        assert!(p < g && t < g);
        assert_eq!(
            p + t,
            g,
            "lanes are disjoint so class graphs partition the global one"
        );
        // Nothing refits a sub-model, so none keeps its fit state.
        assert!(f.global().state().is_none());
        assert!(f.type_model(VesselType::Tanker).unwrap().state().is_none());
    }

    #[test]
    fn queries_route_to_class_models() {
        let f = models();
        // A gap on the tanker lane, queried for a tanker MMSI.
        let gap = GapQuery::new(10.05, 56.3, 0, 10.4, 56.3, 3600);
        let (imp, served) = f.impute_for_mmsi(201, &gap).expect("impute");
        assert_eq!(served, ServedBy::TypeModel(VesselType::Tanker));
        assert!(imp.points.len() >= 2);
        // Every imputed position hugs the tanker lane.
        for p in &imp.points {
            assert!((p.pos.lat - 56.3).abs() < 0.05, "lat {}", p.pos.lat);
        }
    }

    #[test]
    fn unknown_mmsi_uses_global_model() {
        let f = models();
        let gap = GapQuery::new(10.05, 56.0, 0, 10.4, 56.0, 3600);
        let (_, served) = f.impute_for_mmsi(999_999, &gap).expect("impute");
        assert_eq!(served, ServedBy::Global);
    }

    #[test]
    fn class_dead_end_falls_back_to_global() {
        let f = models();
        // Endpoints on the *passenger* lane queried as a tanker: the
        // tanker graph has no nodes there, so snapping pulls endpoints to
        // the tanker lane — or the global model answers. Either way the
        // call must succeed.
        let gap = GapQuery::new(10.05, 56.0, 0, 10.4, 56.0, 3600);
        let result = f.impute_for_type(VesselType::Tanker, &gap);
        assert!(result.is_ok(), "{result:?}");
    }

    #[test]
    fn underrepresented_types_have_no_model() {
        let (mut trips, mut vessels) = two_class_world();
        // One lone fishing trip.
        vessels.push(VesselInfo {
            mmsi: 900,
            vtype: VesselType::Fishing,
            length_m: 20.0,
            draught_m: 3.0,
            name: "F".into(),
        });
        trips.push(Trip {
            trip_id: 99,
            mmsi: 900,
            points: (0..100)
                .map(|i| AisPoint::new(900, i * 60, 10.0 + i as f64 * 0.002, 56.15, 6.0, 90.0))
                .collect(),
        });
        let f = TypeModels::fit(
            &trips,
            &vessels,
            TypeModelsConfig {
                min_trips_per_type: 3,
                ..TypeModelsConfig::default()
            },
        )
        .expect("fit");
        assert!(f.type_model(VesselType::Fishing).is_none());
        // Its gap is still served (global model saw the trip).
        let gap = GapQuery::new(10.02, 56.15, 0, 10.18, 56.15, 3600);
        let (_, served) = f.impute_for_mmsi(900, &gap).expect("impute");
        assert_eq!(served, ServedBy::Global);
    }

    #[test]
    fn storage_accounts_for_all_submodels() {
        let f = models();
        let parts = f.global().storage_bytes()
            + f.type_model(VesselType::Passenger).unwrap().storage_bytes()
            + f.type_model(VesselType::Tanker).unwrap().storage_bytes();
        assert_eq!(f.storage_bytes(), parts);
    }
}
