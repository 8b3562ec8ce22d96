//! A uniform facade over all imputation methods, so the experiment grid
//! can sweep methods and configurations with one code path.

use crate::gaps::GapCase;
use ais::{Trip, VesselInfo, VesselType};
use baselines::{impute_sli, GtiConfig, GtiModel, PalmtoConfig, PalmtoModel};
use geo_kernel::TimedPoint;
use habit_core::{HabitConfig, HabitModel, ServedBy, TypeModels, TypeModelsConfig};

/// A method configuration: HABIT, its competitors, and the
/// per-vessel-type extension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// HABIT with a given configuration.
    Habit(HabitConfig),
    /// GTI with a given configuration.
    Gti(GtiConfig),
    /// PaLMTO n-gram model.
    Palmto(PalmtoConfig),
    /// One HABIT model per vessel type with a global fallback.
    ByType(TypeModelsConfig),
    /// Straight-line interpolation (no model).
    Sli,
}

impl Method {
    /// HABIT at the paper's `(r, t)` with the median projection.
    pub fn habit(resolution: u8, rdp_tolerance_m: f64) -> Self {
        Method::Habit(HabitConfig::with_r_t(resolution, rdp_tolerance_m))
    }

    /// GTI at the paper's `rm = 250 m` and the given `rd`.
    pub fn gti(rd_deg: f64) -> Self {
        Method::Gti(GtiConfig {
            rm_m: 250.0,
            rd_deg,
            ..GtiConfig::default()
        })
    }

    /// Display label, e.g. `HABIT r=9,t=100` or `GTI rm=250,rd=1e-4`.
    pub fn label(&self) -> String {
        match self {
            Method::Habit(c) => format!("HABIT r={},t={:.0}", c.resolution, c.rdp_tolerance_m),
            Method::Gti(c) => format!("GTI rm={:.0},rd={:.0e}", c.rm_m, c.rd_deg),
            Method::Palmto(c) => format!("PaLMTO n={},r={}", c.n, c.resolution),
            Method::ByType(c) => format!("HABIT by type r={}", c.habit.resolution),
            Method::Sli => "SLI".into(),
        }
    }
}

/// The outcome of one imputation query.
#[derive(Debug, Clone)]
pub enum MethodOutput {
    /// An imputed path (endpoints included).
    Path(Vec<TimedPoint>),
    /// A path from the vessel type's dedicated model
    /// ([`Imputer::ByType`] only).
    TypePath(Vec<TimedPoint>),
    /// The method failed on this gap (no path, snap failure, timeout…).
    Failed(String),
}

impl MethodOutput {
    /// The path, if the query succeeded.
    pub fn path(&self) -> Option<&[TimedPoint]> {
        match self {
            MethodOutput::Path(p) | MethodOutput::TypePath(p) => Some(p),
            MethodOutput::Failed(_) => None,
        }
    }
}

/// A fitted imputation method.
pub enum Imputer {
    /// A HABIT model, without its fit state.
    Habit(Box<HabitModel>),
    /// A GTI model.
    Gti(Box<GtiModel>),
    /// A PaLMTO model.
    Palmto(Box<PalmtoModel>),
    /// Per-vessel-type HABIT models.
    ByType(Box<TypeModels>),
    /// Straight-line interpolation.
    Sli,
}

impl Imputer {
    /// Fits `method` on training trips; `vessels` types the trips of
    /// [`Method::ByType`]. HABIT models drop their fit state, because an
    /// evaluation never refits.
    pub fn fit(method: &Method, train: &[Trip], vessels: &[VesselInfo]) -> Result<Self, String> {
        let failed = |e: &dyn std::fmt::Display| format!("{} fit: {e}", method.label());
        Ok(match *method {
            Method::Habit(config) => HabitModel::fit(&ais::trips_to_table(train), config)
                .map(|m| Imputer::Habit(Box::new(m.without_state())))
                .map_err(|e| failed(&e))?,
            Method::Gti(config) => GtiModel::fit(train, config)
                .map(|m| Imputer::Gti(Box::new(m)))
                .map_err(|e| failed(&e))?,
            Method::Palmto(config) => PalmtoModel::fit(train, config)
                .map(|m| Imputer::Palmto(Box::new(m)))
                .map_err(|e| failed(&e))?,
            Method::ByType(config) => TypeModels::fit(train, vessels, config)
                .map(|m| Imputer::ByType(Box::new(m)))
                .map_err(|e| failed(&e))?,
            Method::Sli => Imputer::Sli,
        })
    }

    /// Serialized model footprint in bytes (0 for SLI).
    pub fn storage_bytes(&self) -> usize {
        match self {
            Imputer::Habit(model) => model.storage_bytes(),
            Imputer::Gti(model) => model.storage_bytes(),
            Imputer::Palmto(model) => model.storage_bytes(),
            Imputer::ByType(model) => model.storage_bytes(),
            Imputer::Sli => 0,
        }
    }

    /// Vessel types with a dedicated model (empty but for
    /// [`Imputer::ByType`]).
    pub fn modeled_types(&self) -> Vec<VesselType> {
        match self {
            Imputer::ByType(model) => model.modeled_types(),
            _ => Vec::new(),
        }
    }

    /// Answers one gap case; [`Imputer::ByType`] routes it by the
    /// case's vessel.
    pub fn impute(&self, case: &GapCase) -> MethodOutput {
        let gap = &case.query;
        match self {
            Imputer::Habit(model) => output(model.impute(gap).map(|imp| imp.points)),
            Imputer::Gti(model) => output(model.impute(gap.start, gap.end)),
            Imputer::Palmto(model) => output(model.impute(gap.start, gap.end)),
            Imputer::ByType(model) => match model.impute_for_mmsi(case.mmsi, gap) {
                Ok((imp, ServedBy::TypeModel(_))) => MethodOutput::TypePath(imp.points),
                by_global => output(by_global.map(|(imp, _)| imp.points)),
            },
            Imputer::Sli => MethodOutput::Path(impute_sli(gap.start, gap.end, 250.0)),
        }
    }
}

fn output<E: std::fmt::Display>(path: Result<Vec<TimedPoint>, E>) -> MethodOutput {
    match path {
        Ok(p) => MethodOutput::Path(p),
        Err(e) => MethodOutput::Failed(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ais::AisPoint;
    use habit_core::GapQuery;

    fn lane_trips() -> Vec<Trip> {
        (0..4u64)
            .map(|k| Trip {
                trip_id: k + 1,
                mmsi: 100 + k,
                points: (0..120)
                    .map(|i| {
                        AisPoint::new(
                            100 + k,
                            i as i64 * 60,
                            10.0 + i as f64 * 0.004,
                            56.0,
                            12.0,
                            90.0,
                        )
                    })
                    .collect(),
            })
            .collect()
    }

    fn case(query: GapQuery) -> GapCase {
        GapCase {
            trip_id: 1,
            mmsi: 100,
            query,
            truth: Vec::new(),
        }
    }

    fn fit(method: Method) -> Imputer {
        Imputer::fit(&method, &lane_trips(), &[]).unwrap()
    }

    #[test]
    fn all_methods_fit_and_impute() {
        let gap = case(GapQuery::new(10.1, 56.0, 0, 10.35, 56.0, 3600));
        let methods = [
            Method::Habit(HabitConfig::default()),
            Method::Gti(GtiConfig::default()),
            Method::Palmto(PalmtoConfig::default()),
            Method::ByType(TypeModelsConfig::default()),
            Method::Sli,
        ];
        let fitted: Vec<Imputer> = methods.iter().map(|m| fit(*m)).collect();
        for (m, imputer) in methods.iter().zip(&fitted) {
            let out = imputer.impute(&gap);
            let path = out.path().unwrap_or_else(|| panic!("{} failed", m.label()));
            assert!(path.len() >= 2, "{}", m.label());
            assert_eq!(path.first().unwrap().t, 0, "{}", m.label());
            assert_eq!(path.last().unwrap().t, 3600, "{}", m.label());
        }
        // Storage ordering: GTI (point graph) > HABIT (cell graph) > SLI.
        assert!(fitted[1].storage_bytes() > fitted[0].storage_bytes());
        assert_eq!(fitted[4].storage_bytes(), 0);
        // No vessel is typed, so only the global fallback answers.
        assert!(fitted[3].modeled_types().is_empty());
        assert!(matches!(fitted[3].impute(&gap), MethodOutput::Path(_)));
    }

    #[test]
    fn evaluation_fits_drop_the_fit_state() {
        let Imputer::Habit(model) = fit(Method::habit(9, 100.0)) else {
            panic!("HABIT imputer");
        };
        assert!(model.state().is_none());
    }

    #[test]
    fn labels() {
        assert_eq!(Method::habit(9, 100.0).label(), "HABIT r=9,t=100");
        assert_eq!(Method::gti(5e-4).label(), "GTI rm=250,rd=5e-4");
        assert_eq!(Method::Sli.label(), "SLI");
    }

    #[test]
    fn failure_is_reported_not_panicked() {
        let gti = fit(Method::Gti(GtiConfig::default()));
        let far_gap = case(GapQuery::new(0.0, 0.0, 0, 1.0, 1.0, 3600));
        assert!(matches!(gti.impute(&far_gap), MethodOutput::Failed(_)));
    }
}
