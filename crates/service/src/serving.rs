//! The serving state: the one value that knows which model backend is
//! loaded — a single blob (one [`BatchImputer`] and its warm route
//! cache) or a model fleet (`habit serve --shards`: the scatter/gather
//! [`FleetRouter`] over per-shard imputers).
//!
//! The two are variants of one enum behind one lock in
//! [`crate::Service`], so they are mutually exclusive by construction,
//! and what the service asks of its model state — answer these gaps,
//! which models, which one repairs — is a method here. Only `refit`, a
//! different operation per backend, matches on the variant elsewhere.

use crate::error::{ErrorCode, ServiceError};
use habit_core::{GapQuery, HabitModel, Imputation};
use habit_engine::{BatchFailure, BatchImputer, BatchStats, ThreadPool};
use habit_fleet::{FleetBatchStats, FleetRouter};
use habit_obs::Recorder;
use std::path::PathBuf;
use std::sync::Arc;

/// What is loaded and serving.
pub(crate) enum Serving {
    /// A single model blob.
    Blob {
        model: Arc<HabitModel>,
        imputer: BatchImputer,
    },
    /// A model fleet: the router, the directory its blobs and manifest
    /// persist in (per-shard refits rewrite it in place), and the
    /// optional global fallback model — kept here as well as inside the
    /// router because `repair` walks a whole track and needs a model,
    /// not a router.
    Fleet {
        router: FleetRouter,
        dir: PathBuf,
        fallback: Option<Arc<HabitModel>>,
    },
}

impl Serving {
    /// Single-blob serving of `model` with a fresh route cache.
    pub fn blob(model: HabitModel, cache_capacity: usize) -> Self {
        let model = Arc::new(model);
        let imputer = BatchImputer::new(Arc::clone(&model), cache_capacity);
        Serving::Blob { model, imputer }
    }

    /// Answers `gaps` in query order as one engine batch — the only
    /// engine call site of the service. Fleet serving also reports how
    /// the batch scattered across shards.
    pub fn answer(
        &self,
        gaps: &[GapQuery],
        pool: &ThreadPool,
        provenance: bool,
        recorder: Option<&Recorder>,
        op: &'static str,
    ) -> (
        Vec<Result<Imputation, BatchFailure>>,
        BatchStats,
        Option<FleetBatchStats>,
    ) {
        match self {
            Serving::Blob { imputer, .. } => {
                let (results, stats) =
                    imputer.impute_batch_traced(gaps, pool, provenance, recorder, op);
                (results, stats, None)
            }
            Serving::Fleet { router, .. } => {
                let (results, stats, fleet_stats) =
                    router.impute_batch(gaps, pool, provenance, recorder, op);
                (results, stats, Some(fleet_stats))
            }
        }
    }

    /// Routes resident in the serving route cache(s).
    pub fn cached_routes(&self) -> usize {
        match self {
            Serving::Blob { imputer, .. } => imputer.cached_routes(),
            Serving::Fleet { router, .. } => router.cached_routes(),
        }
    }

    /// Every serving model: the blob, or the loaded shards ascending.
    pub fn models(&self) -> Vec<&HabitModel> {
        match self {
            Serving::Blob { model, .. } => vec![model],
            Serving::Fleet { router, .. } => router.models().map(|(_, m)| m).collect(),
        }
    }

    /// The single blob, when that is what serves (a fleet has no one
    /// model that is the whole serving state).
    pub fn whole_model(&self) -> Option<&Arc<HabitModel>> {
        match self {
            Serving::Blob { model, .. } => Some(model),
            Serving::Fleet { .. } => None,
        }
    }

    /// The fleet identity as `Health` / `ModelInfo` report it: loaded
    /// shard count and manifest hash — `(0, None)` for a single blob.
    pub fn manifest(&self) -> (usize, Option<String>) {
        match self {
            Serving::Blob { .. } => (0, None),
            Serving::Fleet { router, .. } => (
                router.shard_count(),
                Some(format!("{:#018x}", router.manifest_hash())),
            ),
        }
    }

    /// The model that answers `repair`. A repair walks one vessel's
    /// whole track — there is no per-gap scatter that preserves its
    /// semantics — so a fleet answers from its global fallback blob
    /// when one is loaded and refuses honestly when not.
    pub fn repair_model(&self) -> Result<Arc<HabitModel>, ServiceError> {
        match self {
            Serving::Blob { model, .. } => Ok(Arc::clone(model)),
            Serving::Fleet { fallback, .. } => fallback.clone().ok_or_else(|| {
                ServiceError::new(
                    ErrorCode::NoModel,
                    "repair needs a global fallback model in sharded serving — \
                     start the daemon with --shards DIR --model BLOB",
                )
            }),
        }
    }
}
