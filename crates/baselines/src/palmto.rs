//! PaLMTO — probabilistic N-gram language model for trajectories
//! (Mohammed et al., MDM'24).
//!
//! Trajectory points are tokenized to grid cells; an N-gram model counts
//! which cell follows which context of `N-1` cells. Imputation generates
//! cell tokens from the gap start toward the gap end — next token = most
//! frequent continuation (with stupid-backoff to shorter contexts). The
//! paper's experiments found inference "frequently exceeding the time
//! limit and falling into a timeout"; the generation budget here makes
//! that behaviour explicit and measurable.

use aggdb::fxhash::FxHashMap;
use ais::Trip;
use geo_kernel::{GeoPoint, TimedPoint};
use hexgrid::{HexCell, HexGrid};
use std::time::{Duration, Instant};

/// PaLMTO hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PalmtoConfig {
    /// Grid resolution for tokenization.
    pub resolution: u8,
    /// N-gram order (3 = trigram: context of 2 cells).
    pub n: usize,
    /// Hard cap on generated tokens per query.
    pub max_steps: usize,
    /// Wall-clock budget per query; exceeding it is a
    /// [`PalmtoError::Timeout`].
    pub time_budget: Duration,
}

impl Default for PalmtoConfig {
    fn default() -> Self {
        Self {
            resolution: 9,
            n: 3,
            max_steps: 4_000,
            time_budget: Duration::from_millis(250),
        }
    }
}

/// Errors from PaLMTO generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PalmtoError {
    /// Training produced no n-grams.
    EmptyModel,
    /// Generation hit the wall-clock budget before reaching the goal —
    /// the failure mode the paper reports.
    Timeout,
    /// Generation has no continuation for the current context.
    DeadEnd,
    /// Generation exhausted `max_steps` without reaching the goal.
    StepLimit,
}

impl std::fmt::Display for PalmtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PalmtoError::EmptyModel => write!(f, "PaLMTO model is empty"),
            PalmtoError::Timeout => write!(f, "generation exceeded the time budget"),
            PalmtoError::DeadEnd => write!(f, "no continuation for context"),
            PalmtoError::StepLimit => write!(f, "generation exceeded the step limit"),
        }
    }
}

impl std::error::Error for PalmtoError {}

/// A fitted N-gram cell model.
pub struct PalmtoModel {
    config: PalmtoConfig,
    grid: HexGrid,
    /// context (up to n-1 cells, most recent last) → continuations.
    counts: FxHashMap<Vec<u64>, Vec<(u64, u32)>>,
    ngrams: usize,
}

impl PalmtoModel {
    /// Fits the model: tokenizes each trip to its cell sequence
    /// (consecutive duplicates collapsed) and counts continuations for
    /// every context length `1..N`.
    pub fn fit(trips: &[Trip], config: PalmtoConfig) -> Result<Self, PalmtoError> {
        let grid = HexGrid::new();
        let mut counts: FxHashMap<Vec<u64>, Vec<(u64, u32)>> = FxHashMap::default();
        let mut ngrams = 0usize;

        for trip in trips {
            let mut tokens: Vec<u64> = Vec::with_capacity(trip.points.len());
            for p in &trip.points {
                if let Ok(cell) = grid.cell(&p.pos, config.resolution) {
                    if tokens.last() != Some(&cell.raw()) {
                        tokens.push(cell.raw());
                    }
                }
            }
            for i in 1..tokens.len() {
                let next = tokens[i];
                let max_ctx = (config.n - 1).min(i);
                for ctx_len in 1..=max_ctx {
                    let ctx = tokens[i - ctx_len..i].to_vec();
                    let entry = counts.entry(ctx).or_default();
                    match entry.iter_mut().find(|(c, _)| *c == next) {
                        Some((_, n)) => *n += 1,
                        None => entry.push((next, 1)),
                    }
                    ngrams += 1;
                }
            }
        }
        if counts.is_empty() {
            return Err(PalmtoError::EmptyModel);
        }
        // Sort continuations by frequency so generation takes the argmax
        // in O(1).
        #[expect(
            clippy::iter_over_hash_type,
            reason = "each entry is sorted in place; visit order reaches no output"
        )]
        for entry in counts.values_mut() {
            entry.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        }
        Ok(Self {
            config,
            grid,
            counts,
            ngrams,
        })
    }

    /// Number of stored n-gram observations.
    pub fn ngram_count(&self) -> usize {
        self.ngrams
    }

    /// Approximate model size in bytes (contexts + continuation lists).
    pub fn storage_bytes(&self) -> usize {
        self.counts
            .iter()
            .map(|(k, v)| k.len() * 8 + v.len() * 12 + 16)
            .sum()
    }

    /// Generates an imputed path from `start` toward `end`.
    pub fn impute(
        &self,
        start: TimedPoint,
        end: TimedPoint,
    ) -> Result<Vec<TimedPoint>, PalmtoError> {
        let deadline = Instant::now() + self.config.time_budget;
        let start_cell = self
            .grid
            .cell(&start.pos, self.config.resolution)
            .map_err(|_| PalmtoError::DeadEnd)?;
        let goal_cell = self
            .grid
            .cell(&end.pos, self.config.resolution)
            .map_err(|_| PalmtoError::DeadEnd)?;

        let mut tokens: Vec<u64> = vec![start_cell.raw()];
        let mut visited_recent: std::collections::VecDeque<u64> = Default::default();
        for _ in 0..self.config.max_steps {
            if Instant::now() > deadline {
                return Err(PalmtoError::Timeout);
            }
            let current = *tokens.last().expect("non-empty");
            if current == goal_cell.raw() {
                return Ok(self.tokens_to_path(&tokens, start, end));
            }
            // Goal adjacency: close enough counts as arrival.
            if let (Ok(cur), goal) = (HexCell::from_raw(current), goal_cell) {
                if self
                    .grid
                    .grid_distance(cur, goal)
                    .map(|d| d <= 1)
                    .unwrap_or(false)
                {
                    tokens.push(goal.raw());
                    return Ok(self.tokens_to_path(&tokens, start, end));
                }
            }

            let next = self
                .next_token(&tokens, &visited_recent, goal_cell)
                .ok_or(PalmtoError::DeadEnd)?;
            visited_recent.push_back(next);
            if visited_recent.len() > 12 {
                visited_recent.pop_front();
            }
            tokens.push(next);
        }
        Err(PalmtoError::StepLimit)
    }

    /// Picks the most frequent continuation with stupid backoff,
    /// avoiding recently visited cells (loop suppression). Among the
    /// top continuations, prefers the one closest to the goal — the
    /// goal-conditioning PaLMTO applies at generation time.
    fn next_token(
        &self,
        tokens: &[u64],
        recent: &std::collections::VecDeque<u64>,
        goal: HexCell,
    ) -> Option<u64> {
        let max_ctx = (self.config.n - 1).min(tokens.len());
        for ctx_len in (1..=max_ctx).rev() {
            let ctx = &tokens[tokens.len() - ctx_len..];
            if let Some(continuations) = self.counts.get(ctx) {
                // Consider the 4 most frequent continuations; tie-break
                // toward the goal.
                let mut best: Option<(u64, u32, u32)> = None; // (cell, count, dist)
                for &(cell, count) in continuations.iter().take(4) {
                    if recent.contains(&cell) {
                        continue;
                    }
                    let dist = HexCell::from_raw(cell)
                        .ok()
                        .and_then(|c| self.grid.grid_distance(c, goal).ok())
                        .unwrap_or(u32::MAX);
                    let better = match best {
                        None => true,
                        Some((_, _, bd)) => dist < bd,
                    };
                    if better {
                        best = Some((cell, count, dist));
                    }
                }
                if let Some((cell, _, _)) = best {
                    return Some(cell);
                }
            }
        }
        None
    }

    fn tokens_to_path(
        &self,
        tokens: &[u64],
        start: TimedPoint,
        end: TimedPoint,
    ) -> Vec<TimedPoint> {
        let mut positions: Vec<GeoPoint> = Vec::with_capacity(tokens.len() + 2);
        positions.push(start.pos);
        for &t in tokens {
            if let Ok(cell) = HexCell::from_raw(t) {
                positions.push(self.grid.center(cell));
            }
        }
        positions.push(end.pos);
        let mut cum = Vec::with_capacity(positions.len());
        let mut acc = 0.0;
        cum.push(0.0);
        for w in positions.windows(2) {
            acc += geo_kernel::haversine_m(&w[0], &w[1]);
            cum.push(acc);
        }
        let total = acc.max(1e-9);
        let span = (end.t - start.t) as f64;
        positions
            .iter()
            .zip(&cum)
            .map(|(p, &d)| TimedPoint {
                pos: *p,
                t: start.t + (span * d / total).round() as i64,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ais::AisPoint;

    fn lane_trips() -> Vec<Trip> {
        (0..5u64)
            .map(|k| Trip {
                trip_id: k + 1,
                mmsi: 300 + k,
                points: (0..150)
                    .map(|i| {
                        AisPoint::new(
                            300 + k,
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

    #[test]
    fn fit_counts_ngrams() {
        let m = PalmtoModel::fit(&lane_trips(), PalmtoConfig::default()).unwrap();
        assert!(m.ngram_count() > 100);
        assert!(m.storage_bytes() > 1000);
    }

    #[test]
    fn generates_along_the_lane() {
        let m = PalmtoModel::fit(&lane_trips(), PalmtoConfig::default()).unwrap();
        let start = TimedPoint::new(10.1, 56.0, 0);
        let end = TimedPoint::new(10.4, 56.0, 7200);
        let path = m.impute(start, end).unwrap();
        assert!(path.len() > 5);
        assert_eq!(path.first().unwrap().t, 0);
        assert_eq!(path.last().unwrap().t, 7200);
        for p in &path {
            assert!((p.pos.lat - 56.0).abs() < 0.02, "stays on the lane");
        }
    }

    #[test]
    fn off_data_query_fails_fast() {
        let m = PalmtoModel::fit(&lane_trips(), PalmtoConfig::default()).unwrap();
        // Start far away from any training data: no context exists.
        let start = TimedPoint::new(20.0, 40.0, 0);
        let end = TimedPoint::new(20.5, 40.0, 7200);
        assert_eq!(m.impute(start, end), Err(PalmtoError::DeadEnd));
    }

    #[test]
    fn tiny_budget_times_out() {
        let m = PalmtoModel::fit(
            &lane_trips(),
            PalmtoConfig {
                time_budget: Duration::from_nanos(1),
                ..PalmtoConfig::default()
            },
        )
        .unwrap();
        let start = TimedPoint::new(10.05, 56.0, 0);
        let end = TimedPoint::new(10.55, 56.0, 7200);
        assert_eq!(m.impute(start, end), Err(PalmtoError::Timeout));
    }

    #[test]
    fn empty_training_rejected() {
        assert!(matches!(
            PalmtoModel::fit(&[], PalmtoConfig::default()),
            Err(PalmtoError::EmptyModel)
        ));
    }
}
