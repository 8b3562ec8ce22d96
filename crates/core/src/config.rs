//! HABIT configuration parameters.

/// Inverse-projection option `p` (paper §3.3, Figure 2): how a cell on the
/// imputed path is mapped back to coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellProjection {
    /// `p = c`: the geometric center of the hexagon.
    Center,
    /// `p = w`: the median of historical AIS positions inside the cell —
    /// the paper's data-driven correction, grounded in locations vessels
    /// actually occupied.
    Median,
}

/// Edge-weighting scheme of the A* search.
///
/// The paper minimizes the number of transitions (uniform hop weights),
/// noting this "effectively reveals the most frequent path"; the two
/// frequency-aware schemes are kept as the ablation DESIGN.md §5 calls
/// out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightScheme {
    /// Uniform weight 1 per transition (paper default).
    Hops,
    /// `1 / transitions` — strongly prefers heavily traveled edges.
    InverseTransitions,
    /// `ln(1 + max_transitions / transitions)` — log-scaled preference.
    NegLogFrequency,
}

/// All tunables of the framework, named as in the paper: resolution `r`,
/// projection `p`, simplification tolerance `t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HabitConfig {
    /// H3 grid resolution `r` (paper sweeps 6..=10; default 9).
    pub resolution: u8,
    /// Inverse projection option `p` (default: data-driven median).
    pub projection: CellProjection,
    /// RDP simplification tolerance `t` in meters (default 100; paper
    /// finds 100–250 optimal).
    pub rdp_tolerance_m: f64,
    /// A* edge weighting (default: hop count, as in the paper).
    pub weight_scheme: WeightScheme,
    /// Trips spanning at most this many distinct cells are discarded
    /// during graph generation (paper: one or two adjacent cells).
    pub min_cell_span: usize,
    /// Maximum hex-ring radius searched when snapping a gap endpoint whose
    /// cell is not a graph node; beyond it the global nearest node is
    /// used.
    pub snap_max_rings: u32,
}

impl Default for HabitConfig {
    fn default() -> Self {
        Self {
            resolution: 9,
            projection: CellProjection::Median,
            rdp_tolerance_m: 100.0,
            weight_scheme: WeightScheme::Hops,
            min_cell_span: 2,
            snap_max_rings: 12,
        }
    }
}

impl HabitConfig {
    /// Convenience: the paper's headline configuration `(r, t)` with the
    /// median projection.
    pub fn with_r_t(resolution: u8, rdp_tolerance_m: f64) -> Self {
        Self {
            resolution,
            rdp_tolerance_m,
            ..Self::default()
        }
    }

    /// Stable one-byte code for the projection (serialization).
    pub(crate) fn projection_code(&self) -> u8 {
        match self.projection {
            CellProjection::Center => 0,
            CellProjection::Median => 1,
        }
    }

    pub(crate) fn weight_code(&self) -> u8 {
        match self.weight_scheme {
            WeightScheme::Hops => 0,
            WeightScheme::InverseTransitions => 1,
            WeightScheme::NegLogFrequency => 2,
        }
    }

    /// Serializes **every** tunable (unlike the model header's four
    /// fields): a fit state must reproduce the exact accumulation
    /// pipeline, where `min_cell_span` and `snap_max_rings` matter too.
    /// Layout: resolution, projection, weight (1 byte each), rdp f64,
    /// min_cell_span u64, snap_max_rings u32 — all little-endian.
    pub(crate) fn encode_full(&self, out: &mut Vec<u8>) {
        out.push(self.resolution);
        out.push(self.projection_code());
        out.push(self.weight_code());
        out.extend_from_slice(&self.rdp_tolerance_m.to_le_bytes());
        out.extend_from_slice(&(self.min_cell_span as u64).to_le_bytes());
        out.extend_from_slice(&self.snap_max_rings.to_le_bytes());
    }

    /// Inverse of [`HabitConfig::encode_full`], advancing `buf`. Unknown
    /// projection or weight codes are refused rather than defaulted, so
    /// an accepted config re-encodes to the bytes it was read from.
    pub(crate) fn decode_full(buf: &mut &[u8]) -> Option<Self> {
        if buf.len() < 3 + 8 + 8 + 4 {
            return None;
        }
        let (resolution, projection, weight) = (buf[0], buf[1], buf[2]);
        if projection > 1 || weight > 2 {
            return None;
        }
        let rdp = f64::from_le_bytes(buf[3..11].try_into().ok()?);
        let span = u64::from_le_bytes(buf[11..19].try_into().ok()?);
        let rings = u32::from_le_bytes(buf[19..23].try_into().ok()?);
        *buf = &buf[23..];
        Some(Self {
            min_cell_span: usize::try_from(span).ok()?,
            snap_max_rings: rings,
            ..Self::decode(resolution, projection, weight, rdp)
        })
    }

    pub(crate) fn decode(resolution: u8, projection: u8, weight: u8, rdp_tolerance_m: f64) -> Self {
        Self {
            resolution,
            projection: if projection == 0 {
                CellProjection::Center
            } else {
                CellProjection::Median
            },
            rdp_tolerance_m,
            weight_scheme: match weight {
                1 => WeightScheme::InverseTransitions,
                2 => WeightScheme::NegLogFrequency,
                _ => WeightScheme::Hops,
            },
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = HabitConfig::default();
        assert_eq!(c.resolution, 9);
        assert_eq!(c.projection, CellProjection::Median);
        assert_eq!(c.rdp_tolerance_m, 100.0);
        assert_eq!(c.weight_scheme, WeightScheme::Hops);
    }

    #[test]
    fn code_round_trip() {
        for proj in [CellProjection::Center, CellProjection::Median] {
            for ws in [
                WeightScheme::Hops,
                WeightScheme::InverseTransitions,
                WeightScheme::NegLogFrequency,
            ] {
                let c = HabitConfig {
                    resolution: 8,
                    projection: proj,
                    weight_scheme: ws,
                    rdp_tolerance_m: 250.0,
                    ..HabitConfig::default()
                };
                let d = HabitConfig::decode(8, c.projection_code(), c.weight_code(), 250.0);
                assert_eq!(d.projection, proj);
                assert_eq!(d.weight_scheme, ws);
                assert_eq!(d.resolution, 8);
            }
        }
    }

    #[test]
    fn with_r_t_builder() {
        let c = HabitConfig::with_r_t(10, 250.0);
        assert_eq!(c.resolution, 10);
        assert_eq!(c.rdp_tolerance_m, 250.0);
        assert_eq!(c.projection, CellProjection::Median);
    }
}
