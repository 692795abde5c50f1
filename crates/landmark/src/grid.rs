//! Quantisation of the landmark space into grid cells.
//!
//! The paper's appendix: "We partition the landmark space into n^x grids of
//! equal size (where n refers to number of landmarks and x controls the
//! number of grids used to partition the landmark space), and number each
//! node in the overlay according to the grid into which it falls."
//!
//! [`LandmarkGrid`] fixes the number of cells per axis (2^bits) and an RTT
//! ceiling; a landmark vector is clipped into the ceiling and quantised into
//! integer cell coordinates, which a space-filling curve then flattens into
//! the scalar [`LandmarkNumber`](crate::LandmarkNumber).

use std::error::Error;
use std::fmt;

use tao_util::time::SimDuration;

use crate::hilbert::{CurveError, HilbertCurve};
use crate::number::{LandmarkNumber, SpaceFillingCurve};
use crate::vector::LandmarkVector;
use crate::zorder::MortonCurve;

/// Error constructing a [`LandmarkGrid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridError {
    /// The underlying curve parameters were invalid.
    Curve(CurveError),
    /// The RTT ceiling was zero.
    ZeroCeiling,
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::Curve(e) => write!(f, "invalid grid curve: {e}"),
            GridError::ZeroCeiling => write!(f, "the RTT ceiling must be positive"),
        }
    }
}

impl Error for GridError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GridError::Curve(e) => Some(e),
            GridError::ZeroCeiling => None,
        }
    }
}

impl From<CurveError> for GridError {
    fn from(e: CurveError) -> Self {
        GridError::Curve(e)
    }
}

/// A uniform grid over the landmark space.
///
/// `dims` is the number of landmark-vector components used (the paper's
/// *landmark vector index* size), `bits` the per-axis resolution (2^bits
/// cells per axis), and `ceiling` the RTT at and beyond which a component
/// saturates into the last cell.
///
/// # Example
///
/// ```
/// use tao_landmark::{LandmarkGrid, LandmarkVector, SpaceFillingCurve};
/// use tao_util::time::SimDuration;
///
/// let grid = LandmarkGrid::new(2, 3, SimDuration::from_millis(80)).unwrap();
/// let v = LandmarkVector::from_millis(&[10.0, 75.0]);
/// assert_eq!(grid.cell(&v), vec![1, 7]);
/// let n = grid.landmark_number(&v, SpaceFillingCurve::Hilbert);
/// assert!(n.value() <= grid.max_number().value());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LandmarkGrid {
    dims: usize,
    bits: u32,
    number_bits: u32,
    ceiling: SimDuration,
}

impl LandmarkGrid {
    /// Creates a grid.
    ///
    /// # Errors
    ///
    /// Returns [`GridError`] if the curve parameters are invalid (see
    /// [`HilbertCurve::new`]) or `ceiling` is zero.
    pub fn new(dims: usize, bits: u32, ceiling: SimDuration) -> Result<Self, GridError> {
        // Validate via the curve constructor so both curves are usable.
        let number_bits = HilbertCurve::new(dims.max(1), bits)?.index_bits();
        if dims == 0 {
            return Err(GridError::Curve(CurveError::ZeroDims));
        }
        if ceiling.is_zero() {
            return Err(GridError::ZeroCeiling);
        }
        Ok(LandmarkGrid {
            dims,
            bits,
            number_bits,
            ceiling,
        })
    }

    /// Number of vector components the grid consumes.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Per-axis resolution in bits (2^bits cells per axis).
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Total bits in a landmark number produced by this grid.
    pub fn number_bits(&self) -> u32 {
        self.number_bits
    }

    /// The RTT ceiling.
    pub fn ceiling(&self) -> SimDuration {
        self.ceiling
    }

    /// The largest landmark number this grid can produce.
    pub fn max_number(&self) -> LandmarkNumber {
        let total = self.number_bits();
        let v = if total == 128 {
            u128::MAX
        } else {
            (1u128 << total) - 1
        };
        LandmarkNumber::new(v)
    }

    /// Quantises the first `dims` components of `vector` into integer cell
    /// coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `vector` has fewer than `dims` components.
    pub fn cell(&self, vector: &LandmarkVector) -> Vec<u32> {
        assert!(
            vector.len() >= self.dims,
            "vector has {} components, grid needs {}",
            vector.len(),
            self.dims
        );
        let cells_per_axis = 1u64 << self.bits;
        let ceil_us = self.ceiling.as_micros();
        (0..self.dims)
            .map(|i| {
                let rtt_us = vector.rtt(i).as_micros().min(ceil_us);
                let cell = rtt_us.saturating_mul(cells_per_axis) / ceil_us.max(1);
                cell.min(cells_per_axis - 1) as u32
            })
            .collect()
    }

    /// Computes the landmark number for `vector` under `curve`.
    ///
    /// # Panics
    ///
    /// Panics if `vector` has fewer than `dims` components.
    pub fn landmark_number(
        &self,
        vector: &LandmarkVector,
        curve: SpaceFillingCurve,
    ) -> LandmarkNumber {
        let cell = self.cell(vector);
        let value = match curve {
            #[expect(clippy::expect_used, reason = "parameters validated at construction")]
            SpaceFillingCurve::Hilbert => HilbertCurve::new(self.dims, self.bits)
                .expect("parameters validated at construction")
                .index(&cell),
            #[expect(clippy::expect_used, reason = "parameters validated at construction")]
            SpaceFillingCurve::ZOrder => MortonCurve::new(self.dims, self.bits)
                .expect("parameters validated at construction")
                .index(&cell),
            SpaceFillingCurve::FirstComponent => cell[0] as u128,
        };
        LandmarkNumber::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> LandmarkGrid {
        LandmarkGrid::new(3, 4, SimDuration::from_millis(160)).unwrap()
    }

    #[test]
    fn quantisation_is_monotone_and_saturating() {
        let g = grid();
        let low = LandmarkVector::from_millis(&[0.0, 10.0, 159.0]);
        assert_eq!(g.cell(&low), vec![0, 1, 15]);
        let high = LandmarkVector::from_millis(&[160.0, 1_000.0, 80.0]);
        assert_eq!(g.cell(&high), vec![15, 15, 8]);
    }

    #[test]
    fn nearby_vectors_share_or_neighbor_cells() {
        let g = grid();
        let a = g.cell(&LandmarkVector::from_millis(&[50.0, 50.0, 50.0]));
        let b = g.cell(&LandmarkVector::from_millis(&[52.0, 49.0, 51.0]));
        for (x, y) in a.iter().zip(&b) {
            assert!(x.abs_diff(*y) <= 1);
        }
    }

    #[test]
    fn landmark_number_is_bounded() {
        let g = grid();
        let v = LandmarkVector::from_millis(&[160.0, 160.0, 160.0]);
        for curve in [
            SpaceFillingCurve::Hilbert,
            SpaceFillingCurve::ZOrder,
            SpaceFillingCurve::FirstComponent,
        ] {
            assert!(g.landmark_number(&v, curve) <= g.max_number());
        }
    }

    #[test]
    fn extra_vector_components_are_ignored() {
        let g = grid();
        let v3 = LandmarkVector::from_millis(&[10.0, 20.0, 30.0]);
        let v5 = LandmarkVector::from_millis(&[10.0, 20.0, 30.0, 99.0, 1.0]);
        assert_eq!(
            g.landmark_number(&v3, SpaceFillingCurve::Hilbert),
            g.landmark_number(&v5, SpaceFillingCurve::Hilbert)
        );
    }

    #[test]
    fn constructor_validates() {
        assert_eq!(
            LandmarkGrid::new(3, 4, SimDuration::ZERO),
            Err(GridError::ZeroCeiling)
        );
        assert!(matches!(
            LandmarkGrid::new(0, 4, SimDuration::from_millis(1)),
            Err(GridError::Curve(CurveError::ZeroDims))
        ));
        assert!(matches!(
            LandmarkGrid::new(3, 64, SimDuration::from_millis(1)),
            Err(GridError::Curve(CurveError::BadBits(64)))
        ));
    }

    #[test]
    #[should_panic(expected = "grid needs")]
    fn short_vector_panics() {
        let g = grid();
        let _ = g.cell(&LandmarkVector::from_millis(&[1.0]));
    }

    #[test]
    fn error_display_chains_source() {
        let e = GridError::Curve(CurveError::ZeroDims);
        assert!(e.to_string().contains("at least one dimension"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
