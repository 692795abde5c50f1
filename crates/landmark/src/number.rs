//! Landmark numbers and the region-position hash.
//!
//! A [`LandmarkNumber`] is the scalar produced by flattening a node's
//! quantised landmark vector along a space-filling curve. It approximates
//! the node's physical position: *closeness in landmark number indicates
//! physical closeness*. Nodes use it as the DHT key under which their
//! proximity information is published and looked up.
//!
//! [`region_position`] implements the paper's hash `p' = h(p, dp, dz, Z)`:
//! it maps a landmark number into a *normalised position inside an overlay
//! region* of dimensionality `dz`, again via a space-filling curve, so that
//! close landmark numbers land at close positions inside the region. The
//! overlay layer scales the normalised position into the concrete zone
//! rectangle.

use std::fmt;

use crate::hilbert::HilbertCurve;
use crate::zorder::MortonCurve;

/// Which space-filling curve flattens landmark-space cells to scalars.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SpaceFillingCurve {
    /// Hilbert curve — best locality (the paper's choice).
    #[default]
    Hilbert,
    /// Z-order (Morton) curve — ablation baseline.
    ZOrder,
    /// Use only the first grid coordinate — degenerate baseline showing why
    /// a real curve is needed.
    FirstComponent,
}

/// A node's landmark number: its position along a space-filling curve
/// through the landmark space.
///
/// # Example
///
/// ```
/// use tao_landmark::LandmarkNumber;
///
/// let a = LandmarkNumber::new(100);
/// let b = LandmarkNumber::new(108);
/// assert_eq!(a.distance(b), 8);
/// assert!(a < b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LandmarkNumber(u128);

impl LandmarkNumber {
    /// Wraps a raw curve position.
    pub const fn new(value: u128) -> Self {
        LandmarkNumber(value)
    }

    /// The raw curve position.
    pub const fn value(self) -> u128 {
        self.0
    }

    /// Absolute difference along the curve — the proximity signal.
    pub fn distance(self, other: LandmarkNumber) -> u128 {
        self.0.abs_diff(other.0)
    }

    /// This number as a fraction of the curve of `total_bits` length, in
    /// `[0, 1)` (or exactly 1.0 minus one ulp at the end of the curve).
    ///
    /// # Panics
    ///
    /// Panics if `total_bits` is 0 or greater than 128.
    pub fn as_fraction(self, total_bits: u32) -> f64 {
        assert!(
            (1..=128).contains(&total_bits),
            "total_bits must be in 1..=128"
        );
        self.0 as f64 / 2f64.powi(total_bits as i32)
    }
}

impl fmt::Display for LandmarkNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lmk#{:x}", self.0)
    }
}

impl From<u128> for LandmarkNumber {
    fn from(v: u128) -> Self {
        LandmarkNumber(v)
    }
}

/// Maps a landmark number to a normalised position in `[0,1)^region_dims` —
/// the paper's hash `p' = h(p, dp, dz, Z)`.
///
/// `number_bits` is the length of the curve that produced `number` (i.e.
/// [`LandmarkGrid::number_bits`](crate::LandmarkGrid::number_bits));
/// `resolution_bits` controls the granularity of the output position.
/// Locality is preserved: numbers close on the landmark curve map to nearby
/// positions in the region.
///
/// # Panics
///
/// Panics if `region_dims` is 0, `resolution_bits` is 0 or > 32, the
/// product exceeds 128 bits, or `number_bits` is out of `1..=128`.
///
/// # Example
///
/// ```
/// use tao_landmark::{region_position, LandmarkNumber, SpaceFillingCurve};
///
/// let near_a = region_position(LandmarkNumber::new(500), 16, 2, 8, SpaceFillingCurve::Hilbert);
/// let near_b = region_position(LandmarkNumber::new(501), 16, 2, 8, SpaceFillingCurve::Hilbert);
/// let far = region_position(LandmarkNumber::new(60_000), 16, 2, 8, SpaceFillingCurve::Hilbert);
///
/// let d = |a: &[f64], b: &[f64]| -> f64 {
///     a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
/// };
/// assert!(d(&near_a, &near_b) <= d(&near_a, &far));
/// ```
pub fn region_position(
    number: LandmarkNumber,
    number_bits: u32,
    region_dims: usize,
    resolution_bits: u32,
    curve: SpaceFillingCurve,
) -> Vec<f64> {
    let mut position = vec![0.0; region_dims];
    region_position_into(number, number_bits, resolution_bits, curve, &mut position);
    position
}

/// [`region_position`] written into `out`, whose length is the region's
/// dimensionality — no allocation, for lookups that hash a query's number
/// to its landing position on a request path.
///
/// # Panics
///
/// Same conditions as [`region_position`], with `out.len()` as
/// `region_dims`.
pub fn region_position_into(
    number: LandmarkNumber,
    number_bits: u32,
    resolution_bits: u32,
    curve: SpaceFillingCurve,
    out: &mut [f64],
) {
    let region_dims = out.len();
    assert!(region_dims > 0, "region must have at least one dimension");
    let fraction = number.as_fraction(number_bits);
    // `dims * bits <= 128` with `bits >= 1` caps `dims` at 128, so the
    // decoded cell fits on the stack.
    let mut cell = [0u32; 128];
    match curve {
        SpaceFillingCurve::Hilbert => {
            #[expect(clippy::expect_used, reason = "invalid region curve parameters")]
            let c = HilbertCurve::new(region_dims, resolution_bits)
                .expect("invalid region curve parameters");
            let cell = &mut cell[..region_dims];
            c.point_into(scaled_index(fraction, c.max_index()), cell);
            normalise(cell, resolution_bits, out);
        }
        SpaceFillingCurve::ZOrder => {
            #[expect(clippy::expect_used, reason = "invalid region curve parameters")]
            let c = MortonCurve::new(region_dims, resolution_bits)
                .expect("invalid region curve parameters");
            let cell = &mut cell[..region_dims];
            c.point_into(scaled_index(fraction, c.max_index()), cell);
            normalise(cell, resolution_bits, out);
        }
        SpaceFillingCurve::FirstComponent => {
            // Spread along the first axis only; remaining axes centred.
            out.fill(0.5);
            out[0] = fraction;
        }
    }
}

fn scaled_index(fraction: f64, max_index: u128) -> u128 {
    debug_assert!((0.0..=1.0).contains(&fraction));
    let scaled = (fraction * (max_index as f64 + 1.0)) as u128;
    scaled.min(max_index)
}

fn normalise(cell: &[u32], resolution_bits: u32, out: &mut [f64]) {
    // Cell centres, so positions never sit exactly on zone boundaries.
    let cells_per_axis = (1u64 << resolution_bits) as f64;
    for (o, &c) in out.iter_mut().zip(cell) {
        *o = (c as f64 + 0.5) / cells_per_axis;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = LandmarkNumber::new(7);
        let b = LandmarkNumber::new(19);
        assert_eq!(a.distance(b), b.distance(a));
        assert_eq!(a.distance(a), 0);
    }

    #[test]
    fn fraction_scales_with_curve_length() {
        let n = LandmarkNumber::new(128);
        assert!((n.as_fraction(8) - 0.5).abs() < 1e-12);
        assert!((n.as_fraction(16) - 128.0 / 65_536.0).abs() < 1e-12);
    }

    #[test]
    fn region_position_is_inside_the_unit_box() {
        for curve in [
            SpaceFillingCurve::Hilbert,
            SpaceFillingCurve::ZOrder,
            SpaceFillingCurve::FirstComponent,
        ] {
            for raw in [0u128, 1, 1_000, 65_535] {
                let p = region_position(LandmarkNumber::new(raw), 16, 2, 6, curve);
                assert_eq!(p.len(), 2);
                for &x in &p {
                    assert!((0.0..1.0).contains(&x), "{curve:?} produced {x}");
                }
            }
        }
    }

    #[test]
    fn hilbert_region_positions_preserve_locality_on_average() {
        // Average pairwise distance of adjacent numbers must be well below
        // that of random pairs.
        let dist = |a: &[f64], b: &[f64]| -> f64 {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt()
        };
        let pos =
            |v: u128| region_position(LandmarkNumber::new(v), 16, 2, 8, SpaceFillingCurve::Hilbert);
        let mut adjacent = 0.0;
        let mut distant = 0.0;
        let mut count = 0;
        for v in (0..65_000u128).step_by(1_031) {
            adjacent += dist(&pos(v), &pos(v + 1));
            distant += dist(&pos(v), &pos((v + 32_768) % 65_536));
            count += 1;
        }
        assert!(
            adjacent / count as f64 * 4.0 < distant / count as f64,
            "adjacent numbers should be much closer: adj={adjacent}, far={distant}"
        );
    }

    #[test]
    fn ends_of_curve_map_to_valid_positions() {
        let p = region_position(
            LandmarkNumber::new(u128::MAX),
            128,
            3,
            4,
            SpaceFillingCurve::Hilbert,
        );
        assert!(p.iter().all(|x| (0.0..1.0).contains(x)));
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(LandmarkNumber::new(255).to_string(), "lmk#ff");
    }

    #[test]
    #[should_panic(expected = "total_bits")]
    fn fraction_rejects_zero_bits() {
        let _ = LandmarkNumber::new(1).as_fraction(0);
    }
}
