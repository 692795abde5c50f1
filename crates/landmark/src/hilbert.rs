//! A generic d-dimensional Hilbert curve.
//!
//! Implements Skilling's transpose algorithm ("Programming the Hilbert
//! curve", AIP Conf. Proc. 707, 2004): coordinates are converted to/from the
//! *transpose* form in place, and the transpose bits are interleaved into a
//! single `u128` index. Works for any dimensionality `n ≥ 1` and precision
//! `b ≤ 32` bits per axis with `n·b ≤ 128`.
//!
//! The Hilbert curve is the locality-preserving dimension reducer the paper
//! uses (its appendix credits Artur Andrzejak for the suggestion): points
//! close on the curve are always close in space, and points close in space
//! are usually close on the curve — far better than Z-order, which the
//! `zorder` module provides for comparison.

use std::error::Error;
use std::fmt;

/// Error constructing a space-filling curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CurveError {
    /// `dims` was zero.
    ZeroDims,
    /// `bits` was zero or above 32.
    BadBits(u32),
    /// `dims * bits` exceeded 128, the index width.
    IndexOverflow {
        /// Requested dimensionality.
        dims: usize,
        /// Requested bits per axis.
        bits: u32,
    },
}

impl fmt::Display for CurveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CurveError::ZeroDims => write!(f, "curve needs at least one dimension"),
            CurveError::BadBits(b) => write!(f, "bits per axis must be in 1..=32, got {b}"),
            CurveError::IndexOverflow { dims, bits } => write!(
                f,
                "dims ({dims}) x bits ({bits}) exceeds the 128-bit index width"
            ),
        }
    }
}

impl Error for CurveError {}

/// A Hilbert curve over `dims` axes with `bits` of precision per axis.
///
/// # Example
///
/// ```
/// use tao_landmark::hilbert::HilbertCurve;
///
/// let curve = HilbertCurve::new(2, 4).unwrap();
/// // Walking the curve visits neighbouring cells: consecutive indices map
/// // to points at L1 distance exactly 1.
/// let a = curve.point(7);
/// let b = curve.point(8);
/// let l1: i64 = a.iter().zip(&b).map(|(&x, &y)| (x as i64 - y as i64).abs()).sum();
/// assert_eq!(l1, 1);
/// // And the mapping round-trips.
/// assert_eq!(curve.index(&a), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HilbertCurve {
    dims: usize,
    bits: u32,
    index_bits: u32,
}

/// Validates curve parameters and returns the index width `dims * bits`,
/// for both curves.
pub(crate) fn index_bits(dims: usize, bits: u32) -> Result<u32, CurveError> {
    if dims == 0 {
        return Err(CurveError::ZeroDims);
    }
    if bits == 0 || bits > 32 {
        return Err(CurveError::BadBits(bits));
    }
    let width = u32::try_from(dims).ok().and_then(|d| d.checked_mul(bits));
    width
        .filter(|&w| w <= 128)
        .ok_or(CurveError::IndexOverflow { dims, bits })
}

/// The largest index of a curve `index_bits` wide: `2^index_bits - 1`.
pub(crate) fn max_index(index_bits: u32) -> u128 {
    u128::MAX >> (128 - index_bits)
}

impl HilbertCurve {
    /// Creates a curve.
    ///
    /// # Errors
    ///
    /// Returns [`CurveError`] if `dims == 0`, `bits ∉ 1..=32`, or
    /// `dims * bits > 128`.
    pub fn new(dims: usize, bits: u32) -> Result<Self, CurveError> {
        let index_bits = index_bits(dims, bits)?;
        Ok(HilbertCurve {
            dims,
            bits,
            index_bits,
        })
    }

    /// Number of axes.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Bits of precision per axis.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Width of an index in bits: `dims * bits`.
    pub fn index_bits(&self) -> u32 {
        self.index_bits
    }

    /// The largest valid index: `2^(dims*bits) - 1`.
    pub fn max_index(&self) -> u128 {
        max_index(self.index_bits)
    }

    /// The largest valid coordinate on each axis: `2^bits - 1`.
    pub fn max_coord(&self) -> u32 {
        if self.bits == 32 {
            u32::MAX
        } else {
            (1u32 << self.bits) - 1
        }
    }

    /// Maps a point to its position along the curve.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != dims` or any coordinate exceeds
    /// [`HilbertCurve::max_coord`].
    pub fn index(&self, point: &[u32]) -> u128 {
        self.check_point(point);
        if self.dims == 1 {
            return point[0] as u128;
        }
        // `dims * bits <= 128` with `bits >= 1` caps `dims` at 128, so the
        // transpose scratch fits on the stack — `index` is called from
        // overlay hot paths and must not heap-allocate.
        let mut buf = [0u32; 128];
        let x = &mut buf[..self.dims];
        x.copy_from_slice(point);
        self.axes_to_transpose(x);
        self.interleave(x)
    }

    /// Maps a position along the curve back to its point.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds [`HilbertCurve::max_index`].
    pub fn point(&self, index: u128) -> Vec<u32> {
        let mut x = vec![0u32; self.dims];
        self.point_into(index, &mut x);
        x
    }

    /// [`HilbertCurve::point`] written into `out` — no allocation, for
    /// callers that decode positions on a request path.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds [`HilbertCurve::max_index`] or
    /// `out.len() != dims`.
    pub fn point_into(&self, index: u128, out: &mut [u32]) {
        assert!(
            index <= self.max_index(),
            "index {index} exceeds max {}",
            self.max_index()
        );
        assert_eq!(out.len(), self.dims, "point has wrong dimensionality");
        if self.dims == 1 {
            out[0] = index as u32;
            return;
        }
        self.deinterleave(index, out);
        self.transpose_to_axes(out);
    }

    fn check_point(&self, point: &[u32]) {
        assert_eq!(point.len(), self.dims, "point has wrong dimensionality");
        let max = self.max_coord();
        for (axis, &c) in point.iter().enumerate() {
            assert!(c <= max, "coordinate {c} on axis {axis} exceeds max {max}");
        }
    }

    /// Skilling: axes → transpose, in place.
    fn axes_to_transpose(&self, x: &mut [u32]) {
        let n = self.dims;
        let m = 1u32 << (self.bits - 1);
        // Inverse undo.
        let mut q = m;
        while q > 1 {
            let p = q - 1;
            for i in 0..n {
                if x[i] & q != 0 {
                    x[0] ^= p;
                } else {
                    let t = (x[0] ^ x[i]) & p;
                    x[0] ^= t;
                    x[i] ^= t;
                }
            }
            q >>= 1;
        }
        // Gray encode: running prefix XOR, so `prev` ends up holding the
        // final element without any `x[i - 1]` offset indexing.
        let mut prev = x[0];
        for v in x.iter_mut().skip(1) {
            *v ^= prev;
            prev = *v;
        }
        let mut t = 0;
        let mut q = m;
        while q > 1 {
            if prev & q != 0 {
                t ^= q - 1;
            }
            q >>= 1;
        }
        for v in x.iter_mut() {
            *v ^= t;
        }
    }

    /// Skilling: transpose → axes, in place.
    fn transpose_to_axes(&self, x: &mut [u32]) {
        let n = self.dims;
        let cap = if self.bits == 32 {
            0
        } else {
            2u32 << (self.bits - 1)
        };
        // Gray decode by H ^ (H/2): every element but the first takes its
        // predecessor's *old* value, carried along so no `x[i - 1]` offset
        // indexing is needed.
        let mut t = x.last().map_or(0, |last| last >> 1);
        let mut prev = x[0];
        for v in x.iter_mut().skip(1) {
            prev = std::mem::replace(v, *v ^ prev);
        }
        x[0] ^= t;
        // Undo excess work.
        let mut q = 2u32;
        while q != cap {
            let p = q - 1;
            for i in (0..n).rev() {
                if x[i] & q != 0 {
                    x[0] ^= p;
                } else {
                    t = (x[0] ^ x[i]) & p;
                    x[0] ^= t;
                    x[i] ^= t;
                }
            }
            q <<= 1;
        }
    }

    /// Packs transpose form into an index, most significant bits first.
    fn interleave(&self, x: &[u32]) -> u128 {
        let mut index: u128 = 0;
        for bit in (0..self.bits).rev() {
            for v in x {
                index = (index << 1) | (((v >> bit) & 1) as u128);
            }
        }
        index
    }

    /// Unpacks an index into transpose form.
    fn deinterleave(&self, index: u128, x: &mut [u32]) {
        x.fill(0);
        let mut pos = self.index_bits;
        for bit in (0..self.bits).rev() {
            for v in x.iter_mut() {
                pos -= 1;
                *v |= (((index >> pos) & 1) as u32) << bit;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_parameters() {
        assert_eq!(HilbertCurve::new(0, 4), Err(CurveError::ZeroDims));
        assert_eq!(HilbertCurve::new(2, 0), Err(CurveError::BadBits(0)));
        assert_eq!(HilbertCurve::new(2, 33), Err(CurveError::BadBits(33)));
        assert_eq!(
            HilbertCurve::new(5, 32),
            Err(CurveError::IndexOverflow { dims: 5, bits: 32 })
        );
        assert!(HilbertCurve::new(4, 32).is_ok());
    }

    #[test]
    fn two_dim_order_one_matches_the_classic_u_shape() {
        // The first-order 2-d Hilbert curve visits (0,0) (0,1) (1,1) (1,0).
        let c = HilbertCurve::new(2, 1).unwrap();
        let visits: Vec<Vec<u32>> = (0..4).map(|i| c.point(i)).collect();
        assert_eq!(visits[0], vec![0, 0]);
        assert_eq!(visits[3], vec![1, 0]);
        // Each step moves by exactly one cell.
        for w in visits.windows(2) {
            let l1: i64 = w[0]
                .iter()
                .zip(&w[1])
                .map(|(&a, &b)| (a as i64 - b as i64).abs())
                .sum();
            assert_eq!(l1, 1);
        }
    }

    #[test]
    fn walk_is_a_bijection_and_unit_steps_2d() {
        let c = HilbertCurve::new(2, 4).unwrap();
        let mut seen = tao_util::det::DetSet::new();
        let mut prev: Option<Vec<u32>> = None;
        for i in 0..=c.max_index() {
            let p = c.point(i);
            assert!(seen.insert(p.clone()), "point visited twice: {p:?}");
            if let Some(q) = prev {
                let l1: i64 = p
                    .iter()
                    .zip(&q)
                    .map(|(&a, &b)| (a as i64 - b as i64).abs())
                    .sum();
                assert_eq!(l1, 1, "curve must move one cell per step");
            }
            prev = Some(p);
        }
        assert_eq!(seen.len(), 256);
    }

    #[test]
    fn walk_is_a_bijection_and_unit_steps_3d() {
        let c = HilbertCurve::new(3, 3).unwrap();
        let mut seen = tao_util::det::DetSet::new();
        let mut prev: Option<Vec<u32>> = None;
        for i in 0..=c.max_index() {
            let p = c.point(i);
            assert!(seen.insert(p.clone()));
            if let Some(q) = prev {
                let l1: i64 = p
                    .iter()
                    .zip(&q)
                    .map(|(&a, &b)| (a as i64 - b as i64).abs())
                    .sum();
                assert_eq!(l1, 1);
            }
            prev = Some(p);
        }
        assert_eq!(seen.len(), 512);
    }

    #[test]
    fn one_dimensional_curve_is_identity() {
        let c = HilbertCurve::new(1, 8).unwrap();
        assert_eq!(c.index(&[37]), 37);
        assert_eq!(c.point(200), vec![200]);
    }

    #[test]
    fn round_trips_in_higher_dimensions() {
        for dims in 2..=6 {
            let c = HilbertCurve::new(dims, 4).unwrap();
            for i in [0u128, 1, 17, 255, c.max_index() / 2, c.max_index()] {
                let p = c.point(i);
                assert_eq!(c.index(&p), i, "round trip failed at dims={dims}, i={i}");
            }
        }
    }

    #[test]
    fn full_precision_round_trip() {
        let c = HilbertCurve::new(4, 32).unwrap();
        for &i in &[0u128, 1, u128::MAX / 3, u128::MAX - 1, u128::MAX] {
            assert_eq!(c.index(&c.point(i)), i);
        }
    }

    #[test]
    #[should_panic(expected = "wrong dimensionality")]
    fn wrong_dimensionality_panics() {
        let c = HilbertCurve::new(2, 4).unwrap();
        let _ = c.index(&[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "exceeds max")]
    fn oversized_coordinate_panics() {
        let c = HilbertCurve::new(2, 4).unwrap();
        let _ = c.index(&[16, 0]);
    }

    #[test]
    fn error_messages_are_informative() {
        assert_eq!(
            CurveError::ZeroDims.to_string(),
            "curve needs at least one dimension"
        );
        assert!(CurveError::IndexOverflow { dims: 9, bits: 16 }
            .to_string()
            .contains("128-bit"));
    }

    mod properties {
        use super::*;
        use tao_util::check::for_all;
        use tao_util::check_eq;
        use tao_util::rand::Rng;

        #[test]
        fn index_point_round_trip() {
            for_all("index_point_round_trip", 256, |rng| {
                let dims = rng.gen_range(2usize..6);
                let bits = rng.gen_range(1u32..8);
                let c = HilbertCurve::new(dims, bits).unwrap();
                let index = (rng.gen::<u64>() as u128) % (c.max_index() + 1);
                let p = c.point(index);
                check_eq!(c.index(&p), index, "dims={dims} bits={bits}");
            });
        }

        #[test]
        fn point_index_round_trip() {
            for_all("point_index_round_trip", 256, |rng| {
                let dims = rng.gen_range(2usize..6);
                let bits = rng.gen_range(1u32..8);
                let c = HilbertCurve::new(dims, bits).unwrap();
                let clamped: Vec<u32> = (0..dims)
                    .map(|_| rng.gen::<u32>() & c.max_coord())
                    .collect();
                let i = c.index(&clamped);
                check_eq!(c.point(i), clamped, "dims={dims} bits={bits}");
            });
        }

        #[test]
        fn adjacent_indices_are_adjacent_points() {
            for_all("adjacent_indices_are_adjacent_points", 256, |rng| {
                let dims = rng.gen_range(2usize..5);
                let bits = rng.gen_range(1u32..6);
                let c = HilbertCurve::new(dims, bits).unwrap();
                let i = (rng.gen::<u64>() as u128) % c.max_index();
                let a = c.point(i);
                let b = c.point(i + 1);
                let l1: i64 = a
                    .iter()
                    .zip(&b)
                    .map(|(&x, &y)| (x as i64 - y as i64).abs())
                    .sum();
                check_eq!(l1, 1, "dims={dims} bits={bits} i={i}");
            });
        }
    }
}
