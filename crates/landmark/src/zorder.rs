//! Morton (Z-order) curve — the simpler, weaker-locality alternative to the
//! Hilbert curve, kept as an ablation baseline (`DESIGN.md` §5): bit
//! interleaving preserves coarse locality but takes long diagonal jumps
//! between quadrant boundaries, which the Hilbert curve avoids.

pub use crate::hilbert::CurveError;
use crate::hilbert::{index_bits, max_index};

/// A Z-order (Morton) curve over `dims` axes with `bits` per axis.
///
/// Same interface as [`HilbertCurve`](crate::hilbert::HilbertCurve).
///
/// # Example
///
/// ```
/// use tao_landmark::zorder::MortonCurve;
///
/// let curve = MortonCurve::new(2, 4).unwrap();
/// let i = curve.index(&[3, 5]);
/// assert_eq!(curve.point(i), vec![3, 5]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MortonCurve {
    dims: usize,
    bits: u32,
    index_bits: u32,
}

impl MortonCurve {
    /// Creates a curve.
    ///
    /// # Errors
    ///
    /// Returns [`CurveError`] under the same conditions as
    /// [`HilbertCurve::new`](crate::hilbert::HilbertCurve::new).
    pub fn new(dims: usize, bits: u32) -> Result<Self, CurveError> {
        let index_bits = index_bits(dims, bits)?;
        Ok(MortonCurve {
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

    /// The largest valid index.
    pub fn max_index(&self) -> u128 {
        max_index(self.index_bits)
    }

    /// The largest valid coordinate per axis.
    pub fn max_coord(&self) -> u32 {
        if self.bits == 32 {
            u32::MAX
        } else {
            (1u32 << self.bits) - 1
        }
    }

    /// Interleaves the coordinates' bits into a Morton index.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != dims` or a coordinate exceeds
    /// [`MortonCurve::max_coord`].
    pub fn index(&self, point: &[u32]) -> u128 {
        assert_eq!(point.len(), self.dims, "point has wrong dimensionality");
        let max = self.max_coord();
        for &c in point {
            assert!(c <= max, "coordinate {c} exceeds max {max}");
        }
        let mut index: u128 = 0;
        for bit in (0..self.bits).rev() {
            for &v in point {
                index = (index << 1) | (((v >> bit) & 1) as u128);
            }
        }
        index
    }

    /// Recovers the point from a Morton index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds [`MortonCurve::max_index`].
    pub fn point(&self, index: u128) -> Vec<u32> {
        let mut point = vec![0u32; self.dims];
        self.point_into(index, &mut point);
        point
    }

    /// [`MortonCurve::point`] written into `out` — no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds [`MortonCurve::max_index`] or
    /// `out.len() != dims`.
    pub fn point_into(&self, index: u128, out: &mut [u32]) {
        assert!(
            index <= self.max_index(),
            "index {index} exceeds max {}",
            self.max_index()
        );
        assert_eq!(out.len(), self.dims, "point has wrong dimensionality");
        out.fill(0);
        let mut pos = self.index_bits;
        for bit in (0..self.bits).rev() {
            for v in out.iter_mut() {
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
    fn interleaving_matches_hand_computation() {
        let c = MortonCurve::new(2, 2).unwrap();
        // (x=1, y=0) -> bits x=01, y=00, interleaved (x first, msb first): 0 0 1 0 = 2.
        assert_eq!(c.index(&[1, 0]), 0b0010);
        assert_eq!(c.index(&[0, 1]), 0b0001);
        assert_eq!(c.index(&[3, 3]), 0b1111);
    }

    #[test]
    fn round_trips() {
        let c = MortonCurve::new(3, 5).unwrap();
        for i in (0..=c.max_index()).step_by(97) {
            assert_eq!(c.index(&c.point(i)), i);
        }
    }

    #[test]
    fn z_order_is_a_bijection() {
        let c = MortonCurve::new(2, 3).unwrap();
        let mut seen = tao_util::det::DetSet::new();
        for i in 0..=c.max_index() {
            assert!(seen.insert(c.point(i)));
        }
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn z_order_takes_long_jumps_where_hilbert_does_not() {
        // The defining weakness: somewhere along the walk, Z-order jumps by
        // more than one cell. (The Hilbert test asserts every step is 1.)
        let c = MortonCurve::new(2, 3).unwrap();
        let mut max_step = 0i64;
        for i in 0..c.max_index() {
            let a = c.point(i);
            let b = c.point(i + 1);
            let l1: i64 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| (x as i64 - y as i64).abs())
                .sum();
            max_step = max_step.max(l1);
        }
        assert!(max_step > 1, "Z-order should exhibit jumps, got {max_step}");
    }

    #[test]
    fn rejects_bad_parameters() {
        assert_eq!(MortonCurve::new(0, 3), Err(CurveError::ZeroDims));
        assert_eq!(MortonCurve::new(2, 0), Err(CurveError::BadBits(0)));
        assert!(matches!(
            MortonCurve::new(17, 16),
            Err(CurveError::IndexOverflow { .. })
        ));
    }

    mod properties {
        use super::*;
        use tao_util::check::for_all;
        use tao_util::check_eq;
        use tao_util::rand::Rng;

        #[test]
        fn round_trip() {
            for_all("morton_round_trip", 256, |rng| {
                let bits = rng.gen_range(1u32..8);
                let dims = rng.gen_range(1usize..6);
                let c = MortonCurve::new(dims, bits).unwrap();
                let clamped: Vec<u32> = (0..dims)
                    .map(|_| rng.gen::<u32>() & c.max_coord())
                    .collect();
                check_eq!(
                    c.point(c.index(&clamped)),
                    clamped,
                    "dims={dims} bits={bits}"
                );
            });
        }
    }
}
