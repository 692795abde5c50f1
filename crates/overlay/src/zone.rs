//! Zones: axis-aligned boxes in the CAN space.
//!
//! CAN partitions `[0,1)^d` into zones by repeated binary splits; because
//! every boundary is a dyadic fraction, `f64` arithmetic on them is exact
//! and zone comparisons can use `==` safely.

use std::fmt;

use crate::point::Point;

/// An axis-aligned half-open box `[lo, hi)` in the CAN space.
///
/// # Example
///
/// ```
/// use tao_overlay::{Point, Zone};
///
/// let whole = Zone::whole(2);
/// let (left, right) = whole.split(0);
/// assert!(left.contains(&Point::new(vec![0.2, 0.7]).unwrap()));
/// assert!(right.contains(&Point::new(vec![0.7, 0.7]).unwrap()));
/// assert!(left.is_neighbor(&right));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Zone {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl Zone {
    /// The entire space `[0,1)^dims`.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is zero.
    pub fn whole(dims: usize) -> Self {
        assert!(dims > 0, "a zone needs at least one dimension");
        Zone {
            lo: vec![0.0; dims],
            hi: vec![1.0; dims],
        }
    }

    /// Creates a zone from bounds.
    ///
    /// Returns `None` unless `lo` and `hi` have the same non-zero length and
    /// `lo[a] < hi[a]` with both in `[0, 1]` for every axis.
    pub fn from_bounds(lo: Vec<f64>, hi: Vec<f64>) -> Option<Self> {
        if lo.is_empty() || lo.len() != hi.len() {
            return None;
        }
        for (l, h) in lo.iter().zip(&hi) {
            if !l.is_finite() || !h.is_finite() || l >= h || *l < 0.0 || *h > 1.0 {
                return None;
            }
        }
        Some(Zone { lo, hi })
    }

    /// Builds a zone from bound slices already known to be valid (used by
    /// the overlay's flat bounds arrays, which only ever store bounds of
    /// zones that passed validation when they were created).
    pub(crate) fn from_slices(lo: &[f64], hi: &[f64]) -> Self {
        debug_assert!(!lo.is_empty() && lo.len() == hi.len());
        Zone {
            lo: lo.to_vec(),
            hi: hi.to_vec(),
        }
    }

    /// The lower bounds as a slice, one entry per axis.
    pub(crate) fn lo_slice(&self) -> &[f64] {
        &self.lo
    }

    /// The upper bounds as a slice, one entry per axis.
    pub(crate) fn hi_slice(&self) -> &[f64] {
        &self.hi
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Lower bound on `axis`.
    pub fn lo(&self, axis: usize) -> f64 {
        self.lo[axis]
    }

    /// Upper bound on `axis`.
    pub fn hi(&self, axis: usize) -> f64 {
        self.hi[axis]
    }

    /// Side length along `axis`.
    pub fn extent(&self, axis: usize) -> f64 {
        self.hi[axis] - self.lo[axis]
    }

    /// Volume (product of extents).
    pub fn volume(&self) -> f64 {
        (0..self.dims()).map(|a| self.extent(a)).product()
    }

    /// `true` if `p` lies inside the half-open box.
    ///
    /// # Panics
    ///
    /// Panics if dimensionalities differ.
    pub fn contains(&self, p: &Point) -> bool {
        assert_eq!(p.dims(), self.dims(), "dimensionality mismatch");
        (0..self.dims()).all(|a| self.lo[a] <= p.coord(a) && p.coord(a) < self.hi[a])
    }

    /// The centre point.
    pub fn center(&self) -> Point {
        Point::clamped(
            (0..self.dims())
                .map(|a| (self.lo[a] + self.hi[a]) / 2.0)
                .collect(),
        )
    }

    /// Splits the zone in half along `axis`, returning `(lower, upper)`.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range.
    pub fn split(&self, axis: usize) -> (Zone, Zone) {
        assert!(axis < self.dims(), "axis {axis} out of range");
        let mid = (self.lo[axis] + self.hi[axis]) / 2.0;
        let mut lower = self.clone();
        let mut upper = self.clone();
        lower.hi[axis] = mid;
        upper.lo[axis] = mid;
        (lower, upper)
    }

    /// `true` if the zones overlap along `axis` over an interval of positive
    /// length (no torus wrap: zones never straddle the 0/1 seam).
    fn overlaps_on(&self, other: &Zone, axis: usize) -> bool {
        self.lo[axis] < other.hi[axis] && other.lo[axis] < self.hi[axis]
    }

    /// `true` if the zones abut along `axis` — share a boundary face,
    /// including across the torus seam at 0/1.
    fn abuts_on(&self, other: &Zone, axis: usize) -> bool {
        self.hi[axis] == other.lo[axis]
            || other.hi[axis] == self.lo[axis]
            || (self.hi[axis] == 1.0 && other.lo[axis] == 0.0)
            || (other.hi[axis] == 1.0 && self.lo[axis] == 0.0)
    }

    /// CAN neighborship: the zones abut along exactly one axis and overlap
    /// along all others.
    ///
    /// # Panics
    ///
    /// Panics if dimensionalities differ.
    pub fn is_neighbor(&self, other: &Zone) -> bool {
        assert_eq!(self.dims(), other.dims(), "dimensionality mismatch");
        let mut abutting = 0;
        for a in 0..self.dims() {
            if self.overlaps_on(other, a) {
                continue;
            }
            if self.abuts_on(other, a) {
                abutting += 1;
                if abutting > 1 {
                    return false;
                }
            } else {
                return false;
            }
        }
        abutting == 1
    }

    /// `true` if the boxes intersect with positive volume.
    pub fn intersects(&self, other: &Zone) -> bool {
        (0..self.dims()).all(|a| self.overlaps_on(other, a))
    }

    /// `true` if `other` lies entirely within `self`.
    // tao-lint: allow(panic-reachability, reason = "axis indices run 0..dims() and both zones share the space's dimensionality by construction")
    pub fn contains_zone(&self, other: &Zone) -> bool {
        (0..self.dims()).all(|a| self.lo[a] <= other.lo[a] && other.hi[a] <= self.hi[a])
    }

    /// Minimum torus distance from the box to a point (0 if inside).
    ///
    /// The greedy CAN routing metric: it decreases monotonically along a
    /// correct route and hits zero at the owner's zone.
    ///
    /// # Panics
    ///
    /// Panics if dimensionalities differ.
    pub fn distance_to_point(&self, p: &Point) -> f64 {
        assert_eq!(p.dims(), self.dims(), "dimensionality mismatch");
        gap_sum(&self.lo, &self.hi, p.coords()).sqrt()
    }

    /// The aligned high-order box of side `2^-level` that contains this
    /// zone's centre. Level 0 is the whole space.
    // tao-lint: allow(panic-reachability, reason = "axis indices run 0..dims() of this one zone; the only panic is a level no f64 resolves")
    pub fn enclosing_aligned_box(&self, level: u32) -> Zone {
        let mut aligned = self.clone();
        aligned.set_aligned_neighbor(self, level, 0, 0.0);
        aligned
    }

    /// Overwrites this box with `of.enclosing_aligned_box(level)` moved
    /// `steps` box sides along `axis`, wrapping on the torus — in place, so
    /// a caller that examines many expressway boxes reuses one.
    pub(crate) fn set_aligned_neighbor(&mut self, of: &Zone, level: u32, axis: usize, steps: f64) {
        debug_assert_eq!(self.dims(), of.dims(), "dimensionality mismatch");
        let side = 0.5f64.powi(level as i32);
        assert!(side > 0.0, "level {level} is finer than f64 resolves");
        for a in 0..of.dims() {
            // The centre as `Zone::center` computes it, clamp included.
            let c = ((of.lo[a] + of.hi[a]) / 2.0).clamp(0.0, 1.0 - f64::EPSILON);
            let mut lo = (c / side).floor() * side;
            if a == axis {
                // Wrap the shifted corner into [0, 1): dyadic sums are exact.
                lo += steps * side;
                if lo < 0.0 {
                    lo += 1.0;
                }
                if lo >= 1.0 {
                    lo -= 1.0;
                }
                debug_assert!((0.0..1.0).contains(&lo));
            }
            self.lo[a] = lo;
            self.hi[a] = lo + side;
        }
    }
}

/// The squared minimum torus distance from the box `[lo, hi)` to the point
/// with coordinates `p`: the one definition of the routing metric, whose
/// square root callers take as late as they can. No branch: on an axis
/// whose interval holds the coordinate the direct gap clamps to zero, the
/// wrapped ones are not below it, and the `+0.0` the axis adds leaves the
/// bits of a non-negative sum as they were.
pub(crate) fn gap_sum(lo: &[f64], hi: &[f64], p: &[f64]) -> f64 {
    debug_assert!(
        lo.len() == hi.len() && lo.len() == p.len(),
        "dimensionality mismatch"
    );
    let mut sum = 0.0;
    for ((&lo, &hi), &c) in lo.iter().zip(hi).zip(p) {
        // Direct gaps on either side, and wrapped gaps around the torus.
        let direct = (lo - c).max(c - hi).max(0.0);
        let wrap_low = 1.0 - c + lo; // going up past 1.0 to reach lo
        let wrap_high = 1.0 - hi + c; // zone's top wrapping to reach c
        let d = direct.min(wrap_low).min(wrap_high);
        sum += d * d;
    }
    sum
}

impl fmt::Display for Zone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for a in 0..self.dims() {
            if a > 0 {
                write!(f, " x ")?;
            }
            write!(f, "{:.4}..{:.4}", self.lo[a], self.hi[a])?;
        }
        write!(f, "]")
    }
}

/// The routing metric as it was written before [`gap_sum`]: one branch per
/// axis on "is the coordinate inside?", one square root per call. Test
/// oracle for the kernels that replaced it.
#[cfg(test)]
pub(crate) fn branchy_distance(lo: &[f64], hi: &[f64], p: &[f64]) -> f64 {
    assert!(
        lo.len() == hi.len() && lo.len() == p.len(),
        "dimensionality mismatch"
    );
    let mut sum = 0.0;
    for a in 0..lo.len() {
        let c = p[a];
        if lo[a] <= c && c < hi[a] {
            continue;
        }
        let below = (lo[a] - c).max(0.0);
        let above = (c - hi[a]).max(0.0);
        let direct = below.max(above);
        let wrap_low = 1.0 - c + lo[a];
        let wrap_high = 1.0 - hi[a] + c;
        let d = direct.min(wrap_low).min(wrap_high);
        sum += d * d;
    }
    sum.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_util::rand::Rng;

    #[test]
    fn whole_space_has_unit_volume() {
        let z = Zone::whole(3);
        assert!((z.volume() - 1.0).abs() < 1e-12);
        assert!(z.contains(&Point::new(vec![0.99, 0.0, 0.5]).unwrap()));
    }

    #[test]
    fn split_partitions_volume_exactly() {
        let z = Zone::whole(2);
        let (a, b) = z.split(1);
        assert_eq!(a.volume() + b.volume(), 1.0);
        assert_eq!(a.hi(1), 0.5);
        assert_eq!(b.lo(1), 0.5);
        // Halves are neighbors of each other.
        assert!(a.is_neighbor(&b));
    }

    #[test]
    fn contains_is_half_open() {
        let (a, b) = Zone::whole(1).split(0);
        let boundary = Point::new(vec![0.5]).unwrap();
        assert!(!a.contains(&boundary));
        assert!(b.contains(&boundary));
    }

    #[test]
    fn neighbors_require_overlap_in_other_dims() {
        let whole = Zone::whole(2);
        let (left, right) = whole.split(0);
        let (left_bottom, left_top) = left.split(1);
        let (right_bottom, right_top) = right.split(1);
        assert!(left_bottom.is_neighbor(&right_bottom));
        assert!(left_bottom.is_neighbor(&left_top));
        // Diagonal zones only touch at a corner: not neighbors.
        assert!(!left_bottom.is_neighbor(&right_top));
        assert!(!right_bottom.is_neighbor(&left_top));
    }

    #[test]
    fn neighbors_wrap_around_the_torus() {
        let whole = Zone::whole(2);
        let (left, right) = whole.split(0);
        let (ll, _lr) = left.split(0); // [0, 0.25)
        let (_rl, rr) = right.split(0); // [0.75, 1)
        assert!(ll.is_neighbor(&rr), "zones abut across the 0/1 seam");
    }

    #[test]
    fn unequal_depth_zones_can_be_neighbors() {
        let whole = Zone::whole(2);
        let (left, right) = whole.split(0);
        let (right_bottom, right_top) = right.split(1);
        assert!(left.is_neighbor(&right_bottom));
        assert!(left.is_neighbor(&right_top));
        assert!(
            !right_bottom.is_neighbor(&right_bottom.clone()),
            "zone is not its own neighbor"
        );
    }

    #[test]
    fn distance_to_point_is_zero_inside_and_wraps() {
        let (left, _) = Zone::whole(1).split(0); // [0, 0.5)
        assert_eq!(left.distance_to_point(&Point::new(vec![0.2]).unwrap()), 0.0);
        let p = Point::new(vec![0.95]).unwrap();
        // Direct gap to hi=0.5 is 0.45; wrapped gap to lo=0.0 is 0.05.
        assert!((left.distance_to_point(&p) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn gap_sum_root_equals_the_branchy_formula_bit_for_bit() {
        use tao_util::check::for_all;
        use tao_util::{check, check_eq};
        for_all(
            "gap_sum_root_equals_the_branchy_formula_bit_for_bit",
            4_000,
            |rng| {
                let dims = rng.gen_range(1..=4usize);
                // A zone as the overlay makes them (dyadic, by random splits,
                // so bounds land on 0 and 1) or with arbitrary bounds.
                let zone = if rng.gen_bool(0.7) {
                    let mut z = Zone::whole(dims);
                    for _ in 0..rng.gen_range(0..=20) {
                        let (lower, upper) = z.split(rng.gen_range(0..dims));
                        z = if rng.gen_bool(0.5) { lower } else { upper };
                    }
                    z
                } else {
                    let (mut lo, mut hi) = (Vec::new(), Vec::new());
                    for _ in 0..dims {
                        let (a, b): (f64, f64) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
                        let (a, b) = if a < b { (a, b) } else { (b, a) };
                        lo.push(a);
                        hi.push(if a == b { 1.0 } else { b });
                    }
                    Zone::from_bounds(lo, hi).expect("ordered bounds in [0, 1]")
                };
                // Coordinates drawn at large, exactly on a bound, one step to
                // either side of it, and on both sides of the torus seam.
                let top = 1.0 - f64::EPSILON / 2.0;
                let coords: Vec<f64> = (0..dims)
                    .map(|a| {
                        let c: f64 = match rng.gen_range(0..10u32) {
                            0 => zone.lo(a),
                            1 => zone.hi(a),
                            2 => zone.lo(a).next_down(),
                            3 => zone.lo(a).next_up(),
                            4 => zone.hi(a).next_down(),
                            5 => zone.hi(a).next_up(),
                            6 => 0.0,
                            7 => top,
                            _ => rng.gen_range(0.0..1.0),
                        };
                        c.clamp(0.0, top)
                    })
                    .collect();
                let want = branchy_distance(zone.lo_slice(), zone.hi_slice(), &coords);
                let sum = gap_sum(zone.lo_slice(), zone.hi_slice(), &coords);
                check_eq!(sum.sqrt().to_bits(), want.to_bits(), "{zone} to {coords:?}");
                let p = Point::new(coords).expect("coordinates in [0, 1)");
                check_eq!(
                    zone.distance_to_point(&p).to_bits(),
                    want.to_bits(),
                    "{zone} to {p}"
                );
                check!(
                    want == 0.0 || !zone.contains(&p),
                    "{zone} holds {p}, {want} away"
                );
            },
        );
    }

    #[test]
    fn contains_zone_is_reflexive_and_ordered() {
        let whole = Zone::whole(2);
        let (left, _) = whole.split(0);
        assert!(whole.contains_zone(&left));
        assert!(!left.contains_zone(&whole));
        assert!(left.contains_zone(&left));
    }

    #[test]
    fn enclosing_aligned_box_levels() {
        let whole = Zone::whole(2);
        let (left, _) = whole.split(0);
        let (lb, _) = left.split(1); // [0,0.5) x [0,0.5)
        let (deep, _) = lb.split(0); // [0,0.25) x [0,0.5)
        assert_eq!(deep.enclosing_aligned_box(0), whole);
        assert_eq!(deep.enclosing_aligned_box(1), lb);
    }

    #[test]
    fn from_bounds_validates() {
        assert!(Zone::from_bounds(vec![0.0], vec![1.0]).is_some());
        assert!(Zone::from_bounds(vec![0.5], vec![0.5]).is_none());
        assert!(Zone::from_bounds(vec![0.0, 0.0], vec![1.0]).is_none());
        assert!(Zone::from_bounds(vec![-0.1], vec![0.5]).is_none());
        assert!(Zone::from_bounds(vec![0.0], vec![1.1]).is_none());
    }

    #[test]
    fn display_shows_bounds() {
        let (left, _) = Zone::whole(1).split(0);
        assert_eq!(left.to_string(), "[0.0000..0.5000]");
    }
}
