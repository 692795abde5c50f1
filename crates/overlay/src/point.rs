//! Points on the d-dimensional unit torus `[0,1)^d`.

use std::fmt;

use tao_util::rand::Rng;

/// A point in the CAN Cartesian space. Coordinates live on the unit torus:
/// each axis wraps around, so `0.0` and `0.999…` are close.
///
/// # Example
///
/// ```
/// use tao_overlay::Point;
///
/// let a = Point::new(vec![0.05, 0.5]).unwrap();
/// assert_eq!((a.dims(), a.coord(1)), (2, 0.5));
/// // Coordinates live in [0, 1): `new` refuses 1.0, `clamped` pulls it in.
/// assert!(Point::new(vec![1.0, 0.5]).is_none());
/// assert!(Point::clamped(vec![1.0, 0.5]).coord(0) < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    coords: Vec<f64>,
}

impl Point {
    /// Creates a point.
    ///
    /// Returns `None` if `coords` is empty or any coordinate is outside
    /// `[0, 1)` or not finite.
    pub fn new(coords: Vec<f64>) -> Option<Self> {
        if coords.is_empty() {
            return None;
        }
        if coords
            .iter()
            .any(|c| !c.is_finite() || !(0.0..1.0).contains(c))
        {
            return None;
        }
        Some(Point { coords })
    }

    /// Creates a point by clamping arbitrary finite values into `[0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `coords` is empty or contains a non-finite value.
    pub fn clamped(coords: Vec<f64>) -> Self {
        assert!(!coords.is_empty(), "a point needs at least one coordinate");
        let clamped = coords
            .into_iter()
            .map(|c| {
                assert!(c.is_finite(), "coordinates must be finite");
                c.clamp(0.0, 1.0 - f64::EPSILON)
            })
            .collect();
        Point { coords: clamped }
    }

    /// Draws a uniformly random point of dimensionality `dims`.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is zero.
    pub fn random(dims: usize, rng: &mut impl Rng) -> Self {
        assert!(dims > 0, "a point needs at least one dimension");
        Point {
            coords: (0..dims).map(|_| rng.gen_range(0.0..1.0)).collect(),
        }
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.coords.len()
    }

    /// Coordinate on axis `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range.
    pub fn coord(&self, axis: usize) -> f64 {
        self.coords[axis]
    }

    /// All coordinates.
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.coords.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c:.4}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_util::rand::rngs::StdRng;
    use tao_util::rand::SeedableRng;

    #[test]
    fn new_validates_range() {
        assert!(Point::new(vec![0.0, 0.999]).is_some());
        assert!(Point::new(vec![1.0]).is_none());
        assert!(Point::new(vec![-0.1]).is_none());
        assert!(Point::new(vec![f64::NAN]).is_none());
        assert!(Point::new(vec![]).is_none());
    }

    #[test]
    fn clamped_pulls_values_into_range() {
        let p = Point::clamped(vec![-3.0, 2.0, 0.5]);
        assert_eq!(p.coord(0), 0.0);
        assert!(p.coord(1) < 1.0);
        assert_eq!(p.coord(2), 0.5);
    }

    #[test]
    fn random_points_are_valid() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let p = Point::random(4, &mut rng);
            assert!(Point::new(p.coords().to_vec()).is_some());
        }
    }

    #[test]
    fn display_formats_coordinates() {
        let p = Point::new(vec![0.25, 0.5]).unwrap();
        assert_eq!(p.to_string(), "(0.2500, 0.5000)");
    }
}
