//! Region identity: which box of the CAN space a map or a subscription is
//! about.

use tao_overlay::Zone;

/// Identity of a region: its place in the binary split tree of the CAN
/// space, packed as split depth (top 8 bits) and the path from the root
/// (one bit per split, axes in turn — a Morton prefix).
///
/// Every CAN zone and every aligned high-order zone is a node of that tree,
/// so the key is exact for them; other shapes have no key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionKey(u128);

/// Bits of a [`RegionKey`] left for the path, hence the deepest split it
/// can name.
const PREFIX_BITS: u32 = 120;

impl RegionKey {
    /// The key of `zone`, or `None` if it is not a box of the split tree:
    /// dyadic on every axis, the axes' levels falling by at most one in
    /// axis order (the tree halves axes in turn), no deeper than 120 splits.
    // tao-lint: allow(panic-reachability, reason = "reads zone bounds only for axes below zone.dims()")
    pub fn from_zone(zone: &Zone) -> Option<Self> {
        Self::from_axes(zone.dims(), |a| (zone.lo(a), zone.hi(a)))
    }

    /// [`RegionKey::from_zone`] over a `d`-axis box given by its per-axis
    /// `(lo, hi)` bounds.
    pub(crate) fn from_axes(d: usize, axis: impl Fn(usize) -> (f64, f64)) -> Option<Self> {
        let span = |a: usize| {
            let (lo, hi) = axis(a);
            dyadic(lo, hi)
        };
        let (first, _) = (d > 0).then(|| span(0)).flatten()?;
        let (mut depth, mut prev) = (0, first);
        for a in 0..d {
            let (level, _) = span(a)?;
            if level > prev || level + 1 < first {
                return None;
            }
            prev = level;
            depth += level;
        }
        if depth > PREFIX_BITS {
            return None;
        }
        let mut path = 0u128;
        for a in 0..d {
            let (level, index) = span(a)?;
            // Bit `t` (from the top) of this axis decides split `t*d + a`,
            // which is bit `depth - 1 - (t*d + a)` of the path: the axis's
            // lane, shifted so its top bit lands on its first split.
            if level > 0 {
                path |= spread(index, d) << (depth as usize - 1 - (level as usize - 1) * d - a);
            }
        }
        Some(RegionKey(u128::from(depth) << PREFIX_BITS | path))
    }

    /// How many splits below the whole space the region is.
    pub(crate) fn depth(self) -> u32 {
        u32::try_from(self.0 >> PREFIX_BITS).unwrap_or(u32::MAX)
    }

    /// The path from the root, one bit per split, first split highest.
    pub(crate) fn path(self) -> u128 {
        self.0 & (u128::MAX >> (128 - PREFIX_BITS))
    }

    /// `(level, key)` of each high-order region enclosing the box `[lo, hi)`,
    /// deepest first, as `EcanOverlay::enclosing_high_order_zones` of a zone
    /// and [`RegionKey::from_zone`] give them, but allocating nothing: the
    /// deepest cube is keyed from its bounds, the others cut its path short.
    pub(crate) fn enclosing_cubes(lo: &[f64], hi: &[f64]) -> impl Iterator<Item = (u32, Self)> {
        let dims = u32::try_from(lo.len()).unwrap_or(u32::MAX).max(1);
        let level = |(l, h): (&f64, &f64)| (-(h - l).log2()).floor().min(64.0) as u32;
        let base = lo.iter().zip(hi).map(level).min().unwrap_or(0);
        let top = base.saturating_sub(1).min(32).min(PREFIX_BITS / dims);
        let deepest = Self::from_axes(lo.len(), |a| cube_axis(lo, hi, top, a));
        let deepest = deepest.filter(|_| top > 0);
        deepest.into_iter().flat_map(move |key| {
            (1..=top).rev().map(move |level| {
                let depth = level * dims;
                let path = key.path() >> (key.depth() - depth);
                (level, RegionKey(u128::from(depth) << PREFIX_BITS | path))
            })
        })
    }
}

/// Axis `a` of the aligned cube of side `2^-level` holding the centre of the
/// box `[lo, hi)`, placed as `Zone::enclosing_aligned_box` places it.
fn cube_axis(lo: &[f64], hi: &[f64], level: u32, a: usize) -> (f64, f64) {
    let side = 0.5f64.powi(i32::try_from(level).unwrap_or(i32::MAX));
    let bound = |s: &[f64]| s.get(a).copied().unwrap_or(0.0);
    let c = ((bound(lo) + bound(hi)) / 2.0).clamp(0.0, 1.0 - f64::EPSILON);
    let corner = (c / side).floor() * side;
    (corner, corner + side)
}

/// The aligned cube of side `2^-level` holding the centre of `[lo, hi)`.
#[expect(clippy::expect_used, reason = "a cube of the unit space")]
pub(crate) fn aligned_cube(lo: &[f64], hi: &[f64], level: u32) -> Zone {
    let (lo, hi) = (0..lo.len()).map(|a| cube_axis(lo, hi, level, a)).unzip();
    Zone::from_bounds(lo, hi).expect("a cube of the unit space")
}

/// Spreads the bits of `v` so bit `j` lands at position `j * dims` — one
/// axis's lane of a Morton code.
pub(crate) fn spread(mut v: u64, dims: usize) -> u128 {
    let mut out = 0u128;
    while v != 0 {
        out |= 1u128 << (v.trailing_zeros() as usize * dims);
        v &= v - 1;
    }
    out
}

/// `(level, index)` if `[lo, hi)` is the `index`-th dyadic interval of
/// width `2^-level`, `level <= 32`. A power of two is an `f64` with an
/// all-zero mantissa whose exponent is the level, and dyadic bounds are
/// exact, so no rounding enters.
pub(crate) fn dyadic(lo: f64, hi: f64) -> Option<(u32, u64)> {
    let width = (hi - lo).to_bits();
    let level = u32::try_from(1023u64.checked_sub(width >> 52)?).ok()?;
    let index = lo * (1u64 << level.min(32)) as f64;
    let exact = level <= 32 && width << 12 == 0 && index as u64 as f64 == index;
    exact.then_some((level, index as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zone_keys_distinguish_zones_exactly() {
        // Every box of the split tree down to depth 7, in 2-d and 3-d: all
        // keyed, all distinct.
        for dims in [2usize, 3] {
            let mut level = vec![Zone::whole(dims)];
            let mut keys = Vec::new();
            for depth in 0..7 {
                keys.extend(
                    level
                        .iter()
                        .map(|z| RegionKey::from_zone(z).expect("tree box")),
                );
                level = level
                    .iter()
                    .flat_map(|z| {
                        let (l, u) = z.split(depth % dims);
                        [l, u]
                    })
                    .collect();
            }
            let total = keys.len();
            keys.sort();
            keys.dedup();
            assert_eq!(keys.len(), total, "two boxes share a key");
        }
        // Not of the tree: split out of turn, or not dyadic at all.
        let (_, out_of_turn) = Zone::whole(2).split(1);
        assert_eq!(RegionKey::from_zone(&out_of_turn), None);
        let odd = Zone::from_bounds(vec![0.1, 0.2], vec![0.55, 0.9]).unwrap();
        assert_eq!(RegionKey::from_zone(&odd), None);
    }
}
