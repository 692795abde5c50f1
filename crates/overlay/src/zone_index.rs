//! An incremental zone-membership index over the CAN split tree.
//!
//! Every CAN zone is a dyadic box (all bounds are multiples of a power of
//! two), and widest-axis splitting keeps per-axis split counts within one
//! of each other. Against an *aligned cube* of side `2^-L` this balance
//! means a zone is either disjoint from the cube, contained in it, or
//! strictly contains it — partial overlap is impossible. The index
//! exploits that: it keys every live zone by the Morton (Z-order) code of
//! its lower corner, so "all zones inside an aligned cube" becomes one
//! contiguous `BTreeMap` range scan instead of a split-tree walk that
//! allocates two boxes per visited node.
//!
//! The expressway tables of eCAN query exclusively aligned cubes
//! (`Zone::enclosing_aligned_box` and its axis-shifted siblings), which is
//! what made member enumeration the quadratic hot spot of the Fig 2 sweep.
//! Queries that are not aligned cubes (half-spaces, clipped boxes) return
//! `None` here and fall back to the tree walk.

use std::collections::BTreeMap;

use crate::can::OverlayNodeId;
use crate::zone::Zone;

/// Result of an index lookup for an aligned-cube query.
pub(crate) enum IndexHit {
    /// Owners of the zones contained in the cube, one entry per zone
    /// (an owner holding several zones inside the cube appears once per
    /// zone), in Morton order — the caller sorts.
    Members(Vec<OverlayNodeId>),
    /// No zone corner lies in the cube, so the cube sits strictly inside
    /// a single zone; resolve its owner with a point lookup.
    Enclosed,
}

/// Morton-keyed map from live zone lower corners to their owners.
#[derive(Debug, Clone)]
pub(crate) struct ZoneIndex {
    dims: usize,
    /// Bits per axis in the Morton code; `bits * dims <= 128`.
    bits: u32,
    /// Morton code of each live zone's lower corner → owning node. Zones
    /// tile the space, so corners (and hence codes) are unique.
    zones: BTreeMap<u128, OverlayNodeId>,
    /// Set when a zone was too deep to encode exactly; every lookup then
    /// falls back to the tree walk. Never happens at feasible overlay
    /// sizes (needs > `bits` splits on one axis) but keeps the index
    /// strictly an optimisation, never a behaviour change.
    degraded: bool,
}

impl ZoneIndex {
    pub(crate) fn new(dims: usize) -> Self {
        let bits = ((128 / dims.max(1)) as u32).min(32);
        ZoneIndex {
            dims,
            bits,
            zones: BTreeMap::new(),
            degraded: bits == 0,
        }
    }

    /// Records a new live zone.
    pub(crate) fn insert(&mut self, zone: &Zone, owner: OverlayNodeId) {
        if self.degraded {
            return;
        }
        match self.corner_code(zone) {
            Some(code) => {
                self.zones.insert(code, owner);
            }
            None => {
                self.degraded = true;
                self.zones.clear();
            }
        }
    }

    /// Drops a zone that is about to be split.
    pub(crate) fn remove(&mut self, zone: &Zone) {
        if self.degraded {
            return;
        }
        if let Some(code) = self.corner_code(zone) {
            self.zones.remove(&code);
        }
    }

    /// Transfers a zone to a new owner (departure takeover).
    pub(crate) fn reassign(&mut self, zone: &Zone, to: OverlayNodeId) {
        if self.degraded {
            return;
        }
        if let Some(code) = self.corner_code(zone) {
            if let Some(owner) = self.zones.get_mut(&code) {
                *owner = to;
            }
        }
    }

    /// `true` unless the index records someone other than `owner` (or
    /// nobody) for `zone` — what `check_invariants` holds it to.
    pub(crate) fn agrees(&self, zone: &Zone, owner: OverlayNodeId) -> bool {
        self.degraded || self.corner_code(zone).and_then(|c| self.zones.get(&c)) == Some(&owner)
    }

    /// Number of zones recorded (`None` once degraded).
    pub(crate) fn len(&self) -> Option<usize> {
        (!self.degraded).then_some(self.zones.len())
    }

    /// Serves `query` from the index, or `None` when the query is not an
    /// aligned cube the index can answer exactly.
    pub(crate) fn lookup(&self, query: &Zone) -> Option<IndexHit> {
        if self.degraded {
            return None;
        }
        let (level, base) = self.cube_key(query)?;
        let shift = (self.bits - level) as usize * self.dims;
        let members: Vec<OverlayNodeId> = if shift >= 128 {
            self.zones.values().copied().collect()
        } else {
            let span = 1u128 << shift;
            match base.checked_add(span) {
                Some(end) => self.zones.range(base..end).map(|(_, &o)| o).collect(),
                None => self.zones.range(base..).map(|(_, &o)| o).collect(),
            }
        };
        if members.is_empty() {
            Some(IndexHit::Enclosed)
        } else {
            Some(IndexHit::Members(members))
        }
    }

    /// `(level, Morton code of the lower corner)` of an aligned cube the
    /// index can encode — what [`ZoneIndex::lookup`] turns into its range,
    /// and a total key for the cube: two aligned cubes are the same box
    /// exactly when their keys are equal.
    pub(crate) fn cube_key(&self, query: &Zone) -> Option<(u32, u128)> {
        Some((self.cube_level(query)?, self.corner_code(query)?))
    }

    /// `Some(L)` when `query` is a cube of side exactly `2^-L`, `L <=
    /// bits`, with every corner coordinate a multiple of the side.
    fn cube_level(&self, query: &Zone) -> Option<u32> {
        if query.dims() != self.dims {
            return None;
        }
        let side = query.extent(0);
        if !(side > 0.0 && side <= 1.0) {
            return None;
        }
        let level = -side.log2();
        if level.fract() != 0.0 || level < 0.0 || level > self.bits as f64 {
            return None;
        }
        for a in 0..self.dims {
            if query.extent(a) != side {
                return None;
            }
            // Division by a power of two is exact, so an aligned corner
            // yields an exact integer.
            if (query.lo(a) / side).fract() != 0.0 {
                return None;
            }
        }
        Some(level as u32)
    }

    /// The interleaved Morton code of the zone's lower corner, or `None`
    /// if a coordinate is not representable in `bits` dyadic bits.
    fn corner_code(&self, zone: &Zone) -> Option<u128> {
        let scale = (1u64 << self.bits) as f64;
        let mut code = 0u128;
        for a in 0..self.dims {
            let scaled = zone.lo(a) * scale;
            if scaled.fract() != 0.0 || scaled < 0.0 || scaled >= scale {
                return None;
            }
            code |= spread(scaled as u64, self.dims, self.bits) << a;
        }
        Some(code)
    }
}

/// Spreads the low `bits` bits of `v` so bit `j` lands at position `j *
/// dims` — one axis's lane of a Morton code.
fn spread(v: u64, dims: usize, bits: u32) -> u128 {
    let mut out = 0u128;
    for j in 0..bits {
        if (v >> j) & 1 == 1 {
            out |= 1u128 << (j as usize * dims);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube(lo: &[f64], side: f64) -> Zone {
        let hi: Vec<f64> = lo.iter().map(|l| l + side).collect();
        Zone::from_bounds(lo.to_vec(), hi).unwrap()
    }

    #[test]
    fn spread_interleaves_bit_lanes() {
        assert_eq!(spread(0b11, 2, 2), 0b0101);
        assert_eq!(spread(0b10, 3, 2), 0b1000);
        assert_eq!(spread(u64::MAX, 2, 32), {
            let mut want = 0u128;
            for j in 0..32 {
                want |= 1u128 << (2 * j);
            }
            want
        });
    }

    #[test]
    fn aligned_cube_range_finds_contained_zones() {
        let mut idx = ZoneIndex::new(2);
        // Quarter zones of the unit square.
        let q = 0.5;
        for (i, lo) in [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]]
            .iter()
            .enumerate()
        {
            idx.insert(&cube(lo, q), OverlayNodeId(i as u32));
        }
        // The whole space contains all four.
        match idx.lookup(&Zone::whole(2)).unwrap() {
            IndexHit::Members(m) => assert_eq!(m.len(), 4),
            IndexHit::Enclosed => panic!("whole space is not enclosed"),
        }
        // One quadrant contains exactly its zone.
        match idx.lookup(&cube(&[0.5, 0.0], 0.5)).unwrap() {
            IndexHit::Members(m) => assert_eq!(m, vec![OverlayNodeId(1)]),
            IndexHit::Enclosed => panic!("quadrant holds a zone corner"),
        }
        // A sub-cube strictly inside a zone is enclosed.
        match idx.lookup(&cube(&[0.25, 0.25], 0.25)).unwrap() {
            IndexHit::Members(m) => panic!("expected enclosed, got {m:?}"),
            IndexHit::Enclosed => {}
        }
    }

    #[test]
    fn non_cube_queries_fall_back() {
        let mut idx = ZoneIndex::new(2);
        idx.insert(&Zone::whole(2), OverlayNodeId(0));
        // Half-space: extents differ per axis.
        let (left, _) = Zone::whole(2).split(0);
        assert!(idx.lookup(&left).is_none());
        // Misaligned cube.
        assert!(idx.lookup(&cube(&[0.25, 0.25], 0.5)).is_none());
    }

    #[test]
    fn reassign_and_remove_track_ownership() {
        let mut idx = ZoneIndex::new(2);
        let (left, right) = Zone::whole(2).split(0);
        let (ll, lr) = left.split(1);
        idx.insert(&ll, OverlayNodeId(0));
        idx.insert(&lr, OverlayNodeId(1));
        idx.insert(&right, OverlayNodeId(2));
        idx.reassign(&lr, OverlayNodeId(0));
        match idx.lookup(&Zone::whole(2)).unwrap() {
            IndexHit::Members(mut m) => {
                m.sort();
                assert_eq!(
                    m,
                    vec![OverlayNodeId(0), OverlayNodeId(0), OverlayNodeId(2)]
                );
            }
            IndexHit::Enclosed => panic!(),
        }
        idx.remove(&right);
        match idx.lookup(&Zone::whole(2)).unwrap() {
            IndexHit::Members(m) => assert_eq!(m.len(), 2),
            IndexHit::Enclosed => panic!(),
        }
    }
}
