//! Reusable routing scratch state: the visited set and hop buffers every
//! overlay's routing loop works in.
//!
//! A replay sweep issues millions of routing calls against an overlay that
//! is not changing between calls; paying a fresh visited set and a fresh
//! hop buffer per call caps throughput long before the overlay does.
//! [`RouteScratch`] amortizes both:
//!
//! * **visited checks** become an epoch-stamped `u32` generation array over
//!   the node arena: a node is visited iff `stamp[i] == epoch`. Starting a
//!   route bumps the epoch, which invalidates every stamp in O(1) — no
//!   clearing, no allocation once the array covers the arena.
//! * **hop buffers** are retained `Vec`s (one of dense [`OverlayNodeId`]s
//!   for the CAN family, one of raw `u64` ring ids for Chord/Pastry) that
//!   are cleared, not dropped, between calls.
//! * **the hop kernel's candidate buffer** (`CanOverlay::next_hop`: one
//!   `(squared distance, id)` per candidate of the hop in progress) is
//!   retained the same way.
//!
//! One scratch can be shared freely across overlays and overlay types; each
//! `route_into` call re-arms it for the arena it is given. Calls that
//! return an error leave the scratch reusable — the next call re-arms it
//! regardless of what the failed call left behind. eCAN's one-shot
//! `route_express()` runs the same loop on a fresh scratch and moves its
//! hop buffer into the returned route.

use crate::can::OverlayNodeId;

/// Reusable scratch state for the `route_into` fast paths on every overlay
/// ([`crate::CanOverlay::route_into`], `EcanOverlay::route_express_into`,
/// `ChordOverlay::route_into`, `PastryOverlay::route_into`).
///
/// See the [module documentation](self) for the epoch-stamping scheme.
#[derive(Debug, Clone, Default)]
pub struct RouteScratch {
    /// Current visited-set generation; `stamps[i] == epoch` means node `i`
    /// has been visited by the route (segment) in progress.
    epoch: u32,
    /// Generation stamp per dense arena slot (live or departed).
    stamps: Vec<u32>,
    /// Hop buffer for the CAN-family overlays, source first.
    hops: Vec<OverlayNodeId>,
    /// Hop buffer for the ring overlays (Chord/Pastry), source first.
    ring_hops: Vec<u64>,
    /// `(gap sum, id)` of every candidate of the CAN-family hop in
    /// progress; [`crate::CanOverlay::next_hop`] alone reads and writes it.
    pub(crate) ranked: Vec<(f64, OverlayNodeId)>,
}

impl RouteScratch {
    /// Creates an empty scratch; buffers grow on first use and are then
    /// retained across calls.
    pub fn new() -> Self {
        RouteScratch::default()
    }

    /// The hop sequence of the last CAN-family `route_into` call, source
    /// first — valid only after that call returned `Ok`.
    pub fn hops(&self) -> &[OverlayNodeId] {
        &self.hops
    }

    /// The hop sequence of the last Chord/Pastry `route_into` call, source
    /// first — valid only after that call returned `Ok`.
    pub fn ring_hops(&self) -> &[u64] {
        &self.ring_hops
    }

    /// Overlay hops (edges traversed) recorded in [`RouteScratch::hops`].
    pub fn hop_count(&self) -> usize {
        self.hops.len().saturating_sub(1)
    }

    /// Arms the scratch for a CAN-family route over an arena of `bound`
    /// dense slots: clears the hop buffer and starts a fresh visited
    /// generation covering `0..bound`.
    // tao-lint: hot
    pub(crate) fn begin_can(&mut self, bound: usize) {
        self.hops.clear();
        self.refresh_visited(bound);
    }

    /// Starts a fresh visited generation *without* touching the hop buffer
    /// — used by the eCAN stuck-fallback, which splices a plain-CAN tail
    /// onto the express prefix. The tail may revisit prefix nodes: default
    /// CAN routing is loop-free only on a visited set of its own.
    // tao-lint: hot
    pub(crate) fn refresh_visited(&mut self, bound: usize) {
        if self.stamps.len() < bound {
            self.stamps.resize(bound, 0);
        }
        if self.epoch == u32::MAX {
            // One reset every 2^32 - 1 segments keeps stamp 0 meaning
            // "never visited in the current generation".
            self.stamps.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Marks dense slot `i` visited in the current generation.
    // tao-lint: hot
    pub(crate) fn mark(&mut self, i: usize) {
        self.stamps[i] = self.epoch;
    }

    /// `true` if dense slot `i` was visited in the current generation.
    // tao-lint: hot
    pub(crate) fn is_marked(&self, i: usize) -> bool {
        self.stamps[i] == self.epoch
    }

    /// Appends a hop to the CAN-family buffer.
    // tao-lint: hot
    pub(crate) fn push_hop(&mut self, id: OverlayNodeId) {
        self.hops.push(id);
    }

    /// Length of the CAN-family hop buffer.
    // tao-lint: hot
    pub(crate) fn hops_len(&self) -> usize {
        self.hops.len()
    }

    /// Moves the CAN-family hop buffer out, leaving an empty one — how
    /// eCAN's one-shot `route_express` hands the hops to a [`crate::Route`].
    pub(crate) fn take_hops(&mut self) -> Vec<OverlayNodeId> {
        std::mem::take(&mut self.hops)
    }

    /// Arms the scratch for a ring route: clears the ring hop buffer.
    // tao-lint: hot
    pub(crate) fn begin_ring(&mut self) {
        self.ring_hops.clear();
    }

    /// Appends a hop to the ring buffer.
    // tao-lint: hot
    pub(crate) fn push_ring_hop(&mut self, id: u64) {
        self.ring_hops.push(id);
    }

    /// Length of the ring hop buffer.
    // tao-lint: hot
    pub(crate) fn ring_hops_len(&self) -> usize {
        self.ring_hops.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_invalidate_previous_marks() {
        let mut s = RouteScratch::new();
        s.begin_can(8);
        s.mark(3);
        assert!(s.is_marked(3));
        assert!(!s.is_marked(4));
        s.begin_can(8);
        assert!(!s.is_marked(3), "new generation must forget old marks");
    }

    #[test]
    fn refresh_keeps_hops_but_forgets_marks() {
        let mut s = RouteScratch::new();
        s.begin_can(4);
        s.push_hop(OverlayNodeId(0));
        s.mark(0);
        s.refresh_visited(4);
        assert!(!s.is_marked(0));
        assert_eq!(s.hops(), &[OverlayNodeId(0)]);
    }

    #[test]
    fn epoch_wrap_resets_all_stamps() {
        let mut s = RouteScratch::new();
        s.begin_can(4);
        s.mark(1);
        s.epoch = u32::MAX; // simulate 2^32 - 1 generations
        s.refresh_visited(4);
        assert_eq!(s.epoch, 1);
        assert!(!s.is_marked(1));
        // A fresh mark in the post-wrap generation still works.
        s.mark(2);
        assert!(s.is_marked(2));
    }

    #[test]
    fn arena_growth_is_covered() {
        let mut s = RouteScratch::new();
        s.begin_can(2);
        s.mark(1);
        s.begin_can(16); // same scratch, larger arena
        s.mark(15);
        assert!(s.is_marked(15));
        assert!(!s.is_marked(1));
    }

    #[test]
    fn ring_buffer_is_independent_of_can_buffer() {
        let mut s = RouteScratch::new();
        s.begin_can(4);
        s.push_hop(OverlayNodeId(7));
        s.begin_ring();
        s.push_ring_hop(42);
        assert_eq!(s.hops(), &[OverlayNodeId(7)]);
        assert_eq!(s.ring_hops(), &[42]);
        assert_eq!(s.hop_count(), 0);
    }
}
