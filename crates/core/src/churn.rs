//! Batch churn driver: applies [`ChurnOp`] batches, one op at a time in
//! batch order, to a CAN overlay plus a global soft-state map — the
//! paper's membership path (§4–§5.2): a join splits one zone and publishes
//! one soft-state record, a departure hands its zones off and withdraws it.
//!
//! Every op draws its randomness from a private stream seeded with
//! [`op_seed`]`(master, index)`, so the committed state is a function of
//! `(master seed, batch)` alone. DESIGN.md §11 records why batches are not
//! scheduled across threads: applying an op is 80 % mutation, so the
//! read-only share that could run concurrently caps the gain at 1.11× on
//! two cores.
//!
//! [`ChurnState::fingerprint`] hashes the overlay structure, the soft-state
//! map, and the committed-op stream into one `u64`; `tests/churn_batches.rs`
//! and the `CHURN_FINGERPRINT` stage of `scripts/ci.sh` hold it to pinned
//! constants within and across processes.

use tao_landmark::{LandmarkGrid, LandmarkNumber, LandmarkVector, SpaceFillingCurve};
use tao_overlay::{CanOverlay, OverlayNodeId, Point, Zone};
use tao_sim::{op_seed, ChurnOp, ChurnOpKind, SimDuration, SimTime};
use tao_softstate::{NodeInfo, SoftStateConfig, ZoneMap};
use tao_topology::NodeIdx;
use tao_util::det::DetMap;
use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};

/// One committed churn operation, as recorded in the soft-state stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnRecord {
    /// Batch index of the committed op.
    pub index: u32,
    /// What the op did (`Join`/`Depart`/`Crash`/`Recover`).
    pub kind: ChurnOpKind,
    /// The generator's churn label.
    pub label: u64,
    /// The overlay node the op created or removed, if any; `u32::MAX`
    /// when the op was a no-op (departing an unknown label, re-joining a
    /// live one).
    pub overlay: u32,
    /// Landmark number published (joins) or `0` (departures/no-ops).
    pub number: u128,
}

/// CAN overlay + global soft-state map + committed-op stream: the shared
/// state a churn batch mutates.
#[derive(Debug)]
pub struct ChurnState {
    can: CanOverlay,
    map: ZoneMap,
    config: SoftStateConfig,
    live: DetMap<u64, OverlayNodeId>,
    next_underlay: u32,
    master_seed: u64,
    log: Vec<ChurnRecord>,
}

impl ChurnState {
    /// Builds a `dims`-dimensional CAN with `initial` bootstrap nodes
    /// (labels `0..initial`) at seeded-random points, each with a
    /// published soft-state entry.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is not a valid CAN dimensionality.
    // tao-lint: allow(panic-reachability, reason = "constructor of a test/bench harness; invalid dims is a caller bug surfaced immediately")
    pub fn new(dims: usize, master_seed: u64, initial: u64) -> Self {
        let can = CanOverlay::new(dims).expect("valid CAN dimensionality"); // tao-lint: allow(no-unwrap-in-lib, reason = "documented constructor panic on invalid dims")
        let grid = LandmarkGrid::new(3, 5, SimDuration::from_millis(320))
            .expect("static grid parameters are valid"); // tao-lint: allow(no-unwrap-in-lib, reason = "static grid parameters are valid")
        let config = SoftStateConfig::builder(grid)
            .curve(SpaceFillingCurve::Hilbert)
            .ttl(SimDuration::from_secs(3_600))
            .build();
        let map = ZoneMap::new(Zone::whole(dims), &config);
        let mut state = ChurnState {
            can,
            map,
            config,
            live: DetMap::new(),
            next_underlay: 0,
            master_seed,
            log: Vec::new(),
        };
        for label in 0..initial {
            // Bootstrap joins seed from a reserved high index, so batch
            // op seeds never collide with theirs.
            let mut rng = StdRng::seed_from_u64(op_seed(master_seed, u64::MAX - label));
            let point = Point::random(dims, &mut rng);
            state.join(label, point, &mut rng);
        }
        state
    }

    /// The overlay under churn.
    pub fn can(&self) -> &CanOverlay {
        &self.can
    }

    /// The global soft-state map entries are published into.
    pub fn map(&self) -> &ZoneMap {
        &self.map
    }

    /// The committed-op stream, in commit (= batch) order.
    pub fn log(&self) -> &[ChurnRecord] {
        &self.log
    }

    /// Number of live churn labels.
    pub fn live_len(&self) -> usize {
        self.live.len()
    }

    /// Applies one op: performs the join/leave, publishes or removes the
    /// node's soft-state entry, and appends the outcome to the log. The
    /// only randomness is the op's private stream seeded from
    /// [`op_seed`]`(master, index)`.
    // tao-lint: allow(panic-reachability, reason = "join/leave panics are unreachable for ops validated against the live-label map; tests/churn_batches.rs drives every path")
    pub fn apply(&mut self, index: usize, op: &ChurnOp) -> ChurnRecord {
        let noop = ChurnRecord {
            index: index as u32,
            kind: op.kind,
            label: op.node,
            overlay: u32::MAX,
            number: 0,
        };
        let record = match op.kind {
            // A label that is already live joins nothing.
            ChurnOpKind::Join | ChurnOpKind::Recover if self.live.get(&op.node).is_some() => noop,
            ChurnOpKind::Join | ChurnOpKind::Recover => {
                let mut rng = StdRng::seed_from_u64(op_seed(self.master_seed, index as u64));
                let point = Point::clamped(op.point.clone());
                let (id, number) = self.join(op.node, point, &mut rng);
                ChurnRecord {
                    overlay: id.0,
                    number: number.value(),
                    ..noop
                }
            }
            ChurnOpKind::Depart | ChurnOpKind::Crash => match self.live.remove(&op.node) {
                Some(id) if self.can.leave(id).is_ok() => {
                    self.map.remove(id);
                    ChurnRecord { overlay: id.0, ..noop }
                }
                _ => noop,
            },
        };
        self.log.push(record);
        record
    }

    /// Applies `ops` in batch order, op `i` at index `i`.
    // tao-lint: allow(panic-reachability, reason = "loop over ChurnState::apply; same argument")
    pub fn apply_batch(&mut self, ops: &[ChurnOp]) {
        for (index, op) in ops.iter().enumerate() {
            self.apply(index, op);
        }
    }

    /// Joins `label` at `point` and publishes its soft-state entry under
    /// a landmark vector synthesized from `rng`.
    fn join(
        &mut self,
        label: u64,
        point: Point,
        rng: &mut StdRng,
    ) -> (OverlayNodeId, LandmarkNumber) {
        let grid = self.config.grid();
        let ceiling = grid.ceiling().as_micros();
        let rtts: Vec<SimDuration> = (0..grid.dims())
            .map(|_| SimDuration::from_micros(rng.gen_range(0..=ceiling)))
            .collect();
        let vector = LandmarkVector::new(rtts);
        let number = grid.landmark_number(&vector, self.config.curve());
        let underlay = NodeIdx(self.next_underlay);
        self.next_underlay += 1;
        let id = self.can.join(underlay, point);
        self.live.insert(label, id);
        let info = NodeInfo {
            node: id,
            underlay,
            vector,
            number,
            load: None,
        };
        self.map.publish(info, SimTime::ORIGIN, &self.config);
        (id, number)
    }

    /// FNV-folds the overlay structure (live labels, zones, neighbor
    /// sets), the soft-state map (encoded entries, in key order), and the
    /// committed-op stream into one digest.
    // tao-lint: allow(panic-reachability, reason = "zones/neighbors errors degrade to empty defaults; zone accessors are indexed by axis < dims by construction")
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |v: u64| {
            h = (h ^ v).wrapping_mul(PRIME);
        };
        for (&label, &id) in self.live.iter() {
            mix(label);
            mix(u64::from(id.0));
            let zones = self.can.zones(id).unwrap_or_default();
            for z in &zones {
                for axis in 0..z.dims() {
                    mix(z.lo(axis).to_bits());
                    mix(z.hi(axis).to_bits());
                }
            }
            for nb in self.can.neighbors(id).unwrap_or_default() {
                mix(u64::from(nb.0));
            }
        }
        for entry in self.map.entries() {
            for byte in entry.encode() {
                mix(u64::from(byte));
            }
        }
        for rec in &self.log {
            mix(u64::from(rec.index));
            mix(rec.kind as u64);
            mix(rec.label);
            mix(u64::from(rec.overlay));
            mix(rec.number as u64);
            mix((rec.number >> 64) as u64);
        }
        h
    }
}
