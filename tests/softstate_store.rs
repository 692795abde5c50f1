//! The soft-state store against a flat model, a stamp-count regression, and
//! the store's CI fingerprint.
//!
//! Hosted lookups are also made through one [`LookupScratch`] that lives as
//! long as the history: what it remembers of earlier lookups (the live
//! slots per `(region, host)`, the querier's decoded curve position) must
//! never show in an answer, whatever was written, joined, left or aged in
//! between.
//!
//! [`GlobalState`] keeps each map's entries in a slab behind two indexes,
//! a per-node list of the maps that name a node, and one expiry stamp per
//! entry. The model below keeps one `Vec` of `(region, entry)` rows and
//! answers everything by linear scan; generated operation sequences must
//! not be able to tell the two apart.

use tao_landmark::{LandmarkGrid, LandmarkVector};
use tao_overlay::ecan::{EcanOverlay, RandomSelector};
use tao_overlay::{CanOverlay, OverlayNodeId, Point, Zone};
use tao_sim::{SimDuration, SimTime};
use tao_softstate::{
    refresh_round, GlobalState, LookupScratch, NodeInfo, SoftStateConfig, ZoneMap,
};
use tao_topology::NodeIdx;
use tao_util::check::for_all_sequences;
use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};
use tao_util::{check, check_eq};

const DIMS: usize = 2;
const LANDMARKS: usize = 5;
const LOOKUP_MAX: [usize; 4] = [1, 4, 10, 16];

fn config() -> SoftStateConfig {
    let grid = LandmarkGrid::new(3, 5, SimDuration::from_millis(320)).expect("valid grid");
    SoftStateConfig::builder(grid)
        .condense_rate(0.25)
        .ttl(SimDuration::from_secs(60))
        .build()
}

fn grown_ecan(nodes: u32, seed: u64) -> EcanOverlay {
    let mut can = CanOverlay::new(DIMS).expect("2-d CAN");
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..nodes {
        can.join(NodeIdx(i), Point::random(DIMS, &mut rng));
    }
    EcanOverlay::build(can, &mut RandomSelector::new(seed))
}

/// A node's published info with a landmark vector drawn from `vector_seed`
/// — a different seed is a changed vector and (almost always) a changed
/// landmark number.
fn info_of(node: OverlayNodeId, vector_seed: u64, config: &SoftStateConfig) -> NodeInfo {
    let mut rng = StdRng::seed_from_u64(vector_seed);
    let millis: Vec<f64> = (0..LANDMARKS).map(|_| rng.gen_range(1.0..300.0)).collect();
    let vector = LandmarkVector::from_millis(&millis);
    let number = config.grid().landmark_number(&vector, config.curve());
    NodeInfo {
        node,
        underlay: NodeIdx(node.0),
        vector,
        number,
        load: None,
    }
}

// --------------------------------------------------------------------------
// The model.

struct Row {
    region: Zone,
    info: NodeInfo,
    position: Point,
    expires_at: SimTime,
}

#[derive(Default)]
struct Model {
    rows: Vec<Row>,
}

impl Model {
    fn publish(&mut self, info: &NodeInfo, ecan: &EcanOverlay, now: SimTime, config: &SoftStateConfig) -> usize {
        let regions = ecan.enclosing_high_order_zones(info.node);
        for region in &regions {
            self.rows
                .retain(|r| !(r.region == *region && r.info.node == info.node));
            // Where an object is stored is the paper's hash, not storage
            // layout: take it from a throwaway map of the same region.
            let position = ZoneMap::new(region.clone(), config).position_for(info.number, config);
            self.rows.push(Row {
                region: region.clone(),
                info: info.clone(),
                position,
                expires_at: now + config.ttl(),
            });
        }
        regions.len()
    }

    fn refresh(&mut self, node: OverlayNodeId, now: SimTime, config: &SoftStateConfig) -> usize {
        let mut touched = 0;
        for r in self.rows.iter_mut().filter(|r| r.info.node == node) {
            r.expires_at = now + config.ttl();
            touched += 1;
        }
        touched
    }

    fn remove(&mut self, node: OverlayNodeId) -> usize {
        let before = self.rows.len();
        self.rows.retain(|r| r.info.node != node);
        before - self.rows.len()
    }

    fn expire(&mut self, now: SimTime) -> usize {
        let before = self.rows.len();
        self.rows.retain(|r| now < r.expires_at);
        before - self.rows.len()
    }

    fn regions(&self) -> Vec<Zone> {
        let mut seen: Vec<Zone> = Vec::new();
        for r in &self.rows {
            if !seen.contains(&r.region) {
                seen.push(r.region.clone());
            }
        }
        seen
    }

    /// The Table-1 hosted lookup by definition: the landing host's live
    /// entries, widened once to its CAN neighbors when they are fewer than
    /// `max`, ranked by `(landmark distance, node)`.
    fn lookup_in_hosted(
        &self,
        region: &Zone,
        query: &NodeInfo,
        max: usize,
        can: &CanOverlay,
        now: SimTime,
        config: &SoftStateConfig,
    ) -> Vec<NodeInfo> {
        if !self.rows.iter().any(|r| r.region == *region) {
            return Vec::new();
        }
        let landing = ZoneMap::new(region.clone(), config).position_for(query.number, config);
        let host = can.owner(&landing);
        let mut hosts = vec![host];
        let mut found: Vec<&NodeInfo> = Vec::new();
        for widened in [false, true] {
            found = self
                .rows
                .iter()
                .filter(|r| r.region == *region && now < r.expires_at)
                .filter(|r| r.info.node != query.node && hosts.contains(&can.owner(&r.position)))
                .map(|r| &r.info)
                .collect();
            if found.len() >= max || widened {
                break;
            }
            hosts.extend(can.neighbors(host).expect("the owner of a point is live"));
        }
        found.sort_by(|a, b| {
            let da = query.vector.euclidean_ms(&a.vector);
            let db = query.vector.euclidean_ms(&b.vector);
            da.partial_cmp(&db).expect("finite").then(a.node.cmp(&b.node))
        });
        found.into_iter().take(max).cloned().collect()
    }
}

// --------------------------------------------------------------------------
// Generated operation sequences.

/// One step. Nodes and regions are named by index into whatever is live
/// when the step runs (modulo its size), so any subsequence of a generated
/// history is itself a valid history — which is what lets it shrink.
#[derive(Debug, Clone)]
enum Op {
    Publish { node: usize, vector_seed: u64 },
    Refresh { node: usize },
    Remove { node: usize },
    Expire,
    Advance { millis: u64 },
    Join { underlay: u32, x: f64, y: f64 },
    Leave { node: usize },
    Lookup { node: usize, region: usize, max: usize },
}

fn generate(rng: &mut StdRng) -> Vec<Op> {
    let len = rng.gen_range(20..70);
    (0..len)
        .map(|_| match rng.gen_range(0..100) {
            0..=29 => Op::Publish {
                node: rng.gen_range(0..64),
                // Few distinct seeds: re-publishing under the *same* number
                // (an in-place upsert) must be as common as under a new one.
                vector_seed: rng.gen_range(0..6),
            },
            30..=41 => Op::Refresh { node: rng.gen_range(0..64) },
            42..=49 => Op::Remove { node: rng.gen_range(0..64) },
            50..=57 => Op::Expire,
            58..=67 => Op::Advance { millis: rng.gen_range(0..45_000) },
            68..=73 => Op::Join {
                underlay: rng.gen_range(1_000..2_000),
                x: rng.gen_range(0.0..1.0),
                y: rng.gen_range(0.0..1.0),
            },
            74..=79 => Op::Leave { node: rng.gen_range(0..64) },
            _ => Op::Lookup {
                node: rng.gen_range(0..64),
                region: rng.gen_range(0..64),
                max: LOOKUP_MAX[rng.gen_range(0..LOOKUP_MAX.len())],
            },
        })
        .collect()
}

fn run(ops: &[Op]) {
    let config = config();
    let mut ecan = grown_ecan(24, 0x5707e);
    let mut state = GlobalState::new(config);
    let mut model = Model::default();
    let mut scratch = LookupScratch::default();
    let mut now = SimTime::ORIGIN;
    // Every node the history has named so far, departed ones included: the
    // store must also cope with refreshes and removals of nodes that left.
    let mut known: Vec<OverlayNodeId> = ecan.can().live_nodes().collect();
    let pick = |known: &[OverlayNodeId], i: usize| known[i % known.len()];
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Publish { node, vector_seed } => {
                let node = pick(&known, node);
                let info = info_of(node, u64::from(node.0) << 8 | vector_seed, &config);
                let written = state.publish(info.clone(), &ecan, now);
                check_eq!(written, model.publish(&info, &ecan, now, &config), "step {step}");
            }
            Op::Refresh { node } => {
                let node = pick(&known, node);
                let touched = state.refresh(node, now);
                check_eq!(touched, model.refresh(node, now, &config), "step {step}");
            }
            Op::Remove { node } => {
                let node = pick(&known, node);
                check_eq!(state.remove(node), model.remove(node), "step {step}");
            }
            Op::Expire => check_eq!(state.expire(now), model.expire(now), "step {step}"),
            Op::Advance { millis } => now += SimDuration::from_millis(millis),
            Op::Join { underlay, x, y } => {
                let point = Point::new(vec![x, y]).expect("generated inside the unit square");
                known.push(ecan.join_unselected(NodeIdx(underlay), point));
            }
            Op::Leave { node } => {
                let node = pick(&known, node);
                if ecan.can().len() > 4 {
                    // Err = it left earlier in the history; nothing to do.
                    let _ = ecan.depart(node);
                }
            }
            Op::Lookup { node: at, region, max } => {
                let node = pick(&known, at);
                let query = info_of(node, u64::from(node.0) << 8, &config);
                let mut regions = model.regions();
                regions.push(Zone::whole(DIMS)); // never published into
                let region = &regions[region % regions.len()];
                let got = state.lookup_in_hosted(region, &query, max, ecan.can(), now);
                let want = model.lookup_in_hosted(region, &query, max, ecan.can(), now, &config);
                check_eq!(got, want, "step {step}: region {region} max {max}");
            }
        }
        check_eq!(state.total_entries(), model.rows.len(), "step {step}: {op:?}");
        state.check_invariants();
        // After two steps in three, the same two queriers in every region
        // through the history's one scratch: each host is revisited with
        // one or two writes, joins, departures or clock advances in between
        // (a join and a departure together leave the CAN as large as it
        // was), by the node it holds an entry of and by another, and a
        // fragment remembered under a small budget is widened by a large
        // one and read unwidened again.
        let max = LOOKUP_MAX[step % LOOKUP_MAX.len()];
        let regions = if step % 3 == 2 { Vec::new() } else { model.regions() };
        for region in regions {
            for &node in &known[..2] {
                let query = info_of(node, u64::from(node.0) << 8, &config);
                let want = model.lookup_in_hosted(&region, &query, max, ecan.can(), now, &config);
                let got: Vec<NodeInfo> = state
                    .lookup_in_hosted_into(&mut scratch, &region, &query, max, ecan.can(), now)
                    .cloned()
                    .collect();
                check_eq!(got, want, "step {step}: {node} in {region} max {max}, after {op:?}");
            }
        }
    }
}

#[test]
fn store_matches_a_flat_model_under_generated_operation_sequences() {
    for_all_sequences("softstate_store_vs_flat_model", 96, generate, run);
}

#[test]
fn a_changed_landmark_number_moves_the_entry_in_every_map() {
    // The one publish shape the generator only meets by chance, pinned:
    // same node, new vector, new number — the old entry must leave each
    // map's indexes and the new one must be found under the new number.
    let config = config();
    let ecan = grown_ecan(48, 0x1ab);
    let mut state = GlobalState::new(config);
    let node = OverlayNodeId(7);
    let first = info_of(node, 1, &config);
    let moved = info_of(node, 2, &config);
    check!(first.number != moved.number, "seeds must give distinct numbers");
    let written = state.publish(first, &ecan, SimTime::ORIGIN);
    assert_eq!(state.publish(moved.clone(), &ecan, SimTime::ORIGIN), written);
    assert_eq!(state.total_entries(), written, "no entry left under the old number");
    state.check_invariants();
    for map in state.maps() {
        assert_eq!(map.entry_of(node).map(|e| e.info.number), Some(moved.number));
    }
}

#[test]
fn refresh_rounds_leave_one_stamp_per_entry() {
    // Each refresh and each upsert publish used to push one more stamp on
    // its map's expiry heap (2 per entry per round, popped as stale by a
    // later sweep): ten rounds left 21 stamps per entry. Now an entry owns
    // one stamp for as long as it lives.
    let config = config();
    let ecan = grown_ecan(128, 0xabc);
    let mut state = GlobalState::new(config);
    let members: Vec<NodeInfo> = (ecan.can().live_nodes())
        .map(|id| info_of(id, u64::from(id.0), &config))
        .collect();
    let mut now = SimTime::ORIGIN;
    for info in &members {
        state.publish(info.clone(), &ecan, now);
    }
    let entries = state.total_entries();
    assert_eq!(state.pending_stamps(), entries);
    for _ in 0..10 {
        now += config.ttl() / 3;
        let report = refresh_round(&mut state, &ecan, &members, now, |_| false);
        assert_eq!((report.expired, report.repaired), (0, 0));
        assert_eq!(state.total_entries(), entries);
        assert!(
            state.pending_stamps() <= entries,
            "{} stamps for {entries} entries",
            state.pending_stamps()
        );
        state.check_invariants();
    }
    // Withdrawn entries leave their stamp behind only until it comes due.
    for info in &members[..32] {
        state.remove(info.node);
    }
    assert!(state.pending_stamps() > state.total_entries());
    assert_eq!(state.expire(now + config.ttl() / 2), 0, "the rest was refreshed");
    assert_eq!(state.pending_stamps(), state.total_entries());
    state.check_invariants();
}

// --------------------------------------------------------------------------
// CI fingerprint.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(digest: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *digest = (*digest ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
}

/// Folds the ordered answer of every `(node, expressway target box)` lookup.
fn fold_lookups(digest: &mut u64, state: &GlobalState, ecan: &EcanOverlay, now: SimTime) {
    let config = *state.config();
    for id in ecan.can().live_nodes() {
        let query = info_of(id, u64::from(id.0), &config);
        for entry in ecan.high_order_entries(id) {
            let found = state.lookup_in_hosted(&entry.target_box, &query, 10, ecan.can(), now);
            fold(digest, found.len() as u64);
            for info in found {
                fold(digest, u64::from(info.node.0));
            }
        }
    }
}

/// A fixed lookup / refresh / expire / remove / churn script on a seeded
/// N = 256 system, digested in order. The constant was taken at the commit
/// before the store was rebuilt around a slab (PR 14's parent), through the
/// same public calls: a later change to candidate ranking, tie-breaking,
/// hosting classification or expiry order fails here instead of silently
/// moving every figure. `scripts/ci.sh` greps the printed line.
#[test]
fn softstate_fingerprint_for_ci() {
    let config = config();
    let mut ecan = grown_ecan(256, 0xf1a9);
    let mut state = GlobalState::new(config);
    let mut digest = FNV_OFFSET;
    let mut now = SimTime::ORIGIN;
    let members: Vec<OverlayNodeId> = ecan.can().live_nodes().collect();
    for &id in &members {
        fold(&mut digest, state.publish(info_of(id, u64::from(id.0), &config), &ecan, now) as u64);
    }
    fold_lookups(&mut digest, &state, &ecan, now);

    // Two thirds refresh half-way through the TTL; the rest lapse.
    now += config.ttl() / 2;
    for &id in members.iter().filter(|id| id.0 % 3 != 0) {
        fold(&mut digest, state.refresh(id, now) as u64);
    }
    now += config.ttl() / 2;
    fold_lookups(&mut digest, &state, &ecan, now); // lapsed, not yet swept
    fold(&mut digest, state.expire(now) as u64);
    fold(&mut digest, state.total_entries() as u64);

    // Churn: departures with and without withdrawal, joins, a changed vector.
    for &id in members.iter().filter(|id| id.0 % 16 == 1) {
        ecan.depart(id).expect("live member");
        if id.0 % 32 == 1 {
            fold(&mut digest, state.remove(id) as u64);
        }
    }
    let mut rng = StdRng::seed_from_u64(0xf1aa);
    for i in 0..24u32 {
        let id = ecan.join_unselected(NodeIdx(10_000 + i), Point::random(DIMS, &mut rng));
        fold(&mut digest, state.publish(info_of(id, u64::from(id.0), &config), &ecan, now) as u64);
    }
    for &id in members.iter().filter(|id| id.0 % 16 == 2) {
        let moved = info_of(id, u64::from(id.0) ^ 0xffff, &config);
        fold(&mut digest, state.publish(moved, &ecan, now) as u64);
    }
    ecan.reselect(&mut RandomSelector::new(0xf1ab));
    fold_lookups(&mut digest, &state, &ecan, now);

    // A second TTL: the even ids refresh (departed ones included — their
    // entries linger until nobody refreshes them), the rest lapse.
    now += config.ttl() / 2;
    for &id in members.iter().filter(|id| id.0 % 2 == 0) {
        fold(&mut digest, state.refresh(id, now) as u64);
    }
    now += config.ttl() / 2;
    fold(&mut digest, state.expire(now) as u64);
    fold(&mut digest, state.total_entries() as u64);
    fold_lookups(&mut digest, &state, &ecan, now);

    println!("SOFTSTATE_FINGERPRINT digest={digest:#018x} entries={}", state.total_entries());
    assert_eq!(digest, 0x230e_572f_6753_1e41, "soft-state fingerprint moved");
    assert_eq!(state.total_entries(), 262);
}
