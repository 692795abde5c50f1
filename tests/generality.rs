//! Cross-crate integration for the paper's generality claim (§7): the
//! landmark → soft-state → probe pipeline must behave identically in kind
//! on Chord and Pastry as it does on eCAN.

use tao_core::{ChordAware, ExperimentParams, PastryAware, SelectionStrategy};
use tao_overlay::keyed::KeyedOverlay;
use tao_softstate::PrefixKey;
use tao_topology::{generate_transit_stub, LatencyAssignment, Topology, TransitStubParams};

fn params() -> ExperimentParams {
    ExperimentParams {
        overlay_nodes: 160,
        landmarks: 8,
        rtt_budget: 8,
        ..Default::default()
    }
}

fn topology() -> Topology {
    generate_transit_stub(
        &TransitStubParams::tsk_large_mini(),
        LatencyAssignment::manual(),
        881,
    )
}

#[test]
fn the_ordering_holds_on_every_overlay_family() {
    let topo = topology();
    let mut p = params();
    // Chord.
    let chord = |sel: SelectionStrategy, p: &mut ExperimentParams| {
        p.selection = sel;
        ChordAware::build(&topo, *p, 1)
            .measure_routing_stretch(320, 2)
            .mean()
    };
    let c_opt = chord(SelectionStrategy::Optimal, &mut p);
    let c_aware = chord(SelectionStrategy::GlobalState, &mut p);
    let c_rand = chord(SelectionStrategy::Random, &mut p);
    assert!(
        c_opt <= c_aware * 1.05,
        "chord: optimal {c_opt:.2} vs aware {c_aware:.2}"
    );
    assert!(
        c_aware < c_rand,
        "chord: aware {c_aware:.2} vs random {c_rand:.2}"
    );

    // Pastry.
    let pastry = |sel: SelectionStrategy, p: &mut ExperimentParams| {
        p.selection = sel;
        PastryAware::build(&topo, *p, 1)
            .measure_routing_stretch(320, 2)
            .mean()
    };
    let p_opt = pastry(SelectionStrategy::Optimal, &mut p);
    let p_aware = pastry(SelectionStrategy::GlobalState, &mut p);
    let p_rand = pastry(SelectionStrategy::Random, &mut p);
    assert!(
        p_opt <= p_aware * 1.05,
        "pastry: optimal {p_opt:.2} vs aware {p_aware:.2}"
    );
    assert!(
        p_aware < p_rand,
        "pastry: aware {p_aware:.2} vs random {p_rand:.2}"
    );
}

#[test]
fn chord_soft_state_lands_on_successors() {
    let topo = topology();
    let chord = ChordAware::build(&topo, params(), 3);
    // Every record's hosting node is the successor of its ring key, and
    // hosting burden sums to the record count.
    let hosts = chord
        .state()
        .records_per_host(PrefixKey::WHOLE, chord.overlay());
    assert_eq!(hosts.values().sum::<usize>(), chord.state().len());
    assert_eq!(chord.state().len(), chord.overlay().len());
}

#[test]
fn pastry_prefix_maps_respect_regions() {
    let topo = topology();
    let pastry = PastryAware::build(&topo, params(), 5);
    // One record per prefix length per node; all lookups stay region-pure.
    let per_node = pastry.state().depths().count();
    assert_eq!(pastry.state().len(), per_node * pastry.overlay().len());
    // A lookup in an id's own top-level region returns only same-digit ids.
    let ids: Vec<_> = pastry.overlay().node_ids().collect();
    let id = ids[7];
    let region = PrefixKey::of(id, 1);
    for other in ids.iter().take(50) {
        if region.covers(*other) {
            continue;
        }
        // Those outside the region must never be reachable through it: the
        // invariant is enforced structurally (publish path), checked here
        // via the covering predicate.
        assert_ne!(PrefixKey::of(*other, 1), region);
    }
}

#[test]
fn all_three_families_are_deterministic_per_seed() {
    let topo = topology();
    let p = params();
    let c1 = ChordAware::build(&topo, p, 9).measure_routing_stretch(160, 1);
    let c2 = ChordAware::build(&topo, p, 9).measure_routing_stretch(160, 1);
    assert_eq!(c1, c2);
    let p1 = PastryAware::build(&topo, p, 9).measure_routing_stretch(160, 1);
    let p2 = PastryAware::build(&topo, p, 9).measure_routing_stretch(160, 1);
    assert_eq!(p1, p2);
}

/// The `generality` binary's first Pastry cell at `TAO_SCALE=mini` (its
/// topology, build and route seeds): with optimal entries on this
/// 256-node membership a table hop moves numerically away from one key,
/// and unless the rare-case fallback keeps the shared prefix the two
/// rules undo each other and the route never reaches the root.
#[test]
fn pastry_routes_terminate_on_the_mini_generality_membership() {
    let topo = generate_transit_stub(
        &TransitStubParams::tsk_large_mini(),
        LatencyAssignment::manual(),
        201,
    );
    let params = ExperimentParams {
        overlay_nodes: 256,
        selection: SelectionStrategy::Optimal,
        ..Default::default()
    };
    let stretch = PastryAware::build(&topo, params, 202).measure_routing_stretch(512, 203);
    assert!(stretch.count() > 256, "most routes must be measurable");
}
