//! Quickstart: build a topology-aware overlay and see what the global
//! soft-state buys you.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Generates a ~1,000-router transit-stub network, grows a 256-node eCAN on
//! it, publishes every node's landmark coordinates into the overlay's
//! soft-state maps, selects expressway neighbors through those maps, and
//! compares routing stretch against an overlay that picked its neighbors
//! randomly.

use tao_core::{SelectionStrategy, TaoBuilder};
use tao_topology::{LatencyAssignment, TransitStubParams};

fn main() {
    // One builder, two worlds: identical topology and joins, different
    // neighbor selection.
    let mut builder = TaoBuilder::new();
    builder
        .topology(TransitStubParams::tsk_large_mini())
        .latency(LatencyAssignment::manual())
        .overlay_nodes(256)
        .landmarks(15)
        .rtt_budget(10)
        .seed(2003);

    builder.selection(SelectionStrategy::GlobalState);
    let aware = builder.build();

    builder.selection(SelectionStrategy::Random);
    let random = builder.build();

    println!(
        "topology: {} routers ({} transit domains)",
        aware.topology().graph().node_count(),
        aware.topology().params().transit_domains()
    );
    println!(
        "overlay:  {} nodes, {} landmarks, {} RTT probes per selection",
        aware.ecan().can().len(),
        aware.landmarks().len(),
        aware.params().rtt_budget
    );
    println!(
        "soft-state: {} maps holding {} entries ({} probes spent so far)\n",
        aware.state().map_count(),
        aware.state().total_entries(),
        aware.oracle().measurements()
    );

    let routes = 512;
    let aware_stretch = aware.measure_routing_stretch(routes, 1);
    let random_stretch = random.measure_routing_stretch(routes, 1);

    println!("routing stretch over {routes} random routes");
    println!("  global soft-state : {aware_stretch}");
    println!("  random neighbors  : {random_stretch}");
    let saved = (1.0 - aware_stretch.mean() / random_stretch.mean()) * 100.0;
    println!("  latency saved     : {saved:.0}%");
}
