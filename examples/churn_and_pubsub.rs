//! Living with churn: soft-state TTLs, maintenance policies, and
//! publish/subscribe notifications — on the deterministic virtual-time
//! simulator.
//!
//! ```sh
//! cargo run --release --example churn_and_pubsub
//! ```
//!
//! A 128-node overlay suffers a wave of departures. Watch how each
//! maintenance policy trades messages for staleness, and how subscribers
//! hear about departures through a distribution tree embedded in the
//! overlay.

use tao_core::{SelectionStrategy, TaoBuilder};
use tao_sim::{FaultPlan, NodeId, SimDuration, SimTime, Simulator, UniformLatency};
use tao_softstate::pubsub::{distribution_tree, Event, Predicate, PubSub};
use tao_softstate::MaintenancePolicy;
use tao_topology::{LatencyAssignment, TransitStubParams};

fn main() {
    let mut builder = TaoBuilder::new();
    builder
        .topology(TransitStubParams::tsk_small_mini())
        .latency(LatencyAssignment::manual())
        .overlay_nodes(128)
        .landmarks(8)
        .seed(99);
    builder.selection(SelectionStrategy::GlobalState);
    let mut tao = builder.build();
    println!(
        "built {}-node overlay, {} soft-state entries across {} maps",
        tao.ecan().can().len(),
        tao.state().total_entries(),
        tao.state().map_count()
    );

    // Everyone subscribes to departures in their smallest high-order zone.
    let mut bus = PubSub::new();
    for id in tao.ecan().can().live_nodes().collect::<Vec<_>>() {
        if let Some(zone) = tao.ecan().enclosing_high_order_zones(id).first() {
            bus.subscribe(zone, id, Predicate::NodeDeparted);
        }
    }
    println!("{} departure subscriptions registered\n", bus.len());

    // A wave of 16 departures, one per virtual minute, proactive policy.
    let victims = tao.sample_overlay_nodes(16, 5);
    let ttl = tao.state().config().ttl();
    let mut total_maintenance = 0u64;
    let mut total_notifications = 0u64;
    for v in victims {
        let zones = tao.ecan().enclosing_high_order_zones(v);
        let origin = tao.ecan().can().underlay(v);
        let now = tao.now();
        let report =
            MaintenancePolicy::ProactiveDeparture.apply_departure(tao.state_mut(), v, now, ttl);
        total_maintenance += report.messages;
        if let Some(zone) = zones.first() {
            let subscribers: Vec<_> = bus
                .publish(zone, &Event::NodeDeparted(v))
                .into_iter()
                .filter(|&s| s != v)
                .map(|s| (s, tao.ecan().can().underlay(s)))
                .collect();
            let d = distribution_tree(origin, &subscribers, 4, tao.oracle());
            total_notifications += d.messages;
            println!(
                "t={} {v} departs: {} withdrawal msgs, {} subscribers notified, slowest in {}",
                now,
                report.messages,
                d.deliveries.len(),
                d.max_latency()
            );
        }
        bus.unsubscribe_all(v);
        tao.depart(v).expect("victim is live");
        tao.advance(SimDuration::from_secs(60));
    }
    tao.reselect();
    println!(
        "\nchurn done: {} maintenance msgs, {} notification msgs, {} nodes remain",
        total_maintenance,
        total_notifications,
        tao.ecan().can().len()
    );

    // Bonus: the same refresh traffic modelled on the event simulator —
    // every node republished its soft-state twice over two TTL periods —
    // now over a *faulty* network: 15% loss, 10ms jitter, the occasional
    // duplicate, and a partition that cuts off a quarter of the nodes for
    // the first half of the run. Same seed, same plan → same stats, every
    // run, every machine.
    let mut sim: Simulator<&str, _> =
        Simulator::new(UniformLatency::new(SimDuration::from_millis(40)));
    let n = tao.ecan().can().len();
    for _ in 0..n {
        sim.add_node();
    }
    let island: Vec<NodeId> = (0..n / 4).map(NodeId).collect();
    let mut plan = FaultPlan::new(0x00FA_17ED);
    plan.drop_probability(0.15)
        .jitter(SimDuration::from_millis(10))
        .duplicate_probability(0.02)
        .partition(
            &island,
            SimTime::ORIGIN,
            SimTime::ORIGIN + ttl, // heals after one TTL
        );
    sim.set_fault_plan(plan);
    for i in 0..n {
        sim.set_timer(NodeId(i), ttl / 2, "refresh");
        sim.set_timer(NodeId(i), ttl, "refresh");
    }
    let mut refreshes = 0u64;
    while sim
        .step(|engine, at, msg| {
            if msg.payload == "refresh" {
                // A refresh fans out to ~4 map hosts.
                for k in 1..=4usize {
                    let host = NodeId((at.0 + k * 17) % n);
                    engine.send(at, host, "store");
                }
            }
        })
        .is_some()
    {
        refreshes += 1;
    }
    let stats = sim.stats();
    println!(
        "virtual-time refresh traffic over {} on a lossy net: {} events, {} \
         ({} partition epoch)",
        tao.state().config().ttl(),
        refreshes,
        stats,
        stats.partition_epochs()
    );
}
