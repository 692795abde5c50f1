//! Section 5.2: overlay maintenance with publish/subscribe and soft-state.
//!
//! Compares the three maintenance regimes over a churn burst: how many
//! messages each spends, how stale the global state stays, and how fast
//! subscribers hear about departures through the overlay-embedded
//! distribution tree.

use tao_bench::{f3, print_table, Scale};
use tao_core::{SelectionStrategy, TaoBuilder};
use tao_sim::SimDuration;
use tao_softstate::pubsub::{distribution_tree, Event, Predicate, PubSub};
use tao_softstate::MaintenancePolicy;
use tao_topology::LatencyAssignment;

const DEPARTURES: usize = 100;

fn main() {
    let scale = Scale::from_env();
    let mut base = scale.base_params();
    base.selection = SelectionStrategy::GlobalState;

    let policies = [
        ("reactive (TTL only)", MaintenancePolicy::Reactive),
        (
            "periodic poll (10 s)",
            MaintenancePolicy::PeriodicPoll {
                period: SimDuration::from_secs(10),
            },
        ),
        ("proactive departure", MaintenancePolicy::ProactiveDeparture),
    ];

    let mut rows = Vec::new();
    for (name, policy) in policies {
        eprintln!("sec52: running policy `{name}`…");
        let mut builder = TaoBuilder::new();
        builder
            .topology(scale.tsk_large())
            .latency(LatencyAssignment::manual())
            .params(base)
            .seed(7);
        let mut tao = builder.build();

        // Every node subscribes to departures in its smallest enclosing
        // high-order zone.
        let mut bus = PubSub::new();
        let live: Vec<_> = tao.ecan().can().live_nodes().collect();
        for &id in &live {
            if let Some(zone) = tao.ecan().enclosing_high_order_zones(id).first() {
                bus.subscribe(zone, id, Predicate::NodeDeparted);
            }
        }

        let victims = tao.sample_overlay_nodes(DEPARTURES, 13);
        let ttl = tao.state().config().ttl();
        let mut maintenance_messages = 0u64;
        let mut staleness_total = SimDuration::ZERO;
        let mut notify_messages = 0u64;
        let mut notify_latency_total = SimDuration::ZERO;
        let mut notified = 0u64;
        for v in victims {
            let zones = tao.ecan().enclosing_high_order_zones(v);
            let origin = tao.ecan().can().underlay(v);
            // Maintenance under the policy.
            let report = {
                let now = tao.now();
                policy.apply_departure(tao.state_mut(), v, now, ttl)
            };
            maintenance_messages += report.messages;
            staleness_total += report.staleness;
            // Notify subscribers of the smallest zone via a fan-out-4 tree.
            if let Some(zone) = zones.first() {
                let hit = bus.publish(zone, &Event::NodeDeparted(v));
                let subs: Vec<_> = hit
                    .into_iter()
                    .filter(|&s| s != v && tao.ecan().can().zone(s).is_ok())
                    .map(|s| (s, tao.ecan().can().underlay(s)))
                    .collect();
                let d = distribution_tree(origin, &subs, 4, tao.oracle());
                notify_messages += d.messages;
                notify_latency_total += d.max_latency();
                notified += d.deliveries.len() as u64;
            }
            bus.unsubscribe_all(v);
            tao.depart(v).expect("victim is live");
            tao.advance(SimDuration::from_secs(1));
        }
        tao.reselect();
        // To stderr, so the table stays as committed: how much of the
        // stretch column below is the policy's doing.
        let pass = tao.last_pass();
        eprintln!(
            "sec52: `{name}`: {} of {} post-churn selections drew the fallback",
            pass.fallbacks, pass.selections
        );
        let stretch = tao.measure_routing_stretch(512, 17);
        rows.push(vec![
            name.to_string(),
            maintenance_messages.to_string(),
            format!(
                "{:.1} s",
                staleness_total.as_millis_f64() / 1_000.0 / DEPARTURES as f64
            ),
            notify_messages.to_string(),
            format!(
                "{:.1} ms",
                if notified == 0 {
                    0.0
                } else {
                    notify_latency_total.as_millis_f64() / DEPARTURES as f64
                }
            ),
            f3(stretch.mean()),
        ]);
    }
    print_table(
        "Section 5.2: maintenance policies over a 100-departure churn burst",
        &[
            "policy",
            "maint. msgs",
            "mean staleness",
            "notify msgs",
            "mean notify latency",
            "post-churn stretch",
        ],
        &rows,
    );
}
