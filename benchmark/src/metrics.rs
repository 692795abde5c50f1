//! The metric catalogue: the names, units and directions `BENCHMARK.json`
//! lists, and the per-layer values that fall straight out of the span
//! aggregates. A unit test holds this file and `BENCHMARK.json` together.

use crate::harness::Report;
use crate::trace::{Layer, Sp, Tracer};

/// `(name, unit, better)`.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// What a user of the system sees, as `(name, unit, better, bound)`:
/// `bound` is the share of the parent's median by which the metric may
/// get worse before a change counts as a regression. Every workload
/// reports all five; the README says what `primary`, `secondary` and `op`
/// are on each.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.10),
    ("primary_per_s", "1/s", "higher", 0.25),
    ("secondary_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
];

/// How a per-layer metric is read off a span's aggregate.
#[derive(Debug, Clone, Copy)]
enum Take {
    /// Mean span duration, in units of `ns_per_unit` nanoseconds.
    Mean(Sp, f64),
    /// Mean *self* time of the span (its duration minus its children).
    MeanSelf(Sp, f64),
    /// Self time of every span of the layer, in seconds.
    Busy(Layer),
    /// Set by the workload from its own counters; 0 when it has none.
    Counter,
}

const NS: f64 = 1.0;
const US: f64 = 1e3;
const MS: f64 = 1e6;
const S: f64 = 1e9;

const CATALOGUE: &[(MetricDef, Take)] = &[
    (
        ("topology.generate_s", "s", "lower"),
        Take::Mean(Sp::TopoGenerate, S),
    ),
    (
        ("topology.dijkstra_ms", "ms", "lower"),
        Take::Mean(Sp::TopoDijkstra, MS),
    ),
    (("topology.dijkstra_runs", "count", "lower"), Take::Counter),
    (("topology.probes", "count", "lower"), Take::Counter),
    (("topology.measure_miss_share", "%", "lower"), Take::Counter),
    (("topology.read_hit_ns", "ns", "lower"), Take::Counter),
    (
        ("topology.busy_s", "s", "lower"),
        Take::Busy(Layer::Topology),
    ),
    (
        ("landmark.vector_us", "us", "lower"),
        Take::Mean(Sp::LmVector, US),
    ),
    (
        ("landmark.number_ns", "ns", "lower"),
        Take::Mean(Sp::LmNumber, NS),
    ),
    (
        ("landmark.busy_s", "s", "lower"),
        Take::Busy(Layer::Landmark),
    ),
    (
        ("overlay.can_join_us", "us", "lower"),
        Take::Mean(Sp::OvCanJoin, US),
    ),
    (
        ("overlay.ecan_build_s", "s", "lower"),
        Take::Mean(Sp::OvEcanBuild, S),
    ),
    (
        ("overlay.reselect_self_s", "s", "lower"),
        Take::MeanSelf(Sp::OvReselect, S),
    ),
    (
        ("overlay.route_into_ns", "ns", "lower"),
        Take::Mean(Sp::OvRouteInto, NS),
    ),
    (
        ("overlay.route_into_hotspot_ns", "ns", "lower"),
        Take::Mean(Sp::OvRouteIntoHotspot, NS),
    ),
    (
        ("overlay.route_alloc_ns", "ns", "lower"),
        Take::Mean(Sp::OvRouteAlloc, NS),
    ),
    (("overlay.hops_per_route", "count", "lower"), Take::Counter),
    (("overlay.route_errors", "count", "lower"), Take::Counter),
    (
        ("overlay.join_and_select_us", "us", "lower"),
        Take::Mean(Sp::OvJoinAndSelect, US),
    ),
    (
        ("overlay.depart_and_repair_us", "us", "lower"),
        Take::Mean(Sp::OvDepartAndRepair, US),
    ),
    (("overlay.busy_s", "s", "lower"), Take::Busy(Layer::Overlay)),
    (
        ("softstate.publish_us", "us", "lower"),
        Take::Mean(Sp::SsPublish, US),
    ),
    (
        ("softstate.lookup_us", "us", "lower"),
        Take::Mean(Sp::SsLookup, US),
    ),
    (("softstate.lookups", "count", "lower"), Take::Counter),
    (
        ("softstate.candidates_per_lookup", "count", "higher"),
        Take::Counter,
    ),
    (
        ("softstate.useful_lookup_ratio", "ratio", "higher"),
        Take::Counter,
    ),
    (("softstate.entries", "count", "lower"), Take::Counter),
    (
        ("softstate.refresh_us", "us", "lower"),
        Take::Mean(Sp::SsRefresh, US),
    ),
    (
        ("softstate.expire_ms", "ms", "lower"),
        Take::Mean(Sp::SsExpire, MS),
    ),
    (
        ("softstate.remove_us", "us", "lower"),
        Take::Mean(Sp::SsRemove, US),
    ),
    (("softstate.expired", "count", "lower"), Take::Counter),
    (("softstate.repaired", "count", "lower"), Take::Counter),
    (
        ("softstate.pubsub_publish_us", "us", "lower"),
        Take::Mean(Sp::SsPubsubPublish, US),
    ),
    (
        ("softstate.notified_per_join", "count", "lower"),
        Take::Counter,
    ),
    (
        ("softstate.busy_s", "s", "lower"),
        Take::Busy(Layer::Softstate),
    ),
    (
        ("core.select_us", "us", "lower"),
        Take::Mean(Sp::CoreSelect, US),
    ),
    (("core.selections", "count", "lower"), Take::Counter),
    (
        ("core.probes_per_selection", "count", "lower"),
        Take::Counter,
    ),
    (("core.fallbacks", "count", "lower"), Take::Counter),
    (
        ("core.reselect_s", "s", "lower"),
        Take::Mean(Sp::CoreReselect, S),
    ),
    (
        ("core.join_node_ms", "ms", "lower"),
        Take::Mean(Sp::CoreJoinNode, MS),
    ),
    (("core.join_node_p99_ms", "ms", "lower"), Take::Counter),
    (
        ("core.depart_ms", "ms", "lower"),
        Take::Mean(Sp::CoreDepart, MS),
    ),
    (
        ("core.refresh_round_ms", "ms", "lower"),
        Take::Mean(Sp::CoreRefreshRound, MS),
    ),
    (
        ("core.reselect_nodes_us", "us", "lower"),
        Take::Mean(Sp::CoreReselectNodes, US),
    ),
    (("core.stretch_mean", "ratio", "lower"), Take::Counter),
    (
        ("core.stale_entries_at_close", "count", "lower"),
        Take::Counter,
    ),
    (("core.self_s", "s", "lower"), Take::Busy(Layer::Core)),
    (
        ("proximity.hybrid_query_us", "us", "lower"),
        Take::Mean(Sp::PxHybridSearch, US),
    ),
    (
        ("proximity.probes_per_query", "count", "lower"),
        Take::Counter,
    ),
    (
        ("proximity.nn_stretch_mean", "ratio", "lower"),
        Take::Counter,
    ),
    (
        ("proximity.busy_s", "s", "lower"),
        Take::Busy(Layer::Proximity),
    ),
    (("sim.step_ns", "ns", "lower"), Take::Counter),
    (("sim.schedule_ns", "ns", "lower"), Take::Counter),
    (("sim.events", "count", "higher"), Take::Counter),
    (("sim.dropped", "count", "lower"), Take::Counter),
    (("sim.pending_peak", "count", "lower"), Take::Counter),
    (("sim.busy_s", "s", "lower"), Take::Busy(Layer::Sim)),
    (("bench.self_s", "s", "lower"), Take::Busy(Layer::Bench)),
    (("trace.wall_s", "s", "lower"), Take::Counter),
    (("trace.overhead_pct", "%", "lower"), Take::Counter),
    (("trace.spans_dropped", "count", "lower"), Take::Counter),
];

/// The per-layer metric definitions, in catalogue order.
pub fn per_layer() -> impl Iterator<Item = MetricDef> {
    CATALOGUE.iter().map(|(def, _)| *def)
}

/// Fills every per-layer metric that is a function of the span
/// aggregates; the workload has already set its own counters.
pub fn fill_from_trace(tr: &Tracer, report: &mut Report) {
    for ((name, _, _), take) in CATALOGUE {
        let value = match *take {
            Take::Mean(sp, per) => tr.agg(sp).mean_ns() / per,
            Take::MeanSelf(sp, per) => {
                let a = tr.agg(sp);
                if a.count == 0 {
                    0.0
                } else {
                    a.self_ns as f64 / a.count as f64 / per
                }
            }
            Take::Busy(layer) => tr.busy_s(layer),
            Take::Counter => continue,
        };
        report.layer(name, value);
    }
    // Shortest-path cache behaviour, read off the probe spans: a span
    // past the miss threshold ran a Dijkstra.
    let measure = tr.agg(Sp::TopoMeasure);
    let truth = tr.agg(Sp::TopoGroundTruth);
    if measure.count > 0 {
        report.layer(
            "topology.measure_miss_share",
            100.0 * measure.slow_count as f64 / measure.count as f64,
        );
    }
    let hits = truth.count - truth.slow_count;
    if hits > 0 {
        report.layer(
            "topology.read_hit_ns",
            (truth.total_ns - truth.slow_ns) as f64 / hits as f64,
        );
    }
    report.layer("trace.spans_dropped", tr.dropped() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    fn names_of(defs: &Json) -> Vec<(String, String, String)> {
        defs.as_arr()
            .expect("a metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("metric field")
                        .to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn owned(defs: impl Iterator<Item = MetricDef>) -> Vec<(String, String, String)> {
        defs.map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect()
    }

    /// `BENCHMARK.json` is the contract; this catalogue is what the
    /// program prints. They must list the same metrics, and the workload
    /// names must be the ones `main` dispatches on.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
                .expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let end_to_end = doc.get("end_to_end").unwrap();
        assert_eq!(
            names_of(end_to_end),
            owned(END_TO_END.iter().map(|&(n, u, b, _)| (n, u, b)))
        );
        assert_eq!(names_of(doc.get("per_layer").unwrap()), owned(per_layer()));
        for (m, &(name, _, _, bound)) in end_to_end.as_arr().unwrap().iter().zip(END_TO_END) {
            assert_eq!(
                m.get("bound").and_then(Json::as_f64),
                Some(bound),
                "bound of {name}"
            );
            assert!(
                bound > 0.0 && bound <= 0.25,
                "bound {bound} outside (0, 0.25]"
            );
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for (name, unit, better) in END_TO_END
            .iter()
            .map(|&(n, u, b, _)| (n, u, b))
            .chain(per_layer())
        {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
            assert!(better == "lower" || better == "higher");
        }
        assert!(per_layer().count() <= 128);
    }

    #[test]
    fn span_means_land_in_the_report() {
        let tr = Tracer::new(true);
        tr.span(Sp::SsPublish, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let mut report = Report::default();
        fill_from_trace(&tr, &mut report);
        assert!(report.per_layer["softstate.publish_us"] >= 2000.0);
        assert!(report.per_layer["softstate.busy_s"] >= 0.002);
        assert_eq!(report.per_layer["overlay.busy_s"], 0.0);
    }
}
