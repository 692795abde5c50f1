//! The `--trace` span recorder.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into each layer's public functions. Every span is aggregated in
//! place under its [`Sp`] id (count, total, self time = span minus
//! children); coarse spans ([`Tracer::span`]) are also stored in a
//! preallocated buffer and dumped when the run ends, while per-operation
//! spans ([`Tracer::op`], one per route or probe) are aggregated only.
//! A disabled tracer runs the closure and nothing else, so workloads
//! whose traced and untraced call sequences are the same share one body.

use std::cell::RefCell;
use std::time::Instant;

use crate::json::Json;

/// The runtime crates, plus the benchmark's own glue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Topology,
    Landmark,
    Overlay,
    Softstate,
    Proximity,
    Core,
    Sim,
    /// Driver code of this package (loops, input lookup, span overhead).
    Bench,
}

impl Layer {
    pub const ALL: [Layer; 8] = [
        Layer::Topology,
        Layer::Landmark,
        Layer::Overlay,
        Layer::Softstate,
        Layer::Proximity,
        Layer::Core,
        Layer::Sim,
        Layer::Bench,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Topology => "topology",
            Layer::Landmark => "landmark",
            Layer::Overlay => "overlay",
            Layer::Softstate => "softstate",
            Layer::Proximity => "proximity",
            Layer::Core => "core",
            Layer::Sim => "sim",
            Layer::Bench => "bench",
        }
    }
}

macro_rules! spans {
    ($($id:ident => $layer:ident, $name:literal;)*) => {
        /// Every span the benchmark records, named `<layer>.<call>`.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Sp { $($id,)* }

        impl Sp {
            pub const ALL: &'static [Sp] = &[$(Sp::$id,)*];

            pub fn layer(self) -> Layer {
                match self { $(Sp::$id => Layer::$layer,)* }
            }

            pub fn name(self) -> &'static str {
                match self { $(Sp::$id => $name,)* }
            }
        }
    };
}

spans! {
    // One per round of a workload, and one per event handler that does
    // more than re-arm a timer; their self time is the driver's glue.
    Round => Bench, "bench.round";
    Handler => Bench, "bench.handler";

    TopoGenerate => Topology, "topology.generate_transit_stub";
    TopoOracleNew => Topology, "topology.oracle_new";
    TopoSelectLandmarks => Topology, "topology.select_landmarks";
    TopoWarm => Topology, "topology.warm";
    TopoSampleNodes => Topology, "topology.sample_nodes";
    TopoMeasure => Topology, "topology.measure";
    TopoGroundTruth => Topology, "topology.ground_truth";
    TopoDijkstra => Topology, "topology.shortest_paths";

    LmVector => Landmark, "landmark.vector_measure";
    LmNumber => Landmark, "landmark.landmark_number";

    OvCanJoin => Overlay, "overlay.can_join";
    OvEcanBuild => Overlay, "overlay.ecan_build";
    OvReselect => Overlay, "overlay.reselect";
    OvReselectNode => Overlay, "overlay.reselect_node";
    OvJoinUnselected => Overlay, "overlay.join_unselected";
    OvDepart => Overlay, "overlay.depart";
    OvTableQueries => Overlay, "overlay.table_queries";
    OvRouteInto => Overlay, "overlay.route_express_into";
    OvRouteIntoHotspot => Overlay, "overlay.route_express_into.hotspot";
    OvRouteAlloc => Overlay, "overlay.route_express";
    OvJoinAndSelect => Overlay, "overlay.join_and_select";
    OvDepartAndRepair => Overlay, "overlay.depart_and_repair";

    SsPublish => Softstate, "softstate.publish";
    SsLookup => Softstate, "softstate.lookup_in_hosted";
    SsRefresh => Softstate, "softstate.refresh";
    SsExpire => Softstate, "softstate.expire";
    SsRemove => Softstate, "softstate.remove";
    SsPubsubPublish => Softstate, "softstate.pubsub_publish";
    SsPubsubSubscription => Softstate, "softstate.pubsub_subscription";

    // The benchmark's replay of tao-core's own functions: their self
    // time is core's glue (info maps, clones, sort/dedup).
    CoreBuildOn => Core, "core.build_on";
    CoreMeasureStretch => Core, "core.measure_routing_stretch";
    CoreSelect => Core, "core.select";
    CoreReselect => Core, "core.reselect";
    CoreReselectNodes => Core, "core.reselect_nodes";
    CoreJoinNode => Core, "core.join_node";
    CoreDepart => Core, "core.depart";
    CoreRefreshRound => Core, "core.refresh_round";

    PxHybridSearch => Proximity, "proximity.hybrid_search";
    PxTrueNearest => Proximity, "proximity.true_nearest";

    SimSchedule => Sim, "sim.set_timer";
    SimRunUntil => Sim, "sim.run_until";
}

/// A span longer than this inside `topology.measure`/`ground_truth` is a
/// shortest-path cache miss: a hit is a map probe (~0.1 µs), a miss a
/// Dijkstra over the router graph (~1 ms on tsk-large).
const SLOW_NS: u64 = 20_000;

/// Stored spans kept per run; later ones are aggregated but not stored.
const STORED_CAP: usize = 1 << 16;

/// In-place aggregate of one span id.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Spans longer than [`SLOW_NS`] and their total time.
    pub slow_count: u64,
    pub slow_ns: u64,
}

impl Agg {
    /// Mean span duration in nanoseconds (0 when the span never ran).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// One stored span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub sp: Sp,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing stored span, if any.
    pub parent: Option<u32>,
    /// The round (or operation) this span belongs to.
    pub op_id: u32,
}

struct Open {
    sp: Sp,
    start_ns: u64,
    child_ns: u64,
    stored: Option<u32>,
}

struct Inner {
    agg: Vec<Agg>,
    /// Self time per span id when set-up ended.
    setup_self_ns: Vec<u64>,
    stack: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    op_id: u32,
}

/// The recorder. All methods take `&self`: a selector that records spans
/// is borrowed by the overlay while the overlay call is itself in a span.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    inner: RefCell<Inner>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            inner: RefCell::new(Inner {
                agg: vec![Agg::default(); Sp::ALL.len()],
                setup_self_ns: vec![0; Sp::ALL.len()],
                stack: Vec::with_capacity(32),
                spans: Vec::with_capacity(if enabled { STORED_CAP } else { 0 }),
                dropped: 0,
                op_id: 0,
            }),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Marks the end of set-up: layer busy times count from here, so
    /// they add up to the traced rounds' wall time. (Means such as
    /// `overlay.ecan_build_s` still see the set-up's spans.)
    pub fn end_setup(&self) {
        let mut g = self.inner.borrow_mut();
        let inner = &mut *g;
        for (at_setup, agg) in inner.setup_self_ns.iter_mut().zip(&inner.agg) {
            *at_setup = agg.self_ns;
        }
    }

    /// Tags spans stored from now on with `op_id`.
    pub fn set_op(&self, op_id: u32) {
        self.inner.borrow_mut().op_id = op_id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` in a span that is aggregated and stored.
    pub fn span<R>(&self, sp: Sp, f: impl FnOnce() -> R) -> R {
        self.record(sp, true, f)
    }

    /// Runs `f` in a span that is aggregated in place and not stored.
    pub fn op<R>(&self, sp: Sp, f: impl FnOnce() -> R) -> R {
        self.record(sp, false, f)
    }

    #[inline]
    fn record<R>(&self, sp: Sp, store: bool, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        self.open(sp, store);
        let out = f();
        self.close();
        out
    }

    fn open(&self, sp: Sp, store: bool) {
        let start_ns = self.now_ns();
        let mut g = self.inner.borrow_mut();
        let inner = &mut *g;
        let stored = if !store {
            None
        } else if inner.spans.len() < STORED_CAP {
            let parent = inner.stack.iter().rev().find_map(|o| o.stored);
            inner.spans.push(Span {
                sp,
                start_ns,
                end_ns: start_ns,
                parent,
                op_id: inner.op_id,
            });
            Some((inner.spans.len() - 1) as u32)
        } else {
            inner.dropped += 1;
            None
        };
        inner.stack.push(Open {
            sp,
            start_ns,
            child_ns: 0,
            stored,
        });
    }

    fn close(&self) {
        let end_ns = self.now_ns();
        let mut g = self.inner.borrow_mut();
        let inner = &mut *g;
        let open = inner.stack.pop().expect("close without open");
        let dur = end_ns - open.start_ns;
        let a = &mut inner.agg[open.sp as usize];
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(open.child_ns);
        if dur > SLOW_NS {
            a.slow_count += 1;
            a.slow_ns += dur;
        }
        if let Some(i) = open.stored {
            inner.spans[i as usize].end_ns = end_ns;
        }
        if let Some(parent) = inner.stack.last_mut() {
            parent.child_ns += dur;
        }
    }

    pub fn agg(&self, sp: Sp) -> Agg {
        self.inner.borrow().agg[sp as usize]
    }

    /// Self time of every span of `layer` since set-up ended, in seconds.
    pub fn busy_s(&self, layer: Layer) -> f64 {
        let inner = self.inner.borrow();
        Sp::ALL
            .iter()
            .filter(|sp| sp.layer() == layer)
            .map(|&sp| inner.agg[sp as usize].self_ns - inner.setup_self_ns[sp as usize])
            .sum::<u64>() as f64
            / 1e9
    }

    /// Wall time of the traced rounds: every span after set-up sits under
    /// a `bench.round`, so the layers' busy times add up to this.
    pub fn rounds_wall_s(&self) -> f64 {
        self.agg(Sp::Round).total_ns as f64 / 1e9
    }

    /// Durations (ns) of the stored spans of `sp`.
    pub fn stored_durations_ns(&self, sp: Sp) -> Vec<f64> {
        self.inner
            .borrow()
            .spans
            .iter()
            .filter(|s| s.sp == sp)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// The per-layer table over the traced rounds: busy (= self) seconds,
    /// share of the rounds' wall time, spans and self time per span.
    pub fn layer_table(&self) -> String {
        let wall_s = self.rounds_wall_s();
        let mut out = format!(
            "{:<10} {:>10} {:>8} {:>12} {:>12}\n",
            "layer", "busy_s", "share", "spans", "self_ns/span"
        );
        let mut sum_s = 0.0;
        for layer in Layer::ALL {
            let busy_s = self.busy_s(layer);
            let spans: u64 = Sp::ALL
                .iter()
                .filter(|sp| sp.layer() == layer)
                .map(|&sp| self.agg(sp).count)
                .sum();
            sum_s += busy_s;
            out.push_str(&format!(
                "{:<10} {:>10.4} {:>7.1}% {:>12} {:>12.0}\n",
                layer.name(),
                busy_s,
                100.0 * busy_s / wall_s.max(1e-12),
                spans,
                if spans == 0 {
                    0.0
                } else {
                    busy_s * 1e9 / spans as f64
                },
            ));
        }
        out.push_str(&format!(
            "{:<10} {:>10.4} {:>7.1}% of {:.4} s traced wall\n",
            "sum",
            sum_s,
            100.0 * sum_s / wall_s.max(1e-12),
            wall_s
        ));
        out
    }

    /// The per-span table under the per-layer one.
    pub fn span_table(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = format!(
            "{:<38} {:>10} {:>10} {:>10} {:>12}\n",
            "span", "count", "total_s", "self_s", "mean_ns"
        );
        for &sp in Sp::ALL {
            let a = inner.agg[sp as usize];
            if a.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<38} {:>10} {:>10.4} {:>10.4} {:>12.0}\n",
                sp.name(),
                a.count,
                a.total_ns as f64 / 1e9,
                a.self_ns as f64 / 1e9,
                a.mean_ns(),
            ));
        }
        out
    }

    /// The dump written to `trace-<workload>.json`: stored spans as
    /// `{name, layer, start_ns, end_ns, parent, op_id}` plus the in-place
    /// aggregates of every span id.
    pub fn dump(&self) -> Json {
        let inner = self.inner.borrow();
        let spans = inner
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.sp.name().into())),
                    ("layer", Json::Str(s.sp.layer().name().into())),
                    ("start_ns", Json::Int(s.start_ns as i64)),
                    ("end_ns", Json::Int(s.end_ns as i64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Int(i64::from(p))),
                    ),
                    ("op_id", Json::Int(i64::from(s.op_id))),
                ])
            })
            .collect();
        let aggregates = Sp::ALL
            .iter()
            .filter(|&&sp| inner.agg[sp as usize].count > 0)
            .map(|&sp| {
                let a = inner.agg[sp as usize];
                Json::obj([
                    ("name", Json::Str(sp.name().into())),
                    ("layer", Json::Str(sp.layer().name().into())),
                    ("count", Json::Int(a.count as i64)),
                    ("total_ns", Json::Int(a.total_ns as i64)),
                    ("self_ns", Json::Int(a.self_ns as i64)),
                ])
            })
            .collect();
        Json::obj([
            ("spans_dropped", Json::Int(inner.dropped as i64)),
            ("aggregates", Json::Arr(aggregates)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let tr = Tracer::new(true);
        tr.span(Sp::CoreJoinNode, || {
            spin(200_000);
            tr.span(Sp::SsPublish, || spin(300_000));
            tr.op(Sp::TopoMeasure, || spin(100_000));
        });
        let outer = tr.agg(Sp::CoreJoinNode);
        let publish = tr.agg(Sp::SsPublish);
        let measure = tr.agg(Sp::TopoMeasure);
        assert_eq!((outer.count, publish.count, measure.count), (1, 1, 1));
        assert!(publish.total_ns >= 300_000 && measure.total_ns >= 100_000);
        assert_eq!(
            outer.self_ns,
            outer.total_ns - publish.total_ns - measure.total_ns
        );
        assert_eq!(measure.slow_count, 1, "100 µs is past the miss threshold");
        // Layer busy time is self time, so layers never double count.
        let sum: f64 = Layer::ALL.iter().map(|&l| tr.busy_s(l)).sum();
        assert!((sum - outer.total_ns as f64 / 1e9).abs() < 1e-9);
    }

    #[test]
    fn ops_are_aggregated_but_not_stored() {
        let tr = Tracer::new(true);
        tr.set_op(7);
        tr.span(Sp::Round, || {
            for _ in 0..100 {
                tr.op(Sp::OvRouteInto, || ());
            }
            tr.span(Sp::SimRunUntil, || ());
        });
        assert_eq!(tr.agg(Sp::OvRouteInto).count, 100);
        let dump = tr.dump();
        let spans = dump.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent"), Some(&Json::Int(0)));
        assert_eq!(spans[1].get("op_id"), Some(&Json::Int(7)));
        assert_eq!(spans[1].get("layer").and_then(Json::as_str), Some("sim"));
        assert_eq!(tr.stored_durations_ns(Sp::SimRunUntil).len(), 1);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.span(Sp::Round, || 5), 5);
        assert_eq!(tr.agg(Sp::Round).count, 0);
    }

    #[test]
    fn span_names_carry_their_layer() {
        for &sp in Sp::ALL {
            assert!(
                sp.name().starts_with(sp.layer().name()),
                "{} is filed under {}",
                sp.name(),
                sp.layer().name()
            );
        }
    }
}
