//! Micro-benchmarks of the soft-state maps: publish, the Table-1 lookup,
//! TTL expiry sweeps, and wire encoding.

use tao_landmark::{LandmarkGrid, LandmarkVector};
use tao_overlay::{OverlayNodeId, Zone};
use tao_sim::{SimDuration, SimTime};
use tao_softstate::{NodeInfo, SoftStateConfig, SoftStateEntry, ZoneMap};
use tao_topology::NodeIdx;
use tao_util::bench::{bench_fn, bench_with_setup, black_box};

fn config() -> SoftStateConfig {
    let grid = LandmarkGrid::new(3, 5, SimDuration::from_millis(320)).expect("valid grid");
    SoftStateConfig::builder(grid).build()
}

fn info(id: u32, cfg: &SoftStateConfig) -> NodeInfo {
    let base = (id % 97) as f64 * 3.0 + 1.0;
    let vector = LandmarkVector::from_millis(&[base, base * 1.7, base * 0.4]);
    let number = cfg.grid().landmark_number(&vector, cfg.curve());
    NodeInfo {
        node: OverlayNodeId(id),
        underlay: NodeIdx(id),
        vector,
        number,
        load: None,
    }
}

fn filled_map(n: u32, cfg: &SoftStateConfig) -> ZoneMap {
    let mut map = ZoneMap::new(Zone::whole(2), cfg);
    for i in 0..n {
        map.publish(info(i, cfg), SimTime::ORIGIN, cfg);
    }
    map
}

fn bench_publish() {
    let cfg = config();
    let base = filled_map(1_024, &cfg);
    bench_with_setup(
        "map_publish_into_1k",
        || base.clone(),
        |mut map| {
            map.publish(info(99_999, &cfg), SimTime::ORIGIN, &cfg);
            map
        },
    );
}

fn bench_lookup() {
    let cfg = config();
    let map = filled_map(1_024, &cfg);
    let q = info(500_000, &cfg);
    bench_fn("map_lookup_table1_1k", || {
        black_box(map.lookup(
            black_box(&q.vector),
            black_box(q.number),
            10,
            64,
            SimTime::ORIGIN,
        ));
    });
}

fn bench_expire() {
    let cfg = config();
    let base = filled_map(1_024, &cfg);
    let later = SimTime::ORIGIN + cfg.ttl() + SimDuration::from_secs(1);
    bench_with_setup("map_expire_sweep_1k", || base.clone(), |mut map| map.expire(later));
}

fn bench_wire() {
    let cfg = config();
    let entry = SoftStateEntry {
        info: info(7, &cfg),
        position: tao_overlay::Point::new(vec![0.25, 0.75]).expect("valid point"),
        expires_at: SimTime::from_micros(1_000_000),
    };
    bench_fn("entry_encode", || {
        black_box(black_box(&entry).encode());
    });
    let bytes = entry.encode();
    bench_fn("entry_decode", || {
        black_box(SoftStateEntry::decode(black_box(&bytes)));
    });
}

fn main() {
    bench_publish();
    bench_lookup();
    bench_expire();
    bench_wire();
}
