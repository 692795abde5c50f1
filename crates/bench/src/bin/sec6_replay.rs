//! PR-9 million-request replay: the §6 load-aware machinery driven at
//! closest-replica request rates through the zero-allocation routing
//! engine.
//!
//! The sweep runs twice — once with one worker, once with `TAO_WORKERS`
//! — over identical [`ReplaySpec`]s. Both runs must produce byte-identical
//! reports (the binary asserts the fingerprints match before printing), so
//! the parallel fan-out is provably an execution detail; the routed
//! request rates of both runs go to stderr. `TAO_SCALE=mini` shrinks the
//! request count for smoke runs.

use tao_bench::replay::{sec6_replay_report, ReplaySpec};
use tao_bench::Scale;

fn main() {
    let scale = Scale::from_env();
    let spec = ReplaySpec::at_scale(scale);
    let workers = tao_util::par::workers();
    eprintln!(
        "sec6_replay: {} requests/row over {} nodes, serial then {} workers",
        spec.requests, spec.nodes, workers,
    );

    let serial = sec6_replay_report(&spec, 1);
    let parallel = sec6_replay_report(&spec, workers);
    assert_eq!(
        serial.fingerprint, parallel.fingerprint,
        "serial and parallel replays diverged",
    );

    print!("{}", parallel.report);
    println!("REPLAY_FINGERPRINT {:#018x}", parallel.fingerprint);

    let serial_total: f64 = serial.round_ns.iter().sum();
    let parallel_total: f64 = parallel.round_ns.iter().sum();
    eprintln!(
        "sec6_replay: {:.0} routed req/s serial, {:.0} routed req/s with {} workers",
        serial.routed as f64 / (serial_total / 1e9).max(1e-9),
        parallel.routed as f64 / (parallel_total / 1e9).max(1e-9),
        workers,
    );
}
