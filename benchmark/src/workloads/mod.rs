//! The four workloads. Each stresses different layers, so every later
//! optimisation has a workload that exercises its mechanism and one that
//! bypasses it (where the prediction is: no change).

use tao_topology::{generate_transit_stub, LatencyAssignment, Topology, TransitStubParams};

use crate::harness::{Config, Report, Scale};
use crate::trace::Tracer;

pub mod churn_mix;
pub mod fig_build;
pub mod route_replay;
pub mod scale_churn;

/// In `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["fig_build", "route_replay", "churn_mix", "scale_churn"];

/// Runs `workload`, or `None` for an unknown name.
pub fn run(workload: &str, cfg: &Config, tr: &Tracer) -> Option<Report> {
    Some(match workload {
        "fig_build" => fig_build::run(cfg, tr),
        "route_replay" => route_replay::run(cfg, tr),
        "churn_mix" => churn_mix::run(cfg, tr),
        "scale_churn" => scale_churn::run(cfg, tr),
        _ => return None,
    })
}

/// Seeds the *fixtures*: the router topology and the systems set-up
/// builds on it. They are the benchmark's fixed environment, the same in
/// every run, like the one tsk-large instance behind all the paper's
/// figures. `--seed` drives everything that is measured against them:
/// cell seeds, request streams, operation schedules, fault draws.
/// (Measured when fixtures still followed `--seed`: cell time moved ±10 %
/// from topology to topology, three times the machine's own noise, and a
/// regression bound has to resolve changes smaller than that.)
const FIXTURE_SEED: u64 = 0x7a0_2003;

/// The router topology under the three workloads that have one: the
/// paper's tsk-large (10,016 routers, manual latencies), or its mini
/// preset for smoke runs.
fn topology(scale: Scale) -> Topology {
    let params = match scale {
        Scale::Full => TransitStubParams::tsk_large(),
        Scale::Smoke => TransitStubParams::tsk_large_mini(),
    };
    generate_transit_stub(&params, LatencyAssignment::manual(), FIXTURE_SEED)
}

/// The traced replay did not reproduce the opaque run's simulated
/// statistics: the library's logic changed under `traced.rs`. The trace
/// would describe a different computation, so refuse it; the end-to-end
/// run (`--trace 0`) stays valid.
fn refuse_trace(workload: &str, opaque: u64, traced: u64) -> ! {
    eprintln!(
        "{workload}: the traced replay's fingerprint {traced:#018x} differs from the opaque \
         run's {opaque:#018x}; update benchmark/src/traced.rs to follow the library"
    );
    std::process::exit(3);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn smoke(workload: &str, seed: u64, traced: bool) -> Report {
        // Zero seconds: one round.
        let cfg = Config {
            seed,
            measure: Duration::ZERO,
            scale: Scale::Smoke,
        };
        let tr = Tracer::new(traced);
        let mut report = run(workload, &cfg, &tr).expect("a known workload");
        if traced {
            crate::metrics::fill_from_trace(&tr, &mut report);
        }
        report
    }

    /// Simulated statistics are host-independent: one seed, one
    /// fingerprint; another seed, another. And nothing fails.
    #[test]
    fn smoke_runs_do_not_fail_and_fingerprints_are_stable() {
        for workload in NAMES {
            let (a, again, b) = (
                smoke(workload, 1, false),
                smoke(workload, 1, false),
                smoke(workload, 2, false),
            );
            assert!(a.checks.attempted > 0, "{workload} checked nothing");
            assert_eq!(
                (a.checks.failed, b.checks.failed),
                (0, 0),
                "{workload} failed operations"
            );
            assert_eq!(
                a.fingerprints[0], again.fingerprints[0],
                "{workload} is not deterministic"
            );
            assert_ne!(
                a.fingerprints[0], b.fingerprints[0],
                "{workload} ignores its seed"
            );
            for value in [
                a.end_to_end.primary_per_s,
                a.end_to_end.secondary_per_s,
                a.end_to_end.op_p50_ms,
            ] {
                assert!(
                    value > 0.0 && value.is_finite(),
                    "{workload} reports {value}"
                );
            }
        }
    }

    /// The traced replay computes what the opaque entry points compute
    /// (it exits the process otherwise) and fills its layer's metrics.
    #[test]
    fn traced_smoke_runs_reproduce_the_fingerprints() {
        for (workload, busy) in [
            ("fig_build", "softstate.busy_s"),
            ("route_replay", "overlay.busy_s"),
            ("churn_mix", "softstate.busy_s"),
            ("scale_churn", "sim.busy_s"),
        ] {
            let (plain, traced) = (smoke(workload, 3, false), smoke(workload, 3, true));
            assert_eq!(plain.fingerprints[0], traced.fingerprints[0], "{workload}");
            assert_eq!(traced.checks.failed, 0, "{workload} failed operations");
            assert!(
                traced.per_layer[busy] > 0.0,
                "{workload} recorded no {busy}"
            );
        }
    }

    #[test]
    fn unknown_workloads_are_refused() {
        let cfg = Config {
            seed: 1,
            measure: Duration::ZERO,
            scale: Scale::Smoke,
        };
        assert!(run("nope", &cfg, &Tracer::new(false)).is_none());
    }
}
