//! Flash-crowd sweep: grows a CAN overlay to a million nodes with
//! flash-crowd join bursts applied in batch order, and reports the median
//! per-batch time, the total, and the final [`ChurnState::fingerprint`].
//!
//! The growth is a function of [`SEED`] alone, so the fingerprint is held
//! to a pinned constant at both scales. `TAO_SCALE=mini` shrinks the
//! target to 32,768 nodes for smoke runs.

use std::time::{Duration, Instant};

use tao_bench::{f3, print_table, Scale};
use tao_core::churn::ChurnState;
use tao_core::Summary;
use tao_sim::{FaultPlan, SimDuration, SimTime};

/// Overlay dimensionality for the sweep (the paper's CAN experiments
/// run d = 2).
const DIMS: usize = 2;
/// Bootstrap nodes joined before the first timed batch.
const BOOTSTRAP: u64 = 1_024;
/// Master seed of the growth.
const SEED: u64 = 0xf1a5_c0de;
/// Final state digest at paper scale (10^6 nodes, batches of 8,192).
const PAPER_FINGERPRINT: u64 = 0x09f8_55d3_d73c_639f;
/// Final state digest at mini scale (32,768 nodes, batches of 2,048).
const MINI_FINGERPRINT: u64 = 0x64c9_fde1_8c86_29a4;

fn main() {
    let scale = Scale::from_env();
    let (target, batch_size, pinned): (u64, usize, u64) = match scale {
        Scale::Paper => (1_000_000, 8_192, PAPER_FINGERPRINT),
        Scale::Mini => (32_768, 2_048, MINI_FINGERPRINT),
    };
    eprintln!("fig_flashcrowd: target {target} nodes, batches of {batch_size}");

    let mut state = ChurnState::new(DIMS, SEED, BOOTSTRAP);
    let mut batch_ms = Summary::new();
    let mut total = Duration::ZERO;
    let mut next_label = BOOTSTRAP;
    while next_label < target {
        let count = batch_size.min((target - next_label) as usize);
        // A fresh per-batch plan seed keeps the join-point streams
        // distinct across batches (op seeds restart at 0 inside each
        // batch).
        let batch = FaultPlan::new(SEED ^ next_label).flash_crowd(
            DIMS,
            count,
            next_label,
            SimTime::ORIGIN,
            SimDuration::from_secs(30),
        );
        next_label += count as u64;
        let t = Instant::now(); // tao-lint: allow(no-wall-clock, reason = "bench binary measures real elapsed time by design")
        state.apply_batch(&batch);
        let took = t.elapsed();
        total += took;
        batch_ms.add(took.as_secs_f64() * 1e3);
        if batch_ms.count() % 16 == 0 || next_label == target {
            eprintln!(
                "fig_flashcrowd: batch {} ({} live)",
                batch_ms.count(),
                state.live_len(),
            );
        }
    }
    let fingerprint = state.fingerprint();
    assert_eq!(
        fingerprint, pinned,
        "flash-crowd growth diverged from the pinned fingerprint"
    );

    print_table(
        &format!(
            "Flash-crowd growth to {} nodes ({} batches of {batch_size})",
            state.live_len(),
            batch_ms.count(),
        ),
        &["median ms/batch", "total s", "fingerprint"],
        &[vec![
            f3(batch_ms.percentile(0.5)),
            f3(total.as_secs_f64()),
            format!("{fingerprint:#018x}"),
        ]],
    );
}
