//! Deterministic fork-join parallelism for experiment sweeps.
//!
//! [`par_map`] fans a task list out over scoped threads and returns the
//! results in input order, so a sweep's output is a pure function of its
//! inputs — byte-identical no matter how many workers ran it. Seeds must
//! be derived per task (from a master seed and the task's index), never
//! drawn from a shared RNG as the tasks run, or determinism is lost.
//!
//! [`workers`] reads the `TAO_WORKERS` environment variable so every
//! sweep binary honours one knob.

/// The worker count for parallel sweeps, from the `TAO_WORKERS`
/// environment variable.
///
/// Defaults to the machine's available parallelism (or 1 when that is
/// unknown). Sweep output is byte-identical for any worker count — the
/// knob only trades wall-clock for cores.
///
/// # Panics
///
/// Panics on a value that is not a positive integer.
pub fn workers() -> usize {
    match std::env::var("TAO_WORKERS").as_deref() {
        Err(_) | Ok("") => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        Ok(s) => match s.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => panic!("TAO_WORKERS must be a positive integer, got `{s}`"),
        },
    }
}

/// Maps `f` over `items` on up to `workers` scoped threads, preserving
/// order. Results arrive as if by `items.iter().map(f)`, but wall-clock
/// drops by the parallelism the machine offers.
///
/// Workers steal work in chunks — several items per lock acquisition —
/// so fine-grained sweeps don't serialise on the queue lock; chunks
/// shrink to single items when there are few items per worker, keeping
/// the tail balanced.
///
/// # Panics
///
/// Panics if `workers` is zero or a worker thread panics.
#[expect(clippy::expect_used, reason = "every slot is filled")]
pub fn par_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    assert!(workers > 0, "need at least one worker");
    // One worker (or at most one item) degenerates to a plain map: run
    // inline and skip the scoped-thread machinery entirely. The result
    // is identical by construction — par_map is order-preserving — so
    // this is pure overhead removal for the single-core/single-item
    // cases.
    if workers == 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    // ~8 steals per worker balances lock traffic against tail latency.
    let chunk = (n / (workers * 8)).max(1);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let work: std::sync::Mutex<Vec<(usize, T)>> =
        std::sync::Mutex::new(items.into_iter().enumerate().rev().collect());
    let results: std::sync::Mutex<Vec<(usize, R)>> = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(n.max(1)))
            .map(|_| {
                scope.spawn(|| loop {
                    // A panicked worker poisons the queue; unwrap_or_else
                    // lets the rest drain it so the panic surfaces via join.
                    let batch: Vec<(usize, T)> = {
                        let mut q = work.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
                        let take = chunk.min(q.len());
                        let at = q.len() - take;
                        q.split_off(at)
                    };
                    if batch.is_empty() {
                        break;
                    }
                    // The queue is reversed, so the batch tail is the
                    // earliest item; run in reverse for cache-friendly
                    // ascending order (slots make order immaterial).
                    let mut done: Vec<(usize, R)> = Vec::with_capacity(batch.len());
                    for (i, item) in batch.into_iter().rev() {
                        done.push((i, f(item)));
                    }
                    results
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .extend(done);
                })
            })
            .collect();
        // Propagate the first worker panic with its original payload,
        // rather than swallowing it behind a generic scope error.
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    for (i, r) in results.into_inner().unwrap_or_else(|p| p.into_inner()) {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every slot is filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::{par_map, workers};

    #[test]
    fn preserves_order_and_covers_all_items() {
        let out = par_map((0..100).collect::<Vec<i32>>(), 8, |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<i32>>());
    }

    #[test]
    fn single_worker_degenerates_to_map() {
        let out = par_map(vec!["a", "bb"], 1, |s| s.len());
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn chunked_stealing_matches_sequential_map_across_shapes() {
        // Property sweep: every (len, workers) shape must agree with the
        // sequential map, including lens that don't divide into chunks.
        for len in [0usize, 1, 2, 3, 7, 16, 63, 64, 65, 257, 1000] {
            for workers in [1usize, 2, 3, 8, 17, 64] {
                let items: Vec<u64> = (0..len as u64).collect();
                let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
                let got = par_map(items, workers, |x| x * x + 1);
                assert_eq!(got, expect, "len={len} workers={workers}");
            }
        }
    }

    #[test]
    fn workers_reads_env_or_defaults() {
        // Can't set env vars safely under the parallel test harness; at
        // least pin down the default path's contract.
        assert!(workers() >= 1);
    }

    #[test]
    fn worker_panics_propagate_with_their_payload() {
        let caught = std::panic::catch_unwind(|| {
            par_map(vec![1, 2, 3], 2, |x| {
                if x == 2 {
                    panic!("boom on {x}");
                }
                x
            })
        });
        let payload = caught.expect_err("worker panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom on 2"), "payload lost: {msg}");
    }
}
