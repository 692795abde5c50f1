//! A minimal seeded property-test harness — the in-tree `proptest`
//! replacement.
//!
//! Design: no strategy combinators. Each case gets a
//! [`StdRng`](crate::rand::rngs::StdRng) seeded deterministically from the
//! case index; the property draws its own inputs from it. The one input
//! shape that shrinks is a generated *sequence* ([`for_all_sequences`]),
//! because a failing 60-step operation history is unreadable and its
//! failing core is usually three steps. On failure the
//! harness reports the property name, case number, and **the offending
//! seed**, so a failure reproduces with a one-line unit test:
//!
//! ```text
//! property 'round_trip' failed at case 17 (seed 0x243F6A8885A308D3); rerun
//! with TAO_PT_SEED=0x243F6A8885A308D3 or StdRng::seed_from_u64(…)
//! ```
//!
//! ```
//! use tao_util::check::for_all;
//! use tao_util::{check, rand::Rng};
//!
//! for_all("addition_commutes", 64, |rng| {
//!     let (a, b): (u32, u32) = (rng.gen(), rng.gen());
//!     check!(a.wrapping_add(b) == b.wrapping_add(a), "a={a} b={b}");
//! });
//! ```
//!
//! Environment knobs:
//!
//! * `TAO_PT_CASES` — override the case count of every `for_all` (e.g. `1`
//!   for a smoke pass, `10000` for a soak).
//! * `TAO_PT_SEED` — run exactly one case with the given seed (decimal or
//!   `0x…` hex): the reproduction knob.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::rand::rngs::StdRng;
use crate::rand::SeedableRng;

/// Asserts a property inside a [`for_all`] body, with context.
///
/// `check!(cond)` panics with the stringified condition; `check!(cond,
/// fmt…)` appends a formatted message (typically the drawn inputs, since
/// there is no shrinker to rediscover them).
#[macro_export]
macro_rules! check {
    ($cond:expr) => {
        if !$cond {
            panic!("check failed: {}", stringify!($cond));
        }
    };
    ($cond:expr, $($arg:tt)+) => {
        if !$cond {
            panic!("check failed: {}: {}", stringify!($cond), format_args!($($arg)+));
        }
    };
}

/// Asserts equality with both values in the failure message.
#[macro_export]
macro_rules! check_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            panic!(
                "check failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            );
        }
    }};
    ($left:expr, $right:expr, $($arg:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            panic!(
                "check failed: {} == {}: {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                format_args!($($arg)+),
                l,
                r
            );
        }
    }};
}

/// Asserts inequality with the offending value in the failure message.
#[macro_export]
macro_rules! check_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            panic!(
                "check failed: {} != {}\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                l
            );
        }
    }};
}

/// The seed for case `i`: SplitMix64's own output function over the index,
/// so consecutive cases get well-separated, stable seeds.
pub fn case_seed(case: u32) -> u64 {
    crate::rand::rngs::StdRng::mix((case as u64).wrapping_add(0x5851_F42D_4C95_7F2D))
}

/// Runs `property` against `cases` deterministic seeded inputs.
///
/// Honours `TAO_PT_CASES` / `TAO_PT_SEED` (see module docs).
///
/// # Panics
///
/// Re-raises the property's panic after printing the offending seed.
pub fn for_all<F>(name: &str, cases: u32, property: F)
where
    F: Fn(&mut StdRng),
{
    if let Ok(seed) = std::env::var("TAO_PT_SEED") {
        let seed = parse_seed(&seed);
        run_case(name, 0, seed, &property);
        return;
    }
    let cases = std::env::var("TAO_PT_CASES")
        .ok()
        .and_then(|c| c.parse().ok())
        .unwrap_or(cases);
    for case in 0..cases {
        run_case(name, case, case_seed(case), &property);
    }
}

/// [`for_all`] for properties of a generated *sequence* (typically an
/// operation history run against a model), with shrinking: when
/// `property` panics on a generated sequence, elements are deleted —
/// halves first, then ever smaller runs, down to single elements — for as
/// long as the rest still fails, and the panic is re-raised from that
/// minimal sequence after printing it.
///
/// `property` must take everything it does from the sequence itself (no
/// draws of its own), so a subsequence is a meaningful input.
///
/// # Panics
///
/// Re-raises the property's panic on the shrunk sequence.
pub fn for_all_sequences<T, G, P>(name: &str, cases: u32, generate: G, property: P)
where
    T: Clone + std::fmt::Debug,
    G: Fn(&mut StdRng) -> Vec<T>,
    P: Fn(&[T]),
{
    for_all(name, cases, |rng| {
        let fails = |seq: &[T]| catch_unwind(AssertUnwindSafe(|| property(seq))).is_err();
        let mut failing = generate(rng);
        if !fails(&failing) {
            return;
        }
        let mut run = failing.len().div_ceil(2);
        while run >= 1 {
            let mut at = 0;
            while at < failing.len() {
                let mut shorter = failing.clone();
                shorter.drain(at..(at + run).min(failing.len()));
                if fails(&shorter) {
                    failing = shorter;
                } else {
                    at += run;
                }
            }
            run /= 2;
        }
        eprintln!(
            "property '{name}' still fails on this shrunk sequence of {} step(s):\n{failing:#?}",
            failing.len()
        );
        property(&failing);
        panic!("property '{name}': the shrunk sequence stopped failing (flaky property?)");
    });
}

fn parse_seed(s: &str) -> u64 {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.unwrap_or_else(|_| panic!("TAO_PT_SEED must be decimal or 0x-hex, got `{s}`"))
}

fn run_case<F>(name: &str, case: u32, seed: u64, property: &F)
where
    F: Fn(&mut StdRng),
{
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut rng = StdRng::seed_from_u64(seed);
        property(&mut rng);
    }));
    if let Err(payload) = result {
        eprintln!(
            "property '{name}' failed at case {case} (seed {seed:#x}); \
             rerun with TAO_PT_SEED={seed:#x} or StdRng::seed_from_u64({seed:#x})"
        );
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rand::Rng;

    #[test]
    fn passing_property_runs_every_case() {
        let counter = std::sync::atomic::AtomicU32::new(0);
        for_all("counts", 50, |_rng| {
            counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 50);
    }

    #[test]
    fn cases_see_distinct_seeded_streams() {
        let firsts = std::cell::RefCell::new(crate::det::DetSet::new());
        let all_distinct = std::cell::Cell::new(true);
        for_all("distinct", 32, |rng| {
            let x: u64 = rng.gen();
            if !firsts.borrow_mut().insert(x) {
                all_distinct.set(false);
            }
        });
        assert!(all_distinct.get(), "case streams must differ");
    }

    #[test]
    fn failure_reports_the_offending_seed() {
        // The property fails on every case; the harness must re-raise and
        // the panic payload must be the check!'s message.
        let caught = std::panic::catch_unwind(|| {
            for_all("always_fails", 4, |rng| {
                let x: u64 = rng.gen();
                check!(x.count_ones() > u64::BITS, "drew {x}");
            });
        });
        let payload = caught.expect_err("property must fail");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("string panic payload");
        assert!(msg.contains("check failed"), "got: {msg}");
    }

    #[test]
    fn failing_sequences_shrink_to_their_failing_core() {
        // Fails exactly when a 7 comes somewhere before a 13: whatever else
        // the generated sequence holds, the re-raised failure must come from
        // `[7, 13]`.
        let last_failing = std::sync::Mutex::new(Vec::new());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for_all_sequences(
                "seven_before_thirteen",
                8,
                |rng| {
                    let mut seq: Vec<u8> = (0..40).map(|_| rng.gen_range(0..30)).collect();
                    seq.insert(rng.gen_range(0..20), 7);
                    seq.push(13);
                    seq
                },
                |seq| {
                    let seven = seq.iter().position(|&x| x == 7);
                    let bad = seven.is_some_and(|i| seq[i..].contains(&13));
                    if bad {
                        *last_failing.lock().unwrap() = seq.to_vec();
                    }
                    check!(!bad);
                },
            );
        }));
        assert!(caught.is_err(), "property must fail");
        assert_eq!(*last_failing.lock().unwrap(), vec![7, 13]);
    }

    #[test]
    fn passing_sequences_are_left_alone() {
        let runs = std::sync::atomic::AtomicU32::new(0);
        for_all_sequences(
            "never_fails",
            5,
            |rng| (0..10).map(|_| rng.gen::<u8>()).collect::<Vec<_>>(),
            |_| {
                runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            },
        );
        assert_eq!(runs.load(std::sync::atomic::Ordering::Relaxed), 5);
    }

    #[test]
    fn seeds_are_stable_across_runs() {
        // case_seed is part of the reproducibility contract: pin it.
        assert_eq!(case_seed(0), case_seed(0));
        assert_ne!(case_seed(0), case_seed(1));
        let golden = case_seed(17);
        let mut rng = StdRng::seed_from_u64(golden);
        let a: u64 = rng.gen();
        let mut rng2 = StdRng::seed_from_u64(golden);
        let b: u64 = rng2.gen();
        assert_eq!(a, b);
    }

    #[test]
    fn check_eq_shows_both_sides() {
        let caught = std::panic::catch_unwind(|| {
            check_eq!(1 + 1, 3);
        });
        let payload = caught.expect_err("must fail");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("left") && msg.contains("right"), "got: {msg}");
    }
}
