//! What the four workloads share: the run configuration, the report
//! they hand back, output checks, fingerprints, seeded sub-streams and
//! the set-up / round-loop timing.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::stats;

/// Problem sizes. `Full` is the benchmark; `Smoke` shrinks every
/// population so all four workloads and their traces run in seconds
/// (unit tests, a quick look). Only `Full` numbers are comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// One invocation of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    /// How long the timed region measures. A time-bounded workload runs
    /// rounds until it has elapsed (the round in flight finishes); a
    /// replayed one sizes its passes from it (`rounds_per_pass`).
    pub measure: Duration,
    pub scale: Scale,
}

/// Counts checked operations: every output check goes through here, so
/// `ops_failed` is a share of `ops_attempted`, never a bare number.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool) {
        self.add(1, u64::from(!ok));
    }

    /// `attempted` operations of which `failed` failed, counted in a
    /// timed loop and booked after it.
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Whether `f` (a `check_invariants()` that panics on the first
/// violation) runs to the end. The panic message still reaches stderr.
pub fn holds(f: impl FnOnce()) -> bool {
    catch_unwind(AssertUnwindSafe(f)).is_ok()
}

/// FNV-1a over the simulated statistics of a round. Host-independent:
/// nothing timed ever enters it.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) -> &mut Fnv {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn f64(&mut self, x: f64) -> &mut Fnv {
        self.u64(x.to_bits())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// SplitMix-style mixer deriving a sub-seed from (master, stream, index),
/// so every input stream of a workload is independent of the others.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ index.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Builds the fixture and returns it with the build's wall time, one
/// sample of the run's `setup_s`. `churn_mix`, whose rounds change the
/// fixture, sets up once per pass and reports the median; the others set
/// up once (`fig_build`'s cells leave the topology as it was; the other
/// two set-ups take 6–9 s, too long to repeat inside a run).
pub fn timed_setup<F>(build: impl FnOnce() -> F) -> (F, f64) {
    let t = Instant::now();
    let fixture = build();
    (fixture, t.elapsed().as_secs_f64())
}

/// Calls `round(k)` for k = 0, 1, … until `measure` has elapsed (at
/// least once). Returns the number of rounds run.
pub fn run_rounds(measure: Duration, mut round: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut k = 0;
    loop {
        round(k);
        k += 1;
        if start.elapsed() >= measure {
            return k;
        }
    }
}

/// How many times a *replayed* workload executes its rounds: each pass
/// starts from an identical fixture and runs the same rounds on the same
/// inputs, so execution *r* of round *k* does exactly the work of every
/// other execution of round *k*, and a timing sample's value is the
/// fastest of its executions.
///
/// Interference on a shared box only ever slows a sample, in spells of
/// 1–5 s here; the passes put seconds between the executions of one
/// round, so a spell spoils at most one of them. What is left is summed
/// over the run's rounds (not picked from them), so the seed's draw —
/// which nodes a round's operations happen to hit moves a `churn_mix`
/// round by ±15 % — averages out instead of being selected on.
pub const PASSES: usize = 3;

/// Rounds in one pass of a replayed workload. `per_second` is the
/// workload's undisturbed round rate on the reference box, so the passes
/// together measure for about `measure` there — and the run does the same
/// work wherever and however fast it runs: memory and the state the
/// rounds accumulate depend on `--seconds`, not on the machine's mood.
pub fn rounds_per_pass(measure: Duration, per_second: f64) -> usize {
    ((measure.as_secs_f64() * per_second / PASSES as f64).round() as usize).max(1)
}

/// Keeps in `fastest` the element-wise minimum of it and `again`, the
/// same samples taken on another pass.
pub fn keep_fastest(fastest: &mut [f64], again: &[f64]) {
    assert_eq!(fastest.len(), again.len(), "passes took different samples");
    for (f, &a) in fastest.iter_mut().zip(again) {
        *f = f.min(a);
    }
}

/// The quantile of per-round rates a *time-bounded* workload reports
/// (and, mirrored, the 0.1 quantile of per-round latencies): the
/// *favourable decile*. For workloads whose fixture takes too long to
/// build three times and whose rounds all cost the same (requests drawn
/// against a population so large that the draw does not matter).
///
/// Interference on a shared box only ever slows a sample. This one (a
/// 2-vCPU VM) shows two speeds — alone, and ~0.7× while a neighbour is
/// busy — in spells of 1–5 s that cover anything from a fifth to most of
/// a run, so a median over rounds lands in one mode or the other from run
/// to run (measured: 25 % quartile spread on identical work). The
/// favourable decile sits in the undisturbed mode as long as a tenth of
/// the rounds ran alone, and a real regression still moves it, because it
/// slows every round.
const FAVOURABLE: f64 = 0.9;

/// The three workload-generic end-to-end metrics a workload computes
/// (see the README for what each means on each workload). `setup_s` and
/// `peak_rss_mib` are added by `main`.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    pub primary_per_s: f64,
    pub secondary_per_s: f64,
    pub op_p50_ms: f64,
}

impl EndToEnd {
    /// From one sample per round of each: the two batch rates and the
    /// round's median operation latency (seconds).
    pub fn from_rounds(primary_rates: &[f64], secondary_rates: &[f64], op_p50_s: &[f64]) -> Self {
        EndToEnd {
            primary_per_s: stats::percentile(primary_rates, FAVOURABLE),
            secondary_per_s: stats::percentile(secondary_rates, FAVOURABLE),
            op_p50_ms: stats::percentile(op_p50_s, 1.0 - FAVOURABLE) * 1e3,
        }
    }
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Wall time of the set-up.
    pub setup_s: f64,
    /// Rounds run; on a replayed workload, the rounds of one pass.
    pub rounds: usize,
    pub checks: Checks,
    /// One fingerprint per round, in round order. Round k's inputs and
    /// simulated statistics depend only on the seed and k, so two runs of
    /// one commit agree on their common prefix however fast each ran.
    pub fingerprints: Vec<u64>,
    pub end_to_end: EndToEnd,
    /// Named per-layer values from the traced run, keyed as in
    /// `metrics::per_layer()`; anything not set prints as 0 (layer idle).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Extra `name value unit` lines worth printing (sample counts,
    /// workload-specific latencies); not part of the contract line.
    pub notes: Vec<(String, f64, &'static str)>,
    /// Wall time of the measured region.
    pub wall_s: f64,
}

impl Report {
    pub fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.notes.push((name.to_string(), value, unit));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.per_layer.insert(name, value);
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_count_failures_against_attempts() {
        let mut c = Checks::default();
        c.check(true);
        c.check(false);
        c.check(true);
        assert_eq!((c.attempted, c.failed), (3, 1));
    }

    #[test]
    fn holds_turns_a_panic_into_false() {
        assert!(holds(|| ()));
        assert!(!holds(|| panic!("expected by this test")));
    }

    #[test]
    fn fingerprints_depend_on_order_and_value() {
        let a = Fnv::new().u64(1).u64(2).finish();
        let b = Fnv::new().u64(2).u64(1).finish();
        assert_ne!(a, b);
        assert_eq!(a, Fnv::new().u64(1).u64(2).finish());
        assert_ne!(
            Fnv::new().f64(1.0).finish(),
            Fnv::new().f64(1.0 + f64::EPSILON).finish()
        );
    }

    #[test]
    fn sub_seeds_are_distinct_per_stream_and_index() {
        let seeds = [mix(1, 0, 0), mix(1, 0, 1), mix(1, 1, 0), mix(2, 0, 0)];
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn setup_is_timed_and_rounds_run_at_least_once() {
        let (fixture, setup_s) = timed_setup(|| std::thread::sleep(Duration::from_millis(2)));
        assert_eq!(fixture, ());
        assert!(setup_s >= 0.002);
        assert_eq!(run_rounds(Duration::ZERO, |_| ()), 1);
        let mut seen = Vec::new();
        assert_eq!(
            run_rounds(Duration::from_millis(5), |k| {
                std::thread::sleep(Duration::from_millis(2));
                seen.push(k);
            }),
            3
        );
        assert_eq!(seen, [0, 1, 2]);
    }

    #[test]
    fn passes_share_the_run_and_keep_each_sample_s_fastest_execution() {
        assert_eq!(rounds_per_pass(Duration::from_secs(30), 1.0), 30 / PASSES);
        assert_eq!(rounds_per_pass(Duration::ZERO, 1.0), 1);
        let mut fastest = [3.0, 1.0, 2.0];
        keep_fastest(&mut fastest, &[2.0, 2.0, 2.0]);
        assert_eq!(fastest, [2.0, 1.0, 2.0]);
    }

    #[test]
    fn end_to_end_takes_the_favourable_decile() {
        let rates: Vec<f64> = (1..=10).map(f64::from).collect();
        let latencies: Vec<f64> = rates.iter().map(|r| r / 1e3).collect();
        let e = EndToEnd::from_rounds(&rates, &[5.0], &latencies);
        assert_eq!(e.primary_per_s, 9.0);
        assert_eq!(e.secondary_per_s, 5.0);
        assert_eq!(e.op_p50_ms, 1.0);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mib() > 0.0);
    }
}
