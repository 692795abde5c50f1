//! `--compare A B`: the no-regression rule over two directories of
//! result sets (A the parent, B the change; at least five passes each).
//!
//! Per workload × end-to-end metric it prints both medians and quartile
//! spreads, how much worse B's median is as a share of A's, the bound,
//! and a verdict: `within`, `outside` (worse by more than the bound) or
//! `unresolved` (a side's spread is wider than the bound, unless every
//! run of B reads better than every run of A). Runs of one workload at
//! one seed must also agree on the fingerprints of the rounds they both
//! completed. Exits non-zero on `outside` or on differing fingerprints.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats;
use crate::workloads;

const MIN_PASSES: usize = 5;

/// One untraced result file.
struct Pass {
    workload: String,
    seed: i64,
    metrics: BTreeMap<String, f64>,
    fingerprints: Vec<String>,
}

fn read_pass(path: &Path) -> Option<Pass> {
    let doc = Json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    if doc.get("trace") != Some(&Json::Bool(false)) || doc.get("scale")?.as_str()? != "full" {
        return None;
    }
    Some(Pass {
        workload: doc.get("workload")?.as_str()?.to_string(),
        seed: doc.get("seed")?.as_f64()? as i64,
        metrics: doc
            .get("metrics")?
            .as_obj()?
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        fingerprints: doc
            .get("fingerprints")?
            .as_arr()?
            .iter()
            .filter_map(|f| f.as_str().map(String::from))
            .collect(),
    })
}

/// Every result file in `dir` and its immediate sub-directories (one
/// sub-directory per pass is the layout `run.sh --out` produces).
fn read_set(dir: &Path) -> Vec<Pass> {
    let mut files = Vec::new();
    let mut dirs = vec![dir.to_path_buf()];
    for depth in 0..2 {
        for d in std::mem::take(&mut dirs) {
            let Ok(entries) = std::fs::read_dir(&d) else {
                continue;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() && depth == 0 {
                    dirs.push(path);
                } else if path.extension().is_some_and(|e| e == "json") {
                    files.push(path);
                }
            }
        }
    }
    files.sort();
    files.iter().filter_map(|f| read_pass(f)).collect()
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Within,
    Outside,
    Unresolved,
}

/// The rule, on the values of one metric. `higher` says which way is
/// better; the result also carries how much worse B's median is.
fn judge(a: &[f64], b: &[f64], higher: bool, bound: f64) -> (Verdict, f64) {
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    let worse_by = if higher {
        (med_a - med_b) / med_a
    } else {
        (med_b - med_a) / med_a
    };
    let b_always_better = if higher {
        b.iter().copied().fold(f64::INFINITY, f64::min)
            > a.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    } else {
        b.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            < a.iter().copied().fold(f64::INFINITY, f64::min)
    };
    let verdict = if (stats::spread(a) > bound || stats::spread(b) > bound) && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Outside
    } else {
        Verdict::Within
    };
    (verdict, worse_by)
}

/// Pairs of runs (same workload, same seed) that disagree on a round
/// both completed.
fn fingerprint_conflicts(passes: &[&Pass]) -> usize {
    let mut conflicts = 0;
    for (i, p) in passes.iter().enumerate() {
        for q in &passes[i + 1..] {
            if p.workload == q.workload
                && p.seed == q.seed
                && p.fingerprints
                    .iter()
                    .zip(&q.fingerprints)
                    .any(|(x, y)| x != y)
            {
                conflicts += 1;
            }
        }
    }
    conflicts
}

pub fn run(dir_a: &Path, dir_b: &Path) -> ExitCode {
    let (set_a, set_b) = (read_set(dir_a), read_set(dir_b));
    let mut failed = false;
    println!(
        "{:<13} {:<16} {:>13} {:>7} {:>13} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "iqr A", "median B", "iqr B", "worse by", "bound"
    );
    for workload in workloads::NAMES {
        let of = |set: &[Pass], metric: &str| -> Vec<f64> {
            set.iter()
                .filter(|p| p.workload == workload)
                .filter_map(|p| p.metrics.get(metric).copied())
                .collect()
        };
        for &(metric, _, better, bound) in END_TO_END {
            let (a, b) = (of(&set_a, metric), of(&set_b, metric));
            if a.len() < MIN_PASSES || b.len() < MIN_PASSES {
                println!(
                    "{workload:<13} {metric:<16} needs {MIN_PASSES} passes a side, has {} and {}",
                    a.len(),
                    b.len()
                );
                failed = true;
                continue;
            }
            let (verdict, worse_by) = judge(&a, &b, better == "higher", bound);
            println!(
                "{workload:<13} {metric:<16} {:>13.4} {:>6.1}% {:>13.4} {:>6.1}% {:>+7.1}% {:>5.0}%  {}",
                stats::median(&a),
                100.0 * stats::spread(&a),
                stats::median(&b),
                100.0 * stats::spread(&b),
                100.0 * worse_by,
                100.0 * bound,
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Outside => "outside",
                    Verdict::Unresolved => "unresolved",
                },
            );
            failed |= verdict == Verdict::Outside;
        }
    }
    let all: Vec<&Pass> = set_a.iter().chain(&set_b).collect();
    let conflicts = fingerprint_conflicts(&all);
    if conflicts > 0 {
        println!("fingerprints: {conflicts} pair(s) of runs at one seed disagree on a round both completed");
        failed = true;
    } else {
        println!("fingerprints: runs at one seed agree on every round they share");
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_regression_past_the_bound_is_outside() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(judge(&a, &slower, false, 0.10).0, Verdict::Outside);
        assert_eq!(judge(&a, &slower, false, 0.25).0, Verdict::Within);
        // The same numbers as a rate: higher is better, so B improved.
        let (verdict, worse_by) = judge(&a, &slower, true, 0.10);
        assert_eq!(verdict, Verdict::Within);
        assert!(worse_by < 0.0);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_always_wins() {
        let noisy = [100.0, 80.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(&noisy, &[100.0; 5], false, 0.10).0,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &[50.0, 51.0, 49.0, 50.0, 50.0], false, 0.10).0,
            Verdict::Within
        );
    }

    #[test]
    fn fingerprints_compare_on_the_shared_prefix() {
        let pass = |seed, fps: &[&str]| Pass {
            workload: "fig_build".into(),
            seed,
            metrics: BTreeMap::new(),
            fingerprints: fps.iter().map(|s| s.to_string()).collect(),
        };
        let (short, long, other) = (
            pass(1, &["a", "b"]),
            pass(1, &["a", "b", "c"]),
            pass(1, &["a", "x"]),
        );
        let other_seed = pass(2, &["z"]);
        assert_eq!(fingerprint_conflicts(&[&short, &long, &other_seed]), 0);
        assert_eq!(fingerprint_conflicts(&[&short, &long, &other]), 2);
    }
}
