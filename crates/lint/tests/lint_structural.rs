//! Golden test for the structural source rules: each rule must fire on
//! its violation fixture with the exact expected positions and messages,
//! and stay quiet on its clean fixture. `crate-layering` reads manifests,
//! not sources; `rules.rs` tests it.

mod workspace_harness;

use tao_lint::rules::{FileKind, Rule};
use workspace_harness::Suite;

const SUITE: Suite = Suite {
    fixtures: &[
        (
            "crates/core/src/seed_violation.rs",
            "tao-core",
            FileKind::Lib,
            include_str!("lint_fixtures/seed_violation.rs"),
        ),
        (
            "crates/core/src/seed_clean.rs",
            "tao-core",
            FileKind::Lib,
            include_str!("lint_fixtures/seed_clean.rs"),
        ),
        (
            "crates/overlay/src/panic_reach_violation.rs",
            "tao-overlay",
            FileKind::Lib,
            include_str!("lint_fixtures/panic_reach_violation.rs"),
        ),
        (
            "crates/overlay/src/panic_reach_clean.rs",
            "tao-overlay",
            FileKind::Lib,
            include_str!("lint_fixtures/panic_reach_clean.rs"),
        ),
        (
            "crates/overlay/src/unused_waiver_violation.rs",
            "tao-overlay",
            FileKind::Lib,
            include_str!("lint_fixtures/unused_waiver_violation.rs"),
        ),
        (
            "crates/overlay/src/unused_waiver_clean.rs",
            "tao-overlay",
            FileKind::Lib,
            include_str!("lint_fixtures/unused_waiver_clean.rs"),
        ),
    ],
    golden: include_str!("lint_fixtures/expected_structural.txt"),
    golden_file: "expected_structural.txt",
    rules: &[
        Rule::PanicReachability,
        Rule::SeedDiscipline,
        Rule::UnusedWaiver,
    ],
};

#[test]
fn structural_findings_match_golden_file() {
    SUITE.assert_golden();
}

#[test]
fn clean_fixtures_stay_quiet() {
    SUITE.assert_clean_fixtures_quiet();
}

#[test]
fn every_structural_rule_fires_somewhere() {
    SUITE.assert_every_rule_fires();
}

#[test]
fn structural_keys_are_line_free() {
    SUITE.assert_keys_line_free();
}

#[test]
fn entry_pragmas_count_as_waivers() {
    let report = SUITE.report();
    assert!(
        report.waived.iter().any(|(rule, path, _)| {
            *rule == Rule::PanicReachability && path.ends_with("panic_reach_clean.rs")
        }),
        "the acknowledged entry in panic_reach_clean.rs must be a waiver, got {:?}",
        report.waived
    );
}
