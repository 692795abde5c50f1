//! Golden test for the determinism-taint pass: the rule must fire on its
//! violation fixture with the exact expected position, message, and
//! witness chain, and stay quiet on its clean fixture. Also home of the
//! multi-rule pragma test.

mod workspace_harness;

use tao_lint::rules::{FileKind, Rule};
use workspace_harness::{lint_one, rendered, Suite};

const SUITE: Suite = Suite {
    fixtures: &[
        (
            "crates/core/src/taint_violation.rs",
            "tao-core",
            FileKind::Lib,
            include_str!("lint_fixtures/taint_violation.rs"),
        ),
        (
            "crates/core/src/taint_clean.rs",
            "tao-core",
            FileKind::Lib,
            include_str!("lint_fixtures/taint_clean.rs"),
        ),
    ],
    golden: include_str!("lint_fixtures/expected_dataflow.txt"),
    golden_file: "expected_dataflow.txt",
    rules: &[Rule::DeterminismTaint],
};

#[test]
fn dataflow_findings_match_golden_file() {
    SUITE.assert_golden();
}

#[test]
fn clean_fixtures_stay_quiet() {
    SUITE.assert_clean_fixtures_quiet();
}

#[test]
fn every_dataflow_rule_fires_somewhere() {
    SUITE.assert_every_rule_fires();
}

#[test]
fn dataflow_keys_are_line_free() {
    SUITE.assert_keys_line_free();
}

#[test]
fn taint_finding_carries_the_full_witness_chain() {
    let report = SUITE.report();
    let taint = report
        .findings
        .iter()
        .find(|f| f.rule == Rule::DeterminismTaint)
        .expect("taint fixture must fire");
    assert!(
        taint
            .message
            .contains("report_fingerprint → tuning_knob → knob_from_env"),
        "witness chain missing from: {}",
        taint.message
    );
    assert!(
        taint.message.contains("taint_violation.rs:15"),
        "source position missing from: {}",
        taint.message
    );
}

#[test]
fn multi_rule_pragma_waives_each_listed_rule() {
    // One comment, two rules: a fingerprint fn that reaches both a panic
    // and an env read is a `panic-reachability` entry and a
    // `determinism-taint` sink on one line, and a pragma listing both
    // silences both.
    let src = "// tao-lint: allow(panic-reachability, determinism-taint, reason = \"fixture: both rules on one line\")\n\
               pub fn stamp_fingerprint(v: &[u64]) -> u64 {\n    \
               v[0] ^ std::env::var(\"SALT\").map(|s| s.len() as u64).unwrap_or(0)\n\
               }\n";
    let report = lint_one("crates/core/src/multi.rs", "tao-core", src);
    assert!(
        report.findings.is_empty(),
        "multi-rule pragma must waive both rules: {:?}",
        rendered(&report)
    );
    for rule in [Rule::PanicReachability, Rule::DeterminismTaint] {
        assert!(
            report.waived.iter().any(|(r, _, _)| *r == rule),
            "{rule:?} not waived: {:?}",
            report.waived
        );
    }
}
