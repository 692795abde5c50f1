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
    // One comment, two rules: a wall-clock read unwrapped in place is a
    // `no-wall-clock` site and a `no-unwrap-in-lib` site on one line, and
    // a pragma listing both silences both.
    let src = "use std::time::{SystemTime, UNIX_EPOCH};\n\
               pub fn stamp() -> u64 {\n    \
               SystemTime::now().duration_since(UNIX_EPOCH).expect(\"clock after 1970\").as_secs() \
               // tao-lint: allow(no-wall-clock, no-unwrap-in-lib, reason = \"fixture: both rules on one line\")\n\
               }\n";
    let report = lint_one("crates/topology/src/multi.rs", "tao-topology", src);
    assert!(
        report.findings.is_empty(),
        "multi-rule pragma must waive both rules: {:?}",
        rendered(&report)
    );
    assert!(report
        .waived
        .iter()
        .any(|(r, _, _)| *r == Rule::NoWallClock));
    assert!(report
        .waived
        .iter()
        .any(|(r, _, _)| *r == Rule::NoUnwrapInLib));
}
