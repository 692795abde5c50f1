//! Golden test for the hot-path passes (alloc-reachability +
//! arith-safety): each pass must fire on its violation fixture with the
//! exact expected positions, messages, and hot-entry witness chains, and
//! stay quiet on its clean fixture.

mod workspace_harness;

use tao_lint::rules::{FileKind, Rule};
use workspace_harness::{lint_one, rendered, Suite};

const SUITE: Suite = Suite {
    fixtures: &[
        (
            "crates/overlay/src/alloc_violation.rs",
            "tao-overlay",
            FileKind::Lib,
            include_str!("lint_fixtures/alloc_violation.rs"),
        ),
        (
            "crates/overlay/src/alloc_clean.rs",
            "tao-overlay",
            FileKind::Lib,
            include_str!("lint_fixtures/alloc_clean.rs"),
        ),
        (
            "crates/sim/src/arith_violation.rs",
            "tao-sim",
            FileKind::Lib,
            include_str!("lint_fixtures/arith_violation.rs"),
        ),
        (
            "crates/sim/src/arith_clean.rs",
            "tao-sim",
            FileKind::Lib,
            include_str!("lint_fixtures/arith_clean.rs"),
        ),
    ],
    golden: include_str!("lint_fixtures/expected_hotpath.txt"),
    golden_file: "expected_hotpath.txt",
    rules: &[Rule::AllocReachability, Rule::ArithSafety],
};

#[test]
fn hotpath_findings_match_golden_file() {
    SUITE.assert_golden();
}

#[test]
fn clean_fixtures_stay_quiet() {
    SUITE.assert_clean_fixtures_quiet();
}

#[test]
fn both_hotpath_rules_fire_somewhere() {
    SUITE.assert_every_rule_fires();
}

#[test]
fn hotpath_keys_are_line_free() {
    SUITE.assert_keys_line_free();
}

#[test]
fn alloc_finding_carries_the_hot_entry_chain() {
    // The `.push(` site in `record` is one hop from the hot entry; the
    // message must name the entry and walk the chain down to the owner.
    let report = SUITE.report();
    let growth = report
        .findings
        .iter()
        .find(|f| f.rule == Rule::AllocReachability && f.key.ends_with(":growth"))
        .expect("growth fixture must fire");
    assert!(
        growth
            .message
            .contains("hot closure of `Table::lookup_fast`"),
        "hot entry missing from: {}",
        growth.message
    );
    assert!(
        growth
            .message
            .contains("Table::lookup_fast → Table::record"),
        "witness chain missing from: {}",
        growth.message
    );
}

#[test]
fn all_three_arith_kinds_fire_in_the_violation_fixture() {
    let report = SUITE.report();
    for kind in ["time-arith", "truncating-cast", "index-arith"] {
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.rule == Rule::ArithSafety && f.key.ends_with(kind)),
            "arith kind `{kind}` did not fire"
        );
    }
}

#[test]
fn hot_marker_stacks_with_allow_pragmas_on_one_item() {
    // `advance_fast` carries a stacked hot marker AND a
    // panic-reachability waiver on the lines above the `fn`; both must
    // attach to it — the entry is hot (arith findings exist) and the
    // indexing panic is waived (no panic-reachability finding).
    let report = SUITE.report();
    assert!(
        report
            .findings
            .iter()
            .all(|f| f.rule != Rule::PanicReachability),
        "stacked waiver failed to attach: {:?}",
        rendered(&report)
    );
    assert!(report
        .waived
        .iter()
        .any(|(r, _, _)| *r == Rule::PanicReachability));
}

#[test]
fn site_waiver_silences_the_alloc_finding() {
    // A waiver at the allocation site (not the entry point) discharges
    // the finding, mirroring how the runtime crates acknowledge legal
    // amortized growth.
    let src = "pub struct B { v: Vec<u64> }\n\
               impl B {\n    \
               // tao-lint: hot\n    \
               pub fn hot_append(&mut self, x: u64) {\n        \
               self.v.push(x); // tao-lint: allow(alloc-reachability, reason = \"fixture: amortized growth\")\n    \
               }\n}\n";
    let report = lint_one("crates/overlay/src/site_waiver.rs", "tao-overlay", src);
    assert!(
        report.findings.is_empty(),
        "site waiver must silence the finding: {:?}",
        rendered(&report)
    );
    assert!(report
        .waived
        .iter()
        .any(|(r, _, _)| *r == Rule::AllocReachability));
}

#[test]
fn unmarked_workspace_produces_no_hotpath_findings() {
    // Without any `hot` marker the closure is empty: the passes are
    // strictly opt-in and cannot fire on unannotated code.
    let src = "pub struct P { v: Vec<u64> }\n\
               impl P {\n    \
               pub fn append(&mut self, x: u64) {\n        \
               self.v.push(x);\n    \
               }\n}\n";
    let report = lint_one("crates/overlay/src/unmarked.rs", "tao-overlay", src);
    assert!(
        report
            .findings
            .iter()
            .all(|f| !SUITE.rules.contains(&f.rule)),
        "hot-path rule fired without a hot marker: {:?}",
        rendered(&report)
    );
}
