//! Golden test for the pragma mechanics every waivable rule shares:
//! malformed pragmas (missing reason, empty reason, unknown rule) are
//! `bad-pragma` findings with exact positions and messages and waive
//! nothing, while both valid forms waive. The fixtures lean on
//! `panic-reachability`; the expected output lives in
//! `lint_fixtures/expected_pragmas.txt`.

mod workspace_harness;

use tao_lint::rules::{FileKind, Rule};
use workspace_harness::Suite;

const SUITE: Suite = Suite {
    fixtures: &[
        (
            "crates/overlay/src/pragma_cases.rs",
            "tao-overlay",
            FileKind::Lib,
            include_str!("lint_fixtures/pragma_cases.rs"),
        ),
        (
            "crates/overlay/src/pragma_clean.rs",
            "tao-overlay",
            FileKind::Lib,
            include_str!("lint_fixtures/pragma_clean.rs"),
        ),
    ],
    golden: include_str!("lint_fixtures/expected_pragmas.txt"),
    golden_file: "expected_pragmas.txt",
    rules: &[Rule::BadPragma],
};

#[test]
fn findings_match_golden_file() {
    SUITE.assert_golden();
}

#[test]
fn clean_fixtures_stay_quiet() {
    SUITE.assert_clean_fixtures_quiet();
}

#[test]
fn valid_pragmas_are_counted_as_waivers() {
    let waived: Vec<(Rule, u32)> = SUITE
        .report()
        .waived
        .into_iter()
        .filter(|(_, path, _)| path.ends_with("pragma_clean.rs"))
        .map(|(rule, _, line)| (rule, line))
        .collect();
    assert_eq!(
        waived,
        vec![(Rule::PanicReachability, 5), (Rule::PanicReachability, 9)],
        "both pragma forms must waive"
    );
}

#[test]
fn malformed_pragmas_do_not_waive() {
    let report = SUITE.report();
    let in_cases = |rule: Rule| {
        report
            .findings
            .iter()
            .filter(|f| f.rule == rule && f.path.ends_with("pragma_cases.rs"))
            .count()
    };
    assert!(!report
        .waived
        .iter()
        .any(|(_, path, _)| path.ends_with("pragma_cases.rs")));
    assert_eq!(
        in_cases(Rule::PanicReachability),
        3,
        "all three entries must still fire"
    );
    assert_eq!(
        in_cases(Rule::BadPragma),
        3,
        "all three pragmas are malformed"
    );
}
