//! Golden test: every rule must fire on its violation fixture with the
//! exact expected positions and messages, and stay quiet on its clean
//! fixture. The expected output lives next to the fixtures in
//! `lint_fixtures/expected_findings.txt`; on mismatch the test prints
//! the actual output so the golden can be updated deliberately.

use tao_lint::rules::{lint_source, FileKind, Rule};

/// Every fixture, with the file kind it is linted as. Violation and
/// clean fixtures are interleaved so the golden shows each rule firing
/// and then staying quiet.
const FIXTURES: &[(&str, &str, FileKind)] = &[
    (
        "det_collections_violation.rs",
        include_str!("lint_fixtures/det_collections_violation.rs"),
        FileKind::Lib,
    ),
    (
        "det_collections_clean.rs",
        include_str!("lint_fixtures/det_collections_clean.rs"),
        FileKind::Lib,
    ),
    (
        "wall_clock_violation.rs",
        include_str!("lint_fixtures/wall_clock_violation.rs"),
        FileKind::Lib,
    ),
    (
        "wall_clock_clean.rs",
        include_str!("lint_fixtures/wall_clock_clean.rs"),
        FileKind::Lib,
    ),
    (
        "unwrap_violation.rs",
        include_str!("lint_fixtures/unwrap_violation.rs"),
        FileKind::Lib,
    ),
    (
        "unwrap_clean.rs",
        include_str!("lint_fixtures/unwrap_clean.rs"),
        FileKind::Lib,
    ),
    (
        "pragma_cases.rs",
        include_str!("lint_fixtures/pragma_cases.rs"),
        FileKind::Lib,
    ),
];

const GOLDEN: &str = include_str!("lint_fixtures/expected_findings.txt");

#[test]
fn findings_match_golden_file() {
    let mut actual = String::new();
    for (name, source, kind) in FIXTURES {
        for finding in lint_source(name, source, *kind).findings {
            actual.push_str(&finding.render());
            actual.push('\n');
        }
    }
    assert_eq!(
        actual.trim_end(),
        GOLDEN.trim_end(),
        "\n--- actual findings ---\n{actual}\n--- update lint_fixtures/expected_findings.txt if this change is intended ---"
    );
}

#[test]
fn clean_fixtures_stay_quiet() {
    for (name, source, kind) in FIXTURES {
        if name.ends_with("_clean.rs") {
            let report = lint_source(name, source, *kind);
            assert!(
                report.findings.is_empty(),
                "{name} should be clean but produced: {:?}",
                report.findings
            );
        }
    }
}

#[test]
fn every_token_rule_fires_somewhere() {
    // The structural rules (panic-reachability, crate-layering,
    // seed-discipline, unused-waiver) need workspace context and are
    // exercised by `tests/lint_structural.rs` instead.
    let mut fired: Vec<Rule> = Vec::new();
    for (name, source, kind) in FIXTURES {
        for f in lint_source(name, source, *kind).findings {
            if !fired.contains(&f.rule) {
                fired.push(f.rule);
            }
        }
    }
    for rule in tao_lint::rules::TOKEN_RULES {
        assert!(
            fired.contains(&rule),
            "no fixture exercises rule `{}`",
            rule.name()
        );
    }
}

#[test]
fn valid_pragmas_are_counted_as_waivers() {
    let (_, source, kind) = FIXTURES
        .iter()
        .find(|(name, _, _)| *name == "unwrap_clean.rs")
        .expect("fixture list contains unwrap_clean.rs");
    let report = lint_source("unwrap_clean.rs", source, *kind);
    let waived: Vec<u32> = report.waived.iter().map(|(_, line)| *line).collect();
    assert_eq!(waived, vec![4, 9], "both pragma forms must waive");
    assert!(report
        .waived
        .iter()
        .all(|(rule, _)| *rule == Rule::NoUnwrapInLib));
}

#[test]
fn malformed_pragmas_do_not_waive() {
    let (_, source, kind) = FIXTURES
        .iter()
        .find(|(name, _, _)| *name == "pragma_cases.rs")
        .expect("fixture list contains pragma_cases.rs");
    let report = lint_source("pragma_cases.rs", source, *kind);
    assert!(report.waived.is_empty());
    let unwraps = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::NoUnwrapInLib)
        .count();
    let bad = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::BadPragma)
        .count();
    assert_eq!(unwraps, 3, "all three unwraps must still fire");
    assert_eq!(bad, 3, "all three pragmas are malformed");
}
