//! The one fixture harness behind the `lint_workspace` golden tests
//! (`lint_structural.rs`, `lint_dataflow.rs`, `lint_hotpath.rs`). Each
//! file is a [`Suite`] table — fixtures linted as a synthetic
//! mini-workspace (the paths and crate names don't exist on disk;
//! `lint_workspace` only sees what it is handed), its golden, and the
//! rules it must exercise — plus the assertions specific to its rules.
//! The golden is therefore stable regardless of the real workspace.

// Each test binary compiles this module and uses a subset of it.
#![allow(dead_code)]

use tao_lint::rules::{lint_workspace, FileKind, Rule, SourceFile, WorkspaceReport};

/// `(path, crate, kind, source)` of one fixture file.
pub type Fixture = (&'static str, &'static str, FileKind, &'static str);

/// One golden-tested family of workspace rules.
pub struct Suite {
    /// The fixtures, linted together as one workspace.
    pub fixtures: &'static [Fixture],
    /// The expected `Finding::render` lines, in report order.
    pub golden: &'static str,
    /// The golden's file name under `lint_fixtures/`, for the mismatch
    /// message.
    pub golden_file: &'static str,
    /// The rules the suite exists for: each must fire on some fixture,
    /// and each must key its findings without line numbers.
    pub rules: &'static [Rule],
}

impl Suite {
    /// The report of linting every fixture as one workspace.
    pub fn report(&self) -> WorkspaceReport {
        let sources: Vec<SourceFile> = self
            .fixtures
            .iter()
            .map(|(path, krate, kind, source)| SourceFile {
                path: path.to_string(),
                krate: krate.to_string(),
                kind: *kind,
                source: source.to_string(),
            })
            .collect();
        lint_workspace(&sources)
    }

    /// Every finding, rendered, matches the golden file line for line.
    pub fn assert_golden(&self) {
        let actual = rendered(&self.report()).join("\n");
        assert_eq!(
            actual,
            self.golden.trim_end(),
            "\n--- actual findings ---\n{actual}\n--- update lint_fixtures/{} if this change is intended ---",
            self.golden_file
        );
    }

    /// No `*_clean.rs` fixture produces a finding.
    pub fn assert_clean_fixtures_quiet(&self) {
        for f in &self.report().findings {
            assert!(
                !f.path.ends_with("_clean.rs"),
                "clean fixture produced a finding: {}",
                f.render()
            );
        }
    }

    /// Every rule of the suite fires on some fixture.
    pub fn assert_every_rule_fires(&self) {
        let report = self.report();
        for rule in self.rules {
            assert!(
                report.findings.iter().any(|f| f.rule == *rule),
                "no fixture exercises rule `{}`",
                rule.name()
            );
        }
    }

    /// The suite's rules key their findings without line numbers, so the
    /// committed baseline does not churn when unrelated edits shift code.
    pub fn assert_keys_line_free(&self) {
        for f in self
            .report()
            .findings
            .iter()
            .filter(|f| self.rules.contains(&f.rule))
        {
            assert!(
                !f.key.contains(&format!(":{}", f.line)),
                "key `{}` embeds line {}",
                f.key,
                f.line
            );
        }
    }
}

/// Lints one library source as the whole workspace.
pub fn lint_one(path: &str, krate: &str, source: &str) -> WorkspaceReport {
    lint_workspace(&[SourceFile {
        path: path.to_string(),
        krate: krate.to_string(),
        kind: FileKind::Lib,
        source: source.to_string(),
    }])
}

/// Every finding of `report`, rendered.
pub fn rendered(report: &WorkspaceReport) -> Vec<String> {
    report.findings.iter().map(|f| f.render()).collect()
}
