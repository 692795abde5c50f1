//! Property test: the full workspace lint report — every finding as
//! printed, then the baseline it would write — must be byte-identical
//! across repeated runs and across `TAO_WORKERS` settings. The lint
//! *checks* determinism, so it had better be deterministic itself — any
//! ordering leak (hash iteration, filesystem enumeration order, worker
//! scheduling) would churn the committed baseline diff.

use std::path::Path;

use tao_lint::report::render_baseline;
use tao_lint::rules::{lint_workspace, SourceFile};
use tao_lint::walk::workspace_sources;

/// Walks the real workspace and renders its findings and baseline.
fn run_once() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let walked = workspace_sources(&root).expect("workspace walk");
    let inputs: Vec<SourceFile> = walked
        .iter()
        .map(|w| SourceFile {
            path: w.path.display().to_string(),
            krate: w.krate.clone(),
            kind: w.kind,
            source: std::fs::read_to_string(root.join(&w.path)).expect("readable source"),
        })
        .collect();
    let report = lint_workspace(&inputs);
    let findings = report.findings.iter().map(|f| f.render() + "\n");
    findings.collect::<String>() + &render_baseline(&report.findings)
}

#[test]
fn report_is_byte_identical_across_runs_and_worker_settings() {
    let baseline = run_once();
    assert!(!baseline.is_empty());

    // Repeated run, same environment.
    assert_eq!(baseline, run_once(), "repeated run diverged");

    // Runs under different TAO_WORKERS settings: the report must not
    // depend on the parallelism knob in any way.
    for workers in ["1", "8"] {
        std::env::set_var("TAO_WORKERS", workers);
        assert_eq!(baseline, run_once(), "TAO_WORKERS={workers} diverged");
    }
    std::env::remove_var("TAO_WORKERS");
    assert_eq!(baseline, run_once(), "run after env cleanup diverged");
}
