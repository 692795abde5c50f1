//! CLI driver: `tao-lint --workspace [--json <out>] [--baseline <file>]
//! [--write-baseline <out>]`.
//!
//! Runs the full analysis ([`lint_workspace`]) over the manifest-derived
//! file set and `crate-layering` over the member manifests, prints one
//! `path:line:col: rule: message` line per unwaived finding plus a
//! per-rule summary, optionally writes the stable JSON report, and —
//! when a baseline is given — exits nonzero only if the run *differs*
//! from the committed baseline (new findings or stale entries).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use tao_lint::report::{diff_baseline, parse_baseline, render_baseline, render_json};
use tao_lint::rules::{layering_findings, lint_workspace, SourceFile, ALL_RULES};
use tao_lint::walk::{member_manifests, workspace_sources};

fn main() -> ExitCode {
    run().unwrap_or_else(|e| {
        eprintln!("tao-lint: {e}");
        ExitCode::FAILURE
    })
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn write(path: &Path, text: String) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn run() -> Result<ExitCode, String> {
    let (mut json_out, mut baseline, mut write_baseline): (Option<PathBuf>, _, _) =
        (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            // The workspace is the only input; the flag names it.
            "--workspace" => continue,
            "--json" => &mut json_out,
            "--baseline" => &mut baseline,
            "--write-baseline" => &mut write_baseline,
            "--help" | "-h" => {
                println!(
                    "usage: tao-lint --workspace [--json <out>] [--baseline <file>] \
                     [--write-baseline <out>]"
                );
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        };
        let value = args.next().ok_or(format!("{arg} needs a path argument"))?;
        *slot = Some(PathBuf::from(value));
    }

    let root = Path::new(".");
    let walk_error = |e: std::io::Error| format!("cannot walk workspace: {e}");
    let mut inputs: Vec<SourceFile> = Vec::new();
    for w in workspace_sources(root).map_err(walk_error)? {
        inputs.push(SourceFile {
            source: read(&w.path)?,
            path: w.path.display().to_string(),
            krate: w.krate,
            kind: w.kind,
        });
    }
    let report = lint_workspace(&inputs);
    let mut findings = report.findings;
    for path in member_manifests(root).map_err(walk_error)? {
        findings.extend(layering_findings(
            &path.display().to_string(),
            &read(&path)?,
        ));
    }
    findings.sort_by(|a, b| a.order().cmp(&b.order()));

    for f in &findings {
        println!("{}", f.render());
    }
    println!("tao-lint: {} files checked", report.files);
    for rule in ALL_RULES {
        let f = findings.iter().filter(|f| f.rule == rule).count();
        let w = report.waived.iter().filter(|(r, _, _)| *r == rule).count();
        println!("  {:<20} {f:>3} finding(s) {w:>3} waiver(s)", rule.name());
    }

    if let Some(out) = &json_out {
        write(out, render_json(&findings, report.files))?;
        println!("tao-lint: wrote {}", out.display());
    }
    if let Some(out) = &write_baseline {
        write(out, render_baseline(&findings))?;
        println!("tao-lint: wrote baseline {}", out.display());
    }
    if let Some(path) = &baseline {
        let entries = parse_baseline(&read(path)?)
            .map_err(|e| format!("bad baseline {}: {e}", path.display()))?;
        let diff = diff_baseline(&findings, &entries);
        if diff.is_clean() {
            println!(
                "tao-lint: matches baseline ({} acknowledged finding(s))",
                entries.values().sum::<u64>()
            );
            return Ok(ExitCode::SUCCESS);
        }
        print!("{}", diff.render());
        println!("tao-lint: baseline mismatch");
        return Ok(ExitCode::FAILURE);
    }

    if findings.is_empty() {
        println!("tao-lint: clean");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("tao-lint: {} finding(s)", findings.len());
        Ok(ExitCode::FAILURE)
    }
}
