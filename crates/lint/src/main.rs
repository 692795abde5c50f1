//! CLI driver: `tao-lint --workspace [--json <out>] [--baseline <file>]`
//! or `tao-lint <paths…>`.
//!
//! Workspace mode runs the full structural analysis ([`lint_workspace`])
//! over the manifest-derived file set, prints one
//! `path:line:col: rule: message` line per unwaived finding plus a
//! per-rule summary, optionally writes the stable JSON report, and —
//! when a baseline is given — exits nonzero only if the run *differs*
//! from the committed baseline (new findings or stale entries). Explicit
//! file arguments run the token rules only.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use tao_lint::report::{diff_baseline, parse_baseline, render_baseline, render_json};
use tao_lint::rules::{lint_source, lint_workspace, Finding, Rule, SourceFile, ALL_RULES};
use tao_lint::walk::{classify, workspace_sources};
use tao_util::det::DetMap;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut workspace = false;
    let mut json_out: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workspace" => workspace = true,
            "--json" | "--baseline" | "--write-baseline" => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("tao-lint: {} needs a path argument", args[i]);
                    return ExitCode::FAILURE;
                };
                match args[i].as_str() {
                    "--json" => json_out = Some(PathBuf::from(value)),
                    "--baseline" => baseline = Some(PathBuf::from(value)),
                    _ => write_baseline = Some(PathBuf::from(value)),
                }
                i += 1;
            }
            "--help" | "-h" => {
                println!(
                    "usage: tao-lint --workspace [--json <out>] [--baseline <file>] \
                     [--write-baseline <out>] | tao-lint <file.rs>..."
                );
                return ExitCode::SUCCESS;
            }
            other => paths.push(PathBuf::from(other)),
        }
        i += 1;
    }

    let (findings, waived, files): (Vec<Finding>, Vec<(Rule, String, u32)>, usize) = if workspace {
        let sources = match workspace_sources(Path::new(".")) {
            Ok(walked) => walked,
            Err(e) => {
                eprintln!("tao-lint: cannot walk workspace: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut inputs: Vec<SourceFile> = Vec::new();
        for w in &sources {
            match std::fs::read_to_string(&w.path) {
                Ok(source) => inputs.push(SourceFile {
                    path: w.path.display().to_string(),
                    krate: w.krate.clone(),
                    kind: w.kind,
                    source,
                }),
                Err(e) => {
                    eprintln!("tao-lint: cannot read {}: {e}", w.path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        let report = lint_workspace(&inputs);
        (report.findings, report.waived, report.files)
    } else {
        if paths.is_empty() {
            eprintln!("tao-lint: no input files (try --workspace)");
            return ExitCode::FAILURE;
        }
        let mut findings = Vec::new();
        let mut waived = Vec::new();
        let mut files = 0usize;
        for path in &paths {
            let source = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("tao-lint: cannot read {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            files += 1;
            let display = path
                .strip_prefix("./")
                .unwrap_or(path)
                .display()
                .to_string();
            let report = lint_source(&display, &source, classify(path));
            findings.extend(report.findings);
            waived.extend(
                report
                    .waived
                    .into_iter()
                    .map(|(rule, line)| (rule, display.clone(), line)),
            );
        }
        (findings, waived, files)
    };

    for f in &findings {
        println!("{}", f.render());
    }

    let mut per_rule_f: DetMap<&'static str, usize> = DetMap::new();
    let mut per_rule_w: DetMap<&'static str, usize> = DetMap::new();
    for f in &findings {
        *per_rule_f.entry(f.rule.name()).or_insert(0) += 1;
    }
    for (rule, _, _) in &waived {
        *per_rule_w.entry(rule.name()).or_insert(0) += 1;
    }
    println!("tao-lint: {files} files checked");
    for rule in ALL_RULES {
        let f = per_rule_f.get(&rule.name()).copied().unwrap_or(0);
        let w = per_rule_w.get(&rule.name()).copied().unwrap_or(0);
        println!(
            "  {:<20} {:>3} finding(s) {:>3} waiver(s)",
            rule.name(),
            f,
            w
        );
    }

    if let Some(out) = &json_out {
        let json = render_json(&findings, files);
        if let Some(parent) = out.parent() {
            if !parent.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(parent);
            }
        }
        if let Err(e) = std::fs::write(out, json) {
            eprintln!("tao-lint: cannot write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
        println!("tao-lint: wrote {}", out.display());
    }

    if let Some(out) = &write_baseline {
        if let Err(e) = std::fs::write(out, render_baseline(&findings)) {
            eprintln!("tao-lint: cannot write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
        println!("tao-lint: wrote baseline {}", out.display());
    }

    if let Some(baseline_path) = &baseline {
        let text = match std::fs::read_to_string(baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!(
                    "tao-lint: cannot read baseline {}: {e}",
                    baseline_path.display()
                );
                return ExitCode::FAILURE;
            }
        };
        let entries = match parse_baseline(&text) {
            Ok(entries) => entries,
            Err(e) => {
                eprintln!("tao-lint: bad baseline {}: {e}", baseline_path.display());
                return ExitCode::FAILURE;
            }
        };
        let diff = diff_baseline(&findings, &entries);
        if diff.is_clean() {
            println!(
                "tao-lint: matches baseline ({} acknowledged finding(s))",
                entries.values().sum::<u64>()
            );
            return ExitCode::SUCCESS;
        }
        print!("{}", diff.render());
        println!("tao-lint: baseline mismatch");
        return ExitCode::FAILURE;
    }

    if findings.is_empty() {
        println!("tao-lint: clean");
        ExitCode::SUCCESS
    } else {
        println!("tao-lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
