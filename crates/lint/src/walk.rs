//! Workspace traversal and file classification.
//!
//! Since v2 the file set is derived from the workspace manifest instead
//! of a blind directory walk: `Cargo.toml`'s `members` list (with
//! `crates/*` globs expanded) names the crates, each member's own
//! manifest names its package and any out-of-directory targets
//! (`[[test]] path = "../../tests/…"`), and only files that belong to a
//! member are linted. `target/`, `results/`, VCS internals, and the
//! linter's violation fixtures can never leak into the run because they
//! are not reachable from any manifest. The member manifests are also
//! what `crate-layering` checks ([`member_manifests`]).

use std::fs;
use std::path::{Component, Path, PathBuf};

use crate::rules::FileKind;

/// One lintable file with its owning crate.
#[derive(Debug, Clone)]
pub struct WalkedFile {
    /// Workspace-relative path.
    pub path: PathBuf,
    /// Package name of the owning crate (`tao-overlay`).
    pub krate: String,
    /// How the file participates in linting.
    pub kind: FileKind,
}

/// Classifies a workspace-relative `.rs` path into the [`FileKind`] the
/// rules engine needs.
///
/// - `crates/*/src/**` is library code, except `src/bin/**` and
///   `src/main.rs`, which are binaries.
/// - `examples/**` (top-level or per-crate) are binaries.
/// - `tests/**` (top-level or per-crate) only ever runs inside test
///   harnesses.
pub fn classify(path: &Path) -> FileKind {
    let comps: Vec<&str> = path.iter().filter_map(|c| c.to_str()).collect();
    if comps.contains(&"tests") {
        return FileKind::TestHarness;
    }
    if comps.iter().any(|c| *c == "examples" || *c == "bin") {
        return FileKind::Bin;
    }
    if comps.last() == Some(&"main.rs") {
        return FileKind::Bin;
    }
    FileKind::Lib
}

/// Collects every lintable `.rs` file of every workspace member, with
/// its owning crate and kind, sorted by path.
///
/// The set is manifest-driven: workspace `members` globs are expanded
/// against directories that actually contain a `Cargo.toml`, each
/// member contributes its `src/`, `tests/`, and `examples/` trees, plus any explicit `path = "…"` targets (which is how the
/// top-level `tests/` and `examples/` directories — owned by `tao-core`
/// — enter the run).
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<WalkedFile>> {
    let mut out: Vec<WalkedFile> = Vec::new();
    for member in member_dirs(root)? {
        let member_manifest = fs::read_to_string(root.join(&member).join("Cargo.toml"))?;
        let Some(krate) = toml_package_name(&member_manifest) else {
            continue;
        };
        let mut paths: Vec<PathBuf> = Vec::new();
        for sub in ["src", "tests", "examples"] {
            let dir = root.join(&member).join(sub);
            if dir.is_dir() {
                let mut found = Vec::new();
                collect_rs(&dir, &mut found)?;
                for p in found {
                    let rel = p.strip_prefix(root).unwrap_or(&p).to_path_buf();
                    paths.push(rel);
                }
            }
        }
        for target in toml_target_paths(&member_manifest) {
            let rel = normalize(&member.join(target));
            if root.join(&rel).is_file() {
                paths.push(rel);
            }
        }
        paths.sort();
        paths.dedup();
        for path in paths {
            let kind = classify(&path);
            out.push(WalkedFile {
                path,
                krate: krate.clone(),
                kind,
            });
        }
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    out.dedup_by(|a, b| a.path == b.path);
    Ok(out)
}

/// The workspace-relative `Cargo.toml` of every workspace member.
pub fn member_manifests(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    Ok(member_dirs(root)?
        .into_iter()
        .map(|dir| dir.join("Cargo.toml"))
        .collect())
}

/// The workspace `members`, with `crates/*` globs expanded against the
/// directories that actually contain a `Cargo.toml`.
fn member_dirs(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let manifest = fs::read_to_string(root.join("Cargo.toml"))?;
    let mut member_dirs: Vec<PathBuf> = Vec::new();
    for pattern in toml_members(&manifest) {
        if let Some(prefix) = pattern.strip_suffix("/*") {
            let dir = root.join(prefix);
            let mut expanded: Vec<PathBuf> = Vec::new();
            for entry in fs::read_dir(&dir)? {
                let entry = entry?;
                if entry.file_type()?.is_dir() && entry.path().join("Cargo.toml").is_file() {
                    expanded.push(Path::new(prefix).join(entry.file_name()));
                }
            }
            expanded.sort();
            member_dirs.extend(expanded);
        } else {
            member_dirs.push(PathBuf::from(pattern));
        }
    }

    Ok(member_dirs)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if name == "target" || name == "results" || name == ".git" || name == "lint_fixtures" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Resolves `.` and `..` components without touching the filesystem, so
/// `crates/core/../../tests/e.rs` becomes `tests/e.rs`.
fn normalize(path: &Path) -> PathBuf {
    let mut stack: Vec<Component> = Vec::new();
    for comp in path.components() {
        match comp {
            Component::CurDir => {}
            Component::ParentDir => {
                if stack.pop().is_none() {
                    stack.push(comp);
                }
            }
            other => stack.push(other),
        }
    }
    stack.iter().collect()
}

/// The `members = [...]` entries of the `[workspace]` section.
fn toml_members(manifest: &str) -> Vec<String> {
    let mut members = Vec::new();
    let mut in_workspace = false;
    let mut in_members = false;
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_workspace = line == "[workspace]";
            in_members = false;
            continue;
        }
        if !in_workspace {
            continue;
        }
        let rest = if let Some(rest) = line.strip_prefix("members") {
            let Some(rest) = rest.trim_start().strip_prefix('=') else {
                continue;
            };
            in_members = true;
            rest
        } else if in_members {
            line
        } else {
            continue;
        };
        for piece in rest.split(',') {
            let piece = piece.trim().trim_matches(|c| c == '[' || c == ']').trim();
            if let Some(s) = piece.strip_prefix('"').and_then(|s| s.strip_suffix('"')) {
                members.push(s.to_string());
            }
        }
        if rest.contains(']') {
            in_members = false;
        }
    }
    members
}

/// The `name = "…"` of the `[package]` section.
pub(crate) fn toml_package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start().strip_prefix('=')?.trim();
                return rest
                    .strip_prefix('"')
                    .and_then(|s| s.strip_suffix('"'))
                    .map(str::to_string);
            }
        }
    }
    None
}

/// Every `(crate, line)` of the `[dependencies]` and `[dev-dependencies]`
/// sections, the `[dev-dependencies.<crate>]` table form included.
pub(crate) fn toml_dependencies(manifest: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let mut in_deps = false;
    for (line_no, line) in (1..).zip(manifest.lines()) {
        let line = line.split('#').next().unwrap_or("").trim();
        if let Some(header) = line.strip_prefix('[') {
            let header = header.trim_end_matches(']').trim();
            in_deps = header == "dependencies" || header == "dev-dependencies";
            if let Some(dep) = header
                .strip_prefix("dependencies.")
                .or_else(|| header.strip_prefix("dev-dependencies."))
            {
                out.push((dep.trim().to_string(), line_no));
            }
        } else if let Some((key, _)) = line.split_once('=').filter(|_| in_deps) {
            // `tao-x.workspace = true` and `tao-x = { … }` both name `tao-x`.
            let dep = key.split('.').next().unwrap_or(key).trim();
            out.push((dep.trim_matches('"').to_string(), line_no));
        }
    }
    out
}

/// Every `path = "…"` of the `[[test]]`/`[[bench]]`/`[[example]]`/
/// `[[bin]]` target sections (dependency tables never use array-of-table
/// headers, so `path` keys under `[dependencies]` are not collected).
fn toml_target_paths(manifest: &str) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut in_target = false;
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_target = line.starts_with("[[");
            continue;
        }
        if !in_target {
            continue;
        }
        if let Some(rest) = line.strip_prefix("path") {
            if let Some(rest) = rest.trim_start().strip_prefix('=') {
                if let Some(s) = rest
                    .trim()
                    .strip_prefix('"')
                    .and_then(|s| s.strip_suffix('"'))
                {
                    out.push(PathBuf::from(s));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_layout() {
        let lib = Path::new("crates/overlay/src/can.rs");
        let binm = Path::new("crates/bench/src/bin/join_cost.rs");
        let test = Path::new("tests/end_to_end.rs");
        let example = Path::new("examples/churn.rs");
        assert_eq!(classify(lib), FileKind::Lib);
        assert_eq!(classify(binm), FileKind::Bin);
        assert_eq!(classify(test), FileKind::TestHarness);
        assert_eq!(classify(example), FileKind::Bin);
    }

    #[test]
    fn normalize_resolves_parent_components() {
        assert_eq!(
            normalize(Path::new("crates/core/../../tests/e.rs")),
            PathBuf::from("tests/e.rs")
        );
        assert_eq!(normalize(Path::new("a/./b")), PathBuf::from("a/b"));
    }

    #[test]
    fn manifest_parsing_extracts_members_names_and_targets() {
        let ws = "[workspace]\nmembers = [\"crates/*\"]\nresolver = \"2\"\n";
        assert_eq!(toml_members(ws), vec!["crates/*".to_string()]);

        let multi = "[workspace]\nmembers = [\n  \"a\",\n  \"b/c\",\n]\n";
        assert_eq!(
            toml_members(multi),
            vec!["a".to_string(), "b/c".to_string()]
        );

        let member = "[package]\nname = \"tao-core\"\n\n[dependencies]\n\
                      tao-util = { path = \"../util\" }\n\n\
                      [[test]]\nname = \"e\"\npath = \"../../tests/e.rs\"\n";
        assert_eq!(toml_package_name(member), Some("tao-core".to_string()));
        // Dependency `path` keys are not targets.
        assert_eq!(
            toml_target_paths(member),
            vec![PathBuf::from("../../tests/e.rs")]
        );
    }
}
