//! The lint configuration every crate must inherit, and DESIGN §10's two
//! lists of declared exceptions, checked against the tree.
//!
//! `unsafe_code = "deny"` lets `unsafe` compile only under an
//! `#[expect(unsafe_code, …)]`, and the `clippy.toml` lock bans let a lock
//! compile only under an `#[expect(clippy::disallowed_methods, …)]` or
//! `#[expect(clippy::disallowed_types, …)]`. DESIGN §10 lists one bullet
//! per such attribute ("Where `unsafe` lives", "Where locks live"); these
//! tests diff each list against the attributes in the tree, as multisets of
//! files.

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// One repo-relative path per `#[expect(` attribute (or `#![expect(`)
/// whose first lint is one of `lints`, over `crates/`, `src/`, `tests/`
/// and `examples/`, sorted. The lint may sit on the attribute's line or on
/// the next one, as rustfmt leaves a long attribute.
fn expect_sites(lints: &[&str]) -> Vec<String> {
    let root = root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut sites = Vec::new();
    for file in files {
        let text = fs::read_to_string(&file).expect("read source");
        let lines: Vec<&str> = text.lines().map(str::trim_start).collect();
        for (i, line) in lines.iter().enumerate() {
            let Some(rest) = line
                .strip_prefix("#[expect(")
                .or_else(|| line.strip_prefix("#![expect("))
            else {
                continue;
            };
            let first = if rest.is_empty() {
                lines.get(i + 1).copied().unwrap_or_default()
            } else {
                rest
            };
            let lint = first.split([',', ')']).next().unwrap_or_default().trim();
            if lints.contains(&lint) {
                let rel = file.strip_prefix(&root).expect("under the root");
                sites.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    sites.sort();
    sites
}

/// The paths of the "- `path`: …" bullets in DESIGN §10's paragraph that
/// opens with `heading`, sorted.
fn design_list(heading: &str) -> Vec<String> {
    let design = fs::read_to_string(root().join("DESIGN.md")).expect("read DESIGN.md");
    let section = design
        .split(heading)
        .nth(1)
        .and_then(|rest| rest.split("\n**").next())
        .unwrap_or_else(|| panic!("DESIGN §10 has no {heading:?} paragraph"));
    let mut paths: Vec<String> = section
        .lines()
        .filter_map(|l| l.strip_prefix("- `"))
        .filter_map(|rest| rest.split('`').next())
        .map(str::to_string)
        .collect();
    paths.sort();
    paths
}

#[test]
fn unsafe_sites_match_design() {
    let found = expect_sites(&["unsafe_code"]);
    assert!(
        !found.is_empty(),
        "no unsafe_code expectation found; wrong root?"
    );
    assert_eq!(
        design_list("**Where `unsafe` lives.**"),
        found,
        "DESIGN §10's unsafe sites (left) differ from the unsafe_code \
         expectations in the tree (right)"
    );
}

#[test]
fn lock_sites_match_design() {
    let found = expect_sites(&["clippy::disallowed_methods", "clippy::disallowed_types"]);
    assert!(!found.is_empty(), "no lock expectation found; wrong root?");
    assert_eq!(
        design_list("**Where locks live.**"),
        found,
        "DESIGN §10's lock sites (left) differ from the disallowed_methods and \
         disallowed_types expectations in the tree (right)"
    );
}

/// The root package and every member opt into the workspace `[lints]`
/// table, so no crate escapes the `unsafe` and `#[expect]`-only lints.
#[test]
fn every_manifest_inherits_the_workspace_lints() {
    let root = root();
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).expect("crates dir") {
        let manifest = entry.expect("dir entry").path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    assert!(manifests.len() > 10, "{manifests:?}");
    for manifest in manifests {
        let text = fs::read_to_string(&manifest).expect("read manifest");
        assert!(
            text.contains("\n[lints]\nworkspace = true\n"),
            "{} does not declare `[lints] workspace = true`",
            manifest.display()
        );
    }
}
