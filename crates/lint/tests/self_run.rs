//! The workspace must lint clean against its own rules. This is the same
//! gate `scripts/check.sh` enforces; having it as a test means `cargo
//! test` alone catches a regression.

use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_is_lint_clean() {
    let report = adcast_lint::lint_workspace(&workspace_root(), None).expect("workspace walk");
    assert!(
        report.clean(),
        "adcast-lint found {} violation(s) in the workspace:\n{}",
        report.diagnostics.len(),
        report
            .diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the walk actually visited the tree (not an empty dir).
    assert!(
        report.files_scanned > 50,
        "only {} file(s) scanned — wrong root?",
        report.files_scanned
    );
    // One ratchet for both suppression mechanisms: `// adcast-lint:
    // allow` pragmas plus `#[allow]`/`#[expect]` lint attributes. The
    // count is recorded in bench_summary.json so creep is visible, and
    // this keeps it from growing back: lower it when a suppression goes,
    // never raise it to make room for one.
    assert!(
        (1..=7).contains(&report.suppressions),
        "{} suppression(s); the ratchet allows at most 7",
        report.suppressions
    );
}

/// `unsafe_code = "deny"` lets `unsafe` compile only under an
/// `#[expect(unsafe_code)]`; DESIGN §10 lists one bullet per such
/// attribute, and the two lists must match (as multisets of files).
#[test]
fn unsafe_sites_match_design() {
    let design = include_str!("../../../DESIGN.md");
    let section = design
        .split("**Where `unsafe` lives.**")
        .nth(1)
        .and_then(|rest| rest.split("**Marking a new hot-path file.**").next())
        .expect("DESIGN §10 has a \"Where `unsafe` lives\" paragraph");
    let mut documented: Vec<String> = section
        .lines()
        .filter_map(|l| l.strip_prefix("- `"))
        .filter_map(|rest| rest.split('`').next())
        .map(str::to_string)
        .collect();
    let report = adcast_lint::lint_workspace(&workspace_root(), None).expect("workspace walk");
    let mut found = report.unsafe_sites;
    documented.sort();
    found.sort();
    assert!(
        !found.is_empty(),
        "no `#[expect(unsafe_code)]` found — wrong root?"
    );
    assert_eq!(
        documented, found,
        "DESIGN §10's unsafe sites (left) differ from the `#[expect(unsafe_code)]` \
         attributes in the tree (right)"
    );
}

/// The root package and every member opt into the workspace `[lints]`
/// table, so no crate escapes the `unsafe` and `#[allow]` reason lints.
#[test]
fn every_manifest_inherits_the_workspace_lints() {
    let root = workspace_root();
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
