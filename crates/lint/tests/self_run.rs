//! The workspace must lint clean against its own rules. This is the same
//! gate `scripts/check.sh` enforces; having it as a test means `cargo
//! test` alone catches a regression.

use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = adcast_lint::lint_workspace(&root, None).expect("workspace walk");
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
    // Every suppression in the tree carries a reason by construction; the
    // count is recorded in bench_summary.json so creep is visible, and
    // this ratchet keeps it from growing back: lower it when a pragma
    // goes, never raise it to make room for one.
    assert!(
        (1..=6).contains(&report.suppressions),
        "{} suppression(s); the ratchet allows at most 6",
        report.suppressions
    );
}
