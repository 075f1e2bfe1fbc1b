//! `adcast-lint`: in-repo static analysis for the adcast workspace.
//!
//! The paper's throughput claim rests on engineering invariants. Where
//! rustc or clippy can check one with type information, they do: the
//! workspace `[lints]` table (documented `unsafe`), the panic-freedom
//! header of each hot-path file, the per-crate `clippy.toml` bans on
//! wall-clock reads and unbounded channels, and exhaustive `match`es over
//! the wire kind tables (DESIGN §10). This crate checks the rest — a
//! zero-allocation steady state, the WAL's validate→log→commit→apply→ack
//! order, typed errors, lock-free record paths, lock discipline and trace
//! propagation — on every `scripts/check.sh` run, with a lexer small
//! enough to stay std-only and offline (no `syn`).
//!
//! Suppressions are inline and per-site:
//!
//! ```text
//! // adcast-lint: allow(<rule>) -- <reason>
//! ```
//!
//! The reason is mandatory (a pragma without one is itself a diagnostic)
//! and the suppression scopes to the next item only. A second marker,
//! `// adcast-lint: zero-alloc`, opts the following function into the
//! `no-alloc-steady-state` rule.

pub mod analysis;
pub mod config;
pub mod lexer;
pub mod rules;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use analysis::{Directive, FileAnalysis};

/// Every rule this binary knows, in reporting order. `suppression` is the
/// meta-rule for malformed/unused pragmas and cannot be suppressed itself.
pub const RULES: &[&str] = &[
    rules::NO_ALLOC_STEADY_STATE,
    rules::WAL_ORDERING,
    rules::ERROR_HYGIENE,
    rules::NO_LOCK_IN_RECORD,
    rules::ACK_LADDER,
    rules::TRACE_PROPAGATION,
    rules::LOCK_DISCIPLINE,
];

/// The meta-rule name used for pragma-hygiene diagnostics.
pub const SUPPRESSION_RULE: &str = "suppression";

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Result of linting a whole workspace.
#[derive(Debug, Default)]
pub struct LintReport {
    pub diagnostics: Vec<Diagnostic>,
    pub files_scanned: usize,
    /// Valid `allow(...)` pragmas (each carries a reason) plus
    /// `#[allow]`/`#[expect]` lint attributes: every suppression in the
    /// scanned files, whichever tool it silences.
    pub suppressions: usize,
}

impl LintReport {
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of rules the engine enforces (the meta suppression rule
    /// included), recorded by `perf_summary` so rule/suppression creep is
    /// visible across PRs in `results/bench_summary.json`.
    pub fn rule_count(&self) -> usize {
        RULES.len() + 1
    }
}

/// Run every rule over one analyzed file.
fn file_rules(fa: &FileAnalysis, only_rule: Option<&str>) -> Vec<Diagnostic> {
    let mut raw: Vec<Diagnostic> = Vec::new();
    let run = |name: &str| only_rule.is_none_or(|r| r == name);
    if run(rules::NO_ALLOC_STEADY_STATE) {
        raw.extend(rules::no_alloc_steady_state(fa));
    }
    if run(rules::WAL_ORDERING) {
        raw.extend(rules::wal_ordering(fa));
    }
    if run(rules::ERROR_HYGIENE) {
        raw.extend(rules::error_hygiene(fa));
    }
    if run(rules::NO_LOCK_IN_RECORD) {
        raw.extend(rules::no_lock_in_record(fa));
    }
    if run(rules::ACK_LADDER) {
        raw.extend(rules::ack_ladder(fa));
    }
    if run(rules::TRACE_PROPAGATION) {
        raw.extend(rules::trace_propagation(fa));
    }
    if run(rules::LOCK_DISCIPLINE) {
        raw.extend(rules::lock_discipline(fa));
    }
    raw
}

/// Apply one file's suppression pragmas to its diagnostics. Returns
/// survivors plus the number of valid pragmas seen.
fn apply_suppressions(
    fa: &FileAnalysis,
    raw: Vec<Diagnostic>,
    only_rule: Option<&str>,
) -> (Vec<Diagnostic>, usize) {
    let mut suppressions = 0usize;
    let mut survivors = raw;
    for p in &fa.pragmas {
        let Directive::Allow { rule, .. } = &p.directive else {
            continue;
        };
        suppressions += 1;
        let Some((start, end)) = fa.next_item_span(p.line) else {
            continue;
        };
        let before = survivors.len();
        survivors.retain(|d| !(d.rule == rule && d.line >= start && d.line <= end));
        let used = survivors.len() < before;
        // An allow() that suppresses nothing is stale: either the violation
        // was fixed (delete the pragma) or the pragma is mis-scoped. Only
        // meaningful when the full rule set ran.
        if !used && only_rule.is_none() {
            survivors.push(Diagnostic {
                file: fa.rel_path.clone(),
                line: p.line,
                rule: SUPPRESSION_RULE,
                message: format!(
                    "allow({rule}) suppresses nothing in its scope (lines {start}-{end}); \
                     remove or re-scope it"
                ),
            });
        }
    }

    // Pragma hygiene: malformed pragmas are diagnostics in their own right.
    if only_rule.is_none_or(|r| r == SUPPRESSION_RULE) {
        for b in &fa.bad_pragmas {
            survivors.push(Diagnostic {
                file: fa.rel_path.clone(),
                line: b.line,
                rule: SUPPRESSION_RULE,
                message: b.message.clone(),
            });
        }
    }
    (survivors, suppressions)
}

/// Lint a set of `(path, source)` pairs: analyze each file, run the
/// rules over it, then apply its suppression pragmas to its diagnostics.
pub fn lint_sources(files: &[(String, String)], only_rule: Option<&str>) -> LintReport {
    let mut report = LintReport {
        files_scanned: files.len(),
        ..LintReport::default()
    };
    for (path, src) in files {
        let fa = FileAnalysis::new(path, src);
        let raw = file_rules(&fa, only_rule);
        let (survivors, pragmas) = apply_suppressions(&fa, raw, only_rule);
        report.diagnostics.extend(survivors);
        report.suppressions += pragmas + fa.lint_attrs;
    }
    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
}

/// Lint one file's source under a given workspace-relative path. The path
/// decides which rules apply, so fixtures can borrow a node or obs
/// identity. Returns surviving diagnostics plus the suppression count.
pub fn lint_source(rel_path: &str, src: &str, only_rule: Option<&str>) -> (Vec<Diagnostic>, usize) {
    let report = lint_sources(&[(rel_path.to_string(), src.to_string())], only_rule);
    (report.diagnostics, report.suppressions)
}

/// Walk the workspace and lint every `.rs` file outside the skip list
/// (`target/`, `vendor/`, `results/`, fixture directories).
pub fn lint_workspace(root: &Path, only_rule: Option<&str>) -> io::Result<LintReport> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();

    let mut sources = Vec::with_capacity(files.len());
    for rel in files {
        let abs = root.join(&rel);
        let src = fs::read_to_string(&abs)?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        sources.push((rel_str, src));
    }
    Ok(lint_sources(&sources, only_rule))
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if config::SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// Minimal JSON string escaping for `--json` output.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An obs record path, where `no-lock-in-record` applies.
    const RECORD: &str = "crates/obs/src/metrics.rs";

    #[test]
    fn suppression_scopes_to_next_item() {
        let src = "\
// adcast-lint: allow(no-lock-in-record) -- first fn is fine
fn covered() {
    a.lock();
}
fn uncovered() {
    b.lock();
}
";
        let (diags, sup) = lint_source(RECORD, src, None);
        assert_eq!(sup, 1);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 6);
    }

    #[test]
    fn unused_suppression_is_flagged() {
        let src =
            "// adcast-lint: allow(no-lock-in-record) -- nothing here\nfn f() { let x = 1; }\n";
        let (diags, _) = lint_source(RECORD, src, None);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, SUPPRESSION_RULE);
        assert!(diags[0].message.contains("suppresses nothing"));
    }

    #[test]
    fn rule_filter_runs_one_rule() {
        // Both `lock-discipline` and `error-hygiene` fire here unfiltered.
        let net = "crates/net/src/fixture.rs";
        let src = "fn f() { let g = m.lock(); rx.recv(); }\npub enum WireError { A }\n";
        assert_eq!(lint_source(net, src, None).0.len(), 2);
        let (diags, _) = lint_source(net, src, Some(rules::ERROR_HYGIENE));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, rules::ERROR_HYGIENE);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
