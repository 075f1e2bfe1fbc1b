//! DESIGN §10 must document exactly the rules the binary registers:
//! the rule table's names are diffed against `adcast-lint --list-rules`
//! so the docs and the registry cannot drift apart.

use std::process::Command;

/// Rule names from `--list-rules`, in registry order.
fn registered_rules() -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_adcast-lint"))
        .arg("--list-rules")
        .output()
        .expect("run adcast-lint --list-rules");
    assert!(out.status.success(), "--list-rules exited nonzero");
    let text = String::from_utf8(out.stdout).expect("utf-8 listing");
    text.lines()
        .filter_map(|l| l.split_whitespace().next())
        .map(str::to_string)
        .collect()
}

/// Rule names from the first column of DESIGN §10's rule table, in
/// document order.
fn documented_rules() -> Vec<String> {
    let design = include_str!("../../../DESIGN.md");
    let mut in_section = false;
    let mut out = Vec::new();
    for line in design.lines() {
        if line.starts_with("## 10") {
            in_section = true;
            continue;
        }
        if in_section && line.starts_with("## ") {
            break;
        }
        if !in_section {
            continue;
        }
        // Table rows look like: | `rule-name` | scope | invariant |
        let Some(rest) = line.strip_prefix("| `") else {
            continue;
        };
        if let Some(name) = rest.split('`').next() {
            out.push(name.to_string());
        }
    }
    out
}

#[test]
fn design_rule_table_matches_list_rules() {
    let registered = registered_rules();
    let documented = documented_rules();
    assert!(
        registered.len() >= 7,
        "expected at least 7 registered rules, got {registered:?}"
    );
    assert_eq!(
        documented, registered,
        "DESIGN §10's rule table (left) drifted from `adcast-lint \
         --list-rules` (right); update the table or the registry"
    );
}

#[test]
fn every_listed_rule_has_a_doc_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_adcast-lint"))
        .arg("--list-rules")
        .output()
        .expect("run adcast-lint --list-rules");
    let text = String::from_utf8(out.stdout).expect("utf-8 listing");
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        let name = parts.next().unwrap_or_default();
        assert!(
            parts.next().is_some(),
            "rule `{name}` has no one-line doc in --list-rules"
        );
    }
}

#[test]
fn unknown_rule_exits_2_with_the_listing() {
    let out = Command::new(env!("CARGO_BIN_EXE_adcast-lint"))
        .args(["--rule", "no-such-rule"])
        .output()
        .expect("run adcast-lint --rule no-such-rule");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(err.contains("unknown rule"), "{err}");
    assert!(
        err.contains("no-alloc-steady-state") && err.contains("lock-discipline"),
        "error should carry the full rule listing:\n{err}"
    );
}
