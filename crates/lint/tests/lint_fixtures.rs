//! Fixture-driven rule tests: every rule has at least one failing fixture
//! and one allowed-with-pragma fixture, linted under a pretend
//! workspace-relative path so path-gated rules engage. The fixture files
//! live under `tests/fixtures/` (never compiled; the lint's own workspace
//! walk skips that directory too).

use adcast_lint::{lint_source, rules, Diagnostic, SUPPRESSION_RULE};

/// The transport identity: `wal-ordering` applies here.
const SERVER: &str = "crates/net/src/server.rs";
/// The node identity: everything `SERVER` gets, plus the `ack-ladder` for
/// the primary's `log_apply`.
const NODE: &str = "crates/net/src/node.rs";
/// An error-hygiene identity with no `wal-ordering` or ladder site.
const NET: &str = "crates/net/src/fixture.rs";
/// A neutral identity: only the path-independent rules apply.
const NEUTRAL: &str = "crates/core/src/fixture.rs";
/// An obs record-path identity: `no-lock-in-record` applies here.
const RECORD: &str = "crates/obs/src/metrics.rs";
/// The replication-path identity: `ack-ladder` has a ladder for
/// `replica_append` here.
const REPL: &str = "crates/net/src/replication.rs";
/// A serving-crate identity: `lock-discipline` applies.
const CLUSTER: &str = "crates/cluster/src/fixture.rs";

fn lint(rel: &str, src: &str) -> (Vec<Diagnostic>, usize) {
    lint_source(rel, src, None)
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

// ---- no-alloc-steady-state --------------------------------------------

#[test]
fn allocation_in_zero_alloc_fn_fails() {
    let (diags, _) = lint(NEUTRAL, include_str!("fixtures/alloc_fail.rs"));
    assert_eq!(
        rules_of(&diags),
        vec![rules::NO_ALLOC_STEADY_STATE],
        "{diags:?}"
    );
    assert!(
        diags[0].message.contains("Vec::new"),
        "{}",
        diags[0].message
    );
}

#[test]
fn allocation_with_pragma_is_allowed() {
    let (diags, sup) = lint(NEUTRAL, include_str!("fixtures/alloc_allow.rs"));
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(sup, 1);
}

#[test]
fn scratch_buffer_pattern_passes_without_pragma() {
    let (diags, sup) = lint(NEUTRAL, include_str!("fixtures/alloc_scratch_ok.rs"));
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(sup, 0);
}

// ---- wal-ordering -----------------------------------------------------

#[test]
fn apply_before_commit_fails() {
    // The fixture's `log_apply` also matches the generalized `ack-ladder`
    // for node.rs, so the swap trips both the legacy rule and the ladder.
    let (diags, _) = lint(NODE, include_str!("fixtures/wal_fail.rs"));
    assert_eq!(
        rules_of(&diags),
        vec![rules::ACK_LADDER, rules::WAL_ORDERING],
        "{diags:?}"
    );
}

#[test]
fn apply_without_commit_with_pragma_is_allowed() {
    let (diags, sup) = lint(SERVER, include_str!("fixtures/wal_allow.rs"));
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(sup, 1);
}

#[test]
fn commit_before_apply_passes() {
    let (diags, sup) = lint(SERVER, include_str!("fixtures/wal_ok.rs"));
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(sup, 0);
}

// ---- error-hygiene ----------------------------------------------------

#[test]
fn io_result_pub_api_and_bare_error_enum_fail() {
    let (diags, _) = lint(NET, include_str!("fixtures/hygiene_fail.rs"));
    assert_eq!(
        rules_of(&diags),
        vec![rules::ERROR_HYGIENE, rules::ERROR_HYGIENE],
        "{diags:?}"
    );
}

#[test]
fn error_hygiene_only_applies_to_net_and_durability() {
    let (diags, _) = lint(NEUTRAL, include_str!("fixtures/hygiene_fail.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn error_hygiene_violations_with_pragmas_are_allowed() {
    let (diags, sup) = lint(NET, include_str!("fixtures/hygiene_allow.rs"));
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(sup, 2);
}

#[test]
fn typed_non_exhaustive_error_passes() {
    let (diags, sup) = lint(NET, include_str!("fixtures/hygiene_ok.rs"));
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(sup, 0);
}

// ---- no-lock-in-record ------------------------------------------------

#[test]
fn lock_in_record_path_fails() {
    let (diags, _) = lint(RECORD, include_str!("fixtures/no_lock_fail.rs"));
    assert_eq!(
        rules_of(&diags),
        vec![rules::NO_LOCK_IN_RECORD, rules::NO_LOCK_IN_RECORD],
        "{diags:?}"
    );
    assert!(diags.iter().any(|d| d.message.contains("Mutex")));
    assert!(diags.iter().any(|d| d.message.contains(".lock()")));
}

#[test]
fn lock_outside_record_paths_is_not_checked() {
    // The registry file holds the one sanctioned Mutex (register/expose
    // only) and must not be in the record set.
    let (diags, _) = lint(
        "crates/obs/src/registry.rs",
        include_str!("fixtures/no_lock_fail.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn lock_with_pragma_is_allowed() {
    let (diags, sup) = lint(RECORD, include_str!("fixtures/no_lock_allow.rs"));
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(sup, 1);
}

// ---- ack-ladder ---------------------------------------------------------

#[test]
fn apply_before_commit_in_replication_fails() {
    let (diags, _) = lint(REPL, include_str!("fixtures/ack_ladder_fail.rs"));
    assert_eq!(rules_of(&diags), vec![rules::ACK_LADDER], "{diags:?}");
    assert!(
        diags[0].message.contains("`apply_record` before `commit`"),
        "{}",
        diags[0].message
    );
}

#[test]
fn ladder_swap_with_pragma_is_allowed() {
    let (diags, sup) = lint(REPL, include_str!("fixtures/ack_ladder_allow.rs"));
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(sup, 1);
}

#[test]
fn correct_ladder_order_passes() {
    let (diags, sup) = lint(REPL, include_str!("fixtures/ack_ladder_ok.rs"));
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(sup, 0);
}

#[test]
fn moved_ladder_site_is_diagnosed() {
    // The file still runs the follower's log -> commit -> apply steps, but
    // the configured `replica_append` fn is gone: a stale config entry
    // checks nothing, so the rule says so.
    let (diags, _) = lint(REPL, include_str!("fixtures/ack_ladder_moved.rs"));
    assert_eq!(rules_of(&diags), vec![rules::ACK_LADDER], "{diags:?}");
    assert!(
        diags[0]
            .message
            .contains("`replica_append` not found; update config::ACK_LADDERS"),
        "{}",
        diags[0].message
    );
}

#[test]
fn ladder_fn_outside_its_configured_file_is_not_checked() {
    let (diags, _) = lint(NEUTRAL, include_str!("fixtures/ack_ladder_fail.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

// ---- trace-propagation --------------------------------------------------

/// The router-forwarding identity: `trace-propagation` has a site for
/// `forward` here.
const ROUTER: &str = "crates/cluster/src/router.rs";

#[test]
fn forwarder_dropping_trace_context_fails() {
    let (diags, _) = lint(ROUTER, include_str!("fixtures/trace_fail.rs"));
    assert_eq!(
        rules_of(&diags),
        vec![rules::TRACE_PROPAGATION],
        "{diags:?}"
    );
    assert!(diags[0].message.contains("`child`"), "{}", diags[0].message);
}

#[test]
fn dropped_context_with_pragma_is_allowed() {
    let (diags, sup) = lint(ROUTER, include_str!("fixtures/trace_allow.rs"));
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(sup, 1);
}

#[test]
fn forwarder_deriving_child_context_passes() {
    let (diags, sup) = lint(ROUTER, include_str!("fixtures/trace_ok.rs"));
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(sup, 0);
}

#[test]
fn trace_rule_is_inert_without_trace_context_in_the_file() {
    // The codec identity has two trace sites, but a file that never names
    // `TraceContext` (a pre-tracing snapshot, or any non-trace fixture) is
    // out of the rule's scope entirely.
    let src = "fn put_request(body: &mut BytesMut, req: &Request) { put_head(body, req); }\n";
    let (diags, _) = lint("crates/net/src/codec.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn moved_trace_site_is_diagnosed() {
    // The file handles traces (names `TraceContext`) but the configured
    // `forward` fn is gone — a stale config entry checks nothing, so the
    // rule says so.
    let src = "fn route(ctx: TraceContext) -> TraceContext { ctx }\n";
    let (diags, _) = lint(ROUTER, src);
    assert_eq!(
        rules_of(&diags),
        vec![rules::TRACE_PROPAGATION],
        "{diags:?}"
    );
    assert!(
        diags[0].message.contains("not found"),
        "{}",
        diags[0].message
    );
}

// ---- lock-discipline ----------------------------------------------------

#[test]
fn blocking_and_nested_lock_under_guard_fail() {
    let (diags, _) = lint(CLUSTER, include_str!("fixtures/lock_fail.rs"));
    assert_eq!(
        rules_of(&diags),
        vec![rules::LOCK_DISCIPLINE, rules::LOCK_DISCIPLINE],
        "{diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.message.contains("`recv()`")),
        "{diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.message.contains("nested lock")),
        "{diags:?}"
    );
}

#[test]
fn lock_discipline_with_pragma_is_allowed() {
    let (diags, sup) = lint(CLUSTER, include_str!("fixtures/lock_allow.rs"));
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(sup, 1);
}

#[test]
fn declared_order_and_dropped_guard_pass() {
    let (diags, sup) = lint(CLUSTER, include_str!("fixtures/lock_ok.rs"));
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(sup, 0);
}

#[test]
fn lock_discipline_outside_serving_crates_is_not_checked() {
    let (diags, _) = lint(
        "crates/bench/src/fixture.rs",
        include_str!("fixtures/lock_fail.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

// ---- suppression hygiene ----------------------------------------------

#[test]
fn allow_without_reason_is_a_diagnostic_and_suppresses_nothing() {
    let (diags, sup) = lint(RECORD, include_str!("fixtures/bad_pragma.rs"));
    let mut seen = rules_of(&diags);
    seen.sort_unstable();
    assert_eq!(
        seen,
        vec![rules::NO_LOCK_IN_RECORD, SUPPRESSION_RULE],
        "{diags:?}"
    );
    assert_eq!(
        sup, 0,
        "a reasonless pragma must not count as a suppression"
    );
    let bad = diags.iter().find(|d| d.rule == SUPPRESSION_RULE).unwrap();
    assert!(bad.message.contains("mandatory"), "{}", bad.message);
}

#[test]
fn suppression_covers_next_item_only() {
    let src = include_str!("fixtures/scope_next_item_only.rs");
    let (diags, sup) = lint(RECORD, src);
    assert_eq!(sup, 1);
    assert_eq!(
        rules_of(&diags),
        vec![rules::NO_LOCK_IN_RECORD],
        "{diags:?}"
    );
    // The surviving diagnostic must be the SECOND fn's `.lock()`.
    let uncovered_line = src
        .lines()
        .position(|l| l.contains("fn uncovered"))
        .unwrap() as u32
        + 1;
    assert!(
        diags[0].line > uncovered_line,
        "diagnostic at {} should sit inside `uncovered` (fn at line {uncovered_line})",
        diags[0].line
    );
}
