//! The rule implementations. Each rule is a pure function from a
//! [`FileAnalysis`] to diagnostics; path gating lives in [`crate::config`]
//! so a fixture can be linted "as if" it were, say, the node or an obs
//! record path.

use crate::analysis::{matching_close, Directive, FileAnalysis};
use crate::config;
use crate::lexer::TokKind;
use crate::Diagnostic;

pub const NO_ALLOC_STEADY_STATE: &str = "no-alloc-steady-state";
pub const WAL_ORDERING: &str = "wal-ordering";
pub const ERROR_HYGIENE: &str = "error-hygiene";
pub const NO_LOCK_IN_RECORD: &str = "no-lock-in-record";
pub const ACK_LADDER: &str = "ack-ladder";
pub const TRACE_PROPAGATION: &str = "trace-propagation";
pub const LOCK_DISCIPLINE: &str = "lock-discipline";

/// One-line documentation per rule, in [`crate::RULES`] order plus the
/// suppression meta-rule; `--list-rules` prints this table and the DESIGN
/// §10 drift test diffs it against the documented rule table.
pub const RULE_DOCS: &[(&str, &str)] = &[
    (
        NO_ALLOC_STEADY_STATE,
        "fns marked `// adcast-lint: zero-alloc` may not allocate; scratch reuse only",
    ),
    (
        WAL_ORDERING,
        "mutation handlers WAL-commit before they apply to the store",
    ),
    (
        ERROR_HYGIENE,
        "public fallible APIs return typed errors and pub error enums are #[non_exhaustive]",
    ),
    (
        NO_LOCK_IN_RECORD,
        "obs record paths stay lock-free (atomics only)",
    ),
    (
        ACK_LADDER,
        "replication-path fns keep their configured token order (commit -> apply -> replicate -> ack)",
    ),
    (
        TRACE_PROPAGATION,
        "trace-context plumbing sites (codec envelope, router forward, server dispatch, replication) keep the context flowing",
    ),
    (
        LOCK_DISCIPLINE,
        "no blocking calls or undeclared nested locks while a lock guard is live",
    ),
    (
        crate::SUPPRESSION_RULE,
        "pragma hygiene: allow() needs a known rule, a reason, and must suppress something",
    ),
];

/// The one-line doc for `name` (empty for unknown names).
pub fn rule_doc(name: &str) -> &'static str {
    RULE_DOCS
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, d)| d)
}

fn diag(fa: &FileAnalysis, line: u32, rule: &'static str, message: String) -> Diagnostic {
    Diagnostic {
        file: fa.rel_path.clone(),
        line,
        rule,
        message,
    }
}

/// Rule 1: a fn marked `// adcast-lint: zero-alloc` may not allocate.
/// Scratch re-use is the sanctioned pattern: pushes are allowed only when
/// the receiver chain goes through `scratch` or a local taken from
/// `self.scratch` via `mem::take`. This is the static complement to the
/// `debug-stats` counting-allocator test (which proves the property
/// dynamically for the inputs it runs).
pub fn no_alloc_steady_state(fa: &FileAnalysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for p in &fa.pragmas {
        if !matches!(p.directive, Directive::ZeroAlloc) {
            continue;
        }
        let Some(f) = fa
            .fns
            .iter()
            .filter(|f| f.line > p.line && f.body_open.is_some())
            .min_by_key(|f| f.line)
        else {
            out.push(diag(
                fa,
                p.line,
                NO_ALLOC_STEADY_STATE,
                "zero-alloc marker is not followed by a function with a body".to_string(),
            ));
            continue;
        };
        let (open, close) = (f.body_open.unwrap_or(0), f.body_close.unwrap_or(0));
        check_zero_alloc_body(fa, open + 1, close, &f.name, &mut out);
    }
    out
}

fn check_zero_alloc_body(
    fa: &FileAnalysis,
    start: usize,
    end: usize,
    fn_name: &str,
    out: &mut Vec<Diagnostic>,
) {
    // Locals bound from `... = std::mem::take(&mut self.scratch.<field>)`.
    let mut scratch_locals: Vec<&str> = Vec::new();
    for i in start..end {
        let t = &fa.tokens[i];
        if !t.is_ident("take") || !fa.tokens.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        let has_mem = (i.saturating_sub(4)..i).any(|j| fa.tokens[j].is_ident("mem"));
        if !has_mem {
            continue;
        }
        let Some(close) = matching_close(&fa.tokens, i + 1) else {
            continue;
        };
        let takes_scratch = fa.tokens[i + 1..close]
            .iter()
            .any(|t| t.is_ident("scratch"));
        if !takes_scratch {
            continue;
        }
        // Walk back over the `std::mem::take` chain to the `=`, then the
        // binding name sits just before it.
        let mut j = i;
        while j > start {
            let prev = &fa.tokens[j - 1];
            if prev.is_punct(':') || prev.is_punct('.') || prev.kind == TokKind::Ident {
                j -= 1;
            } else {
                break;
            }
        }
        if j > start && fa.tokens[j - 1].is_punct('=') && j >= 2 {
            let name = &fa.tokens[j - 2];
            if name.kind == TokKind::Ident {
                scratch_locals.push(name.text.as_str());
            }
        }
    }

    for i in start..end {
        let t = &fa.tokens[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| &fa.tokens[p]);
        let next = fa.tokens.get(i + 1);
        let called = next.is_some_and(|n| n.is_punct('(') || n.is_punct(':'));

        // `Vec::new` / `Box::new` / `String::new` and friends, with or
        // without a turbofish (`Vec::<u32>::new`).
        if matches!(
            t.text.as_str(),
            "Vec" | "Box" | "String" | "HashMap" | "BTreeMap"
        ) && fa.tokens.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && fa.tokens.get(i + 2).is_some_and(|b| b.is_punct(':'))
        {
            let mut m = i + 3;
            if fa.tokens.get(m).is_some_and(|x| x.is_punct('<')) {
                let mut angle = 0i64;
                while let Some(x) = fa.tokens.get(m) {
                    if x.is_punct('<') {
                        angle += 1;
                    } else if x.is_punct('>') {
                        angle -= 1;
                        if angle == 0 {
                            m += 1;
                            break;
                        }
                    }
                    m += 1;
                }
                // Expect `::` after the closing `>`.
                if fa.tokens.get(m).is_some_and(|x| x.is_punct(':'))
                    && fa.tokens.get(m + 1).is_some_and(|x| x.is_punct(':'))
                {
                    m += 2;
                } else {
                    m = usize::MAX;
                }
            }
            let ctor = fa
                .tokens
                .get(m.min(fa.tokens.len()))
                .filter(|c| c.is_ident("new") || c.is_ident("from") || c.is_ident("with_capacity"));
            if let Some(ctor) = ctor {
                out.push(diag(
                    fa,
                    t.line,
                    NO_ALLOC_STEADY_STATE,
                    format!(
                        "`{}::{}` allocates inside zero-alloc fn `{fn_name}`",
                        t.text, ctor.text
                    ),
                ));
                continue;
            }
        }
        // `vec![...]` / `format!(...)`.
        if matches!(t.text.as_str(), "vec" | "format") && next.is_some_and(|n| n.is_punct('!')) {
            out.push(diag(
                fa,
                t.line,
                NO_ALLOC_STEADY_STATE,
                format!("`{}!` allocates inside zero-alloc fn `{fn_name}`", t.text),
            ));
            continue;
        }
        // Allocating method calls.
        if matches!(
            t.text.as_str(),
            "to_vec" | "collect" | "clone" | "to_owned" | "to_string"
        ) && prev.is_some_and(|p| p.is_punct('.'))
            && called
        {
            out.push(diag(
                fa,
                t.line,
                NO_ALLOC_STEADY_STATE,
                format!("`.{}()` allocates inside zero-alloc fn `{fn_name}`", t.text),
            ));
            continue;
        }
        // `push` is allowed only onto scratch-owned storage (capacity is
        // retained across deltas, so steady-state pushes do not allocate).
        if t.is_ident("push")
            && prev.is_some_and(|p| p.is_punct('.'))
            && next.is_some_and(|n| n.is_punct('('))
        {
            let mut chain: Vec<&str> = Vec::new();
            let mut j = i - 1; // the `.`
            while j >= 1 && fa.tokens[j].is_punct('.') && fa.tokens[j - 1].kind == TokKind::Ident {
                chain.push(fa.tokens[j - 1].text.as_str());
                if j < 2 {
                    break;
                }
                j -= 2;
            }
            // `chain` reads receiver-outward: `self.scratch.promote.push`
            // yields ["promote", "scratch", "self"].
            let allowed = chain.iter().any(|n| n.contains("scratch"))
                || chain
                    .first()
                    .is_some_and(|recv| scratch_locals.contains(recv));
            if !allowed {
                out.push(diag(
                    fa,
                    t.line,
                    NO_ALLOC_STEADY_STATE,
                    format!(
                        "`.push()` onto non-scratch storage `{}` inside zero-alloc fn `{fn_name}`",
                        chain.first().copied().unwrap_or("<expr>")
                    ),
                ));
            }
        }
    }
}

/// Rule 2: in mutation handlers, the WAL commit must happen before the store
/// apply. Token-order check: within any fn body that mentions
/// `apply_record`, a `commit(` call must appear earlier in the body.
pub fn wal_ordering(fa: &FileAnalysis) -> Vec<Diagnostic> {
    if !config::wants_wal_ordering(&fa.rel_path) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for f in &fa.fns {
        let (Some(open), Some(close)) = (f.body_open, f.body_close) else {
            continue;
        };
        if fa.in_test[open] {
            continue;
        }
        let apply_at = (open + 1..close).find(|&i| fa.tokens[i].is_ident("apply_record"));
        let Some(apply_at) = apply_at else {
            continue;
        };
        let commit_before = (open + 1..apply_at).any(|i| {
            fa.tokens[i].is_ident("commit") && fa.tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
        });
        if !commit_before {
            out.push(diag(
                fa,
                fa.tokens[apply_at].line,
                WAL_ORDERING,
                format!(
                    "`apply_record` in `{}` without a preceding WAL `commit()`: \
                     durable order is validate-log-commit-apply-ack",
                    f.name
                ),
            ));
        }
    }
    out
}

/// Rule 3: public fallible APIs in `net`/`durability` return the crate's
/// typed error, never `io::Result`/`io::Error` directly; and public error
/// enums are `#[non_exhaustive]` so adding a variant is not a breaking
/// change downstream.
pub fn error_hygiene(fa: &FileAnalysis) -> Vec<Diagnostic> {
    if !config::wants_error_hygiene(&fa.rel_path) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for f in &fa.fns {
        if !f.is_pub || fa.in_test[f.fn_idx] {
            continue;
        }
        let Some((rs, re)) = f.ret else {
            continue;
        };
        let mentions_io = (rs..re.saturating_sub(2)).any(|i| {
            fa.tokens[i].is_ident("io")
                && fa.tokens[i + 1].is_punct(':')
                && fa.tokens[i + 2].is_punct(':')
                && fa
                    .tokens
                    .get(i + 3)
                    .is_some_and(|t| t.is_ident("Result") || t.is_ident("Error"))
        });
        if mentions_io {
            out.push(diag(
                fa,
                f.line,
                ERROR_HYGIENE,
                format!(
                    "pub fn `{}` returns `io::Error` directly; wrap it in the crate's typed error",
                    f.name
                ),
            ));
        }
    }
    // `pub enum <Name>Error` must carry #[non_exhaustive].
    for (i, t) in fa.tokens.iter().enumerate() {
        if !t.is_ident("enum") || fa.in_test[i] {
            continue;
        }
        if !i
            .checked_sub(1)
            .is_some_and(|p| fa.tokens[p].is_ident("pub"))
        {
            continue; // private or restricted visibility
        }
        let Some(name) = fa.tokens.get(i + 1) else {
            continue;
        };
        if name.kind != TokKind::Ident || !name.text.ends_with("Error") {
            continue;
        }
        if !has_non_exhaustive_attr(fa, i - 1) {
            out.push(diag(
                fa,
                t.line,
                ERROR_HYGIENE,
                format!(
                    "pub error enum `{}` is not `#[non_exhaustive]`; adding a variant would \
                     break downstream matches",
                    name.text
                ),
            ));
        }
    }
    out
}

/// Rule 4: the obs record paths must stay lock-free. A metric handle or the
/// flight recorder is hit from every serving thread — the accept loop, each
/// reader, the engine, the durability persister — and from inside the
/// zero-alloc engine kernel, so a lock here would serialize the very paths
/// the telemetry exists to measure. Bans lock type names (`Mutex`,
/// `RwLock`) and `.lock()` calls outside `#[cfg(test)]`.
pub fn no_lock_in_record(fa: &FileAnalysis) -> Vec<Diagnostic> {
    if !config::wants_no_lock(&fa.rel_path) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, t) in fa.tokens.iter().enumerate() {
        if fa.in_test[i] || t.kind != TokKind::Ident {
            continue;
        }
        if matches!(t.text.as_str(), "Mutex" | "RwLock") {
            out.push(diag(
                fa,
                t.line,
                NO_LOCK_IN_RECORD,
                format!(
                    "`{}` in an obs record path; recording must stay lock-free (atomics only)",
                    t.text
                ),
            ));
            continue;
        }
        let prev = i.checked_sub(1).map(|p| &fa.tokens[p]);
        let next = fa.tokens.get(i + 1);
        if t.is_ident("lock")
            && prev.is_some_and(|p| p.is_punct('.'))
            && next.is_some_and(|n| n.is_punct('('))
        {
            out.push(diag(
                fa,
                t.line,
                NO_LOCK_IN_RECORD,
                "`.lock()` in an obs record path; recording must stay lock-free (atomics only)"
                    .to_string(),
            ));
        }
    }
    out
}

/// Rule 5: the generalized `wal-ordering` — a configurable token-order
/// state machine over the replication path. For each [`config::Ladder`]
/// matching this file, every fn with the ladder's name must mention the
/// anchor tokens so that their first occurrences are in ladder order, and
/// a later step may not appear without every earlier one. A configured
/// fn that no longer exists while the file still mentions the ladder's
/// steps (the site was renamed or moved) is itself a diagnostic: a stale
/// config entry silently checks nothing.
pub fn ack_ladder(fa: &FileAnalysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for ladder in config::ACK_LADDERS {
        if ladder.file != fa.rel_path {
            continue;
        }
        let mut found = false;
        for f in fa.fns.iter().filter(|f| f.name == ladder.func) {
            let (Some(open), Some(close)) = (f.body_open, f.body_close) else {
                continue;
            };
            if fa.in_test[f.fn_idx] {
                continue;
            }
            found = true;
            let first: Vec<Option<usize>> = ladder
                .steps
                .iter()
                .map(|s| (open + 1..close).find(|&i| !fa.in_test[i] && fa.tokens[i].is_ident(s)))
                .collect();
            for (j, pj) in first.iter().enumerate() {
                let Some(pj) = *pj else { continue };
                // Report the first broken prerequisite only: one swap
                // should read as one diagnostic, not a cascade.
                for (i, earlier) in first.iter().enumerate().take(j) {
                    match *earlier {
                        Some(pi) if pi < pj => {}
                        Some(_) => {
                            out.push(diag(
                                fa,
                                fa.tokens[pj].line,
                                ACK_LADDER,
                                format!(
                                    "`{}` before `{}` in `{}`; required order is {} ({})",
                                    ladder.steps[j],
                                    ladder.steps[i],
                                    ladder.func,
                                    ladder.steps.join(" -> "),
                                    ladder.doc
                                ),
                            ));
                            break;
                        }
                        None => {
                            out.push(diag(
                                fa,
                                fa.tokens[pj].line,
                                ACK_LADDER,
                                format!(
                                    "`{}` without any preceding `{}` in `{}`; required order is {} ({})",
                                    ladder.steps[j],
                                    ladder.steps[i],
                                    ladder.func,
                                    ladder.steps.join(" -> "),
                                    ladder.doc
                                ),
                            ));
                            break;
                        }
                    }
                }
            }
        }
        // Engage only where the steps are still named outside tests, so a
        // fixture or file unrelated to this ladder stays inert.
        let mentions_steps = fa
            .tokens
            .iter()
            .enumerate()
            .any(|(i, t)| !fa.in_test[i] && ladder.steps.iter().any(|step| t.is_ident(step)));
        if !found && mentions_steps {
            out.push(diag(
                fa,
                1,
                ACK_LADDER,
                format!(
                    "ack-ladder fn `{}` not found; update config::ACK_LADDERS if the site moved",
                    ladder.func
                ),
            ));
        }
    }
    out
}

/// Rule 6: `trace-propagation` — each [`config::TraceSite`] fn must
/// mention every anchor token of the trace plumbing it owns. Membership,
/// not order (`ack-ladder` owns ordering); a missing token means the
/// refactored site dropped the context and every cross-node trace now
/// stops at that hop. Like `ack-ladder`, test fns are skipped and a
/// configured fn that no longer exists is itself a diagnostic — a moved
/// site with a stale config entry silently checks nothing.
pub fn trace_propagation(fa: &FileAnalysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // The rule engages only for files that handle the trace envelope at
    // all (they name `TraceContext` somewhere outside tests). This keeps
    // fixtures and pre-tracing snapshots of a site file inert while still
    // catching the real failure mode: a refactor that keeps the plumbing
    // imports but drops the handoff at one site.
    let handles_traces = fa
        .tokens
        .iter()
        .enumerate()
        .any(|(i, t)| !fa.in_test[i] && t.is_ident("TraceContext"));
    if !handles_traces {
        return out;
    }
    for site in config::TRACE_SITES {
        if site.file != fa.rel_path {
            continue;
        }
        let mut found = false;
        for f in fa.fns.iter().filter(|f| f.name == site.func) {
            let (Some(open), Some(close)) = (f.body_open, f.body_close) else {
                continue;
            };
            if fa.in_test[f.fn_idx] {
                continue;
            }
            found = true;
            for token in site.must_mention {
                let mentioned =
                    (open + 1..close).any(|i| !fa.in_test[i] && fa.tokens[i].is_ident(token));
                if !mentioned {
                    out.push(diag(
                        fa,
                        f.line,
                        TRACE_PROPAGATION,
                        format!("`{}` never mentions `{token}`; {}", site.func, site.doc),
                    ));
                }
            }
        }
        if !found {
            out.push(diag(
                fa,
                1,
                TRACE_PROPAGATION,
                format!(
                    "trace-propagation fn `{}` not found; update config::TRACE_SITES if the \
                     site moved",
                    site.func
                ),
            ));
        }
    }
    out
}

/// A lock acquisition and the token region its guard is live over.
struct LiveGuard {
    /// Token index of the `lock`/`read`/`write` ident.
    call: usize,
    /// Token index closing the acquisition's own `(...)` argument list.
    args_close: usize,
    /// The lock's name: nearest receiver ident before the call.
    name: String,
    /// Exclusive region end: `drop(<binding>)` if present, else the close
    /// of the smallest enclosing block.
    region_end: usize,
    line: u32,
}

/// Rule 7 (scope-aware): while a lock guard is live — from a `.lock()` /
/// RwLock `.read()`/`.write()` acquisition to the end of its enclosing
/// block or an explicit `drop(guard)` — ban calls that can block the
/// thread (socket read/write, channel `recv`, `join`, fsync, sleeps) and
/// nested lock acquisition, except for nestings declared in
/// [`config::LOCK_ORDER`]. Guards returned out of the acquiring fn (the
/// `lock_engine` idiom) are followed to that fn's end; callers of such
/// helpers are out of scope by design — the helper's name documents it.
pub fn lock_discipline(fa: &FileAnalysis) -> Vec<Diagnostic> {
    if !config::is_serving(&fa.rel_path) {
        return Vec::new();
    }
    // `.read()`/`.write()` are lock acquisitions only where RwLock is in
    // scope; elsewhere they are I/O calls (handled by the blocking list).
    let has_rwlock = fa
        .tokens
        .iter()
        .enumerate()
        .any(|(i, t)| !fa.in_test[i] && t.is_ident("RwLock"));
    let mut guards: Vec<LiveGuard> = Vec::new();
    for (i, t) in fa.tokens.iter().enumerate() {
        if fa.in_test[i] {
            continue;
        }
        let is_acquire =
            t.is_ident("lock") || (has_rwlock && (t.is_ident("read") || t.is_ident("write")));
        if !is_acquire
            || !i.checked_sub(1).is_some_and(|p| fa.tokens[p].is_punct('.'))
            || !fa.tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            continue;
        }
        let args_close = matching_close(&fa.tokens, i + 1).unwrap_or(i + 1);
        let block_close = fa
            .enclosing_block(i)
            .map_or(fa.tokens.len().saturating_sub(1), |b| b.close);
        let mut region_end = block_close;
        if let Some(binding) = binding_name(fa, i) {
            for j in args_close..block_close {
                if fa.tokens[j].is_ident("drop")
                    && fa.tokens.get(j + 1).is_some_and(|n| n.is_punct('('))
                    && fa.tokens.get(j + 2).is_some_and(|n| n.is_ident(&binding))
                {
                    region_end = j;
                    break;
                }
            }
        }
        guards.push(LiveGuard {
            call: i,
            args_close,
            name: receiver_name(fa, i - 1),
            region_end,
            line: t.line,
        });
    }
    let mut out = Vec::new();
    for g in &guards {
        for j in g.args_close + 1..g.region_end {
            if fa.in_test[j] || fa.tokens[j].kind != TokKind::Ident {
                continue;
            }
            if let Some(inner) = guards.iter().find(|h| h.call == j) {
                if !config::lock_order_allows(&g.name, &inner.name) {
                    out.push(diag(
                        fa,
                        fa.tokens[j].line,
                        LOCK_DISCIPLINE,
                        format!(
                            "nested lock `{}` acquired while the `{}` guard (line {}) is live; \
                             declare the order in config::LOCK_ORDER or narrow the guard's scope",
                            inner.name, g.name, g.line
                        ),
                    ));
                }
                continue;
            }
            let t = &fa.tokens[j];
            if config::BLOCKING_IN_LOCK.contains(&t.text.as_str())
                && fa.tokens.get(j + 1).is_some_and(|n| n.is_punct('('))
                && !j
                    .checked_sub(1)
                    .is_some_and(|p| fa.tokens[p].is_ident("fn"))
            {
                out.push(diag(
                    fa,
                    t.line,
                    LOCK_DISCIPLINE,
                    format!(
                        "`{}()` may block while the `{}` lock guard (line {}) is live; \
                         drop the guard first or move the call out of the critical section",
                        t.text, g.name, g.line
                    ),
                ));
            }
        }
    }
    out
}

/// The nearest receiver ident left of the `.` at `dot`: walks back over
/// one trailing index/call group (`partitions[i].lock()`, `cell().lock()`).
fn receiver_name(fa: &FileAnalysis, dot: usize) -> String {
    let Some(mut k) = dot.checked_sub(1) else {
        return "<expr>".to_string();
    };
    let closer = fa.tokens[k].text.as_str();
    if closer == "]" || closer == ")" {
        let opener = if closer == "]" { "[" } else { "(" };
        let mut depth = 0i64;
        loop {
            if fa.tokens[k].text == closer {
                depth += 1;
            } else if fa.tokens[k].text == opener {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            match k.checked_sub(1) {
                Some(p) => k = p,
                None => return "<expr>".to_string(),
            }
        }
        match k.checked_sub(1) {
            Some(p) => k = p,
            None => return "<expr>".to_string(),
        }
    }
    if fa.tokens[k].kind == TokKind::Ident {
        fa.tokens[k].text.clone()
    } else {
        "<expr>".to_string()
    }
}

/// The `let` binding receiving the lock call at `call`, if its statement
/// reads `let [mut] <name> = ...`: scan back to the statement boundary.
fn binding_name(fa: &FileAnalysis, call: usize) -> Option<String> {
    let mut k = call;
    while k > 0 {
        let t = &fa.tokens[k - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        k -= 1;
    }
    if !fa.tokens.get(k).is_some_and(|t| t.is_ident("let")) {
        return None;
    }
    let mut n = k + 1;
    if fa.tokens.get(n).is_some_and(|t| t.is_ident("mut")) {
        n += 1;
    }
    fa.tokens
        .get(n)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
}

/// Walk backwards from the token at `before` (the `pub` of an item) over
/// contiguous attribute groups, looking for `non_exhaustive`.
fn has_non_exhaustive_attr(fa: &FileAnalysis, before: usize) -> bool {
    let mut j = before;
    while j >= 1 && fa.tokens[j - 1].is_punct(']') {
        // Find the matching `[` going backwards.
        let mut depth = 0i64;
        let mut k = j - 1;
        loop {
            if fa.tokens[k].is_punct(']') {
                depth += 1;
            } else if fa.tokens[k].is_punct('[') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if k == 0 {
                return false;
            }
            k -= 1;
        }
        if fa.tokens[k..j].iter().any(|t| t.is_ident("non_exhaustive")) {
            return true;
        }
        if k >= 1 && fa.tokens[k - 1].is_punct('#') {
            j = k - 1;
        } else {
            return false;
        }
    }
    false
}
