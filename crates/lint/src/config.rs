//! Which rules apply to which files, and the sites they check.
//!
//! Paths are workspace-relative with forward slashes. The sets are narrow on
//! purpose: a rule that fires on code with legitimate uses of a pattern
//! breeds suppressions, and suppression creep is exactly what this tool
//! exists to prevent (`perf_summary` graphs the suppression count per PR).
//!
//! Invariants that rustc or clippy check live outside this file: the
//! panic-free hot-path files each carry a `#![cfg_attr(not(test),
//! deny(clippy::unwrap_used, ...))]` header, wall-clock and unbounded
//! channel bans sit in `crates/{core,durability,net,cluster}/clippy.toml`,
//! and the workspace `[lints]` table in the root `Cargo.toml` requires a
//! `// SAFETY:` comment on every `unsafe` (DESIGN §10).

/// Crates whose public fallible APIs must return their typed error, never
/// `io::Error`/`io::Result` directly, and whose error enums must be
/// `#[non_exhaustive]`.
pub const ERROR_HYGIENE_PREFIXES: &[&str] = &["crates/net/src/", "crates/durability/src/"];

/// Files where mutation handlers must order WAL commit before store apply.
pub const WAL_ORDERING_FILES: &[&str] = &["crates/net/src/node.rs", "crates/net/src/server.rs"];

/// Obs record paths: metric handles and the flight-recorder ring are called
/// from every serving thread, including inside the zero-alloc engine kernel,
/// so `no-lock-in-record` bans lock types and `.lock()` calls here. The
/// registry (register/expose only — both off the hot path) is deliberately
/// not in this set.
pub const NO_LOCK_FILES: &[&str] = &[
    "crates/obs/src/metrics.rs",
    "crates/obs/src/flightrec.rs",
    "crates/obs/src/tracestore.rs",
];

/// One trace-context plumbing site for `trace-propagation`: within the
/// named fn's body, every token in `must_mention` has to appear. The
/// tokens anchor the plumbing a site is responsible for (encoding the
/// envelope, deriving a child context, capturing the wire context), so a
/// refactor that drops the context on the floor — forwarding a request
/// without its trace, shipping a batch with `TraceContext::NONE` — is a
/// diagnostic, not a silent hole in every cross-node trace.
pub struct TraceSite {
    pub file: &'static str,
    pub func: &'static str,
    pub must_mention: &'static [&'static str],
    /// The invariant in words, for diagnostics.
    pub doc: &'static str,
}

/// Every trace-propagation site. The codec entries pin the v6 trace
/// envelope itself (16 bytes after the epoch in `Routed`/`ReplAppend`);
/// the router/node/replication entries pin the handoff at each process
/// boundary of the routed ack ladder (DESIGN §15).
pub const TRACE_SITES: &[TraceSite] = &[
    TraceSite {
        file: "crates/net/src/codec.rs",
        func: "put_request",
        must_mention: &["put_trace"],
        doc: "request encode writes the 16-byte trace envelope after the epoch",
    },
    TraceSite {
        file: "crates/net/src/codec.rs",
        func: "take_request",
        must_mention: &["get_trace"],
        doc: "request decode reads the trace envelope back off the wire",
    },
    TraceSite {
        file: "crates/cluster/src/router.rs",
        func: "forward",
        must_mention: &["trace", "child"],
        doc: "router forwarding derives a child context and puts it in the Routed envelope",
    },
    TraceSite {
        file: "crates/net/src/node.rs",
        func: "handle",
        must_mention: &["cur_trace"],
        doc: "the node captures the wire context before handling the request",
    },
    TraceSite {
        file: "crates/net/src/node.rs",
        func: "replicate",
        must_mention: &["trace", "child"],
        doc: "primary->follower shipment carries a child of the request's context",
    },
];

/// A token-order state machine for `ack-ladder`: within the named fn's
/// body, the first occurrences of the anchor tokens must appear in `steps`
/// order, and a later step may not appear without every earlier one.
pub struct Ladder {
    pub file: &'static str,
    pub func: &'static str,
    pub steps: &'static [&'static str],
    /// The invariant in words, for diagnostics.
    pub doc: &'static str,
}

/// The replication-path ladders. The client-facing ack is structural (the
/// dispatch arm's reply is sent only after `log_apply` returns), so the
/// ladders pin everything up to it: primary WAL order, the follower's
/// durable-commit-before-ack, and the follower apply order.
pub const ACK_LADDERS: &[Ladder] = &[
    Ladder {
        file: "crates/net/src/node.rs",
        func: "log_apply",
        steps: &["log", "commit", "apply_record", "replicate"],
        doc: "primary mutations go WAL log -> commit -> apply -> replicate",
    },
    Ladder {
        file: "crates/net/src/node.rs",
        func: "serve_one",
        steps: &["replica_append", "ReplAck"],
        doc: "a follower acks (`ReplAck`) only after `replica_append` made the batch durable",
    },
    Ladder {
        file: "crates/net/src/replication.rs",
        func: "replica_append",
        steps: &["log", "commit", "apply_record"],
        doc: "the follower logs and commits the whole batch before applying it",
    },
];

/// Crates whose code runs on serving threads: `lock-discipline` (no
/// blocking calls or undeclared nested locks while a guard is live)
/// applies here. The durability persister and obs/bench machinery are
/// deliberately outside: the former owns its fsync latency, the latter
/// never serves.
pub const SERVING_PREFIXES: &[&str] =
    &["crates/net/src/", "crates/cluster/src/", "crates/core/src/"];

/// Calls that can block the thread; banned while a lock guard is live.
/// `send` on a `sync_channel` can block too but is deliberately absent:
/// every serving queue is sized so protocol-bounded sends never fill it,
/// and banning `send` would outlaw the reply-channel idiom wholesale.
pub const BLOCKING_IN_LOCK: &[&str] = &[
    "read",
    "write",
    "read_frame",
    "write_frame",
    "recv",
    "recv_timeout",
    "recv_deadline",
    "accept",
    "connect",
    "join",
    "sync_all",
    "sync_data",
    "flush",
    "sleep",
    "park",
    "wait",
    "wait_timeout",
];

/// Declared lock order: acquiring the second lock while holding a guard
/// on the first is sanctioned. Seeded with the router's design: the
/// global broadcast lock is taken first, then the forwarders take
/// per-partition locks underneath it (deterministic broadcast delivery
/// order requires exactly this nesting).
pub const LOCK_ORDER: &[(&str, &str)] = &[("broadcast", "partitions")];

/// Directory names skipped entirely when walking the workspace. `adbench`
/// is its own Cargo workspace outside the `[lints]` table; its `unsafe`
/// check is a clippy step in `scripts/check.sh`.
pub const SKIP_DIRS: &[&str] = &[".git", "target", "vendor", "results", "fixtures", "adbench"];

pub fn wants_error_hygiene(rel: &str) -> bool {
    ERROR_HYGIENE_PREFIXES.iter().any(|p| rel.starts_with(p))
}

pub fn wants_wal_ordering(rel: &str) -> bool {
    WAL_ORDERING_FILES.contains(&rel)
}

pub fn wants_no_lock(rel: &str) -> bool {
    NO_LOCK_FILES.contains(&rel)
}

pub fn is_serving(rel: &str) -> bool {
    SERVING_PREFIXES.iter().any(|p| rel.starts_with(p))
}

/// Is holding `held` while acquiring `acquired` a declared order?
pub fn lock_order_allows(held: &str, acquired: &str) -> bool {
    LOCK_ORDER.iter().any(|&(h, a)| h == held && a == acquired)
}
