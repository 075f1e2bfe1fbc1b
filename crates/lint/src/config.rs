//! Which rules apply to which files.
//!
//! Paths are workspace-relative with forward slashes. The sets are narrow on
//! purpose: a rule that fires on code with legitimate uses of a pattern
//! breeds suppressions, and suppression creep is exactly what this tool
//! exists to prevent (`perf_summary` graphs the suppression count per PR).

/// Hot-path modules: the blocked ad index and its evaluators, the engine
/// steady state, the net node (request dispatch and ack ladder), server
/// transport loop and codec, the durability
/// commit/replay paths, the cluster router forwarding and replication
/// apply paths (every routed RPC and every replicated record crosses
/// them), and the obs record paths (metric handles and the
/// flight-recorder ring run inside all of the former).
/// `no-panic-hot-path` bans `unwrap`/`expect`/`panic!`-family macros here.
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/adstore/src/index.rs",
    "crates/cluster/src/router.rs",
    "crates/core/src/engine/blockmax.rs",
    "crates/core/src/engine/incremental.rs",
    "crates/core/src/engine/index_scan.rs",
    "crates/net/src/node.rs",
    "crates/net/src/server.rs",
    "crates/net/src/replication.rs",
    "crates/textproc/src/kernels.rs",
    "crates/net/src/codec.rs",
    "crates/durability/src/wal.rs",
    "crates/durability/src/apply.rs",
    "crates/durability/src/recovery.rs",
    "crates/durability/src/manager.rs",
    "crates/obs/src/metrics.rs",
    "crates/obs/src/flightrec.rs",
    "crates/obs/src/tracestore.rs",
];

/// Subset of the hot set where bare slice indexing (`x[i]`) is also banned
/// in favour of `.get()`. The engine kernel and codec index scratch buffers
/// with loop-invariant bounds everywhere, so they are exempt; the control
/// paths below have no legitimate reason to index.
pub const INDEX_CHECKED_FILES: &[&str] = &[
    "crates/net/src/node.rs",
    "crates/net/src/server.rs",
    "crates/durability/src/apply.rs",
    "crates/durability/src/recovery.rs",
    "crates/durability/src/manager.rs",
    "crates/durability/src/wal.rs",
];

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

/// Crates whose non-test code must read time through
/// `adcast_stream::clock::now_ns()` rather than `Instant::now()` /
/// `SystemTime::now()`. These are the crates the simulation harness runs
/// under virtual time; a raw wall-clock read there is invisible to the
/// simulator and breaks same-seed reproducibility. The clock seam itself
/// (`crates/stream/src/clock.rs`) and the obs/bench crates (measurement
/// machinery, never simulated) are deliberately outside this set.
pub const NO_WALLCLOCK_PREFIXES: &[&str] = &[
    "crates/cluster/src/",
    "crates/core/src/",
    "crates/durability/src/",
    "crates/net/src/",
];

/// Where the wire protocol's `Request`/`Response` enums are declared; the
/// single source of truth `rpc-exhaustive` diffs every site against.
pub const PROTOCOL_FILE: &str = "crates/net/src/protocol.rs";

/// One place where every protocol variant must be handled.
pub struct RpcSite {
    /// Workspace-relative file holding the site.
    pub file: &'static str,
    /// Function whose body must mention every variant (same-named fns in
    /// one file are merged, so impl methods need no qualification).
    pub func: &'static str,
    /// `"Request"` or `"Response"`.
    pub enum_name: &'static str,
    /// Short human name used in diagnostics.
    pub role: &'static str,
    /// Variants this site never sees **by design**. Each entry is checked
    /// the other way too: an excepted variant that the site does handle
    /// is a stale exemption and diagnosed.
    pub except: &'static [&'static str],
}

/// Every conformance site for `rpc-exhaustive`. The router's broadcast
/// merge table legitimately skips the kinds that never cross the router:
/// cluster RPCs (`ReplAck`, `SnapshotInstalled`, `Promoted`,
/// `ClusterStatusReply`) are dialed node-direct and refused by
/// `route_one`; `Ingested` merges in `route_one`'s scatter-gather, not in
/// the broadcast path; `Recommendations` pass through the router opaquely.
pub const RPC_SITES: &[RpcSite] = &[
    RpcSite {
        file: "crates/net/src/codec.rs",
        func: "put_request",
        enum_name: "Request",
        role: "codec encode",
        except: &[],
    },
    RpcSite {
        // `decode_request` delegates to `take_request` (the seam that caps
        // `Routed` nesting at one); the variants are constructed there.
        file: "crates/net/src/codec.rs",
        func: "take_request",
        enum_name: "Request",
        role: "codec decode",
        except: &[],
    },
    RpcSite {
        file: "crates/net/src/codec.rs",
        func: "encode_response",
        enum_name: "Response",
        role: "codec encode",
        except: &[],
    },
    RpcSite {
        file: "crates/net/src/codec.rs",
        func: "decode_response",
        enum_name: "Response",
        role: "codec decode",
        except: &[],
    },
    RpcSite {
        file: "crates/net/src/node.rs",
        func: "serve_one",
        enum_name: "Request",
        role: "node dispatch",
        except: &[],
    },
    RpcSite {
        file: "crates/net/src/node.rs",
        func: "req_kind_code",
        enum_name: "Request",
        role: "flight-recorder kind table",
        except: &[],
    },
    RpcSite {
        file: "crates/cluster/src/router.rs",
        func: "route_one",
        enum_name: "Request",
        role: "router forward table",
        except: &[],
    },
    RpcSite {
        file: "crates/cluster/src/router.rs",
        func: "merge_broadcast",
        enum_name: "Response",
        role: "router broadcast merge table",
        except: &[
            "Ingested",
            "Recommendations",
            "ReplAck",
            "SnapshotInstalled",
            "Promoted",
            "ClusterStatusReply",
        ],
    },
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
/// blocking calls or undeclared nested locks while a guard is live) and
/// `bounded-channel` (no unbounded `mpsc::channel()`) apply here. The
/// durability persister and obs/bench machinery are deliberately outside:
/// the former owns its fsync latency, the latter never serves.
pub const SERVING_PREFIXES: &[&str] =
    &["crates/net/src/", "crates/cluster/src/", "crates/core/src/"];

/// Calls that can block the thread; banned while a lock guard is live.
/// `send` on a `sync_channel` can block too but is deliberately absent:
/// the bounded-channel conversions size every queue so protocol-bounded
/// sends never fill it, and banning `send` would outlaw the reply-channel
/// idiom wholesale.
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

/// Directory names skipped entirely when walking the workspace.
pub const SKIP_DIRS: &[&str] = &[".git", "target", "vendor", "results", "fixtures"];

pub fn is_hot_path(rel: &str) -> bool {
    HOT_PATH_FILES.contains(&rel)
}

pub fn is_index_checked(rel: &str) -> bool {
    INDEX_CHECKED_FILES.contains(&rel)
}

pub fn wants_error_hygiene(rel: &str) -> bool {
    ERROR_HYGIENE_PREFIXES.iter().any(|p| rel.starts_with(p))
}

pub fn wants_wal_ordering(rel: &str) -> bool {
    WAL_ORDERING_FILES.contains(&rel)
}

pub fn wants_no_lock(rel: &str) -> bool {
    NO_LOCK_FILES.contains(&rel)
}

pub fn wants_no_wallclock(rel: &str) -> bool {
    NO_WALLCLOCK_PREFIXES.iter().any(|p| rel.starts_with(p))
}

pub fn is_serving(rel: &str) -> bool {
    SERVING_PREFIXES.iter().any(|p| rel.starts_with(p))
}

/// Is holding `held` while acquiring `acquired` a declared order?
pub fn lock_order_allows(held: &str, acquired: &str) -> bool {
    LOCK_ORDER.iter().any(|&(h, a)| h == held && a == acquired)
}
