//! Distributed-tracing span store: a fixed-size lock-free ring of recent
//! spans plus the wire-facing [`TraceContext`] every hop propagates.
//!
//! A sampled request carries a 16-byte context (`trace_id`,
//! `parent_span_id`) inside the `Routed`/`ReplAppend` envelopes; each hop
//! records its span into the per-process ring and forwards a context whose
//! parent is its own span id. Span ids are **derived, not random**:
//! `span_id = mix(trace_id, kind, parent, salt)`, so a hop knows its span
//! id *before* the downstream call returns (the replicate span's id rides
//! in the `ReplAppend` it is still timing) and the same seed reproduces
//! the same ids under the sim harness's virtual clock.
//!
//! Recording follows the flight recorder's seq-claim/Release-publish
//! discipline exactly — one relaxed RMW to claim a sequence, plain stores
//! into the claimed slot, a release store of the sequence to publish —
//! so it stays inside the same ≤100 ns budget and is safe from any
//! serving thread. Readers double-load the sequence and skip torn slots.
//!
//! The store never reads a clock: callers pass `start_ns`/`dur_ns` read
//! through their own seam (`adcast_stream::clock::now_ns()` on serving
//! paths), which is what keeps sim traces byte-identical across runs.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable
    )
)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The 16-byte trace context carried on the wire: `trace_id` then
/// `parent_span_id`, both little-endian `u64`s. An all-zero context means
/// "not sampled" — `trace_id == 0` is never a live trace id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// Identifies the whole request tree; 0 ⇔ unsampled.
    pub trace_id: u64,
    /// The span id of the upstream hop (0 at the root).
    pub parent_span_id: u64,
}

impl TraceContext {
    /// The unsampled context (all zeros on the wire).
    pub const NONE: TraceContext = TraceContext {
        trace_id: 0,
        parent_span_id: 0,
    };

    /// Whether spans should be recorded for this request.
    #[must_use]
    pub fn sampled(&self) -> bool {
        self.trace_id != 0
    }

    /// The context a hop forwards downstream after recording (or before
    /// recording — ids are derived, see [`span_id`]) its own span.
    #[must_use]
    pub fn child(&self, kind: SpanKind, salt: u64) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            parent_span_id: span_id(self.trace_id, kind, self.parent_span_id, salt),
        }
    }
}

/// Where in the request path a span was recorded. Codes are stable: they
/// appear on the wire (`kind_code`) in `/traces` JSON.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// Router: one partition forward, round trip.
    RouterForward = 1,
    /// Node: admission-queue wait before the engine thread picked it up.
    QueueWait = 2,
    /// Primary: WAL log + group commit (fsync).
    WalCommit = 3,
    /// Primary: store/driver apply of the committed record.
    EngineApply = 4,
    /// Primary: replicate-to-follower round trip (the durable-ack wait).
    Replicate = 5,
    /// Follower: WAL log + commit of the replicated batch.
    FollowerCommit = 6,
    /// Follower: apply of the replicated batch.
    FollowerApply = 7,
    /// Node: recommend evaluation (read path; no ack ladder).
    Recommend = 8,
}

impl SpanKind {
    /// Decode a stable code (see the enum discriminants).
    #[must_use]
    pub fn from_code(code: u64) -> Option<SpanKind> {
        match code {
            1 => Some(SpanKind::RouterForward),
            2 => Some(SpanKind::QueueWait),
            3 => Some(SpanKind::WalCommit),
            4 => Some(SpanKind::EngineApply),
            5 => Some(SpanKind::Replicate),
            6 => Some(SpanKind::FollowerCommit),
            7 => Some(SpanKind::FollowerApply),
            8 => Some(SpanKind::Recommend),
            _ => None,
        }
    }

    /// The `"kind"` string in `/traces` JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::RouterForward => "router_forward",
            SpanKind::QueueWait => "queue_wait",
            SpanKind::WalCommit => "wal_commit",
            SpanKind::EngineApply => "engine_apply",
            SpanKind::Replicate => "replicate",
            SpanKind::FollowerCommit => "follower_commit",
            SpanKind::FollowerApply => "follower_apply",
            SpanKind::Recommend => "recommend",
        }
    }
}

/// SplitMix64 finalizer: the id/trace derivation mixer. Public so the
/// sim harness and tests can predict ids.
#[must_use]
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic head-based sampling: the trace id for the `ordinal`-th
/// sampled request under `seed`. Never 0 (0 means unsampled).
#[must_use]
pub fn trace_id_for(seed: u64, ordinal: u64) -> u64 {
    let id = mix(seed ^ mix(ordinal ^ 0x00AD_CA57));
    if id == 0 {
        1
    } else {
        id
    }
}

/// The head-sampling decision for the `ordinal`-th candidate request when
/// every `every`-th one is sampled (0 = never): a root context whose id is
/// [`trace_id_for`]`(seed, ordinal)`, or [`TraceContext::NONE`]. The
/// router and the simulator both sample through this, so a rerun samples
/// the same requests under the same ids.
#[must_use]
pub fn head_sample(seed: u64, every: u64, ordinal: u64) -> TraceContext {
    if every == 0 || !ordinal.is_multiple_of(every) {
        return TraceContext::NONE;
    }
    TraceContext {
        trace_id: trace_id_for(seed, ordinal),
        parent_span_id: 0,
    }
}

/// The derived span id for a hop: a pure function of the trace, the span
/// site, the upstream span, and a per-site salt (the partition id, so the
/// fan-out legs of one broadcast get distinct ids). Never 0.
#[must_use]
pub fn span_id(trace_id: u64, kind: SpanKind, parent_span_id: u64, salt: u64) -> u64 {
    let id = mix(trace_id ^ mix(kind as u64 ^ mix(parent_span_id ^ mix(salt))));
    if id == 0 {
        1
    } else {
        id
    }
}

/// One decoded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub seq: u64,
    pub trace_id: u64,
    pub span_id: u64,
    pub parent_span_id: u64,
    pub kind: SpanKind,
    /// Clock-seam nanoseconds when the span started.
    pub start_ns: u64,
    /// Span duration, nanoseconds.
    pub dur_ns: u64,
}

/// `seq` 0 marks a never-written slot; live sequence numbers start at 1.
struct Slot {
    seq: AtomicU64,
    trace_id: AtomicU64,
    span_id: AtomicU64,
    parent_span_id: AtomicU64,
    kind: AtomicU64,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            trace_id: AtomicU64::new(0),
            span_id: AtomicU64::new(0),
            parent_span_id: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            start_ns: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
        }
    }
}

/// Ring capacity of the process-wide store: at 7×8 bytes per slot this is
/// ~224 KiB — a few hundred sampled requests of history, enough for an
/// end-of-run stitch at smoke sampling rates, irrelevant to the memory
/// budget.
pub const TRACE_CAPACITY: usize = 4096;

/// The span ring. Most code records through the process-wide
/// [`tracestore`]; standalone instances exist for tests and benches.
pub struct TraceStore {
    slots: Box<[Slot]>,
    /// Next sequence number to claim (starts at 1).
    head: AtomicU64,
    /// Spans recorded since process start (sampling telemetry).
    recorded: AtomicU64,
}

impl TraceStore {
    /// A store holding the most recent `capacity.max(1)` spans.
    #[must_use]
    pub fn new(capacity: usize) -> TraceStore {
        let capacity = capacity.max(1);
        let mut slots = Vec::with_capacity(capacity);
        for _ in 0..capacity {
            slots.push(Slot::empty());
        }
        TraceStore {
            slots: slots.into_boxed_slice(),
            head: AtomicU64::new(1),
            recorded: AtomicU64::new(0),
        }
    }

    /// Record one span. Lock-free and allocation-free: one relaxed RMW to
    /// claim a sequence number, then plain stores into the claimed slot,
    /// publishing with a release store of the sequence — the same ≤100 ns
    /// discipline as the flight recorder's `record()`.
    #[inline]
    pub fn record(&self, ctx: TraceContext, kind: SpanKind, salt: u64, start_ns: u64, dur_ns: u64) {
        if !ctx.sampled() {
            return;
        }
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq as usize) % self.slots.len()];
        // Invalidate first so a reader that catches us mid-write sees the
        // seq change across its two loads and discards the slot.
        slot.seq.store(0, Ordering::Release);
        slot.trace_id.store(ctx.trace_id, Ordering::Relaxed);
        slot.span_id.store(
            span_id(ctx.trace_id, kind, ctx.parent_span_id, salt),
            Ordering::Relaxed,
        );
        slot.parent_span_id
            .store(ctx.parent_span_id, Ordering::Relaxed);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.start_ns.store(start_ns, Ordering::Relaxed);
        slot.dur_ns.store(dur_ns, Ordering::Relaxed);
        slot.seq.store(seq, Ordering::Release);
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// Spans recorded since creation (ring wraparound included).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Bytes resident in the ring (capacity × slot size).
    #[must_use]
    pub fn store_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Slot>()
    }

    /// Snapshot the ring's stable contents, oldest first. Slots being
    /// concurrently overwritten are skipped.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 {
                continue;
            }
            let trace_id = slot.trace_id.load(Ordering::Relaxed);
            let span_id = slot.span_id.load(Ordering::Relaxed);
            let parent_span_id = slot.parent_span_id.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed);
            let start_ns = slot.start_ns.load(Ordering::Relaxed);
            let dur_ns = slot.dur_ns.load(Ordering::Relaxed);
            let after = slot.seq.load(Ordering::Acquire);
            if before != after {
                continue; // torn: a writer got between our two loads
            }
            let Some(kind) = SpanKind::from_code(kind) else {
                continue;
            };
            out.push(Span {
                seq: before,
                trace_id,
                span_id,
                parent_span_id,
                kind,
                start_ns,
                dur_ns,
            });
        }
        out.sort_by_key(|s| s.seq);
        out
    }

    /// The spans of one trace, oldest first.
    #[must_use]
    pub fn trace(&self, trace_id: u64) -> Vec<Span> {
        let mut out = self.spans();
        out.retain(|s| s.trace_id == trace_id);
        out
    }

    /// Distinct trace ids currently resident, with span counts, in
    /// first-seen order.
    #[must_use]
    pub fn trace_ids(&self) -> Vec<(u64, usize)> {
        let mut out: Vec<(u64, usize)> = Vec::new();
        for span in self.spans() {
            match out.iter_mut().find(|(id, _)| *id == span.trace_id) {
                Some((_, n)) => *n += 1,
                None => out.push((span.trace_id, 1)),
            }
        }
        out
    }
}

/// The process-wide trace store ([`TRACE_CAPACITY`] slots).
pub fn tracestore() -> &'static TraceStore {
    static GLOBAL: OnceLock<TraceStore> = OnceLock::new();
    GLOBAL.get_or_init(|| TraceStore::new(TRACE_CAPACITY))
}

// ---------------------------------------------------------------------------
// JSON rendering + the stitch-side parser.
//
// One span object per line inside the array, every numeric field flat, so
// the router's stitcher can parse member responses with a line scanner
// instead of a general JSON parser.
// ---------------------------------------------------------------------------

/// Escape a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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

/// One span as a JSON object. `node`/`partition`/`role` are the stitcher's
/// annotations; pass `None` for the per-process endpoints.
#[must_use]
pub fn render_span_json(span: &Span, origin: Option<(&str, u16, &str)>) -> String {
    let mut line = format!(
        "{{\"trace_id\":{},\"span_id\":{},\"parent_span_id\":{},\"kind\":\"{}\",\
         \"kind_code\":{},\"start_ns\":{},\"dur_ns\":{}",
        span.trace_id,
        span.span_id,
        span.parent_span_id,
        span.kind.name(),
        span.kind as u64,
        span.start_ns,
        span.dur_ns
    );
    if let Some((node, partition, role)) = origin {
        line.push_str(&format!(
            ",\"node\":\"{}\",\"partition\":{partition},\"role\":\"{}\"",
            json_escape(node),
            json_escape(role)
        ));
    }
    line.push('}');
    line
}

/// `GET /traces` body: the resident trace ids with span counts.
#[must_use]
pub fn render_trace_list_json(ids: &[(u64, usize)]) -> String {
    let mut out = String::from("{\"traces\":[\n");
    for (i, (id, spans)) in ids.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!("{{\"trace_id\":{id},\"spans\":{spans}}}"));
    }
    out.push_str("\n]}\n");
    out
}

/// `GET /traces/<id>` body: one trace's spans (optionally stitched with
/// per-span origin annotations, aligned by index when provided).
#[must_use]
pub fn render_trace_json(
    trace_id: u64,
    spans: &[Span],
    origins: Option<&[(String, u16, String)]>,
) -> String {
    let mut out = format!("{{\"trace_id\":{trace_id},\"spans\":[\n");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let origin = origins
            .and_then(|o| o.get(i))
            .map(|(n, p, r)| (n.as_str(), *p, r.as_str()));
        out.push_str(&render_span_json(span, origin));
    }
    out.push_str("\n]}\n");
    out
}

/// Extract the `u64` immediately following `"key":` in `line`.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parse a `/traces/<id>` body back into spans (the stitcher's consumer
/// side). Tolerant by construction: spans are one-per-line, so a line
/// missing a numeric field is skipped rather than failing the stitch.
#[must_use]
pub fn parse_trace_json(body: &str) -> Vec<Span> {
    let mut out = Vec::new();
    for line in body.lines() {
        let (Some(trace_id), Some(span_id), Some(parent), Some(kind_code)) = (
            json_u64(line, "trace_id"),
            json_u64(line, "span_id"),
            json_u64(line, "parent_span_id"),
            json_u64(line, "kind_code"),
        ) else {
            continue;
        };
        let Some(kind) = SpanKind::from_code(kind_code) else {
            continue;
        };
        out.push(Span {
            seq: 0,
            trace_id,
            span_id,
            parent_span_id: parent,
            kind,
            start_ns: json_u64(line, "start_ns").unwrap_or(0),
            dur_ns: json_u64(line, "dur_ns").unwrap_or(0),
        });
    }
    out
}

/// Parse a `/traces` listing body back into `(trace_id, spans)` pairs.
#[must_use]
pub fn parse_trace_list_json(body: &str) -> Vec<(u64, usize)> {
    let mut out = Vec::new();
    for line in body.lines() {
        if let (Some(id), Some(spans)) = (json_u64(line, "trace_id"), json_u64(line, "spans")) {
            out.push((id, spans as usize));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsampled_contexts_record_nothing() {
        let store = TraceStore::new(8);
        store.record(TraceContext::NONE, SpanKind::QueueWait, 0, 1, 2);
        assert!(store.spans().is_empty());
        assert_eq!(store.recorded(), 0);
    }

    #[test]
    fn span_ids_are_deterministic_and_chain() {
        let root = TraceContext {
            trace_id: trace_id_for(0xADCA57, 3),
            parent_span_id: 0,
        };
        assert!(root.sampled());
        let fwd = root.child(SpanKind::RouterForward, 1);
        let fwd2 = root.child(SpanKind::RouterForward, 1);
        assert_eq!(fwd, fwd2, "derivation is pure");
        assert_ne!(
            root.child(SpanKind::RouterForward, 0).parent_span_id,
            fwd.parent_span_id,
            "salt (partition) separates fan-out legs"
        );
        let queue = fwd.child(SpanKind::QueueWait, 1);
        assert_eq!(queue.trace_id, root.trace_id);
        assert_ne!(queue.parent_span_id, fwd.parent_span_id);
    }

    #[test]
    fn ring_wraps_and_query_by_trace_works() {
        let store = TraceStore::new(8);
        let a = TraceContext {
            trace_id: 11,
            parent_span_id: 0,
        };
        let b = TraceContext {
            trace_id: 22,
            parent_span_id: 0,
        };
        for i in 0..6u64 {
            store.record(a, SpanKind::QueueWait, i, i, 1);
        }
        for i in 0..3u64 {
            store.record(b, SpanKind::WalCommit, i, i, 2);
        }
        assert_eq!(store.spans().len(), 8, "capacity bounds the snapshot");
        assert_eq!(store.trace(22).len(), 3);
        // Trace 11 lost its oldest span to the wrap.
        assert_eq!(store.trace(11).len(), 5);
        let ids = store.trace_ids();
        assert_eq!(ids, vec![(11, 5), (22, 3)]);
        assert_eq!(store.recorded(), 9);
        assert_eq!(store.store_bytes(), 8 * std::mem::size_of::<Slot>());
    }

    #[test]
    fn json_round_trips_through_the_stitch_parser() {
        let store = TraceStore::new(16);
        let ctx = TraceContext {
            trace_id: trace_id_for(7, 0),
            parent_span_id: 0,
        };
        store.record(ctx, SpanKind::RouterForward, 0, 100, 250);
        let next = ctx.child(SpanKind::RouterForward, 0);
        store.record(next, SpanKind::QueueWait, 0, 350, 40);
        let spans = store.trace(ctx.trace_id);
        let body = render_trace_json(ctx.trace_id, &spans, None);
        let parsed = parse_trace_json(&body);
        assert_eq!(parsed.len(), 2);
        for (p, s) in parsed.iter().zip(&spans) {
            assert_eq!(p.trace_id, s.trace_id);
            assert_eq!(p.span_id, s.span_id);
            assert_eq!(p.parent_span_id, s.parent_span_id);
            assert_eq!(p.kind, s.kind);
            assert_eq!(p.start_ns, s.start_ns);
            assert_eq!(p.dur_ns, s.dur_ns);
        }
        assert_eq!(parsed[1].parent_span_id, parsed[0].span_id, "chain links");
        let listing = render_trace_list_json(&store.trace_ids());
        assert_eq!(parse_trace_list_json(&listing), vec![(ctx.trace_id, 2)]);
    }

    #[test]
    fn stitched_spans_carry_origin_annotations() {
        let span = Span {
            seq: 1,
            trace_id: 9,
            span_id: 8,
            parent_span_id: 7,
            kind: SpanKind::Replicate,
            start_ns: 5,
            dur_ns: 6,
        };
        let line = render_span_json(&span, Some(("127.0.0.1:9\"x", 3, "primary")));
        assert!(line.contains("\"node\":\"127.0.0.1:9\\\"x\""));
        assert!(line.contains("\"partition\":3"));
        assert!(line.contains("\"role\":\"primary\""));
        let parsed = parse_trace_json(&line);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].kind, SpanKind::Replicate);
    }

    #[test]
    fn concurrent_recording_never_produces_garbage() {
        let store = std::sync::Arc::new(TraceStore::new(32));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let store = store.clone();
                std::thread::spawn(move || {
                    let ctx = TraceContext {
                        trace_id: t + 1,
                        parent_span_id: 0,
                    };
                    for i in 0..5_000u64 {
                        store.record(ctx, SpanKind::QueueWait, t, i, 1);
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            for s in store.spans() {
                assert!(s.seq > 0);
                assert!(s.trace_id >= 1 && s.trace_id <= 4);
                assert_eq!(s.kind, SpanKind::QueueWait);
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(store.spans().len(), 32);
    }
}
