//! # adcast-obs — runtime telemetry for the serving stack
//!
//! The paper's claim is a latency/throughput envelope; this crate makes a
//! *running* `adcast-serve` show its own envelope instead of being a black
//! box behind one cumulative `ServerStats` RPC:
//!
//! * [`metrics`] — lock-free handles (counters, gauges, log-bucket
//!   histograms) whose hot-path mutations are a couple of relaxed atomics:
//!   no locks, no allocation, no panics, safe inside `apply_feed_delta`,
//! * [`registry`] — name → handle registration and the process-wide
//!   [`registry()`] instance every layer registers into,
//! * [`expo`] — Prometheus text-format writer plus a validating parser
//!   (tests, `check.sh`, and the loadgen's end-of-run scrape),
//! * [`http`] — the hand-rolled `GET /metrics` + `GET /healthz` listener
//!   behind `adcast-serve --obs-addr`, and the std-only `curl` stand-in,
//! * [`flightrec`] — a fixed-size lock-free ring of recent structured
//!   events, dumped as JSON-lines on panic, shutdown, or `ObsDump`,
//! * [`tracestore`] — the distributed-tracing span ring plus the 16-byte
//!   [`TraceContext`] the v6 wire envelopes carry across hops,
//! * `ring` (crate-private) — the one lock-free seq-claim ring both of
//!   the above record into,
//! * [`ready`] — the `/readyz` bitmask replication flips while degraded
//!   or mid-catch-up,
//! * [`federate`] — the router-side federation of member `/metrics`,
//!   `/traces` stitching, and `/readyz` aggregation.
//!
//! Metric names follow `adcast_<layer>_<name>_<unit>` (counters end in
//! `_total`, duration histograms in `_ns`); see DESIGN.md §11 for the
//! full span table and the overhead budget.

pub mod expo;
pub mod federate;
pub mod flightrec;
pub mod http;
pub mod metrics;
pub mod ready;
pub mod registry;
mod ring;
pub mod tracestore;

pub use expo::{
    escape_label_value, find_family, histogram_quantile, parse_exposition, render_labels,
    ParsedFamily, Sample,
};
pub use federate::{Federator, Member};
pub use flightrec::{flightrec, install_panic_dump, Event, EventKind, FlightRecorder};
pub use http::{http_get, Handler, HttpResponse, ObsServer};
pub use metrics::{Counter, Gauge, Hist};
pub use ready::{readiness, Readiness, UNREADY_CATCHING_UP, UNREADY_DEGRADED};
pub use registry::{registry, FamilyKind, Registry};
pub use tracestore::{span_id, trace_id_for, tracestore, Span, SpanKind, TraceContext, TraceStore};
