//! The traced run: a second socket pass with the server's telemetry on,
//! and the per-layer ledger assembled from the replay spans, the server's
//! own exported families, and the end-to-end pass they should explain.

use adcast::core::EngineStats;
use adcast::net::ServerStats;
use adcast::obs::tracestore::{parse_trace_json, parse_trace_list_json};
use adcast::obs::{find_family, http_get, parse_exposition, ParsedFamily, SpanKind};

use crate::drive::{self, Kind, Outcome};
use crate::ledger::{Twin, ROOT_INGEST, ROOT_READ};
use crate::metrics::Metrics;
use crate::spans::{durations, self_times, Recorder, Span};
use crate::stats::{mean, percentile, ratio};
use crate::workload::{Plan, Spec};
use crate::{lat, phase_a, send_lag_max_ms, set_up, shutdown, Env, PhaseB, SocketPass, Tally};

/// Twin-side facts the ledger needs after the twin is dropped.
pub struct LedgerInfo {
    stats: EngineStats,
    deltas: u64,
    frame_bytes: u64,
    memory_bytes: usize,
    snapshot_bytes: usize,
}

impl LedgerInfo {
    /// Capture the replayed twin's counters, memory and snapshot size.
    pub fn of(twin: &Twin, rec: &mut Recorder) -> LedgerInfo {
        LedgerInfo {
            stats: twin.stats.clone(),
            deltas: twin.deltas,
            frame_bytes: twin.ingest_frame_bytes,
            memory_bytes: twin.driver.memory_bytes() + twin.store.memory_bytes(),
            snapshot_bytes: twin.capture(rec),
        }
    }
}

/// What the traced socket pass saw.
pub struct TracedPass {
    deltas_per_s: f64,
    stats: ServerStats,
    queue_wait_p50_ns: f64,
    blocks: (f64, f64),
    /// `(hop, p50 ns)` over the phase-A Ingest traces the router stitched
    /// (`routed` only).
    hops: Vec<(&'static str, f64)>,
}

fn scrape(addr: &str) -> Result<Vec<ParsedFamily>, String> {
    let (status, body) = http_get(addr, "/metrics").map_err(|e| format!("scrape {addr}: {e}"))?;
    if status != 200 {
        return Err(format!("scrape {addr}: status {status}"));
    }
    parse_exposition(&body).map_err(|e| format!("malformed /metrics from {addr}: {e}"))
}

/// Cumulative buckets of a histogram family (empty when absent).
fn buckets(fams: &[ParsedFamily], name: &str) -> Vec<(f64, f64)> {
    find_family(fams, name)
        .map(ParsedFamily::buckets)
        .unwrap_or_default()
}

/// Median of the observations made between two scrapes of one
/// histogram: the upper edge of the first bucket whose count since
/// `before` reaches half the new observations.
pub fn bucket_p50(before: &[(f64, f64)], after: &[(f64, f64)]) -> Option<f64> {
    let base = |le: f64| {
        before
            .iter()
            .find(|(l, _)| *l == le)
            .map_or(0.0, |(_, c)| *c)
    };
    let diff: Vec<(f64, f64)> = after.iter().map(|&(le, c)| (le, c - base(le))).collect();
    let total = diff.last()?.1;
    if total <= 0.0 {
        return None;
    }
    let target = (total / 2.0).ceil();
    diff.iter().find(|(_, c)| *c >= target).map(|(le, _)| *le)
}

/// Ids of the sampled traces `obs` (the router's federated port) lists.
fn trace_ids(obs: &str) -> Result<Vec<u64>, String> {
    let (status, body) = http_get(obs, "/traces").map_err(|e| format!("GET /traces: {e}"))?;
    if status != 200 {
        return Err(format!("GET /traces: status {status}"));
    }
    Ok(parse_trace_list_json(&body)
        .into_iter()
        .map(|(id, _)| id)
        .collect())
}

/// The hops whose p50 the `cluster.*` metrics report, in ack-ladder order.
const CLUSTER_HOPS: [SpanKind; 4] = [
    SpanKind::RouterForward,
    SpanKind::Replicate,
    SpanKind::FollowerCommit,
    SpanKind::FollowerApply,
];

/// Per-hop p50 (ns) over the Ingest traces sampled since `before` was
/// listed. The router samples every routable RPC kind, and set-up's
/// campaign submits alone fill the front of its listing, so only new ids
/// are fetched and only traces carrying a `replicate` span — the Ingest
/// ack ladder — are kept.
fn ingest_hops(obs: &str, before: &[u64]) -> Result<Vec<(&'static str, f64)>, String> {
    let mut durs: Vec<Vec<f64>> = vec![Vec::new(); CLUSTER_HOPS.len()];
    let mut traces = 0usize;
    for id in trace_ids(obs)? {
        if before.contains(&id) {
            continue;
        }
        let (status, body) =
            http_get(obs, &format!("/traces/{id}")).map_err(|e| format!("GET trace {id}: {e}"))?;
        if status != 200 {
            return Err(format!("GET trace {id}: status {status}"));
        }
        let spans = parse_trace_json(&body);
        if !spans.iter().any(|s| s.kind == SpanKind::Replicate) {
            continue;
        }
        traces += 1;
        for s in &spans {
            if let Some(i) = CLUSTER_HOPS.iter().position(|k| *k == s.kind) {
                durs[i].push(s.dur_ns as f64);
            }
        }
    }
    CLUSTER_HOPS
        .iter()
        .zip(&mut durs)
        .map(|(kind, d)| {
            percentile(d, 0.5)
                .map(|p50| (kind.name(), p50))
                .ok_or_else(|| {
                    format!(
                        "{} of {traces} sampled Ingest traces carry a {} span; too few for a p50",
                        d.len(),
                        kind.name()
                    )
                })
        })
        .collect()
}

/// The traced socket pass: the same set-up, warm-up and phases with
/// `--obs-addr` on every process (and `--trace-sample` on the router),
/// then a scrape of the families the servers already export.
pub fn socket_pass(
    env: &Env,
    spec: &Spec,
    plan: &Plan,
    tally: &mut Tally,
    b_secs: f64,
) -> Result<TracedPass, String> {
    let d = set_up(env, spec, plan, "traced", true)?;
    tally.attempted += plan.setup.len() as u64;
    let addr = d.entry().to_string();
    let node_obs = d
        .node_obs()
        .ok_or("traced node printed no obs address")?
        .to_string();
    let router_obs = if spec.routed {
        Some(
            d.procs[0]
                .obs
                .clone()
                .ok_or("router printed no obs address")?,
        )
    } else {
        None
    };
    let (warm, _) = drive::closed_loop(&addr, &plan.warm, None)?;
    tally.closed(warm);
    let traces_before = match &router_obs {
        Some(obs) => trace_ids(obs)?,
        None => Vec::new(),
    };
    let before = buckets(&scrape(&node_obs)?, "adcast_net_queue_wait_ns");
    let a = phase_a(&addr, plan)?;
    tally.open(&a);
    let after = buckets(&scrape(&node_obs)?, "adcast_net_queue_wait_ns");
    let hops = match &router_obs {
        Some(obs) => ingest_hops(obs, &traces_before)?,
        None => Vec::new(),
    };
    let (b, totals, _) = PhaseB::run(&d, &plan.b, b_secs)?;
    let deltas_per_s = b.deltas_per_s();
    tally.closed(totals);
    let stats = crate::client(&addr)?
        .stats()
        .map_err(|e| format!("stats: {e}"))?;
    let fams = scrape(&node_obs)?;
    let value = |name: &str| {
        find_family(&fams, name)
            .and_then(|f| f.sample_value(name))
            .unwrap_or(0.0)
    };
    let blocks = (
        value("adcast_index_blocks_scanned_total"),
        value("adcast_index_blocks_skipped_total"),
    );
    let dirs: Vec<_> = d.nodes.iter().map(|(_, p)| p.clone()).collect();
    shutdown(d)?;
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(TracedPass {
        deltas_per_s,
        stats,
        queue_wait_p50_ns: bucket_p50(&before, &after).unwrap_or(0.0),
        blocks,
        hops,
    })
}

/// Sum of the durations (ns) of spans called `name` whose parent is a
/// root called `root`, and the number of such roots.
fn under(spans: &[Span], name: &str, root: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && s.parent.is_some_and(|p| spans[p].name == root))
        .map(|s| s.dur_ns() as f64)
        .sum()
}

/// Assemble every per-layer metric. Each is mapped, in the benchmark's
/// notes, to the end-to-end metric and workload it should move.
pub fn layer_metrics(
    m: &mut Metrics,
    spec: &Spec,
    rec: &Recorder,
    e2e: &SocketPass,
    traced: &TracedPass,
    tally: &Tally,
) {
    let spans = rec.spans();
    let info = e2e.ledger.as_ref().expect("traced runs keep ledger info");
    let deltas = info.deltas.max(1) as f64;
    let us = |ns: f64| ns / 1e3;
    let per_delta_us = |name: &str| us(under(spans, name, ROOT_INGEST)) / deltas;
    let ingests = spans
        .iter()
        .filter(|s| s.name == ROOT_INGEST)
        .count()
        .max(1) as f64;
    let stats = &info.stats;
    let engine_deltas = stats.deltas.max(1) as f64;
    let memory_mb = info.memory_bytes as f64 / f64::from(1 << 20);
    let rss_mb = e2e.rss_peak_bytes as f64 / f64::from(1 << 20);

    // net
    m.layer("net.decode_us_per_delta", per_delta_us("net.decode"), "us");
    m.layer(
        "net.wire_bytes_per_delta",
        info.frame_bytes as f64 / deltas,
        "bytes",
    );
    m.layer("net.queue_wait_p50_us", us(traced.queue_wait_p50_ns), "us");
    m.layer(
        "net.residence_ingest_p50_us",
        us(traced.stats.ingest_p50_ns as f64),
        "us",
    );
    m.layer(
        "net.residence_recommend_p50_us",
        us(traced.stats.recommend_p50_ns as f64),
        "us",
    );
    m.layer(
        "net.encode_recs_us",
        us(mean(&durations(spans, "net.encode_recs"))),
        "us",
    );

    // durability
    m.layer(
        "durability.log_us_per_delta",
        per_delta_us("durability.log"),
        "us",
    );
    m.layer(
        "durability.commit_us",
        us(mean(&durations(spans, "durability.commit"))),
        "us",
    );
    m.layer(
        "durability.wal_bytes_per_delta",
        ratio(e2e.stats.wal_bytes as f64, e2e.stats.deltas as f64),
        "bytes",
    );
    m.layer(
        "durability.snapshot_mb",
        info.snapshot_bytes as f64 / f64::from(1 << 20),
        "MB",
    );
    m.layer(
        "durability.capture_ms",
        durations(spans, "durability.capture").iter().sum::<f64>() / 1e6,
        "ms",
    );
    // What recovery's replay loop does per record: read, decode, apply.
    let replay_ns: f64 = [
        "durability.read_segment",
        "durability.wal_decode",
        "core.apply",
    ]
    .iter()
    .chain(["adstore.submit", "adstore.pause", "apply.other"].iter())
    .map(|n| durations(spans, n).iter().sum::<f64>())
    .sum();
    m.layer(
        "durability.replay_deltas_per_s",
        ratio(deltas, replay_ns / 1e9),
        "deltas/s",
    );

    // core
    let mut reads = durations(spans, "core.recommend");
    m.layer(
        "core.recommend_us_p50",
        us(percentile(&mut reads, 0.5).unwrap_or(0.0)),
        "us",
    );
    let (scanned, skipped) = traced.blocks;
    m.layer(
        "core.prune_ratio",
        ratio(skipped, scanned + skipped),
        "ratio",
    );
    m.layer("core.apply_us_per_delta", per_delta_us("core.apply"), "us");
    m.layer(
        "core.postings_per_delta",
        stats.postings_scanned as f64 / engine_deltas,
        "count",
    );
    m.layer(
        "core.ads_scored_per_delta",
        stats.ads_scored as f64 / engine_deltas,
        "count",
    );
    m.layer(
        "core.screened_share",
        ratio(
            stats.screened_out as f64,
            (stats.screened_out + stats.ads_scored) as f64,
        ),
        "ratio",
    );
    m.layer(
        "core.fallbacks_per_delta",
        stats.fallbacks as f64 / engine_deltas,
        "count",
    );
    m.layer(
        "core.refresh_share",
        stats.refreshes as f64 / engine_deltas,
        "ratio",
    );
    m.layer("core.memory_mb", memory_mb, "MB");
    m.layer("core.rss_ratio", ratio(rss_mb, memory_mb), "ratio");

    // adstore: churn ops only (LSNs past the set-up submits); 0 when the
    // workload has none.
    let churn = |name: &str| -> f64 {
        let d: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name && s.op >= spec.ads as u64)
            .map(|s| s.dur_ns() as f64)
            .collect();
        us(mean(&d))
    };
    m.layer("adstore.submit_us", churn("adstore.submit"), "us");
    m.layer("adstore.pause_us", churn("adstore.pause"), "us");

    // cluster: p50 of the phase-A Ingest trace hops (0 off the routed
    // path).
    let hop = |name: &str| {
        traced
            .hops
            .iter()
            .find(|(h, _)| *h == name)
            .map_or(0.0, |(_, p50)| us(*p50))
    };
    m.layer("cluster.forward_us", hop("router_forward"), "us");
    m.layer("cluster.replicate_us", hop("replicate"), "us");
    m.layer("cluster.follower_commit_us", hop("follower_commit"), "us");
    m.layer("cluster.follower_apply_us", hop("follower_apply"), "us");

    // bench: the generator and the run's own accounting.
    let a: &[Outcome] = &e2e.phase_a;
    m.layer("bench.send_lag_max_ms", send_lag_max_ms(a), "ms");
    m.layer(
        "bench.backlog_max",
        f64::from(a.iter().map(|o| o.backlog).max().unwrap_or(0)),
        "count",
    );
    m.layer(
        "bench.failed_share",
        ratio(tally.failed as f64, tally.attempted as f64),
        "ratio",
    );
    // p75 needs 40 phase-A Recommends: `ingest` and `churn_read` have
    // them, `routed` (~27) does not and reads 0.
    m.layer(
        "bench.recommend_p75_us",
        percentile(&mut lat(a, Kind::Recommend, 1e3), 0.75).unwrap_or(0.0),
        "us",
    );
    m.layer(
        "bench.campaign_p50_ms",
        percentile(&mut lat(a, Kind::Campaign, 1e6), 0.5).unwrap_or(0.0),
        "ms",
    );
    m.layer(
        "bench.twin_rounding_users",
        e2e.twin_agreement.rounding as f64,
        "count",
    );

    // ledger: how much of the client's ack the layers explain, and what
    // observing costs.
    let layer_ns_per_ingest = [
        "net.decode",
        "durability.log",
        "durability.commit",
        "core.apply",
    ]
    .iter()
    .map(|n| under(spans, n, ROOT_INGEST))
    .sum::<f64>()
        / ingests;
    let ack_p50_ns = m.get("bench.ack_p50_ms").unwrap_or(0.0) * 1e6;
    m.layer(
        "ledger.unattributed_share",
        1.0 - ratio(layer_ns_per_ingest, ack_p50_ns),
        "ratio",
    );
    let untraced = e2e.b.deltas_per_s();
    m.layer(
        "ledger.tracing_overhead_share",
        1.0 - ratio(traced.deltas_per_s, untraced),
        "ratio",
    );
    // The replay's own cost: self time of the per-record root spans.
    let selfs = self_times(spans);
    let harness: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == ROOT_INGEST || s.name == ROOT_READ)
        .map(|(_, &t)| t as f64)
        .collect();
    m.layer("ledger.harness_self_us", us(mean(&harness)), "us");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_median_of_the_new_observations_only() {
        let before = [(1.0, 10.0), (2.0, 10.0), (4.0, 10.0), (f64::INFINITY, 10.0)];
        let after = [(1.0, 10.0), (2.0, 11.0), (4.0, 20.0), (f64::INFINITY, 20.0)];
        // Ten new observations: one in (1,2], nine in (2,4].
        assert_eq!(bucket_p50(&before, &after), Some(4.0));
        assert_eq!(bucket_p50(&before, &before), None);
    }
}
