//! End-to-end distributed-tracing test: a real router, cluster primary,
//! and follower (three "nodes" in one process, over real TCP) serve a
//! routed workload with head sampling on, and every sampled mutation
//! must leave exactly the ack ladder in the span ring — one trace, eight
//! spans, parent-linked in ladder order across all three hops. Also
//! pins `/readyz`: ready while the partition replicates, 503 `degraded`
//! once the follower is gone.
//!
//! This file holds exactly ONE `#[test]`: the trace ring, the metrics
//! registry, and the readiness mask are process-wide by design, so a
//! second concurrent cluster in this binary would interleave spans and
//! break the exact-chain assertions below.

use adcast::cluster::{PartitionMap, Router, RouterConfig, TcpSink};
use adcast::graph::UserId;
use adcast::net::client::{Client, ClientConfig};
use adcast::net::synth::{self, SynthConfig};
use adcast::net::{ClusterState, ReplicationSink};
use adcast::obs::tracestore::{trace_id_for, tracestore, Span, SpanKind};
use adcast::obs::{http_get, ObsServer};

mod common;
use common::{cluster_node, temp_backend};

const TRACE_SEED: u64 = 0x51EED;

/// Follow the parent chain of one trace from its root (parent 0) and
/// return the span kinds in chain order. Panics if the trace is not one
/// unbroken chain — forks, orphans, or a missing root all fail loudly.
fn ladder_kinds(spans: &[Span]) -> Vec<SpanKind> {
    let roots: Vec<&Span> = spans.iter().filter(|s| s.parent_span_id == 0).collect();
    assert_eq!(roots.len(), 1, "one root per trace: {spans:?}");
    let mut kinds = vec![roots[0].kind];
    let mut cur = roots[0].span_id;
    let mut seen = 1usize;
    while seen < spans.len() {
        let next: Vec<&Span> = spans.iter().filter(|s| s.parent_span_id == cur).collect();
        assert_eq!(
            next.len(),
            1,
            "span {cur:#x} must have exactly one child: {spans:?}"
        );
        kinds.push(next[0].kind);
        cur = next[0].span_id;
        seen += 1;
    }
    kinds
}

/// The full routed-mutation ack ladder, in parent-chain order: three
/// processes (router, primary, follower), eight spans.
const MUTATION_LADDER: &[SpanKind] = &[
    SpanKind::RouterForward,
    SpanKind::QueueWait,
    SpanKind::WalCommit,
    SpanKind::EngineApply,
    SpanKind::Replicate,
    SpanKind::QueueWait,
    SpanKind::FollowerCommit,
    SpanKind::FollowerApply,
];

#[test]
fn routed_rpcs_leave_exact_ack_ladder_traces() {
    let workload = synth::build(&SynthConfig {
        num_users: 64,
        num_ads: 16,
        messages: 120,
        batch_size: 60,
        msgs_per_sec: 200.0,
        seed: 7,
    });

    let follower_backend = temp_backend("follower");
    let follower = cluster_node(ClusterState::follower(0, 0), None, &follower_backend, 64);
    let primary_backend = temp_backend("primary");
    let sink: Box<dyn ReplicationSink> = Box::new(TcpSink::new(
        0,
        follower.addr().to_string(),
        ClientConfig::default(),
    ));
    let primary = cluster_node(
        ClusterState::primary(0, 0),
        Some(sink),
        &primary_backend,
        64,
    );

    let map = PartitionMap::parse(&[primary.addr().to_string()]).expect("partition map");
    let router = Router::start(
        "127.0.0.1:0",
        &map,
        RouterConfig {
            trace_sample: 1,
            trace_seed: TRACE_SEED,
            ..RouterConfig::default()
        },
    )
    .expect("bind router");
    let obs = ObsServer::start("127.0.0.1:0", adcast::obs::registry()).expect("bind obs");
    let obs_addr = obs.addr().to_string();

    let mut client = Client::connect(router.addr().to_string(), &ClientConfig::default()).unwrap();
    for spec in &workload.campaigns {
        client.submit_campaign(spec.clone()).unwrap();
    }
    client.ingest(workload.batches[0].clone()).unwrap();
    let user = UserId(0);
    client
        .recommend(user, workload.end_time, workload.homes[0], 5)
        .unwrap();

    // Every RPC above was head-sampled (every=1) with a deterministic
    // id: ordinal 0 was the first campaign submission.
    let store = tracestore();
    assert!(
        !store.trace(trace_id_for(TRACE_SEED, 0)).is_empty(),
        "ordinal 0's trace id must be derivable from (seed, ordinal) alone"
    );

    // Campaign submissions and the ingest are mutations: each must have
    // left the full 8-span, 3-process ladder as one unbroken chain.
    let traces = store.trace_ids();
    let rpcs = workload.campaigns.len() + 2;
    assert_eq!(traces.len(), rpcs, "one trace per sampled RPC: {traces:?}");
    let mut mutations = 0usize;
    let mut recommends = 0usize;
    for (id, _) in &traces {
        let kinds = ladder_kinds(&store.trace(*id));
        if kinds.contains(&SpanKind::Replicate) {
            assert_eq!(kinds, MUTATION_LADDER, "trace {id:#x}");
            mutations += 1;
        } else if kinds.contains(&SpanKind::Recommend) {
            assert_eq!(
                kinds,
                [
                    SpanKind::RouterForward,
                    SpanKind::QueueWait,
                    SpanKind::Recommend
                ],
                "trace {id:#x}"
            );
            recommends += 1;
        }
    }
    assert_eq!(
        mutations,
        workload.campaigns.len() + 1,
        "every submit and the ingest rode the full ladder"
    );
    assert_eq!(recommends, 1);

    // Replication healthy: the node (and so the process) is ready.
    let (status, body) = http_get(&obs_addr, "/readyz").unwrap();
    assert_eq!((status, body.as_str()), (200, "ready\n"));

    // Kill the follower. The next mutation's shipment fails, the primary
    // degrades to local-durable acks (the client still succeeds), and
    // /readyz must flip to 503 with the degraded marker.
    follower.shutdown();
    follower.join();
    client.ingest(workload.batches[1].clone()).unwrap();
    let (status, body) = http_get(&obs_addr, "/readyz").unwrap();
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("degraded"), "{body}");

    client.shutdown().unwrap();
    router.join();
    primary.join();
    obs.stop();
}
