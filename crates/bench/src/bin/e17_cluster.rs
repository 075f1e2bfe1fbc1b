//! E17: cluster scaling — ingest throughput through `adcast-router` as
//! the partition count grows.
//!
//! Boots an in-process cluster per point (N single-shard primaries in
//! cluster mode behind a real TCP `Router`), replays the deterministic
//! synthetic workload against the router with the closed-loop loadgen,
//! and reports achieved delta throughput, RTT percentiles, and the
//! per-partition share of applied deltas. The router splits every ingest
//! batch by the user-hash partition function and fans the sub-batches
//! out in parallel, so per-partition apply work shrinks as N grows. A
//! router-less direct row prices the router hop itself.
//!
//! Each node runs one engine shard so the scaling axis is partitions,
//! not intra-node threads. Scale via `ADCAST_SCALE` (`quick` | `paper`).
//!
//! Two acceptance checks, split by what the host can express:
//!
//! * **always** — the partition split is balanced: every node applies
//!   ≥ 60 % of its fair share of the deltas (the routing property holds
//!   on any machine),
//! * **paper scale on a multi-core host** (≥ 4 hardware threads: two
//!   engine threads plus router and loadgen) — ingest throughput must
//!   scale ≥ 1.7× from 1 to 2 partitions. On a single core two engine
//!   threads cannot run concurrently, so wall-clock scaling is not
//!   measurable and the run says so instead of asserting noise.
//!
//! `ADCAST_E17_SMOKE=1` runs a seconds-scale pass that proves the
//! plumbing (boot, route, serve, balanced split, drain) end to end.

use std::sync::Arc;

use adcast_ads::AdStore;
use adcast_bench::{fmt, Report, Scale};
use adcast_cluster::{PartitionMap, Router, RouterConfig};
use adcast_core::{EngineConfig, ShardedDriver};
use adcast_net::synth::SynthConfig;
use adcast_net::{
    loadgen, Client, ClientConfig, ClusterConfig, ClusterState, LoadgenConfig, Node, Server,
    ServerConfig,
};

/// One booted cluster: N cluster-mode primaries behind a router.
struct TestCluster {
    nodes: Vec<Server>,
    router: Router,
}

impl TestCluster {
    fn boot(partitions: u16, num_users: u32) -> TestCluster {
        let mut nodes = Vec::with_capacity(usize::from(partitions));
        let mut specs = Vec::with_capacity(usize::from(partitions));
        for p in 0..partitions {
            let node = Node::new(
                AdStore::new(),
                ShardedDriver::new(num_users, 1, EngineConfig::default()),
                None,
                ClusterConfig {
                    state: ClusterState::primary(p, 0),
                    ..ClusterConfig::default()
                },
            );
            let server = Server::start("127.0.0.1:0", ServerConfig::default(), node)
                .expect("bind cluster node");
            specs.push(server.addr().to_string());
            nodes.push(server);
        }
        let map = PartitionMap::parse(&specs).expect("partition map");
        let router =
            Router::start("127.0.0.1:0", &map, RouterConfig::default()).expect("bind router");
        TestCluster { nodes, router }
    }

    /// Applied-delta count per node, read off each node directly.
    fn per_node_deltas(&self) -> Vec<u64> {
        self.nodes
            .iter()
            .map(|node| {
                Client::connect(node.addr().to_string(), &ClientConfig::default())
                    .and_then(|mut c| c.stats())
                    .map(|s| s.deltas)
                    .unwrap_or(0)
            })
            .collect()
    }

    fn drain(self) {
        self.router.shutdown();
        self.router.join();
        for node in &self.nodes {
            node.shutdown();
        }
        for node in self.nodes {
            node.join();
        }
    }
}

/// One measured point.
struct Point {
    deltas_per_sec: f64,
    rtt_p50_ns: u64,
    rtt_p99_ns: u64,
    shed_rate: f64,
    per_node: Vec<u64>,
}

fn workload_config(scale: Scale) -> SynthConfig {
    SynthConfig {
        num_users: scale.pick(400, 4_000),
        num_ads: scale.pick(300, 2_000),
        messages: scale.pick(1_500, 40_000),
        batch_size: 500,
        msgs_per_sec: 200.0,
        seed: 0xADCA57,
    }
}

/// Run the closed-loop loadgen through a fresh N-partition cluster.
fn measure(partitions: u16, synth_config: &SynthConfig, conns: usize) -> Point {
    let cluster = TestCluster::boot(partitions, synth_config.num_users);
    let workload = Arc::new(adcast_net::synth::build(synth_config));
    let config = LoadgenConfig {
        connections: conns,
        ..LoadgenConfig::new(cluster.router.addr().to_string())
    };
    let report = loadgen::run(&config, &workload).expect("loadgen through router");
    let per_node = cluster.per_node_deltas();
    cluster.drain();
    Point {
        deltas_per_sec: report.deltas_per_sec(),
        rtt_p50_ns: report.rtt.p50(),
        rtt_p99_ns: report.rtt.p99(),
        shed_rate: report.shed_rate(),
        per_node,
    }
}

/// The router-less baseline: the same loadgen straight at one node, so
/// the table prices the router hop itself.
fn measure_direct(synth_config: &SynthConfig, conns: usize) -> Point {
    let node = Node::new(
        AdStore::new(),
        ShardedDriver::new(synth_config.num_users, 1, EngineConfig::default()),
        None,
        ClusterConfig::default(),
    );
    let server =
        Server::start("127.0.0.1:0", ServerConfig::default(), node).expect("bind direct node");
    let workload = Arc::new(adcast_net::synth::build(synth_config));
    let config = LoadgenConfig {
        connections: conns,
        ..LoadgenConfig::new(server.addr().to_string())
    };
    let report = loadgen::run(&config, &workload).expect("loadgen direct");
    server.shutdown();
    server.join();
    Point {
        deltas_per_sec: report.deltas_per_sec(),
        rtt_p50_ns: report.rtt.p50(),
        rtt_p99_ns: report.rtt.p99(),
        shed_rate: report.shed_rate(),
        per_node: Vec::new(),
    }
}

/// Every node must apply ≥ 60 % of its fair share (1/n) of the deltas —
/// the user-hash split is near-even on the synthetic workload, so a node
/// far below parity means routing (not load) is broken.
fn assert_balanced(per_node: &[u64]) {
    let total: u64 = per_node.iter().sum();
    assert!(total > 0, "cluster applied no deltas");
    let floor = 0.6 / per_node.len() as f64;
    for (p, &n) in per_node.iter().enumerate() {
        let share = n as f64 / total as f64;
        assert!(
            share >= floor,
            "partition {p} applied only {share:.2} of the deltas — split is unbalanced"
        );
    }
}

fn smoke() -> ! {
    let config = workload_config(Scale::Quick);
    let one = measure(1, &config, 2);
    let two = measure(2, &config, 2);
    assert!(
        one.deltas_per_sec > 0.0 && two.deltas_per_sec > 0.0,
        "both cluster sizes must serve"
    );
    assert_balanced(&two.per_node);
    // Quick scale is too small for a stable ratio; the smoke only proves
    // boot → route → serve → balanced split → drain end to end.
    println!(
        "(smoke run: routed workload at 1 and 2 partitions, split={:?}, ratio={})",
        two.per_node,
        fmt(two.deltas_per_sec / one.deltas_per_sec)
    );
    std::process::exit(0);
}

fn main() {
    if std::env::var("ADCAST_E17_SMOKE").is_ok_and(|v| v == "1") {
        smoke();
    }
    let scale = Scale::from_env();
    let synth_config = workload_config(scale);
    let conns = 4;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    let mut report = Report::new(
        "E17",
        "cluster scaling: ingest throughput through the router vs partitions",
        vec![
            "partitions",
            "conns",
            "deltas_per_sec",
            "rtt_p50_us",
            "rtt_p99_us",
            "shed_rate",
            "speedup",
            "split",
        ],
    );

    let mut baseline = 0.0f64;
    let mut two_partition_speedup = 0.0f64;
    // Partition count 0 is the router-less direct baseline.
    for partitions in [0u16, 1, 2, 4] {
        let point = if partitions == 0 {
            measure_direct(&synth_config, conns)
        } else {
            measure(partitions, &synth_config, conns)
        };
        if partitions == 1 {
            baseline = point.deltas_per_sec;
        }
        let speedup = point.deltas_per_sec / baseline.max(1e-9);
        if partitions == 2 {
            two_partition_speedup = speedup;
            assert_balanced(&point.per_node);
        }
        let split = point
            .per_node
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("/");
        report.row(vec![
            if partitions == 0 {
                "direct".into()
            } else {
                partitions.to_string()
            },
            conns.to_string(),
            fmt(point.deltas_per_sec),
            fmt(point.rtt_p50_ns as f64 / 1e3),
            fmt(point.rtt_p99_ns as f64 / 1e3),
            format!("{:.4}", point.shed_rate),
            if partitions == 0 {
                "-".into()
            } else {
                fmt(speedup)
            },
            if split.is_empty() { "-".into() } else { split },
        ]);
    }
    report.finish();

    // The headline acceptance number needs hardware that can actually
    // run two engine threads, the router, and the loadgen concurrently.
    if scale == Scale::Paper && cores >= 4 {
        assert!(
            two_partition_speedup >= 1.7,
            "1→2 partition ingest scaling {two_partition_speedup:.2}× is below the 1.7× floor"
        );
        println!("1→2 partition speedup: {two_partition_speedup:.2}× (floor 1.7×)");
    } else if scale == Scale::Paper {
        println!(
            "1→2 partition speedup: {two_partition_speedup:.2}× — not asserted: \
             {cores} hardware thread(s) cannot run two engine threads concurrently"
        );
    } else {
        println!("1→2 partition speedup: {two_partition_speedup:.2}× (quick scale, not asserted)");
    }
}
