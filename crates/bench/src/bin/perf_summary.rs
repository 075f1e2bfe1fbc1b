//! Machine-readable performance snapshot → `results/bench_summary.json`.
//!
//! Measures the three numbers every perf PR must not regress — incremental
//! deltas/sec, recommend p50/p99 latency, resident memory — plus the
//! sharded-pool throughput and the sparse-kernel micro timings, and writes
//! them through [`adcast_bench::BenchSummary`] so successive PRs leave a
//! comparable trajectory. Scale via `ADCAST_SCALE` (`quick` | `paper`).

use std::sync::Arc;
use std::time::Instant;

use adcast_ads::{AdStore, AdSubmission, Budget, Targeting};
use adcast_bench::{BenchSummary, Scale};
use adcast_core::driver::ShardedDriver;
use adcast_core::{DriverConfig, EngineConfig, IncrementalEngine, RecommendationEngine};
use adcast_feed::FeedDelta;
use adcast_graph::UserId;
use adcast_metrics::LatencyHistogram;
use adcast_stream::clock::Timestamp;
use adcast_stream::event::{LocationId, Message, MessageId};
use adcast_text::dictionary::TermId;
use adcast_text::SparseVector;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_vector(rng: &mut SmallRng, terms: usize, vocab: u32) -> SparseVector {
    SparseVector::from_pairs(
        (0..terms).map(|_| (TermId(rng.gen_range(0..vocab)), rng.gen_range(0.05f32..1.0))),
    )
}

fn build_store(rng: &mut SmallRng, num_ads: u32, vocab: u32) -> AdStore {
    let mut store = AdStore::new();
    for _ in 0..num_ads {
        store
            .submit(AdSubmission {
                vector: random_vector(rng, 8, vocab),
                bid: 1.0,
                targeting: Targeting::everywhere(),
                budget: Budget::unlimited(),
                topic_hint: None,
            })
            .expect("valid ad");
    }
    store
}

/// A per-user sliding-window delta stream in arrival order.
fn build_workload(
    rng: &mut SmallRng,
    num_users: u32,
    n: u64,
    vocab: u32,
    window: usize,
) -> Vec<(UserId, FeedDelta)> {
    let mut windows: Vec<Vec<Arc<Message>>> = (0..num_users).map(|_| Vec::new()).collect();
    (0..n)
        .map(|i| {
            let user = UserId(rng.gen_range(0..num_users));
            let msg = Arc::new(Message {
                id: MessageId(i),
                author: user,
                ts: Timestamp::from_secs(i / 64),
                location: LocationId(0),
                vector: random_vector(rng, 3, vocab),
            });
            let w = &mut windows[user.index()];
            let evicted = if w.len() >= window {
                vec![w.remove(0)]
            } else {
                vec![]
            };
            w.push(msg.clone());
            (
                user,
                FeedDelta {
                    entered: Some(msg),
                    evicted,
                },
            )
        })
        .collect()
}

fn time_per_iter(iters: u64, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..iters {
        f();
    }
    started.elapsed().as_secs_f64() / iters as f64
}

fn main() {
    let scale = Scale::from_env();
    let num_users = scale.pick(2_000u32, 10_000);
    let num_ads = scale.pick(5_000u32, 30_000);
    let warm = scale.pick(20_000u64, 100_000);
    let measured = scale.pick(20_000u64, 200_000);
    let vocab = 20_000u32;

    let mut rng = SmallRng::seed_from_u64(0xBE7C);
    let store = build_store(&mut rng, num_ads, vocab);
    let workload = build_workload(&mut rng, num_users, warm + measured, vocab, 16);
    let mut summary = BenchSummary::new();

    // --- Incremental engine: deltas/sec, recommend p50/p99, memory. ---
    let mut engine = IncrementalEngine::new(num_users, EngineConfig::default());
    for (u, d) in &workload[..warm as usize] {
        engine.on_feed_delta(&store, *u, d);
    }
    let started = Instant::now();
    for (u, d) in &workload[warm as usize..] {
        engine.on_feed_delta(&store, *u, d);
    }
    let deltas_per_sec = measured as f64 / started.elapsed().as_secs_f64().max(1e-9);

    let mut hist = LatencyHistogram::new();
    let now = Timestamp::from_secs((warm + measured) / 64 + 1);
    for i in 0..scale.pick(5_000u32, 20_000) {
        let u = UserId(i % num_users);
        let t0 = Instant::now();
        let recs = engine.recommend(&store, u, now, LocationId(0), 10);
        hist.record_duration(t0.elapsed());
        std::hint::black_box(recs.len());
    }
    summary.metric("incremental", "deltas_per_sec", deltas_per_sec);
    summary.metric("incremental", "recommend_p50_ns", hist.p50() as f64);
    summary.metric("incremental", "recommend_p99_ns", hist.p99() as f64);
    summary.metric("incremental", "memory_bytes", engine.memory_bytes() as f64);
    println!(
        "incremental: {:.0} deltas/s, recommend p50 {} ns / p99 {} ns, {} bytes",
        deltas_per_sec,
        hist.p50(),
        hist.p99(),
        engine.memory_bytes()
    );

    // --- Sharded pool: batch throughput and resident memory by shards. ---
    let batch_size = 1_000usize;
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    for shards in [1usize, 2, 4, 8] {
        if shards > available * 2 {
            break;
        }
        let mut driver = ShardedDriver::with_config(
            num_users,
            DriverConfig {
                num_shards: shards,
                engine: EngineConfig::default(),
            },
        );
        let started = Instant::now();
        for batch in workload.chunks(batch_size) {
            driver
                .process_batch(&store, batch.to_vec())
                .expect("pool alive");
        }
        let rate = workload.len() as f64 / started.elapsed().as_secs_f64().max(1e-9);
        let section = format!("pool_{shards}_shards");
        summary.metric(&section, "deltas_per_sec", rate);
        summary.metric(&section, "memory_bytes", driver.memory_bytes() as f64);
        println!(
            "{section}: {rate:.0} deltas/s, {} bytes",
            driver.memory_bytes()
        );
    }

    // --- Serving layer: loopback loadgen RTT and achieved throughput. ---
    {
        let driver = ShardedDriver::new(
            scale.pick(400u32, 4_000),
            2.min(available),
            EngineConfig::default(),
        );
        let node = adcast_net::Node::new(
            AdStore::new(),
            driver,
            None,
            adcast_net::ClusterConfig::default(),
        );
        let server =
            adcast_net::Server::start("127.0.0.1:0", adcast_net::ServerConfig::default(), node)
                .expect("bind loopback");
        let synth_cfg = adcast_net::synth::SynthConfig {
            num_users: scale.pick(400u32, 4_000),
            num_ads: scale.pick(300usize, 2_000),
            messages: scale.pick(1_500u64, 20_000),
            batch_size: scale.pick(200usize, 500),
            msgs_per_sec: 200.0,
            seed: 0xADCA57,
        };
        let synth_workload = Arc::new(adcast_net::synth::build(&synth_cfg));
        let config = adcast_net::LoadgenConfig {
            connections: 2.min(available),
            ..adcast_net::LoadgenConfig::new(server.addr().to_string())
        };
        let report = adcast_net::loadgen::run(&config, &synth_workload).expect("loadgen run");
        summary.metric("serving", "deltas_per_sec", report.deltas_per_sec());
        summary.metric("serving", "rtt_p50_ns", report.rtt.p50() as f64);
        summary.metric("serving", "rtt_p99_ns", report.rtt.p99() as f64);
        summary.metric("serving", "shed_rate", report.shed_rate());
        println!(
            "serving: {:.0} deltas/s over {} conns, rtt p50 {} ns / p99 {} ns, shed rate {:.4}",
            report.deltas_per_sec(),
            report.connections,
            report.rtt.p50(),
            report.rtt.p99(),
            report.shed_rate()
        );
        server.shutdown();
        server.join();
    }

    // --- Durability: the fsync tax on ingest + the recovery replay rate. ---
    {
        use adcast_durability::{
            apply_record, recover, Durability, DurabilityOptions, FsyncPolicy, WalOptions,
            WalRecord,
        };

        let deltas = scale.pick(10_000usize, 50_000);
        let slice = &workload[..deltas.min(workload.len())];
        let mut always_dir = None;
        for policy in [FsyncPolicy::Off, FsyncPolicy::Always] {
            let dir = std::env::temp_dir().join(format!(
                "adcast-perf-durability-{}-{policy}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let wal = WalOptions {
                fsync: policy,
                ..WalOptions::default()
            };
            let recovered =
                recover(&dir, num_users, 2, EngineConfig::default(), wal).expect("cold start");
            let mut wal_store = AdStore::new();
            let mut driver = ShardedDriver::new(num_users, 2, EngineConfig::default());
            let mut durability = Durability::new(
                &dir,
                recovered.wal,
                DurabilityOptions {
                    wal,
                    ..DurabilityOptions::default()
                },
                recovered.report,
            );
            let started = Instant::now();
            for batch in slice.chunks(500) {
                let record = WalRecord::IngestBatch(batch.to_vec());
                durability.log(&record).expect("log batch");
                durability.commit().expect("commit batch");
                apply_record(&mut wal_store, &mut driver, record).expect("apply batch");
            }
            let rate = slice.len() as f64 / started.elapsed().as_secs_f64().max(1e-9);
            summary.metric(
                "durability",
                &format!("deltas_per_sec_fsync_{policy}"),
                rate,
            );
            println!("durability fsync={policy}: {rate:.0} deltas/s");
            drop(durability);
            if policy == FsyncPolicy::Always {
                always_dir = Some(dir);
            } else {
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
        if let Some(dir) = always_dir {
            let started = Instant::now();
            let recovered = recover(
                &dir,
                num_users,
                2,
                EngineConfig::default(),
                WalOptions::default(),
            )
            .expect("recover");
            let secs = started.elapsed().as_secs_f64().max(1e-9);
            let replayed = recovered.report.replayed_records;
            // Each replayed record is one 500-delta batch; deltas/sec is
            // the comparable unit against the ingest rates above.
            summary.metric(
                "durability",
                "recover_deltas_per_sec",
                slice.len() as f64 / secs,
            );
            summary.metric("durability", "recover_ms", secs * 1e3);
            println!(
                "durability recovery: {replayed} records ({} deltas) in {:.1} ms",
                slice.len(),
                secs * 1e3
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    // --- Cluster: the same loadgen through a 2-partition router fleet,
    // so routed throughput and the router hop's RTT tax travel with the
    // single-node serving numbers. The split metric is the smaller
    // partition's share of applied deltas (0.5 = perfectly balanced). ---
    {
        use adcast_cluster::{PartitionMap, Router, RouterConfig};
        use adcast_net::{ClientConfig, ClusterConfig, ClusterState};

        let num_users = scale.pick(400u32, 4_000);
        let mut nodes = Vec::new();
        let mut specs = Vec::new();
        for p in 0..2u16 {
            let node = adcast_net::Node::new(
                AdStore::new(),
                ShardedDriver::new(num_users, 1, EngineConfig::default()),
                None,
                ClusterConfig {
                    state: ClusterState::primary(p, 0),
                    ..ClusterConfig::default()
                },
            );
            let server =
                adcast_net::Server::start("127.0.0.1:0", adcast_net::ServerConfig::default(), node)
                    .expect("bind cluster node");
            specs.push(server.addr().to_string());
            nodes.push(server);
        }
        let map = PartitionMap::parse(&specs).expect("partition map");
        // Head sampling on (every 64th client RPC) so the tracing section
        // below can count real stitched traces out of this run.
        let router = Router::start(
            "127.0.0.1:0",
            &map,
            RouterConfig {
                trace_sample: 64,
                trace_seed: 0xADCA57,
                ..RouterConfig::default()
            },
        )
        .expect("bind router");
        let synth_cfg = adcast_net::synth::SynthConfig {
            num_users,
            num_ads: scale.pick(300usize, 2_000),
            messages: scale.pick(1_500u64, 20_000),
            batch_size: scale.pick(200usize, 500),
            msgs_per_sec: 200.0,
            seed: 0xADCA57,
        };
        let synth_workload = Arc::new(adcast_net::synth::build(&synth_cfg));
        let config = adcast_net::LoadgenConfig {
            connections: 2.min(available),
            ..adcast_net::LoadgenConfig::new(router.addr().to_string())
        };
        let report = adcast_net::loadgen::run(&config, &synth_workload).expect("routed loadgen");
        let per_node: Vec<u64> = nodes
            .iter()
            .map(|node| {
                adcast_net::Client::connect(node.addr().to_string(), &ClientConfig::default())
                    .and_then(|mut c| c.stats())
                    .map(|s| s.deltas)
                    .unwrap_or(0)
            })
            .collect();
        let total: u64 = per_node.iter().sum();
        let min_share = per_node
            .iter()
            .map(|&n| n as f64 / total.max(1) as f64)
            .fold(1.0f64, f64::min);
        assert!(
            min_share >= 0.3,
            "2-partition split {per_node:?} is unbalanced"
        );
        summary.metric("cluster", "partitions", 2.0);
        summary.metric("cluster", "deltas_per_sec", report.deltas_per_sec());
        summary.metric("cluster", "rtt_p50_ns", report.rtt.p50() as f64);
        summary.metric("cluster", "rtt_p99_ns", report.rtt.p99() as f64);
        summary.metric("cluster", "shed_rate", report.shed_rate());
        summary.metric("cluster", "min_partition_share", min_share);
        println!(
            "cluster: {:.0} deltas/s through the router over 2 partitions \
             (split {per_node:?}), rtt p50 {} ns / p99 {} ns",
            report.deltas_per_sec(),
            report.rtt.p50(),
            report.rtt.p99()
        );
        router.shutdown();
        router.join();
        for node in &nodes {
            node.shutdown();
        }
        for node in nodes {
            node.join();
        }
    }

    // --- Static analysis: rule and suppression counts (pragmas plus
    // `#[allow]`/`#[expect]` attributes), so suppression creep shows up in
    // the same trajectory as the perf numbers. ---
    {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = adcast_lint::lint_workspace(&root, None).expect("lint walk");
        summary.metric("lint", "rules", report.rule_count() as f64);
        summary.metric("lint", "suppressions", report.suppressions as f64);
        summary.metric("lint", "diagnostics", report.diagnostics.len() as f64);
        summary.metric("lint", "files_scanned", report.files_scanned as f64);
        println!(
            "lint: {} rule(s), {} suppression(s), {} diagnostic(s) over {} file(s)",
            report.rule_count(),
            report.suppressions,
            report.diagnostics.len(),
            report.files_scanned
        );
        // Acceptance gates: the engine registers its 7 rules plus the
        // `suppression` meta-rule, and every pragma carries a non-empty
        // reason (a reasonless allow() is a `suppression` diagnostic, so
        // any such diagnostic fails here).
        assert!(
            report.rule_count() >= 8,
            "lint engine regressed to {} rule(s); expected at least 8",
            report.rule_count()
        );
        let pragma_rot: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == adcast_lint::SUPPRESSION_RULE)
            .collect();
        assert!(
            pragma_rot.is_empty(),
            "suppression pragmas without a reason (or suppressing nothing): {pragma_rot:?}"
        );
    }

    // --- Deterministic simulation: the smoke scenario (virtual time,
    // crash + twin check, WAL-logged maintenance) as a trajectory point,
    // so harness throughput and lifecycle counters travel with the perf
    // numbers. Nonzero decayed/pruned is an acceptance invariant. ---
    {
        use adcast_sim::{run, Fault, FaultAt, SimConfig};

        let mut cfg = SimConfig::smoke(0xADCA57);
        cfg.faults = vec![FaultAt {
            at_batch: 3,
            fault: Fault::Crash,
        }];
        let started = Instant::now();
        let outcome = run(cfg).expect("sim smoke scenario");
        let secs = started.elapsed().as_secs_f64().max(1e-9);
        let c = &outcome.counters;
        assert_eq!(c.crashes, c.twin_checks, "every crash must twin-check");
        assert!(c.maint_decayed > 0, "smoke scenario must decay idle users");
        assert!(
            c.maint_pruned > 0,
            "smoke scenario must prune ended flights"
        );
        summary.metric("sim", "deltas", c.deltas as f64);
        summary.metric("sim", "deltas_per_sec", c.deltas as f64 / secs);
        summary.metric("sim", "batches", c.batches as f64);
        summary.metric("sim", "sheds", c.sheds as f64);
        summary.metric("sim", "crashes", c.crashes as f64);
        summary.metric("sim", "twin_checks", c.twin_checks as f64);
        summary.metric("sim", "disk_bytes", c.disk_bytes as f64);
        summary.metric("sim", "wall_ms", secs * 1e3);
        summary.metric("maintenance", "passes", c.maint_passes as f64);
        summary.metric("maintenance", "scanned", c.maint_scanned as f64);
        summary.metric("maintenance", "decayed", c.maint_decayed as f64);
        summary.metric("maintenance", "pruned", c.maint_pruned as f64);
        println!(
            "sim: {} deltas ({:.0}/s) over {} batches in {:.0} ms, {} crash(es) twin-checked, \
             {} shed(s), {} disk bytes",
            c.deltas,
            c.deltas as f64 / secs,
            c.batches,
            secs * 1e3,
            c.crashes,
            c.sheds,
            c.disk_bytes
        );
        println!(
            "maintenance: {} pass(es), scanned {}, decayed {}, pruned {}",
            c.maint_passes, c.maint_scanned, c.maint_decayed, c.maint_pruned
        );
    }

    // --- Observability: per-record overhead and exposition size. The
    // registry is process-wide, so by now it holds every family the
    // engine, pool, serving, and durability runs above registered. ---
    {
        let reg = adcast_obs::registry();
        let iters = scale.pick(200_000u64, 1_000_000);
        let counter = reg.counter("bench_obs_counter_total", "perf_summary counter probe");
        let counter_ns = time_per_iter(iters, || {
            counter.add(std::hint::black_box(1));
        }) * 1e9;
        let hist = reg.hist("bench_obs_hist_ns", "perf_summary histogram probe");
        let mut v = 1u64;
        let record_ns = time_per_iter(iters, || {
            // Cheap LCG so every bucket regime is exercised, not one line.
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            hist.record(std::hint::black_box(v >> 33));
        }) * 1e9;
        let rec = adcast_obs::FlightRecorder::new(4096);
        let flightrec_ns = time_per_iter(iters, || {
            rec.record(
                adcast_obs::EventKind::Admission,
                1,
                std::hint::black_box(250),
                0,
            );
        }) * 1e9;
        let exposition = reg.expose();
        summary.metric("obs", "counter_inc_ns", counter_ns);
        summary.metric("obs", "hist_record_ns", record_ns);
        summary.metric("obs", "flightrec_record_ns", flightrec_ns);
        summary.metric("obs", "metric_families", reg.len() as f64);
        summary.metric("obs", "exposition_bytes", exposition.len() as f64);
        println!(
            "obs: counter {counter_ns:.1} ns, hist record {record_ns:.1} ns, flightrec \
             {flightrec_ns:.1} ns, {} families, {} exposition bytes",
            reg.len(),
            exposition.len()
        );
    }

    // --- Tracing: the span-record hot path against its 100 ns budget,
    // the ring's resident size, and the sampled traces the cluster run
    // above (head sampling every 64th RPC) left in the process ring. ---
    {
        use adcast_obs::tracestore::{
            tracestore, SpanKind, TraceContext, TraceStore, TRACE_CAPACITY,
        };

        let store = TraceStore::new(TRACE_CAPACITY);
        let ctx = TraceContext {
            trace_id: 0xBEEF,
            parent_span_id: 0,
        };
        let iters = scale.pick(200_000u64, 1_000_000);
        let mut salt = 0u64;
        let span_record_ns = time_per_iter(iters, || {
            salt = salt.wrapping_add(1);
            store.record(std::hint::black_box(ctx), SpanKind::QueueWait, salt, 1, 250);
        }) * 1e9;
        assert!(
            span_record_ns <= 100.0,
            "span record {span_record_ns:.1} ns blows the 100 ns hot-path budget"
        );
        let sampled = tracestore().trace_ids().len();
        assert!(
            sampled > 0,
            "the routed run sampled every 64th RPC yet left no traces"
        );
        summary.metric("tracing", "span_record_ns", span_record_ns);
        summary.metric("tracing", "store_bytes", store.store_bytes() as f64);
        summary.metric("tracing", "sampled_traces", sampled as f64);
        println!(
            "tracing: span record {span_record_ns:.1} ns, {} ring bytes, {sampled} sampled \
             trace(s) from the routed run",
            store.store_bytes()
        );
    }

    // --- Blocked ad index: pruned vs exhaustive recommend at the E15
    // endpoints. Corpus sizes are fixed (10k and 1M ads — the scaling
    // claim is about those two points, so the trajectory stays comparable
    // across scales); ADCAST_SCALE only tunes the iteration counts. ---
    {
        use adcast_bench::indexsynth::{
            bench_config, build_store, measure_best, warm_context, PruneCounters,
        };
        use adcast_core::IndexScanEngine;

        let counters = PruneCounters::resolve();
        let iters = scale.pick(2_000u32, 5_000);
        let mut p99 = [0.0f64; 2];
        for (i, (num_ads, label)) in [(10_000u32, "10k"), (1_000_000, "1m")].iter().enumerate() {
            let index_store = build_store(*num_ads, 0xE15);
            let mut engine = IndexScanEngine::new(1, bench_config());
            let at = warm_context(&mut engine, &index_store);
            // Warm both paths (scratch capacities + accumulator pages).
            for _ in 0..20 {
                std::hint::black_box(engine.recommend(
                    &index_store,
                    UserId(0),
                    at,
                    LocationId(0),
                    10,
                ));
                std::hint::black_box(engine.recommend_exhaustive(
                    &index_store,
                    UserId(0),
                    at,
                    LocationId(0),
                    10,
                ));
            }
            let before = counters.read();
            let pruned = measure_best(5, iters, || {
                std::hint::black_box(engine.recommend(
                    &index_store,
                    UserId(0),
                    at,
                    LocationId(0),
                    10,
                ));
            });
            let prune_ratio = counters.ratio_since(before);
            let exhaustive = measure_best(5, iters / 10, || {
                std::hint::black_box(engine.recommend_exhaustive(
                    &index_store,
                    UserId(0),
                    at,
                    LocationId(0),
                    10,
                ));
            });
            p99[i] = pruned.p99() as f64;
            summary.metric(
                "index",
                &format!("pruned_p50_ns_{label}"),
                pruned.p50() as f64,
            );
            summary.metric(
                "index",
                &format!("pruned_p99_ns_{label}"),
                pruned.p99() as f64,
            );
            summary.metric(
                "index",
                &format!("exhaustive_p50_ns_{label}"),
                exhaustive.p50() as f64,
            );
            summary.metric(
                "index",
                &format!("exhaustive_p99_ns_{label}"),
                exhaustive.p99() as f64,
            );
            summary.metric("index", &format!("prune_ratio_{label}"), prune_ratio);
            println!(
                "index {label}: pruned p50 {} ns / p99 {} ns, exhaustive p99 {} ns, \
                 prune ratio {prune_ratio:.3}",
                pruned.p50(),
                pruned.p99(),
                exhaustive.p99()
            );
        }
        let growth = p99[1] / p99[0].max(1.0);
        summary.metric("index", "pruned_p99_growth_10k_to_1m", growth);
        println!("index: pruned p99 grows {growth:.2}x from 10k to 1M ads");
    }

    // --- Sparse kernels: the skewed-dot shape (ad 8 × context 512). ---
    let small = random_vector(&mut rng, 8, 50_000);
    let large = random_vector(&mut rng, 512, 50_000);
    let iters = scale.pick(200_000u64, 1_000_000);
    let merge_ns = time_per_iter(iters, || {
        std::hint::black_box(small.dot_merge(&large));
    }) * 1e9;
    let gallop_ns = time_per_iter(iters, || {
        std::hint::black_box(small.dot_gallop(&large));
    }) * 1e9;
    summary.metric("sparse_dot_8x512", "merge_ns", merge_ns);
    summary.metric("sparse_dot_8x512", "gallop_ns", gallop_ns);
    summary.metric(
        "sparse_dot_8x512",
        "gallop_speedup",
        merge_ns / gallop_ns.max(1e-9),
    );
    println!(
        "sparse dot 8x512: merge {merge_ns:.0} ns, gallop {gallop_ns:.0} ns ({:.1}x)",
        merge_ns / gallop_ns.max(1e-9)
    );

    summary.write();
}
