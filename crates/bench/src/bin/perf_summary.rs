//! Machine-readable performance snapshot → `results/bench_summary.json`.
//!
//! Measures the three numbers every perf PR must not regress — incremental
//! deltas/sec, recommend p50/p99 latency, resident memory — plus the
//! sharded-pool throughput, a snapshot restart, and the sparse-kernel
//! micro timings, and writes them through [`adcast_bench::BenchSummary`]
//! so successive PRs leave a comparable trajectory. The engine, pool and
//! restart sections share one `net::synth` workload at a fixed scale
//! close to the benchmark's (4 000 users × 2 000 campaigns, seed 7);
//! `ADCAST_SCALE` (`quick` | `paper`) tunes only iteration counts and the
//! probes that have their own corpora. Socket serving, routing and the
//! fsync-policy sweep are measured by `adbench` and E13/E14/E17, not here.

use std::time::Instant;

use adcast_ads::AdStore;
use adcast_bench::{BenchSummary, Scale};
use adcast_core::driver::ShardedDriver;
use adcast_core::{DriverConfig, EngineConfig, IncrementalEngine, RecommendationEngine};
use adcast_graph::UserId;
use adcast_metrics::LatencyHistogram;
use adcast_net::synth::{self, SynthConfig};
use adcast_stream::event::LocationId;
use adcast_text::dictionary::TermId;
use adcast_text::SparseVector;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_vector(rng: &mut SmallRng, terms: usize, vocab: u32) -> SparseVector {
    SparseVector::from_pairs(
        (0..terms).map(|_| (TermId(rng.gen_range(0..vocab)), rng.gen_range(0.05f32..1.0))),
    )
}

fn time_per_iter(iters: u64, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..iters {
        f();
    }
    started.elapsed().as_secs_f64() / iters as f64
}

/// Wall seconds of the fastest of three calls; what a call returns is
/// dropped outside its timing.
fn best_of_3<T>(mut f: impl FnMut() -> T) -> f64 {
    (0..3)
        .map(|_| {
            let started = Instant::now();
            let out = f();
            let secs = started.elapsed().as_secs_f64();
            drop(out);
            secs
        })
        .fold(f64::MAX, f64::min)
}

fn main() {
    let scale = Scale::from_env();
    // 30 000 messages fan out to ~343k feed deltas in 60-delta batches.
    let workload = synth::build(&SynthConfig {
        num_users: 4_000,
        num_ads: 2_000,
        messages: 30_000,
        batch_size: 60,
        msgs_per_sec: 200.0,
        seed: 7,
    });
    let num_users = workload.num_users;
    let mut store = AdStore::new();
    for spec in &workload.campaigns {
        let submission = spec.clone().try_into_submission().expect("valid campaign");
        store.submit(submission).expect("valid ad");
    }
    let deltas: Vec<_> = workload.batches.iter().flatten().cloned().collect();
    let warm = deltas.len() / 2;
    let mut summary = BenchSummary::new();

    // --- Incremental engine: deltas/sec over the second half of the
    // stream, recommend p50/p99 at home locations, memory. ---
    let mut engine = IncrementalEngine::new(num_users, EngineConfig::default());
    for (u, d) in &deltas[..warm] {
        engine.on_feed_delta(&store, *u, d);
    }
    let started = Instant::now();
    for (u, d) in &deltas[warm..] {
        engine.on_feed_delta(&store, *u, d);
    }
    let measured = deltas.len() - warm;
    let deltas_per_sec = measured as f64 / started.elapsed().as_secs_f64().max(1e-9);

    let mut hist = LatencyHistogram::new();
    let last = deltas.iter().filter_map(|(_, d)| d.entered.as_ref());
    let now = last.map(|m| m.ts).max().unwrap_or_default();
    for i in 0..scale.pick(5_000u32, 20_000) {
        let u = UserId(i % num_users);
        let t0 = Instant::now();
        let recs = engine.recommend(&store, u, now, workload.homes[u.index()], 10);
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
    drop(engine);

    // --- Sharded pool: the whole stream in its own batches, throughput
    // and resident memory by shards. ---
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
        for batch in &workload.batches {
            driver
                .process_batch(&store, batch.clone())
                .expect("pool alive");
        }
        let rate = deltas.len() as f64 / started.elapsed().as_secs_f64().max(1e-9);
        let section = format!("pool_{shards}_shards");
        summary.metric(&section, "deltas_per_sec", rate);
        summary.metric(&section, "memory_bytes", driver.memory_bytes() as f64);
        println!(
            "{section}: {rate:.0} deltas/s, {} bytes",
            driver.memory_bytes()
        );
    }

    // --- Restart from a snapshot: the CRC kernel, then what a
    // snapshot-based recovery of the shared workload spends on one shard
    // after a checkpoint at the end of the log, as `adbench` restarts.
    // `snapshot_load_ms` is the file load `recover` runs (read, CRC and
    // parse in one streaming pass), `snapshot_restore_ms` moves the
    // decoded state into a fresh store and driver, and
    // `recover_snapshot_ms` is the whole `recover`: both of those plus
    // opening the empty WAL segment the checkpoint started. Each is the
    // best of 3. ---
    {
        use adcast_core::snapshot::RelevanceSnapshot;
        use adcast_durability::crc::{self, crc32};
        use adcast_durability::snapshot::{load_latest, snapshot_file_name};
        use adcast_durability::{
            apply_record, recover, Durability, DurabilityOptions, EngineSetSnapshot, FsyncPolicy,
            WalOptions, WalRecord,
        };

        let buf: Vec<u8> = (0..16u32 << 20)
            .map(|i| (i.wrapping_mul(31) >> 3) as u8)
            .collect();
        let crc_secs = best_of_3(|| std::hint::black_box(crc32(std::hint::black_box(&buf))));
        let crc_ns_per_byte = crc_secs * 1e9 / buf.len() as f64;
        summary.metric("durability", "crc_ns_per_byte", crc_ns_per_byte);
        println!(
            "durability crc32 ({} kernel): {crc_ns_per_byte:.2} ns/B",
            crc::kernel()
        );

        let dir = std::env::temp_dir().join(format!("adcast-perf-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = WalOptions {
            fsync: FsyncPolicy::Off,
            ..WalOptions::default()
        };
        let recovered = recover(&dir, num_users, 1, EngineConfig::default(), wal).expect("cold");
        let mut durability = Durability::new(
            &dir,
            recovered.wal,
            DurabilityOptions {
                wal,
                ..DurabilityOptions::default()
            },
            recovered.report,
        );
        let (mut logged_store, mut driver) = (recovered.store, recovered.driver);
        let submits = workload.campaigns.iter().map(|spec| {
            WalRecord::Submit(spec.clone().try_into_submission().expect("valid campaign"))
        });
        let ingests = workload.batches.iter().cloned().map(WalRecord::IngestBatch);
        for record in submits.chain(ingests) {
            durability.log(&record).expect("log");
            durability.commit().expect("commit");
            apply_record(&mut logged_store, &mut driver, record).expect("apply");
        }
        let checkpoint = durability
            .checkpoint(&logged_store, &driver)
            .expect("checkpoint");
        drop((durability, logged_store, driver));

        let recover_secs = best_of_3(|| {
            let r = recover(&dir, num_users, 1, EngineConfig::default(), wal).expect("recover");
            assert_eq!(r.report.snapshot_lsn, Some(checkpoint));
            r
        });
        let load = || {
            let loaded = load_latest(&dir).expect("list").expect("a snapshot");
            assert_eq!(loaded.snapshot.next_lsn, checkpoint);
            loaded.snapshot
        };
        let load_secs = best_of_3(load);
        let decoded: EngineSetSnapshot = load();
        let exact_users = decoded
            .engines
            .iter()
            .flat_map(|e| &e.users)
            .filter(|u| matches!(u.relevance, RelevanceSnapshot::Exact { .. }))
            .count();
        let mut copies = vec![decoded.clone(), decoded.clone(), decoded];
        let restore_secs = best_of_3(|| {
            let snap = copies.pop().expect("one copy per call");
            let store = AdStore::from_snapshot(snap.store).expect("store");
            let mut driver = ShardedDriver::new(num_users, 1, EngineConfig::default());
            driver.restore_snapshots(snap.engines).expect("restore");
            (store, driver)
        });
        let image_len = std::fs::metadata(dir.join(snapshot_file_name(checkpoint)))
            .expect("image")
            .len();
        let snapshot_mb = image_len as f64 / 1e6;
        summary.metric("durability", "snapshot_mb", snapshot_mb);
        summary.metric("durability", "snapshot_exact_users", exact_users as f64);
        summary.metric("durability", "snapshot_load_ms", load_secs * 1e3);
        summary.metric("durability", "snapshot_restore_ms", restore_secs * 1e3);
        summary.metric("durability", "recover_snapshot_ms", recover_secs * 1e3);
        println!(
            "durability restart: {snapshot_mb:.1} MB snapshot ({exact_users} of {num_users} users \
             on exact lanes), load {:.1} ms, restore {:.1} ms, recover {:.1} ms",
            load_secs * 1e3,
            restore_secs * 1e3,
            recover_secs * 1e3
        );
        let _ = std::fs::remove_dir_all(&dir);
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
        assert_eq!(
            c.crashes + 1,
            c.twin_checks,
            "every crash and the node at the end must twin-check"
        );
        assert!(c.maint_decayed > 0, "smoke scenario must decay idle users");
        assert!(
            c.maint_pruned > 0,
            "smoke scenario must prune ended flights"
        );
        summary.metric("sim", "deltas", c.acked_deltas as f64);
        summary.metric("sim", "deltas_per_sec", c.acked_deltas as f64 / secs);
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
            c.acked_deltas,
            c.acked_deltas as f64 / secs,
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
    // engine, pool, restart and simulation runs above registered. ---
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

    // --- Tracing: the span-record hot path against its 100 ns budget and
    // the ring's resident size. ---
    {
        use adcast_obs::tracestore::{SpanKind, TraceContext, TraceStore, TRACE_CAPACITY};

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
        summary.metric("tracing", "span_record_ns", span_record_ns);
        summary.metric("tracing", "store_bytes", store.store_bytes() as f64);
        println!(
            "tracing: span record {span_record_ns:.1} ns, {} ring bytes",
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
    let mut rng = SmallRng::seed_from_u64(0xBE7C);
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

    // --- Sparse kernels: a context update's merge (a ~16-term delta
    // added into a ~256-term context), linear merge against the
    // galloping run copy `axpy_in` dispatches to for this skew. Each
    // iteration adds the delta and then subtracts it again, so the
    // context keeps its shape; the timing covers both merges. ---
    let mut ctx = random_vector(&mut rng, 256, 5_000);
    let delta = random_vector(&mut rng, 16, 5_000);
    let mut scratch = adcast_text::ScratchSpace::new();
    let axpy_iters = scale.pick(100_000u64, 500_000);
    let merge_ns = time_per_iter(axpy_iters, || {
        ctx.axpy_merge_in(1.0, &delta, &mut scratch);
        ctx.axpy_merge_in(-1.0, &delta, &mut scratch);
        std::hint::black_box(&ctx);
    }) * 1e9
        / 2.0;
    let gallop_ns = time_per_iter(axpy_iters, || {
        ctx.axpy_gallop_in(1.0, &delta, &mut scratch);
        ctx.axpy_gallop_in(-1.0, &delta, &mut scratch);
        std::hint::black_box(&ctx);
    }) * 1e9
        / 2.0;
    summary.metric("sparse_axpy", "context_terms", ctx.len() as f64);
    summary.metric("sparse_axpy", "delta_terms", delta.len() as f64);
    summary.metric("sparse_axpy", "merge_ns", merge_ns);
    summary.metric("sparse_axpy", "gallop_ns", gallop_ns);
    summary.metric(
        "sparse_axpy",
        "gallop_speedup",
        merge_ns / gallop_ns.max(1e-9),
    );
    println!(
        "sparse axpy {}+={}: merge {merge_ns:.0} ns, gallop {gallop_ns:.0} ns ({:.1}x)",
        ctx.len(),
        delta.len(),
        merge_ns / gallop_ns.max(1e-9)
    );

    summary.write();
}
