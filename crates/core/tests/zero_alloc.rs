//! Steady-state allocation accounting for the delta hot path.
//!
//! Requires the `debug-stats` feature: the binary installs the counting
//! global allocator, the engine samples the per-thread counter around
//! each `on_feed_delta`, and this test asserts the counter stays flat
//! once scratch capacities have warmed up — the "zero heap allocations
//! per steady-state feed delta" property.
//!
//! Run with: `cargo test -p adcast-core --features debug-stats`
#![cfg(feature = "debug-stats")]

use std::sync::Arc;

use adcast_ads::{AdStore, AdSubmission, Budget, Targeting};
use adcast_core::allocmeter::CountingAllocator;
use adcast_core::{EngineConfig, IncrementalEngine, RecommendationEngine};
use adcast_feed::FeedDelta;
use adcast_graph::UserId;
use adcast_stream::clock::Timestamp;
use adcast_stream::event::{LocationId, Message, MessageId};
use adcast_text::dictionary::TermId;
use adcast_text::SparseVector;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn v(pairs: &[(u32, f32)]) -> SparseVector {
    SparseVector::from_pairs(pairs.iter().map(|&(t, w)| (TermId(t), w)))
}

fn store(num_ads: u32) -> AdStore {
    let mut s = AdStore::new();
    for i in 0..num_ads {
        s.submit(AdSubmission {
            vector: v(&[(i % 12, 0.5 + 0.01 * i as f32), (12 + i % 4, 0.3)]),
            bid: 1.0,
            targeting: Targeting::everywhere(),
            budget: Budget::unlimited(),
            topic_hint: None,
        })
        .unwrap();
    }
    s
}

/// A sliding-window stream cycling a fixed term set: after one full
/// cycle the context support, buffer membership, touched gain slots, and all
/// scratch capacities are saturated — every later delta is steady state.
fn stream(n: u64) -> Vec<FeedDelta> {
    let mut live: Vec<Arc<Message>> = Vec::new();
    let mut out = Vec::with_capacity(n as usize);
    for i in 0..n {
        let msg = Arc::new(Message {
            id: MessageId(i),
            author: UserId(0),
            ts: Timestamp::from_secs(i + 1),
            location: LocationId(0),
            vector: v(&[((i % 12) as u32, 0.7), (12 + (i % 4) as u32, 0.2)]),
        });
        let evicted = if live.len() >= 5 {
            vec![live.remove(0)]
        } else {
            vec![]
        };
        live.push(msg.clone());
        out.push(FeedDelta {
            entered: Some(msg),
            evicted,
        });
    }
    out
}

/// Feed one user 1 000 warm-up deltas, then 1 000 measured ones, over a
/// store of `num_ads`; returns the engine, the allocations counted in
/// each half, and the refreshes (re-anchors, on an exact lane) in the
/// measured half. No decay: rebases never fire, so every post-warmup
/// delta walks the same code paths.
fn warm_then_measure(num_ads: u32) -> (IncrementalEngine, u64, u64, u64) {
    let s = store(num_ads);
    let config = EngineConfig {
        k: 2,
        half_life: None,
        ..Default::default()
    };
    let mut engine = IncrementalEngine::new(1, config);
    let deltas = stream(2_000);
    // Warm-up: grow every scratch buffer, map, and context to its
    // steady-state capacity (including at least one refresh).
    for d in &deltas[..1_000] {
        engine.on_feed_delta(&s, UserId(0), d);
    }
    let warmup_allocs = engine.stats().hot_path_allocs;
    let warmup_refreshes = engine.stats().refreshes;
    // Steady state: the counter must not move at all.
    for d in &deltas[1_000..] {
        engine.on_feed_delta(&s, UserId(0), d);
    }
    let steady_allocs = engine.stats().hot_path_allocs - warmup_allocs;
    let steady_refreshes = engine.stats().refreshes - warmup_refreshes;
    assert_eq!(engine.stats().deltas, 2_000);
    (engine, warmup_allocs, steady_allocs, steady_refreshes)
}

#[test]
fn steady_state_deltas_do_not_allocate() {
    // 30 ads against a buffer of k·headroom = 8 keeps the outside-ad
    // machinery (gain accumulator, screening, a sparse score cache)
    // exercised.
    let (engine, warmup_allocs, steady_allocs, _) = warm_then_measure(30);
    assert!(
        warmup_allocs > 0,
        "warm-up must allocate (buffers grow from empty)"
    );
    assert_eq!(
        steady_allocs, 0,
        "steady-state deltas allocated {steady_allocs} times over 1000 deltas"
    );
    assert_eq!(engine.lane_users(), 0, "30 ads stay below the lane floor");
}

#[test]
fn steady_state_deltas_on_a_dense_lane_do_not_allocate() {
    // 300 ads over the stream's 16 terms: every ad is touched, the buffer
    // keeps 8, and the rest fill the score cache past the density cut, so
    // the user converts to an exact lane during warm-up (converting
    // allocates the lane, which a measured delta would count). Every
    // measured delta scatters into that lane, and the measured thousand
    // include the periodic re-anchors, which must reuse it.
    let (engine, _, steady_allocs, steady_refreshes) = warm_then_measure(300);
    assert_eq!(engine.lane_users(), 1, "the user must be on an exact lane");
    assert!(
        steady_refreshes >= 3,
        "1000 measured deltas must re-anchor the lane, got {steady_refreshes}"
    );
    assert_eq!(
        steady_allocs, 0,
        "steady-state lane deltas allocated {steady_allocs} times over 1000 deltas"
    );
}

#[test]
fn steady_state_batches_do_not_allocate() {
    // The driver's entry: `apply_batch` over 60-delta batches that repeat
    // each of three users 20 times, over the 300-ad store, so all three
    // convert to exact lanes during warm-up and every measured batch
    // prefetches and scatters into them (re-anchors included). Neither
    // the per-delta accounting nor the thread's raw count may move.
    use adcast_core::allocmeter::allocation_count;

    let s = store(300);
    let config = EngineConfig {
        k: 2,
        half_life: None,
        ..Default::default()
    };
    let mut engine = IncrementalEngine::new(3, config);
    let items: Vec<(UserId, FeedDelta)> = stream(2_000)
        .into_iter()
        .flat_map(|d| (0..3u32).map(move |u| (UserId(u), d.clone())))
        .collect();
    let (warmup, measured) = items.split_at(3_000);
    for batch in warmup.chunks(60) {
        engine.apply_batch(&s, batch);
    }
    assert_eq!(
        engine.lane_users(),
        3,
        "every user must be on an exact lane"
    );
    let (allocs_before, refreshes_before) =
        (engine.stats().hot_path_allocs, engine.stats().refreshes);
    assert!(
        allocs_before > 0,
        "the batch entry must count warm-up allocations in hot_path_allocs"
    );
    let raw_before = allocation_count();
    for batch in measured.chunks(60) {
        engine.apply_batch(&s, batch);
    }
    let raw = allocation_count() - raw_before;
    assert_eq!(engine.stats().deltas, 6_000);
    assert!(
        engine.stats().refreshes - refreshes_before >= 9,
        "the measured batches must re-anchor every lane"
    );
    assert_eq!(
        engine.stats().hot_path_allocs - allocs_before,
        0,
        "steady-state batched deltas allocated"
    );
    assert_eq!(raw, 0, "the batch loop allocated {raw} times");
}

#[test]
fn steady_state_recommend_allocates_only_the_result() {
    // The pruned serve path works entirely out of engine-owned scratch:
    // once cursor/seen/top-k capacities have warmed up, the only heap
    // allocation left per request is cloning the result vector out.
    use adcast_core::allocmeter::allocation_count;
    use adcast_core::IndexScanEngine;

    let s = store(30);
    let mut engine = IndexScanEngine::new(
        1,
        EngineConfig {
            k: 4,
            half_life: None,
            ..Default::default()
        },
    );
    let deltas = stream(40);
    for d in &deltas {
        engine.on_feed_delta(&s, UserId(0), d);
    }
    let now = Timestamp::from_secs(100);
    // Warm-up: grow the scorer's cursors/seen table/hit list and the
    // output buffer to steady-state capacity.
    for _ in 0..50 {
        let recs = engine.recommend(&s, UserId(0), now, LocationId(0), 4);
        assert!(!recs.is_empty());
    }
    let before = allocation_count();
    let rounds = 1_000u64;
    for _ in 0..rounds {
        let recs = engine.recommend(&s, UserId(0), now, LocationId(0), 4);
        std::hint::black_box(&recs);
    }
    let per_call = (allocation_count() - before) as f64 / rounds as f64;
    assert!(
        per_call <= 1.0,
        "steady-state recommend averaged {per_call} allocations per call \
         (expected ≤ 1: the cloned result vector)"
    );
}

#[test]
fn counter_is_wired_through_the_trait() {
    // Sanity: the accounting happens inside `on_feed_delta` itself, so a
    // cold engine's very first delta must register allocations.
    let s = store(8);
    let mut engine = IncrementalEngine::new(
        1,
        EngineConfig {
            k: 2,
            half_life: None,
            ..Default::default()
        },
    );
    let deltas = stream(1);
    engine.on_feed_delta(&s, UserId(0), &deltas[0]);
    assert!(engine.stats().hot_path_allocs > 0);
}

#[test]
fn obs_record_paths_do_not_allocate() {
    use adcast_core::allocmeter::allocation_count;
    use adcast_obs::flightrec::EventKind;
    use adcast_obs::tracestore::{SpanKind, TraceContext};
    use adcast_obs::{flightrec, tracestore};

    // The first touch builds each process-wide ring.
    let (rec, spans) = (flightrec(), tracestore());
    let ctx = TraceContext {
        trace_id: 7,
        parent_span_id: 0,
    };
    let before = allocation_count();
    for i in 0..10_000u64 {
        rec.record(EventKind::Admission, i, 250, 0);
        spans.record(ctx, SpanKind::QueueWait, i, i, 40);
    }
    assert_eq!(
        allocation_count() - before,
        0,
        "flight-recorder and span records allocated"
    );
}
