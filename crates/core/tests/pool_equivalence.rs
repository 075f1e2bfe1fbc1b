//! Sharding-equivalence suite for the persistent worker pool.
//!
//! The sharded driver must be a pure parallelization: for any workload,
//! a direct [`IncrementalEngine`], a 1-shard pool (inline path), and an
//! N-shard pool (worker threads) produce *identical* recommendations and
//! identical aggregate work counters. Feed processing is per-user and the
//! partition preserves per-user delta order, so even the floating-point
//! results must match bit-for-bit.

use std::sync::Arc;

use adcast_ads::{AdStore, AdSubmission, Budget, Targeting};
use adcast_core::driver::ShardedDriver;
use adcast_core::{EngineConfig, IncrementalEngine, Recommendation, RecommendationEngine};
use adcast_feed::FeedDelta;
use adcast_graph::UserId;
use adcast_stream::clock::Timestamp;
use adcast_stream::event::{LocationId, Message, MessageId};
use adcast_text::dictionary::TermId;
use adcast_text::SparseVector;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const USERS: u32 = 96;
const ADS: u32 = 48;
const VOCAB: u32 = 64;
const WINDOW: usize = 6;

fn random_vector(rng: &mut SmallRng, max_terms: usize) -> SparseVector {
    let n = rng.gen_range(1..=max_terms);
    SparseVector::from_pairs(
        (0..n).map(|_| (TermId(rng.gen_range(0..VOCAB)), rng.gen_range(0.1f32..1.0))),
    )
}

fn random_store(rng: &mut SmallRng) -> AdStore {
    let mut s = AdStore::new();
    for _ in 0..ADS {
        s.submit(AdSubmission {
            vector: random_vector(rng, 5),
            bid: rng.gen_range(0.5f32..2.0),
            targeting: Targeting::everywhere(),
            budget: Budget::unlimited(),
            topic_hint: None,
        })
        .unwrap();
    }
    s
}

/// A randomized sliding-window workload: interleaved per-user feed deltas
/// (with real evictions once a user's window fills) in arrival order.
fn random_workload(rng: &mut SmallRng, n: u64) -> Vec<(UserId, FeedDelta)> {
    let mut windows: Vec<Vec<Arc<Message>>> = (0..USERS).map(|_| Vec::new()).collect();
    let mut out = Vec::with_capacity(n as usize);
    for i in 0..n {
        let user = UserId(rng.gen_range(0..USERS));
        let msg = Arc::new(Message {
            id: MessageId(i),
            author: UserId(rng.gen_range(0..USERS)),
            ts: Timestamp::from_secs(i / 4),
            location: LocationId(0),
            vector: random_vector(rng, 4),
        });
        let window = &mut windows[user.index()];
        let evicted = if window.len() >= WINDOW {
            vec![window.remove(0)]
        } else {
            vec![]
        };
        window.push(msg.clone());
        out.push((
            user,
            FeedDelta {
                entered: Some(msg),
                evicted,
            },
        ));
    }
    out
}

fn ads_of(recs: &[Recommendation]) -> Vec<adcast_ads::AdId> {
    recs.iter().map(|r| r.ad).collect()
}

/// Drive the same workload through direct / 1-shard / N-shard engines in
/// interleaved process-then-query rounds, asserting equivalence at every
/// checkpoint (not just at the end).
fn assert_equivalent(seed: u64, config: EngineConfig, shards: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut store = random_store(&mut rng);
    let workload = random_workload(&mut rng, 2_400);

    let mut direct = IncrementalEngine::new(USERS, config.clone());
    let mut one = ShardedDriver::new(USERS, 1, config.clone());
    let mut many = ShardedDriver::new(USERS, shards, config);

    for (round, batch) in workload.chunks(400).enumerate() {
        // Campaign churn mid-workload: every topology must see the same
        // removal and purge identically.
        if round == 2 || round == 4 {
            let ad = adcast_ads::AdId(rng.gen_range(0..ADS));
            if store.remove(ad) {
                direct.on_campaign_removed(ad);
                one.on_campaign_removed(ad);
                many.on_campaign_removed(ad);
            }
        }
        for (u, d) in batch {
            direct.on_feed_delta(&store, *u, d);
        }
        one.process_batch(&store, batch.to_vec())
            .expect("1-shard pool alive");
        many.process_batch(&store, batch.to_vec())
            .expect("N-shard pool alive");

        let now = Timestamp::from_secs(((round as u64 + 1) * 100) / 4);
        for _ in 0..16 {
            let u = UserId(rng.gen_range(0..USERS));
            let k = rng.gen_range(1..=4usize);
            let a = direct.recommend(&store, u, now, LocationId(0), k);
            let b = one.recommend(&store, u, now, LocationId(0), k);
            let c = many.recommend(&store, u, now, LocationId(0), k);
            // Same per-user delta order ⇒ bit-identical float state ⇒ the
            // full Recommendation (ad, score, relevance) must match.
            assert_eq!(a, b, "direct vs 1-shard, user {u:?} round {round}");
            assert_eq!(
                ads_of(&a),
                ads_of(&c),
                "direct vs {shards}-shard, user {u:?} round {round}"
            );
            assert_eq!(
                a, c,
                "direct vs {shards}-shard scores, user {u:?} round {round}"
            );
        }
    }

    // Aggregate work counters: sharding must not change *what* work was
    // done, only where. Every counter (deltas, refreshes, promotions,
    // screening, fallbacks, rebases, ...) must agree in total.
    let direct_stats = direct.stats().clone();
    assert_eq!(direct_stats, one.stats(), "direct vs 1-shard stats");
    assert_eq!(direct_stats, many.stats(), "direct vs {shards}-shard stats");
    assert!(direct_stats.deltas == 2_400, "workload actually ran");
}

#[test]
fn equivalence_no_decay() {
    let config = EngineConfig {
        k: 3,
        half_life: None,
        ..Default::default()
    };
    assert_equivalent(0xA11CE, config, 4);
}

#[test]
fn equivalence_with_decay_and_rebases() {
    // Default config keeps forward decay on: landmark rebases fire during
    // the workload and must fire identically per user in every topology.
    let config = EngineConfig {
        k: 3,
        ..Default::default()
    };
    assert_equivalent(0xB0B, config, 5);
}

#[test]
fn equivalence_more_shards_than_some_residents() {
    // 7 shards over 96 users: uneven residents (14 vs 13) exercise the
    // local-id compaction at the boundaries.
    let config = EngineConfig {
        k: 2,
        half_life: None,
        ..Default::default()
    };
    assert_equivalent(0x5EED, config, 7);
}

/// The pipelined batch entry against one `on_feed_delta` at a time. A
/// catalogue of 400 ads over the 64-term vocabulary makes caches dense,
/// so users convert to exact lanes mid-run; 32 users in 60-delta batches
/// repeat users inside a batch (a prefetched user applied twice); a 5 s
/// half-life over ~12 minutes of stream time forces landmark rebases.
/// Four engines see the same stream: per-delta calls, `apply_batch`, and
/// 1- and `shards`-shard drivers. Recommendations, exported snapshots and
/// `EngineStats` must agree bit for bit.
fn assert_batch_matches_per_delta(seed: u64, shards: usize) {
    const LANE_ADS: u32 = 400;
    const LANE_USERS: u32 = 32;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut store = AdStore::new();
    for _ in 0..LANE_ADS {
        store
            .submit(AdSubmission {
                vector: random_vector(&mut rng, 4),
                bid: rng.gen_range(0.5f32..2.0),
                targeting: Targeting::everywhere(),
                budget: Budget::unlimited(),
                topic_hint: None,
            })
            .unwrap();
    }
    let mut workload = random_workload(&mut rng, 3_000);
    for (user, _) in &mut workload {
        *user = UserId(user.0 % LANE_USERS);
    }
    let config = EngineConfig {
        k: 3,
        half_life: Some(adcast_stream::clock::Duration::from_secs(5)),
        ..Default::default()
    };
    let mut reference = IncrementalEngine::new(LANE_USERS, config.clone());
    let mut batched = IncrementalEngine::new(LANE_USERS, config.clone());
    let mut one = ShardedDriver::new(LANE_USERS, 1, config.clone());
    let mut many = ShardedDriver::new(LANE_USERS, shards, config);
    let bits = |recs: &[Recommendation]| format!("{recs:?}");
    let mut lanes_seen = Vec::new();

    for (round, batch) in workload.chunks(60).enumerate() {
        assert!(
            batch.len() > LANE_USERS as usize,
            "every batch repeats a user"
        );
        if round == 20 {
            let ad = adcast_ads::AdId(rng.gen_range(0..LANE_ADS));
            assert!(store.remove(ad));
            reference.on_campaign_removed(ad);
            batched.on_campaign_removed(ad);
            one.on_campaign_removed(ad);
            many.on_campaign_removed(ad);
        }
        for (u, d) in batch {
            reference.on_feed_delta(&store, *u, d);
        }
        batched.apply_batch(&store, batch);
        one.process_batch(&store, batch.to_vec()).unwrap();
        many.process_batch(&store, batch.to_vec()).unwrap();
        lanes_seen.push(reference.lane_users());

        let now = batch.last().unwrap().1.entered.as_ref().unwrap().ts;
        for _ in 0..4 {
            let u = UserId(rng.gen_range(0..LANE_USERS));
            let k = rng.gen_range(1..=4usize);
            let want = bits(&reference.recommend(&store, u, now, LocationId(0), k));
            let got = [
                bits(&batched.recommend(&store, u, now, LocationId(0), k)),
                bits(&one.recommend(&store, u, now, LocationId(0), k)),
                bits(&many.recommend(&store, u, now, LocationId(0), k)),
            ];
            for (name, got) in ["apply_batch", "1-shard", "N-shard"].iter().zip(got) {
                assert_eq!(got, want, "{name}: user {u:?} round {round}");
            }
        }
    }

    // The workload reached every case it is meant to cover.
    let stats = reference.stats().clone();
    assert_eq!(lanes_seen.first(), Some(&0), "users start bounded");
    assert!(
        lanes_seen.windows(2).any(|w| w[0] < w[1] && w[0] > 0),
        "users convert to exact lanes mid-run: {lanes_seen:?}"
    );
    assert!(stats.rebases > 0, "no landmark rebase fired");

    assert_eq!(&stats, batched.stats(), "apply_batch stats");
    assert_eq!(stats, one.stats(), "1-shard stats");
    assert_eq!(stats, many.stats(), "{shards}-shard stats");

    // Snapshots, with f32s compared through `Debug` (which tells -0.0
    // from 0.0), user by user in global order.
    let want: Vec<String> = reference
        .export_snapshot()
        .users
        .iter()
        .map(|u| format!("{u:?}"))
        .collect();
    let batched_users: Vec<String> = batched
        .export_snapshot()
        .users
        .iter()
        .map(|u| format!("{u:?}"))
        .collect();
    assert_eq!(batched_users, want, "apply_batch snapshot");
    for (name, driver) in [("1-shard", &one), ("N-shard", &many)] {
        let snaps = driver.export_snapshots();
        let n = snaps.len();
        let users: Vec<String> = (0..LANE_USERS as usize)
            .map(|u| format!("{:?}", snaps[u % n].users[u / n]))
            .collect();
        assert_eq!(users, want, "{name} snapshot");
    }
}

#[test]
fn batch_apply_matches_per_delta_one_shard_and_pool() {
    assert_batch_matches_per_delta(0xBA7C4, 3);
}

#[test]
fn batch_apply_matches_per_delta_more_shards() {
    assert_batch_matches_per_delta(0xFE7C4, 5);
}
