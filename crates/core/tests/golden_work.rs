//! Golden-work regression test for the incremental engine.
//!
//! A fixed seeded stream — topical ads, growing decayed contexts, sliding
//! windows, interleaved recommends, pauses, resumes, removals and a
//! mid-stream submission — is driven through [`IncrementalEngine`] under
//! two configurations. The resulting work counters and a digest of the
//! exported engine state must equal the recorded values exactly.
//!
//! The recorded values pin the *algorithm*: a change to the engine's data
//! structures (how gains are accumulated, how per-user maps are keyed, how
//! exact dots are evaluated) must leave every counter and every f32 bit of
//! state unchanged. Only a deliberate change to what the engine computes
//! may re-record them.
//!
//! Each run also pins how many users end on an exact relevance lane:
//! every user in the first configuration and none in the second, so the
//! digests cover both engine regimes.

use std::sync::Arc;

use adcast_ads::{AdId, AdStore, AdSubmission, Budget, Targeting};
use adcast_core::snapshot::{EngineSnapshot, RelevanceSnapshot};
use adcast_core::{EngineConfig, IncrementalEngine, RecommendationEngine, ScoringPolicy};
use adcast_feed::FeedDelta;
use adcast_graph::UserId;
use adcast_stream::clock::{Duration, Timestamp};
use adcast_stream::event::{LocationId, Message, MessageId};
use adcast_text::dictionary::TermId;
use adcast_text::SparseVector;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const USERS: u32 = 64;
const ADS: u32 = 1_200;
const TOPICS: u32 = 12;
const TOPIC_TERMS: u32 = 40;
const WINDOW: usize = 20;
const DELTAS: u64 = 6_000;

/// A term from `topic`'s block of the vocabulary, or (1 in 5) from anywhere.
fn topical_term(rng: &mut SmallRng, topic: u32) -> TermId {
    if rng.gen_range(0..5u32) == 0 {
        TermId(rng.gen_range(0..TOPICS * TOPIC_TERMS))
    } else {
        TermId(topic * TOPIC_TERMS + rng.gen_range(0..TOPIC_TERMS))
    }
}

fn topical_vector(
    rng: &mut SmallRng,
    topic: u32,
    terms: std::ops::RangeInclusive<usize>,
) -> SparseVector {
    let n = rng.gen_range(terms);
    SparseVector::from_pairs(
        (0..n).map(|_| (topical_term(rng, topic), rng.gen_range(0.05f32..1.0))),
    )
}

fn submission(rng: &mut SmallRng) -> AdSubmission {
    let topic = rng.gen_range(0..TOPICS);
    let vector = topical_vector(rng, topic, 1..=14);
    // One ad in four serves in a single location, so location-filtered
    // recommends must fall back to an exact walk.
    let targeting = match rng.gen_range(0..4u32) {
        0 => Targeting::everywhere().in_locations([LocationId(rng.gen_range(0..3))]),
        _ => Targeting::everywhere(),
    };
    AdSubmission {
        vector,
        bid: rng.gen_range(0.2f32..3.0),
        targeting,
        budget: Budget::unlimited(),
        topic_hint: None,
    }
}

/// FNV-1a over the snapshot's every field, f32s by bit pattern.
fn digest(snapshot: &EngineSnapshot) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for u in &snapshot.users {
        eat(u.landmark.0);
        eat(u.last_ts.0);
        eat(u.context.len() as u64);
        for (t, w) in u.context.iter() {
            eat(u64::from(t.0));
            eat(u64::from(w.to_bits()));
        }
        match &u.relevance {
            RelevanceSnapshot::Bounded {
                buffer,
                cache,
                ceiling,
                outside_bound,
            } => {
                for entries in [buffer, cache] {
                    eat(entries.len() as u64);
                    for &(ad, v) in entries {
                        eat(u64::from(ad.0));
                        eat(u64::from(v.to_bits()));
                    }
                }
                eat(u64::from(ceiling.to_bits()));
                eat(u64::from(outside_bound.to_bits()));
            }
            RelevanceSnapshot::Exact { lane, since_anchor } => {
                eat(lane.len() as u64);
                for v in lane {
                    eat(u64::from(v.to_bits()));
                }
                eat(u64::from(*since_anchor));
            }
        }
        eat(u.index_epoch);
    }
    h
}

/// The recorded outcome of one run: `(postings_scanned, ads_scored,
/// screened_out, promotions, refreshes, fallbacks, rebases, digest)`.
type Work = (u64, u64, u64, u64, u64, u64, u64, u64);

/// Runs the stream; returns the work and the users on a dense lane.
fn run(config: EngineConfig) -> (Work, usize) {
    let mut rng = SmallRng::seed_from_u64(0x5eed_2016);
    let mut store = AdStore::new();
    for _ in 0..ADS {
        store.submit(submission(&mut rng)).expect("valid ad");
    }
    let user_topic: Vec<u32> = (0..USERS).map(|_| rng.gen_range(0..TOPICS)).collect();
    let mut windows: Vec<Vec<Arc<Message>>> = (0..USERS).map(|_| Vec::new()).collect();
    let mut engine = IncrementalEngine::new(USERS, config);
    let mut paused: Vec<AdId> = Vec::new();

    for i in 0..DELTAS {
        let user = UserId(rng.gen_range(0..USERS));
        let topic = if rng.gen_range(0..4u32) == 0 {
            rng.gen_range(0..TOPICS)
        } else {
            user_topic[user.index()]
        };
        // Two seconds per delta: 12 000 s of stream is 120 half-lives,
        // past the forward-decay exponent limit, so landmarks rebase.
        let ts = Timestamp::from_secs(2 * i + 1);
        let msg = Arc::new(Message {
            id: MessageId(i),
            author: UserId(rng.gen_range(0..USERS)),
            ts,
            location: LocationId(0),
            vector: topical_vector(&mut rng, topic, 2..=8),
        });
        let window = &mut windows[user.index()];
        let evicted = if window.len() >= WINDOW {
            vec![window.remove(0)]
        } else {
            vec![]
        };
        window.push(msg.clone());
        engine.on_feed_delta(
            &store,
            user,
            &FeedDelta {
                entered: Some(msg),
                evicted,
            },
        );

        if i % 20 == 0 {
            let u = UserId(rng.gen_range(0..USERS));
            let k = rng.gen_range(1..=12usize);
            let at = LocationId(rng.gen_range(0..4));
            let recs = engine.recommend(&store, u, ts, at, k);
            assert!(recs.len() <= k);
        }
        // Churn: pauses filter at serve time (fallbacks), resumes and the
        // submission bump the index epoch (refreshes), removals purge.
        match i % 500 {
            100 => {
                for _ in 0..20 {
                    let ad = AdId(rng.gen_range(0..ADS));
                    if store.pause(ad) {
                        paused.push(ad);
                    }
                }
            }
            300 => {
                for ad in paused.drain(..).step_by(2) {
                    store.resume(ad);
                }
            }
            400 => {
                let gone: Vec<AdId> = (0..5).map(|_| AdId(rng.gen_range(0..ADS))).collect();
                let gone: Vec<AdId> = gone.into_iter().filter(|&ad| store.remove(ad)).collect();
                engine.on_campaigns_removed(&gone);
            }
            450 => {
                store.submit(submission(&mut rng)).expect("valid ad");
            }
            _ => {}
        }
    }

    let s = engine.stats();
    assert_eq!(s.deltas, DELTAS);
    let work = (
        s.postings_scanned,
        s.ads_scored,
        s.screened_out,
        s.promotions,
        s.refreshes,
        s.fallbacks,
        s.rebases,
        digest(&engine.export_snapshot()),
    );
    (work, engine.lane_users())
}

fn decayed() -> EngineConfig {
    EngineConfig {
        half_life: Some(Duration::from_secs(100)),
        ..Default::default()
    }
}

#[test]
fn pure_relevance_work_is_golden() {
    let (work, lane_users) = run(decayed());
    assert_eq!(lane_users, USERS as usize);
    assert_eq!(
        work,
        (
            2317760,
            842139,
            13088,
            17249,
            1591,
            67,
            64,
            397495071141004763
        )
    );
}

#[test]
fn blended_small_cache_work_is_golden() {
    let (got, lane_users) = run(EngineConfig {
        k: 6,
        scoring: ScoringPolicy::blended(0.7),
        cache_capacity: 24,
        ..decayed()
    });
    assert_eq!(lane_users, 0, "a 24-entry cache is below the lane floor");
    assert_eq!(
        got,
        (
            5133933,
            2522888,
            104035,
            103741,
            4313,
            169,
            64,
            12741014846207403697
        )
    );
}
