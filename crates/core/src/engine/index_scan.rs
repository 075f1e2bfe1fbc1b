//! Baseline 2: exact top-k over the ad inverted index on every request,
//! via block-max pruning.
//!
//! Only ads sharing at least one term with the context can score non-zero,
//! so the candidate universe is the union of the context terms' posting
//! lists. The impact-ordered blocked index lets the request stop far
//! earlier than that: posting lists are walked best-block-first and the
//! evaluation ends once `Σ ctx_weight · block_max` over the remaining
//! blocks provably cannot beat the k-th retained rank — at scale, the
//! overwhelming majority of blocks are never read (E15 measures the prune
//! ratio). The pruned result is bit-identical to the exhaustive
//! term-at-a-time walk, which remains available as
//! [`IndexScanEngine::recommend_exhaustive`] for the equivalence suite and
//! the work-cost comparisons.

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

use adcast_ads::AdStore;
use adcast_feed::FeedDelta;
use adcast_graph::UserId;
use adcast_stream::clock::Timestamp;
use adcast_stream::event::LocationId;

use crate::config::EngineConfig;
use crate::context::UserContext;
use crate::engine::blockmax::{taat_blocked, BlockMaxScorer, IndexObs, TaatAccumulator};
use crate::engine::{EngineStats, Recommendation, RecommendationEngine};
use crate::topk::{top_k, Scored};

/// Reusable request-scoped buffers (clear-don't-drop: capacity is retained
/// across requests, so the steady-state serve path never allocates).
#[derive(Debug, Default)]
struct ScanScratch {
    /// Pruned evaluator state (cursors, seen table, retained top-k).
    scorer: BlockMaxScorer,
    /// Dense accumulator for the exhaustive reference walk.
    acc: TaatAccumulator,
    /// The most recent pruned result.
    out: Vec<Recommendation>,
}

/// The index-re-evaluation baseline.
#[derive(Debug)]
pub struct IndexScanEngine {
    config: EngineConfig,
    contexts: Vec<UserContext>,
    stats: EngineStats,
    scratch: ScanScratch,
    obs: IndexObs,
}

impl IndexScanEngine {
    /// One context per user.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration.
    pub fn new(num_users: u32, config: EngineConfig) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "construction-time config validation, documented under \"# Panics\"; \
                      no request in flight"
        )]
        config.validate().expect("invalid engine config");
        IndexScanEngine {
            contexts: (0..num_users)
                .map(|_| UserContext::new(config.half_life))
                .collect(),
            config,
            stats: EngineStats::default(),
            scratch: ScanScratch::default(),
            obs: IndexObs::resolve(),
        }
    }

    /// Read access to a user's context.
    pub fn context(&self, user: UserId) -> &UserContext {
        &self.contexts[user.index()]
    }

    /// The pruned serve path (body of `recommend`). Fills
    /// `self.scratch.out`; the trait method clones it out (the one
    /// unavoidable allocation of the request, asserted by the
    /// `zero_alloc` integration test). Every temporary lives in
    /// [`ScanScratch`], which retains capacity across requests.
    // adcast-lint: zero-alloc
    fn recommend_pruned(
        &mut self,
        store: &AdStore,
        user: UserId,
        now: Timestamp,
        location: LocationId,
        k: usize,
    ) {
        self.stats.recommends += 1;
        let ctx = &self.contexts[user.index()];
        let policy = self.config.scoring;
        // The serving threshold lives in true scale; the evaluator works
        // in forward scale (the normalizer is identical for every
        // candidate of this user at this instant).
        let normalizer = ctx.normalizer(now) as f32;
        let min_fwd = self.config.min_relevance * normalizer;
        self.scratch.scorer.run(
            store,
            ctx.raw(),
            now,
            location,
            k,
            min_fwd,
            policy,
            &mut self.stats,
            &self.obs,
        );
        // Convert forward-scale ranks to true scale for reporting.
        let rank_scale = normalizer.powf(policy.lambda);
        self.scratch.out.clear();
        for h in self.scratch.scorer.hits() {
            self.scratch.out.push(Recommendation {
                ad: h.ad,
                score: h.rank / rank_scale,
                relevance: h.fwd / normalizer,
            });
        }
    }

    /// Exhaustive term-at-a-time reference: walks *every* posting of the
    /// context's terms (no pruning) and selects the top-k from the full
    /// accumulation. Produces bit-identical results to
    /// [`RecommendationEngine::recommend`] — the `blockmax_equivalence`
    /// suite holds the two paths to that — and is what the benchmarks
    /// charge the un-pruned cost against.
    pub fn recommend_exhaustive(
        &mut self,
        store: &AdStore,
        user: UserId,
        now: Timestamp,
        location: LocationId,
        k: usize,
    ) -> Vec<Recommendation> {
        self.stats.recommends += 1;
        let ctx = &self.contexts[user.index()];
        taat_blocked(
            store.index(),
            ctx.raw(),
            store.num_total(),
            &mut self.scratch.acc,
            &mut self.stats,
            &self.obs,
        );
        let acc = &self.scratch.acc;
        self.stats.ads_scored += acc.touched().len() as u64;
        let policy = self.config.scoring;
        let normalizer = ctx.normalizer(now) as f32;
        let min_fwd = self.config.min_relevance * normalizer;
        let candidates = acc.touched().iter().filter_map(|&ad| {
            let fwd = acc.get(ad);
            // Cancellation in the decayed context also leaves tiny (even
            // negative) residues; the threshold removes them.
            if fwd <= min_fwd {
                return None;
            }
            let campaign = store.ad(ad)?;
            if !campaign.targeting.matches(location, now) {
                return None;
            }
            Some(Scored {
                ad,
                score: policy.rank(fwd, campaign.bid),
            })
        });
        let top = top_k(candidates, k);
        let rank_scale = normalizer.powf(policy.lambda);
        top.into_iter()
            .map(|s| Recommendation {
                ad: s.ad,
                score: s.score / rank_scale,
                relevance: acc.get(s.ad) / normalizer,
            })
            .collect()
    }
}

impl RecommendationEngine for IndexScanEngine {
    fn on_feed_delta(&mut self, _store: &AdStore, user: UserId, delta: &FeedDelta) {
        self.stats.deltas += 1;
        let update = self.contexts[user.index()].apply(delta);
        if update.rescale.is_some() {
            self.stats.rebases += 1;
        }
    }

    fn recommend(
        &mut self,
        store: &AdStore,
        user: UserId,
        now: Timestamp,
        location: LocationId,
        k: usize,
    ) -> Vec<Recommendation> {
        self.recommend_pruned(store, user, now, location, k);
        self.scratch.out.clone()
    }

    fn name(&self) -> &'static str {
        "index-scan"
    }

    fn stats(&self) -> &EngineStats {
        &self.stats
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .contexts
                .iter()
                .map(|c| c.memory_bytes())
                .sum::<usize>()
            + self.scratch.scorer.memory_bytes()
            + self.scratch.acc.memory_bytes()
            + self.scratch.out.capacity() * std::mem::size_of::<Recommendation>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcast_ads::{AdSubmission, Budget, Targeting};
    use adcast_stream::event::{Message, MessageId};
    use adcast_text::dictionary::TermId;
    use adcast_text::SparseVector;
    use std::sync::Arc;

    fn v(pairs: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().map(|&(t, w)| (TermId(t), w)))
    }

    fn store_with_ads() -> AdStore {
        let mut s = AdStore::new();
        for (vec, bid) in [
            (v(&[(1, 1.0)]), 1.0),
            (v(&[(2, 1.0)]), 1.0),
            (v(&[(1, 0.7), (2, 0.7)]), 1.0),
            (v(&[(9, 1.0)]), 1.0),
        ] {
            s.submit(AdSubmission {
                vector: vec,
                bid,
                targeting: Targeting::everywhere(),
                budget: Budget::unlimited(),
                topic_hint: None,
            })
            .unwrap();
        }
        s
    }

    fn feed(e: &mut IndexScanEngine, s: &AdStore, terms: &[(u32, f32)], secs: u64) {
        let m = Arc::new(Message {
            id: MessageId(secs),
            author: UserId(0),
            ts: Timestamp::from_secs(secs),
            location: LocationId(0),
            vector: v(terms),
        });
        e.on_feed_delta(
            s,
            UserId(0),
            &FeedDelta {
                entered: Some(m),
                evicted: vec![],
            },
        );
    }

    #[test]
    fn only_overlapping_ads_are_candidates() {
        let store = store_with_ads();
        let mut e = IndexScanEngine::new(
            1,
            EngineConfig {
                half_life: None,
                ..Default::default()
            },
        );
        feed(&mut e, &store, &[(1, 1.0)], 5);
        let recs = e.recommend(
            &store,
            UserId(0),
            Timestamp::from_secs(10),
            LocationId(0),
            10,
        );
        // Ads 0 and 2 share term 1; ads 1 and 3 do not overlap.
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].ad, adcast_ads::AdId(0));
        assert_eq!(e.stats().ads_scored, 2);
    }

    #[test]
    fn matches_full_scan_scores() {
        use crate::engine::FullScanEngine;
        let store = store_with_ads();
        let cfg = EngineConfig {
            half_life: None,
            ..Default::default()
        };
        let mut idx = IndexScanEngine::new(1, cfg.clone());
        let mut full = FullScanEngine::new(1, cfg);
        for (terms, secs) in [(vec![(1u32, 0.8f32), (2, 0.6)], 5u64), (vec![(2, 1.0)], 6)] {
            feed(&mut idx, &store, &terms, secs);
            let m = Arc::new(Message {
                id: MessageId(secs),
                author: UserId(0),
                ts: Timestamp::from_secs(secs),
                location: LocationId(0),
                vector: v(&terms),
            });
            full.on_feed_delta(
                &store,
                UserId(0),
                &FeedDelta {
                    entered: Some(m),
                    evicted: vec![],
                },
            );
        }
        let now = Timestamp::from_secs(10);
        let a = idx.recommend(&store, UserId(0), now, LocationId(0), 3);
        let b = full.recommend(&store, UserId(0), now, LocationId(0), 3);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.ad, y.ad);
            assert!((x.score - y.score).abs() < 1e-5, "{x:?} vs {y:?}");
            assert!((x.relevance - y.relevance).abs() < 1e-5);
        }
    }

    #[test]
    fn pruned_matches_exhaustive_bitwise() {
        let store = store_with_ads();
        let mut e = IndexScanEngine::new(
            1,
            EngineConfig {
                half_life: None,
                ..Default::default()
            },
        );
        feed(&mut e, &store, &[(1, 0.8), (2, 0.6)], 5);
        let now = Timestamp::from_secs(10);
        for k in [1, 2, 3, 10] {
            let pruned = e.recommend(&store, UserId(0), now, LocationId(0), k);
            let full = e.recommend_exhaustive(&store, UserId(0), now, LocationId(0), k);
            assert_eq!(pruned.len(), full.len(), "k={k}");
            for (p, f) in pruned.iter().zip(&full) {
                assert_eq!(p.ad, f.ad, "k={k}");
                assert_eq!(p.score.to_bits(), f.score.to_bits(), "k={k}");
                assert_eq!(p.relevance.to_bits(), f.relevance.to_bits(), "k={k}");
            }
        }
    }

    #[test]
    fn empty_context_returns_empty() {
        let store = store_with_ads();
        let mut e = IndexScanEngine::new(1, EngineConfig::default());
        let recs = e.recommend(&store, UserId(0), Timestamp::from_secs(1), LocationId(0), 5);
        assert!(recs.is_empty(), "no overlap candidates on an empty context");
    }

    #[test]
    fn postings_counted() {
        let store = store_with_ads();
        let mut e = IndexScanEngine::new(
            1,
            EngineConfig {
                half_life: None,
                ..Default::default()
            },
        );
        feed(&mut e, &store, &[(1, 1.0), (2, 1.0)], 5);
        e.recommend(
            &store,
            UserId(0),
            Timestamp::from_secs(10),
            LocationId(0),
            3,
        );
        // term 1 → ads {0,2}; term 2 → ads {1,2}. At this scale every
        // list is a single block and k ≥ the candidate count, so the
        // pruned walk reads all four postings.
        assert_eq!(e.stats().postings_scanned, 4);
        assert_eq!(e.name(), "index-scan");
    }
}
