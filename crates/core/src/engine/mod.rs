//! The recommendation engines.
//!
//! All three engines implement [`RecommendationEngine`] so the harness,
//! examples, and equivalence tests drive them interchangeably:
//!
//! | engine | update cost | query cost | exact? |
//! |---|---|---|---|
//! | [`FullScanEngine`] | O(Δ) context only | O(|A| · terms) | yes |
//! | [`IndexScanEngine`] | O(Δ) context only | O(postings of context terms) | yes |
//! | [`IncrementalEngine`] | O(postings of Δ terms) | O(buffer) | yes (Eager) / bounded staleness (Budgeted) |

mod blockmax;
mod full_scan;
mod incremental;
mod index_scan;
mod prefetch;
mod scatter;

pub use full_scan::FullScanEngine;
pub use incremental::IncrementalEngine;
pub use index_scan::IndexScanEngine;

use adcast_ads::{AdId, AdStore};
use adcast_feed::FeedDelta;
use adcast_graph::UserId;
use adcast_stream::clock::Timestamp;
use adcast_stream::event::LocationId;
use adcast_text::SparseVector;

/// One recommended ad.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recommendation {
    /// The ad.
    pub ad: AdId,
    /// Blended ranking score in true (decay-normalized) scale.
    pub score: f32,
    /// Pure textual relevance (decayed dot product) in true scale.
    pub relevance: f32,
}

/// Work counters common to every engine. All counters are cumulative
/// over the engine's process lifetime: they are not part of its
/// snapshot, so a restarted engine counts from zero (plus whatever WAL
/// tail its recovery replays).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Feed deltas processed.
    pub deltas: u64,
    /// Posting-list entries walked.
    pub postings_scanned: u64,
    /// Candidate score computations (full-scan dots, TAAT accumulations
    /// finalized, incremental exact dots).
    pub ads_scored: u64,
    /// Outside ads skipped by max-weight screening (incremental only).
    pub screened_out: u64,
    /// Buffer promotions (incremental only).
    pub promotions: u64,
    /// Buffer refreshes (incremental only).
    pub refreshes: u64,
    /// Targeted-query fallbacks (incremental only).
    pub fallbacks: u64,
    /// Recommendation requests served.
    pub recommends: u64,
    /// Forward-decay landmark rebases.
    pub rebases: u64,
    /// Heap allocations observed inside `on_feed_delta`. Only populated
    /// when the `debug-stats` feature is enabled *and* the binary installs
    /// [`crate::allocmeter::CountingAllocator`] as its global allocator;
    /// always 0 otherwise. The zero-allocation steady-state test asserts
    /// this stays flat once scratch capacities have warmed up.
    pub hot_path_allocs: u64,
}

impl std::ops::AddAssign<&EngineStats> for EngineStats {
    fn add_assign(&mut self, rhs: &EngineStats) {
        self.deltas += rhs.deltas;
        self.postings_scanned += rhs.postings_scanned;
        self.ads_scored += rhs.ads_scored;
        self.screened_out += rhs.screened_out;
        self.promotions += rhs.promotions;
        self.refreshes += rhs.refreshes;
        self.fallbacks += rhs.fallbacks;
        self.recommends += rhs.recommends;
        self.rebases += rhs.rebases;
        self.hot_path_allocs += rhs.hot_path_allocs;
    }
}

impl std::ops::AddAssign for EngineStats {
    fn add_assign(&mut self, rhs: EngineStats) {
        *self += &rhs;
    }
}

impl std::iter::Sum for EngineStats {
    fn sum<I: Iterator<Item = EngineStats>>(iter: I) -> EngineStats {
        let mut total = EngineStats::default();
        for s in iter {
            total += s;
        }
        total
    }
}

impl<'a> std::iter::Sum<&'a EngineStats> for EngineStats {
    fn sum<I: Iterator<Item = &'a EngineStats>>(iter: I) -> EngineStats {
        let mut total = EngineStats::default();
        for s in iter {
            total += s;
        }
        total
    }
}

/// A continuous context-aware ad recommendation engine.
pub trait RecommendationEngine {
    /// Ingest one user's feed change (message entered / messages evicted).
    fn on_feed_delta(&mut self, store: &AdStore, user: UserId, delta: &FeedDelta);

    /// Serve the top-`k` eligible ads for `user` at `now` / `location`.
    /// Results are sorted best-first with deterministic ties (ad id).
    fn recommend(
        &mut self,
        store: &AdStore,
        user: UserId,
        now: Timestamp,
        location: LocationId,
        k: usize,
    ) -> Vec<Recommendation>;

    /// Notify the engine that a campaign left the store (pause / removal /
    /// exhaustion), so cached state can be purged.
    fn on_campaign_removed(&mut self, _ad: AdId) {}

    /// Batch form of [`on_campaign_removed`](Self::on_campaign_removed)
    /// for mass churn (flight expiry can retire thousands of campaigns in
    /// one maintenance pass). Engines with per-user caches should
    /// override this with a single sweep; the default just loops.
    fn on_campaigns_removed(&mut self, ads: &[AdId]) {
        for &ad in ads {
            self.on_campaign_removed(ad);
        }
    }

    /// Engine name for experiment output.
    fn name(&self) -> &'static str;

    /// Work counters.
    fn stats(&self) -> &EngineStats;

    /// Approximate resident bytes of engine state.
    fn memory_bytes(&self) -> usize;

    /// How many users hold their relevance as an exact dense lane (tests
    /// and the memory experiment; 0 for engines without one).
    #[doc(hidden)]
    fn lane_users(&self) -> usize {
        0
    }
}

/// Dot product of a (large) context against a (small) ad vector — the
/// block-max scorer's per-candidate kernel (the incremental engine's
/// promotions use the bit-identical `ContextScatter` walk instead, since
/// they pay many dots against one context). Delegates to the skew-aware
/// [`SparseVector::dot`] dispatch: contexts run to hundreds of terms while
/// ads hold ~10, so this lands on the galloping merge-join,
/// O(|ad| · log |ctx|) with monotone probes instead of independent
/// binary searches per ad term.
pub(crate) fn dot_ad_side(ctx: &SparseVector, ad: &SparseVector) -> f32 {
    ctx.dot(ad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcast_text::dictionary::TermId;

    fn v(pairs: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().map(|&(t, w)| (TermId(t), w)))
    }

    #[test]
    fn dot_ad_side_matches_merge_join() {
        let ctx = v(&[(1, 0.5), (3, 0.25), (7, 1.0)]);
        let ad = v(&[(3, 0.8), (7, 0.2), (9, 1.0)]);
        assert!((dot_ad_side(&ctx, &ad) - ctx.dot(&ad)).abs() < 1e-6);
        assert_eq!(dot_ad_side(&SparseVector::new(), &ad), 0.0);
        assert_eq!(dot_ad_side(&ctx, &SparseVector::new()), 0.0);
    }
}
