//! The incremental engine's per-user candidate state: the
//! [`CandidateBuffer`] and the [`ScoreCache`].
//!
//! The buffer holds exact forward-scale relevance dots for up to
//! `capacity` ads — a superset of the top-k (capacity = headroom·k).
//! Updates are O(1); order statistics (min, k-th) are O(|buffer|) scans,
//! which is fine because buffers are tens of entries. The cache memoizes
//! drift-high upper bounds for candidates that did not make the buffer.
//!
//! The buffer is an [`IdMap`]: every posting a feed delta walks may probe
//! it, so it hashes ad ids with one multiply ([`adcast_ads::IdHasher`])
//! instead of SipHash. The cache is an `IdMap` too; once it holds at least
//! a quarter of the catalogue's ids ([`ScoreCache::is_dense`]) the engine
//! drops both structures and keeps the user's exact relevance in a dense
//! lane instead. The probes that modify an entry
//! ([`CandidateBuffer::nudge`], [`ScoreCache::nudge`]) also report it, so
//! a hit costs one probe.
//!
//! These structures serve only the engine's *bounded* regime: users whose
//! candidates are sparse in a large catalogue.
//!
//! The buffer stores *relevance* (forward dots); ranking scores (which may
//! blend bids) are computed by the engine from these relevances, so the
//! buffer itself stays policy-agnostic. Order statistics used for
//! certification take a rank function from the caller.

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

use adcast_ads::{idmap_bytes, AdId, IdMap};

/// A bounded map `AdId → forward-scale relevance`.
#[derive(Debug, Clone)]
pub struct CandidateBuffer {
    scores: IdMap<AdId, f32>,
    capacity: usize,
}

impl CandidateBuffer {
    /// An empty buffer retaining at most `capacity` ads.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        CandidateBuffer {
            scores: IdMap::with_capacity_and_hasher(capacity + 1, Default::default()),
            capacity,
        }
    }

    /// Number of buffered ads.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Is the buffer at capacity?
    pub fn is_full(&self) -> bool {
        self.scores.len() >= self.capacity
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The buffered relevance of `ad`, if present.
    pub fn get(&self, ad: AdId) -> Option<f32> {
        self.scores.get(&ad).copied()
    }

    /// Is `ad` buffered?
    pub fn contains(&self, ad: AdId) -> bool {
        self.scores.contains_key(&ad)
    }

    /// Add `delta` to a buffered ad's relevance and report whether `ad`
    /// is buffered (no-op when absent) — membership and update in one
    /// probe.
    pub fn nudge(&mut self, ad: AdId, delta: f32) -> bool {
        match self.scores.get_mut(&ad) {
            Some(s) => {
                *s += delta;
                true
            }
            None => false,
        }
    }

    /// Insert or overwrite `ad`'s exact relevance, evicting the worst
    /// (lowest rank, ties by higher ad id) entry if over capacity.
    /// Returns the evicted `(ad, relevance)`, if any — callers use the
    /// relevance to keep their outside bounds sound.
    pub fn insert(
        &mut self,
        ad: AdId,
        relevance: f32,
        rank: impl Fn(AdId, f32) -> f32,
    ) -> Option<(AdId, f32)> {
        self.scores.insert(ad, relevance);
        if self.scores.len() <= self.capacity {
            return None;
        }
        // Over capacity, so the map is non-empty and `worst` is found.
        let (&worst, _) = self.scores.iter().min_by(|a, b| {
            rank(*a.0, *a.1)
                .total_cmp(&rank(*b.0, *b.1))
                .then_with(|| b.0.cmp(a.0))
        })?;
        self.scores.remove(&worst).map(|rel| (worst, rel))
    }

    /// Remove `ad` (campaign churn), returning its relevance if present.
    pub fn remove(&mut self, ad: AdId) -> Option<f32> {
        self.scores.remove(&ad)
    }

    /// Drop every buffered ad for which `gone` returns true (batch
    /// campaign churn). One sweep regardless of how many ads left, so
    /// mass expiry costs O(|buffer|), not O(removals · |buffer|).
    pub fn remove_if(&mut self, mut gone: impl FnMut(AdId) -> bool) {
        self.scores.retain(|&ad, _| !gone(ad));
    }

    /// Multiply every relevance by `factor` (context rebase).
    pub fn scale_all(&mut self, factor: f32) {
        for s in self.scores.values_mut() {
            *s *= factor;
        }
    }

    /// The `k`-th best rank value (the certification threshold τ);
    /// `None` when fewer than `k` ads are buffered.
    pub fn kth_rank(&self, k: usize, rank: impl Fn(AdId, f32) -> f32) -> Option<f32> {
        self.kth_rank_in(k, rank, &mut Vec::new())
    }

    /// [`kth_rank`](Self::kth_rank) with a caller-owned scratch buffer —
    /// the certification check runs on every feed delta, so the engine
    /// reuses one buffer instead of allocating per call.
    pub fn kth_rank_in(
        &self,
        k: usize,
        rank: impl Fn(AdId, f32) -> f32,
        ranks: &mut Vec<f32>,
    ) -> Option<f32> {
        if self.scores.len() < k || k == 0 {
            return None;
        }
        ranks.clear();
        ranks.extend(self.scores.iter().map(|(&id, &s)| rank(id, s)));
        // Unstable sort: a stable sort allocates its merge buffer for
        // slices past ~20 elements, and this runs on every delta. The
        // result is deterministic regardless — equal f32 keys are
        // indistinguishable.
        ranks.sort_unstable_by(|a, b| b.total_cmp(a));
        Some(ranks[k - 1])
    }

    /// The minimum rank value currently buffered (0.0 when empty).
    pub fn min_rank(&self, rank: impl Fn(AdId, f32) -> f32) -> f32 {
        self.scores
            .iter()
            .map(|(&id, &s)| rank(id, s))
            .fold(f32::INFINITY, f32::min)
            .min(f32::INFINITY)
            .pipe_finite()
    }

    /// Iterate over `(ad, relevance)` pairs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (AdId, f32)> + '_ {
        self.scores.iter().map(|(&id, &s)| (id, s))
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.scores.clear();
    }

    /// Approximate resident bytes.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + idmap_bytes::<AdId, f32>(self.scores.capacity())
    }
}

trait PipeFinite {
    fn pipe_finite(self) -> f32;
}

impl PipeFinite for f32 {
    /// Map the empty-fold sentinel (+∞) to 0.0.
    fn pipe_finite(self) -> f32 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by_relevance(_: AdId, s: f32) -> f32 {
        s
    }

    #[test]
    fn insert_and_get() {
        let mut b = CandidateBuffer::new(4);
        assert!(b.insert(AdId(1), 0.5, by_relevance).is_none());
        assert_eq!(b.get(AdId(1)), Some(0.5));
        assert!(b.contains(AdId(1)));
        assert!(!b.contains(AdId(2)));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn eviction_drops_worst() {
        let mut b = CandidateBuffer::new(2);
        b.insert(AdId(0), 0.9, by_relevance);
        b.insert(AdId(1), 0.1, by_relevance);
        let evicted = b.insert(AdId(2), 0.5, by_relevance);
        assert_eq!(evicted, Some((AdId(1), 0.1)));
        assert!(b.contains(AdId(0)) && b.contains(AdId(2)));
        assert!(b.is_full());
    }

    #[test]
    fn eviction_tie_drops_higher_id() {
        let mut b = CandidateBuffer::new(2);
        b.insert(AdId(3), 0.5, by_relevance);
        b.insert(AdId(1), 0.5, by_relevance);
        let evicted = b.insert(AdId(2), 0.9, by_relevance);
        assert_eq!(evicted, Some((AdId(3), 0.5)), "ties evict the higher ad id");
    }

    #[test]
    fn nudge_only_touches_present() {
        let mut b = CandidateBuffer::new(4);
        b.insert(AdId(1), 0.5, by_relevance);
        assert!(b.nudge(AdId(1), 0.25));
        assert!(!b.nudge(AdId(9), 1.0));
        assert_eq!(b.get(AdId(1)), Some(0.75));
        assert!(!b.contains(AdId(9)));
    }

    #[test]
    fn kth_rank_thresholds() {
        let mut b = CandidateBuffer::new(8);
        for (i, s) in [0.9, 0.7, 0.5, 0.3].iter().enumerate() {
            b.insert(AdId(i as u32), *s, by_relevance);
        }
        assert_eq!(b.kth_rank(1, by_relevance), Some(0.9));
        assert_eq!(b.kth_rank(3, by_relevance), Some(0.5));
        assert_eq!(b.kth_rank(4, by_relevance), Some(0.3));
        assert_eq!(b.kth_rank(5, by_relevance), None, "not enough entries");
        assert_eq!(b.kth_rank(0, by_relevance), None);
    }

    #[test]
    fn min_rank_and_empty() {
        let mut b = CandidateBuffer::new(4);
        assert_eq!(b.min_rank(by_relevance), 0.0);
        b.insert(AdId(0), 0.4, by_relevance);
        b.insert(AdId(1), 0.2, by_relevance);
        assert_eq!(b.min_rank(by_relevance), 0.2);
    }

    #[test]
    fn scale_all_rescales() {
        let mut b = CandidateBuffer::new(4);
        b.insert(AdId(0), 0.4, by_relevance);
        b.insert(AdId(1), 0.8, by_relevance);
        b.scale_all(0.5);
        assert_eq!(b.get(AdId(0)), Some(0.2));
        assert_eq!(b.get(AdId(1)), Some(0.4));
    }

    #[test]
    fn remove_and_clear() {
        let mut b = CandidateBuffer::new(4);
        b.insert(AdId(0), 0.4, by_relevance);
        assert_eq!(b.remove(AdId(0)), Some(0.4));
        assert_eq!(b.remove(AdId(0)), None);
        b.insert(AdId(1), 0.4, by_relevance);
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn rank_function_can_differ_from_relevance() {
        // Rank = relevance × bid, with ad 0 carrying a huge bid.
        let bid = |ad: AdId| if ad == AdId(0) { 10.0 } else { 1.0 };
        let rank = |ad: AdId, s: f32| s * bid(ad);
        let mut b = CandidateBuffer::new(2);
        b.insert(AdId(0), 0.1, rank); // rank 1.0
        b.insert(AdId(1), 0.5, rank); // rank 0.5
        let evicted = b.insert(AdId(2), 0.6, rank); // rank 0.6
        assert_eq!(
            evicted,
            Some((AdId(1), 0.5)),
            "lowest rank (not relevance) evicted"
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = CandidateBuffer::new(0);
    }
}

/// A cache is never dense below this many entries: a small map costs
/// less than a lane spanning the whole id range.
const LANE_FLOOR: usize = 64;

/// Ids spanned per cached entry at which a cache counts as dense. A map
/// entry costs 10–21 B (9 B buckets, a power-of-two count of them at a
/// 7/8 load factor) and a lane slot 4 B, so at a quarter occupancy a dense
/// `f32` per id costs no more than the map, and the engine moves the user
/// onto an exact relevance lane.
const LANE_SLOTS_PER_ENTRY: usize = 4;

fn meets_density_cut(entries: usize, span: usize) -> bool {
    entries >= LANE_FLOOR && entries * LANE_SLOTS_PER_ENTRY >= span
}

/// The incremental engine's per-user **score cache**: a bounded memo of
/// upper-bound relevances for candidates that did not make the buffer.
///
/// Unlike [`CandidateBuffer`] it is built for high churn: eviction drops
/// the lower half of entries in one `O(n)` pass, amortizing to `O(1)` per
/// insert, and reports the maximum evicted value so the caller can fold
/// it into its unknown-ad bound.
///
/// Its size against the catalogue tells the engine when the user has
/// become dense ([`is_dense`](Self::is_dense)) and is cheaper to serve
/// from an exact lane than from bounds.
#[derive(Debug, Clone)]
pub struct ScoreCache {
    map: IdMap<AdId, f32>,
    capacity: usize,
}

impl ScoreCache {
    /// An empty cache retaining at most `capacity` ads (`capacity == 0`
    /// disables the cache: every insert is rejected and reported back).
    pub fn new(capacity: usize) -> Self {
        // Grow on demand: most users never touch more than a fraction of
        // the capacity, and pre-allocating per user dominates engine memory.
        ScoreCache {
            map: IdMap::default(),
            capacity,
        }
    }

    /// Number of cached ads.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Does the cache hold at least 64 ads and a quarter of the `span`
    /// ids a lane would cover (the catalogue size)? The engine's cut
    /// between its bounded and exact regimes. It depends on the cache's
    /// contents and the catalogue only, so a restored snapshot makes the
    /// same call as the engine it was taken from.
    pub(crate) fn is_dense(&self, span: usize) -> bool {
        meets_density_cut(self.map.len(), span)
    }

    /// Could this cache ever be [dense](Self::is_dense) over `span` ids,
    /// i.e. does its capacity reach the cut?
    pub(crate) fn can_be_dense(&self, span: usize) -> bool {
        meets_density_cut(self.capacity, span)
    }

    /// The cached upper bound for `ad`, if present.
    pub fn get(&self, ad: AdId) -> Option<f32> {
        self.map.get(&ad).copied()
    }

    /// Add `delta` to a cached ad's bound and return the updated bound;
    /// `None` (and no-op) when absent. One probe for a read-modify-read.
    #[inline]
    pub fn nudge(&mut self, ad: AdId, delta: f32) -> Option<f32> {
        let v = self.map.get_mut(&ad)?;
        *v += delta;
        Some(*v)
    }

    /// Insert or overwrite `ad`'s bound. Returns the maximum evicted
    /// value when an eviction sweep ran (the caller must keep covering
    /// the evicted ads with its unknown-ad bound).
    pub fn insert(&mut self, ad: AdId, value: f32) -> Option<f32> {
        if self.capacity == 0 {
            return Some(value);
        }
        self.map.insert(ad, value);
        (self.map.len() > self.capacity).then(|| self.sweep())
    }

    /// Drop the lower half in one pass (amortized O(1) per insert) and
    /// return the maximum dropped value.
    fn sweep(&mut self) -> f32 {
        let mut values: Vec<f32> = self.map.values().copied().collect();
        let mid = values.len() / 2;
        let (_, median, _) = values.select_nth_unstable_by(mid, |a, b| a.total_cmp(b));
        let threshold = *median;
        let mut evicted_max = f32::NEG_INFINITY;
        self.map.retain(|_, v| {
            if *v > threshold {
                true
            } else {
                evicted_max = evicted_max.max(*v);
                false
            }
        });
        evicted_max
    }

    /// Remove `ad` (campaign churn).
    pub fn remove(&mut self, ad: AdId) -> Option<f32> {
        self.map.remove(&ad)
    }

    /// Drop every cached ad for which `gone` returns true (batch
    /// campaign churn) — one sweep for any number of removals.
    pub fn remove_if(&mut self, mut gone: impl FnMut(AdId) -> bool) {
        self.map.retain(|&ad, _| !gone(ad));
    }

    /// Multiply every bound by `factor` (context rebase).
    pub fn scale_all(&mut self, factor: f32) {
        self.map.values_mut().for_each(|v| *v *= factor);
    }

    /// Iterate over `(ad, bound)` pairs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (AdId, f32)> + '_ {
        self.map.iter().map(|(&id, &v)| (id, v))
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Approximate resident bytes.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + idmap_bytes::<AdId, f32>(self.map.capacity())
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;

    #[test]
    fn insert_get_nudge_remove() {
        let mut c = ScoreCache::new(8);
        assert!(c.insert(AdId(1), 0.5).is_none());
        assert_eq!(c.get(AdId(1)), Some(0.5));
        assert_eq!(c.nudge(AdId(1), 0.25), Some(0.75));
        assert_eq!(c.nudge(AdId(9), 1.0), None);
        assert_eq!(c.get(AdId(1)), Some(0.75));
        assert_eq!(c.remove(AdId(1)), Some(0.75));
        assert!(c.is_empty());
    }

    #[test]
    fn eviction_drops_lower_half_and_reports_max() {
        let mut c = ScoreCache::new(4);
        for i in 0..4u32 {
            assert!(c.insert(AdId(i), i as f32).is_none());
        }
        let evicted = c.insert(AdId(4), 4.0).expect("sweep runs");
        // Median of {0,1,2,3,4} is 2; entries ≤ 2 evicted, max evicted 2.
        assert_eq!(evicted, 2.0);
        assert_eq!(c.len(), 2);
        assert!(c.get(AdId(3)).is_some() && c.get(AdId(4)).is_some());
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut c = ScoreCache::new(0);
        assert_eq!(c.insert(AdId(1), 0.7), Some(0.7));
        assert!(c.is_empty());
    }

    #[test]
    fn scale_all_applies() {
        let mut c = ScoreCache::new(4);
        c.insert(AdId(0), 2.0);
        c.scale_all(0.25);
        assert_eq!(c.get(AdId(0)), Some(0.5));
    }

    #[test]
    fn density_needs_the_floor_and_a_quarter_of_the_span() {
        let mut c = ScoreCache::new(8192);
        for i in 0..63u32 {
            c.insert(AdId(4 * i), 1.0);
        }
        assert!(!c.is_dense(100), "below the floor");
        c.insert(AdId(4 * 63), 1.0);
        assert!(c.is_dense(256), "64 entries over 256 ids");
        assert!(!c.is_dense(257), "64 entries over 257 ids");
        c.remove(AdId(0));
        assert!(!c.is_dense(100), "back below the floor");
        assert!(c.can_be_dense(32_768) && !c.can_be_dense(32_769));
        assert!(
            !ScoreCache::new(63).can_be_dense(1),
            "capacity below the floor"
        );
    }

    #[test]
    fn high_churn_keeps_hot_entries() {
        let mut c = ScoreCache::new(64);
        // A hot entry with a high bound must survive storms of cold inserts.
        c.insert(AdId(999_999), 100.0);
        for i in 0..10_000u32 {
            c.insert(AdId(i), 0.01);
        }
        assert_eq!(c.get(AdId(999_999)), Some(100.0));
        assert!(c.len() <= 64);
    }
}
