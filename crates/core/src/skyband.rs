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
//! instead of SipHash. The cache starts as an `IdMap` too and turns into a
//! dense lane — an `f32` per ad id, NaN where absent — once it holds at
//! least a quarter of the ids the lane would span, so the common probe is
//! one array index. The probes that modify an entry
//! ([`CandidateBuffer::nudge`], [`ScoreCache::nudge`]) also report it, so
//! a hit costs one probe.
//!
//! The buffer stores *relevance* (forward dots); ranking scores (which may
//! blend bids) are computed by the engine from these relevances, so the
//! buffer itself stays policy-agnostic. Order statistics used for
//! certification take a rank function from the caller.

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

/// A cache never turns dense below this many entries: a small map costs
/// less than a lane spanning the whole id range.
const LANE_FLOOR: usize = 64;

/// Lane slots per cached entry at which a map turns into a lane. A map
/// entry costs 10–21 B (9 B buckets, a power-of-two count of them at a
/// 7/8 load factor) and a lane slot 4 B, so at a quarter occupancy the two
/// are about even, and every probe after the cut is an array index
/// instead of a hash.
const LANE_SLOTS_PER_ENTRY: usize = 4;

/// The incremental engine's per-user **score cache**: a bounded memo of
/// upper-bound relevances for candidates that did not make the buffer.
///
/// Unlike [`CandidateBuffer`] it is built for high churn: eviction drops
/// the lower half of entries in one `O(n)` pass, amortizing to `O(1)` per
/// insert, and reports the maximum evicted value so the caller can fold
/// it into its unknown-ad bound.
///
/// It starts as a sparse map and turns into a dense lane indexed by ad id
/// once it holds at least 64 ads and a quarter of the ids the lane would
/// span; only a fresh cache is a map again. The two hold the same values and answer every
/// call alike, so the representation never changes a result.
#[derive(Debug, Clone)]
pub struct ScoreCache {
    slots: Slots,
    capacity: usize,
}

#[derive(Debug, Clone)]
enum Slots {
    /// `hi` is one past the highest id inserted since the map was built
    /// (never lowered), the length a lane would need.
    Map { map: IdMap<AdId, f32>, hi: usize },
    /// `vals[id]` is the bound, NaN when absent: cached values are finite
    /// dots, and scaling keeps NaN as NaN. `len` counts the non-NaN slots.
    Lane { vals: Vec<f32>, len: usize },
}

impl ScoreCache {
    /// An empty cache retaining at most `capacity` ads (`capacity == 0`
    /// disables the cache: every insert is rejected and reported back).
    pub fn new(capacity: usize) -> Self {
        // Grow on demand: most users never touch more than a fraction of
        // the capacity, and pre-allocating per user dominates engine memory.
        ScoreCache {
            slots: Slots::Map {
                map: IdMap::default(),
                hi: 0,
            },
            capacity,
        }
    }

    /// A cache that stays a map at any density: a `hi` of `usize::MAX`
    /// never meets the density cut.
    #[cfg(test)]
    fn sparse(capacity: usize) -> Self {
        ScoreCache {
            slots: Slots::Map {
                map: IdMap::default(),
                hi: usize::MAX,
            },
            capacity,
        }
    }

    /// A cache that is a lane from the start.
    #[cfg(test)]
    fn dense(capacity: usize) -> Self {
        ScoreCache {
            slots: Slots::Lane {
                vals: Vec::new(),
                len: 0,
            },
            capacity,
        }
    }

    /// Number of cached ads.
    pub fn len(&self) -> usize {
        match &self.slots {
            Slots::Map { map, .. } => map.len(),
            Slots::Lane { len, .. } => *len,
        }
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Is the cache a dense lane (rather than a sparse map)?
    pub(crate) fn is_lane(&self) -> bool {
        matches!(self.slots, Slots::Lane { .. })
    }

    /// The cached upper bound for `ad`, if present.
    pub fn get(&self, ad: AdId) -> Option<f32> {
        match &self.slots {
            Slots::Map { map, .. } => map.get(&ad).copied(),
            Slots::Lane { vals, .. } => vals.get(ad.index()).copied().filter(|v| !v.is_nan()),
        }
    }

    /// Add `delta` to a cached ad's bound and return the updated bound;
    /// `None` (and no-op) when absent. One probe for a read-modify-read.
    #[inline]
    pub fn nudge(&mut self, ad: AdId, delta: f32) -> Option<f32> {
        let v = match &mut self.slots {
            Slots::Map { map, .. } => map.get_mut(&ad)?,
            Slots::Lane { vals, .. } => vals.get_mut(ad.index()).filter(|v| !v.is_nan())?,
        };
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
        debug_assert!(!value.is_nan(), "NaN marks an absent lane slot");
        match &mut self.slots {
            Slots::Map { map, hi } => {
                map.insert(ad, value);
                *hi = (*hi).max(ad.index() + 1);
            }
            Slots::Lane { vals, len } => {
                let i = ad.index();
                if i >= vals.len() {
                    grow_lane(vals, i + 1);
                }
                if let Some(slot) = vals.get_mut(i) {
                    if slot.is_nan() {
                        *len += 1;
                    }
                    *slot = value;
                }
            }
        }
        let swept = (self.len() > self.capacity).then(|| self.sweep());
        if let Slots::Map { map, hi } = &self.slots {
            if map.len() >= LANE_FLOOR && map.len() * LANE_SLOTS_PER_ENTRY >= *hi {
                let mut vals = vec![f32::NAN; *hi];
                for (&ad, &v) in map {
                    if let Some(slot) = vals.get_mut(ad.index()) {
                        *slot = v;
                    }
                }
                let len = map.len();
                self.slots = Slots::Lane { vals, len };
            }
        }
        swept
    }

    /// Drop the lower half in one pass (amortized O(1) per insert) and
    /// return the maximum dropped value.
    fn sweep(&mut self) -> f32 {
        let mut values: Vec<f32> = self.iter().map(|(_, v)| v).collect();
        let mid = values.len() / 2;
        let (_, median, _) = values.select_nth_unstable_by(mid, |a, b| a.total_cmp(b));
        let threshold = *median;
        let mut evicted_max = f32::NEG_INFINITY;
        self.retain(|_, v| {
            if v > threshold {
                true
            } else {
                evicted_max = evicted_max.max(v);
                false
            }
        });
        evicted_max
    }

    /// Keep only the entries for which `keep` returns true.
    fn retain(&mut self, mut keep: impl FnMut(AdId, f32) -> bool) {
        match &mut self.slots {
            Slots::Map { map, .. } => map.retain(|&ad, v| keep(ad, *v)),
            Slots::Lane { vals, len } => {
                for (i, v) in vals.iter_mut().enumerate() {
                    if !v.is_nan() && !keep(AdId(i as u32), *v) {
                        *v = f32::NAN;
                        *len -= 1;
                    }
                }
            }
        }
    }

    /// Remove `ad` (campaign churn).
    pub fn remove(&mut self, ad: AdId) -> Option<f32> {
        match &mut self.slots {
            Slots::Map { map, .. } => map.remove(&ad),
            Slots::Lane { vals, len } => {
                let slot = vals.get_mut(ad.index()).filter(|v| !v.is_nan())?;
                *len -= 1;
                Some(std::mem::replace(slot, f32::NAN))
            }
        }
    }

    /// Drop every cached ad for which `gone` returns true (batch
    /// campaign churn) — one sweep for any number of removals.
    pub fn remove_if(&mut self, mut gone: impl FnMut(AdId) -> bool) {
        self.retain(|ad, _| !gone(ad));
    }

    /// Multiply every bound by `factor` (context rebase).
    pub fn scale_all(&mut self, factor: f32) {
        match &mut self.slots {
            Slots::Map { map, .. } => map.values_mut().for_each(|v| *v *= factor),
            Slots::Lane { vals, .. } => vals.iter_mut().for_each(|v| *v *= factor),
        }
    }

    /// Iterate over `(ad, bound)` pairs (arbitrary order for a map, id
    /// order for a lane).
    pub fn iter(&self) -> impl Iterator<Item = (AdId, f32)> + '_ {
        let (map, vals) = match &self.slots {
            Slots::Map { map, .. } => (Some(map), None),
            Slots::Lane { vals, .. } => (None, Some(vals)),
        };
        let sparse = map.into_iter().flatten().map(|(&id, &v)| (id, v));
        let dense = vals
            .into_iter()
            .flatten()
            .enumerate()
            .filter(|(_, v)| !v.is_nan())
            .map(|(i, &v)| (AdId(i as u32), v));
        sparse.chain(dense)
    }

    /// Drop every entry. A lane stays a lane, so a refresh (clear, then
    /// refill) does not flip the representation back and forth.
    pub fn clear(&mut self) {
        match &mut self.slots {
            Slots::Map { map, .. } => map.clear(),
            Slots::Lane { vals, len } => {
                vals.fill(f32::NAN);
                *len = 0;
            }
        }
    }

    /// Approximate resident bytes.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + match &self.slots {
                Slots::Map { map, .. } => idmap_bytes::<AdId, f32>(map.capacity()),
                Slots::Lane { vals, .. } => vals.capacity() * std::mem::size_of::<f32>(),
            }
    }
}

/// Extend a lane to `len` slots. Growth past the allocation adds at least
/// an eighth: amortized O(1) per slot without doubling a lane's memory.
fn grow_lane(vals: &mut Vec<f32>, len: usize) {
    let cap = vals.capacity();
    if len > cap {
        vals.reserve_exact(len.max(cap + cap / 8) - vals.len());
    }
    vals.resize(len, f32::NAN);
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
    fn dense_enough_maps_turn_into_lanes_and_stay_lanes() {
        let mut c = ScoreCache::new(8192);
        // Ids 0, 4, 8, …: a quarter occupancy of the span once 64 are in.
        for i in 0..63u32 {
            c.insert(AdId(4 * i), 1.0);
        }
        assert!(!c.is_lane(), "below the floor");
        c.insert(AdId(4 * 63), 1.0);
        assert!(c.is_lane(), "64 entries over 253 slots");
        assert_eq!(c.len(), 64);
        c.insert(AdId(10_000), 2.0);
        assert_eq!(c.get(AdId(10_000)), Some(2.0), "lane grows to a higher id");
        c.clear();
        assert!(c.is_lane() && c.is_empty(), "clear keeps the lane");
        // A sparse map stays a map.
        let mut c = ScoreCache::new(8192);
        for i in 0..500u32 {
            c.insert(AdId(5 * i), 1.0);
        }
        assert!(!c.is_lane());
    }

    /// Drives one seeded op sequence through a pinned map, a pinned lane
    /// and a cache free to convert; every return value and the id-sorted
    /// contents must agree bit for bit. Returns how many sweeps ran and
    /// whether the free cache ended on a lane.
    fn representations_agree(capacity: usize, ids: u32, ops: usize, seed: u64) -> (usize, bool) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        fn bits(v: Option<f32>) -> Option<u32> {
            v.map(f32::to_bits)
        }
        fn sorted(c: &ScoreCache) -> Vec<(AdId, u32)> {
            let mut all: Vec<(AdId, u32)> = c.iter().map(|(ad, v)| (ad, v.to_bits())).collect();
            all.sort_unstable_by_key(|&(ad, _)| ad);
            all
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut caches = [
            ScoreCache::sparse(capacity),
            ScoreCache::dense(capacity),
            ScoreCache::new(capacity),
        ];
        let mut sweeps = 0;
        for step in 0..ops {
            let ad = AdId(rng.gen_range(0..ids));
            // Quantized values make median ties common.
            let value = rng.gen_range(-5..100i32) as f32 / 64.0;
            let op = rng.gen_range(0..1000u32);
            let got: Vec<Option<u32>> = match op {
                0..=599 => caches
                    .iter_mut()
                    .map(|c| bits(c.insert(ad, value)))
                    .collect(),
                600..=849 => caches
                    .iter_mut()
                    .map(|c| bits(c.nudge(ad, value)))
                    .collect(),
                850..=899 => caches.iter_mut().map(|c| bits(c.remove(ad))).collect(),
                900..=979 => caches.iter().map(|c| bits(c.get(ad))).collect(),
                980 => {
                    let m = rng.gen_range(2..9u32);
                    for c in &mut caches {
                        c.remove_if(|a| a.0 % m == 0);
                    }
                    vec![]
                }
                981..=990 => {
                    let factor = rng.gen_range(0.25f32..1.0);
                    for c in &mut caches {
                        c.scale_all(factor);
                    }
                    vec![]
                }
                991 => {
                    for c in &mut caches {
                        c.clear();
                    }
                    vec![]
                }
                _ => vec![],
            };
            if let [a, b, c] = got[..] {
                assert!(a == b && b == c, "step {step}: {got:?}");
            }
            assert!(caches.iter().all(|c| c.len() == caches[0].len()));
            if op < 600 && capacity > 0 && got[0].is_some() {
                sweeps += 1;
            }
            if step % 97 == 0 || step + 1 == ops {
                let want = sorted(&caches[0]);
                assert_eq!(sorted(&caches[1]), want, "step {step}: lane differs");
                assert_eq!(
                    sorted(&caches[2]),
                    want,
                    "step {step}: converting cache differs"
                );
            }
        }
        assert!(!caches[0].is_lane() && caches[1].is_lane());
        (sweeps, caches[2].is_lane())
    }

    #[test]
    fn map_and_lane_agree_bit_for_bit() {
        // E9's setting: a 1 024-entry lane over 2 000 ids evicts.
        let (sweeps, lane) = representations_agree(1024, 2000, 40_000, 9);
        assert!(sweeps > 0 && lane, "{sweeps} sweeps, lane {lane}");
        // The default capacity never evicts at this catalogue size.
        assert_eq!(representations_agree(8192, 2000, 20_000, 8), (0, true));
        // A small cache over a small catalogue sweeps often, as a map.
        let (sweeps, lane) = representations_agree(24, 200, 20_000, 24);
        assert!(sweeps > 0 && !lane, "{sweeps} sweeps, lane {lane}");
        assert_eq!(representations_agree(0, 100, 2_000, 0), (0, false));
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
