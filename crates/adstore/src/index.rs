//! Blocked, impact-ordered inverted index over ad keyword vectors.
//!
//! For every term the index keeps the posting list in **impact order** —
//! sorted by descending weight (ties by ascending ad id) — in SoA layout:
//! an ad-id lane and a weight lane, logically split into fixed blocks of
//! [`BLOCK_SIZE`] postings with a cached per-block maximum weight. This is
//! the layout behind three things:
//!
//! * **Block-max pruned top-k** (WAND/BMW style): an evaluator walks term
//!   cursors best-block-first and stops once
//!   `Σ_term ctx_weight · block_max` over the remaining frontier cannot
//!   beat the provisional k-th score — whole blocks (usually whole list
//!   tails) are skipped without being read.
//! * **Screening bounds**: `max_weight(term)` (the first block's max) is
//!   the metadata the incremental engine's promotion screen and the
//!   `score_upper_bound` helper already used; it is now O(1) by layout.
//! * **Chunked scoring kernels**: the SoA lanes let the term-at-a-time
//!   walks form a block's contribution products in one vectorized pass
//!   (`adcast_text::kernels`).
//!
//! Because impact order is a pure function of the indexed `(weight, ad)`
//! multiset — never of insertion order — rebuilding the index from a store
//! snapshot reproduces the blocked layout bit-identically, which the
//! durability layer's "recovered twin" guarantee depends on.
//!
//! Removals are tombstone-free: the posting is excised immediately
//! (campaign churn is orders of magnitude rarer than scoring) and only
//! the block maxima from the excised position onward are refreshed; the
//! list-wide max is `weights[0]` by construction, so no O(len) fold runs
//! on any removal.
//!
//! Weights are strictly positive: the store validates ad vectors, and the
//! pruning math (context terms with non-positive weight cannot raise any
//! ad's score) relies on it.

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

use adcast_text::dictionary::TermId;
use adcast_text::SparseVector;

use crate::ad::AdId;
use crate::idhash::IdMap;

/// Postings per block. 64 postings = 256 B per SoA lane (a weight lane
/// spans four cache lines), small enough that a skipped block is a real
/// saving and large enough that the per-block bound check amortizes over
/// a meaningful chunk of vectorized scoring work.
pub const BLOCK_SIZE: usize = 64;

/// One entry in a posting list (iteration view; storage is SoA).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Posting {
    /// The ad containing the term.
    pub ad: AdId,
    /// The ad vector's weight for the term.
    pub weight: f32,
}

#[derive(Debug, Default, Clone)]
struct TermPostings {
    /// Ad-id lane, impact order: weight descending, ad id ascending on
    /// ties. Parallel to `weights`.
    ads: Vec<AdId>,
    /// Weight lane, descending.
    weights: Vec<f32>,
    /// `block_maxes[b] = max(weights[b·BLOCK_SIZE ..])` of the block —
    /// which is `weights[b·BLOCK_SIZE]`, the block's first entry, because
    /// the whole lane is descending. Cached densely so the pruning loop
    /// reads bounds without touching the (much larger) weight lane.
    block_maxes: Vec<f32>,
}

impl TermPostings {
    /// Impact-order slot of `(weight, ad)`: the index of the first entry
    /// that sorts after it (weight strictly smaller, or equal weight and
    /// larger-or-equal id).
    fn slot(&self, ad: AdId, weight: f32) -> usize {
        // `partition_point` over the "sorts before (weight, ad)" predicate.
        let mut lo = 0usize;
        let mut hi = self.ads.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let before = match self.weights[mid].total_cmp(&weight) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Equal => self.ads[mid] < ad,
                std::cmp::Ordering::Less => false,
            };
            if before {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Refresh the cached block maxima for blocks `from_block..`.
    fn refresh_block_maxes(&mut self, from_block: usize) {
        let num_blocks = self.ads.len().div_ceil(BLOCK_SIZE);
        self.block_maxes.truncate(num_blocks);
        for b in from_block..num_blocks {
            let max = self.weights[b * BLOCK_SIZE];
            if b < self.block_maxes.len() {
                self.block_maxes[b] = max;
            } else {
                self.block_maxes.push(max);
            }
        }
        debug_assert_eq!(self.block_maxes.len(), num_blocks);
    }
}

/// Borrowed view of one term's blocked posting list.
///
/// `ads()[i]` and `weights()[i]` form the i-th posting; `block(b)` cuts
/// the b-th fixed-size block out of both lanes at once.
#[derive(Debug, Clone, Copy)]
pub struct PostingsView<'a> {
    ads: &'a [AdId],
    weights: &'a [f32],
    block_maxes: &'a [f32],
}

impl<'a> PostingsView<'a> {
    /// Number of postings.
    #[inline]
    pub fn len(&self) -> usize {
        self.ads.len()
    }

    /// No postings at all?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ads.is_empty()
    }

    /// The ad-id lane (impact order).
    #[inline]
    pub fn ads(&self) -> &'a [AdId] {
        self.ads
    }

    /// The weight lane (descending).
    #[inline]
    pub fn weights(&self) -> &'a [f32] {
        self.weights
    }

    /// Number of blocks (`ceil(len / BLOCK_SIZE)`).
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.ads.len().div_ceil(BLOCK_SIZE)
    }

    /// The b-th block's id and weight lanes (the last block may be
    /// short). Empty slices for an out-of-range block.
    #[inline]
    pub fn block(&self, b: usize) -> (&'a [AdId], &'a [f32]) {
        let start = b * BLOCK_SIZE;
        if start >= self.ads.len() {
            return (&[], &[]);
        }
        let end = (start + BLOCK_SIZE).min(self.ads.len());
        (&self.ads[start..end], &self.weights[start..end])
    }

    /// Maximum weight inside block `b` (0.0 out of range).
    #[inline]
    pub fn block_max(&self, b: usize) -> f32 {
        self.block_maxes.get(b).copied().unwrap_or(0.0)
    }

    /// Maximum weight in the whole list (0.0 when empty).
    #[inline]
    pub fn max_weight(&self) -> f32 {
        self.weights.first().copied().unwrap_or(0.0)
    }

    /// Iterate the postings in impact order.
    pub fn iter(&self) -> impl Iterator<Item = Posting> + 'a {
        self.ads
            .iter()
            .zip(self.weights)
            .map(|(&ad, &weight)| Posting { ad, weight })
    }
}

impl<'a> IntoIterator for PostingsView<'a> {
    type Item = Posting;
    type IntoIter = std::iter::Map<
        std::iter::Zip<std::slice::Iter<'a, AdId>, std::slice::Iter<'a, f32>>,
        fn((&'a AdId, &'a f32)) -> Posting,
    >;

    fn into_iter(self) -> Self::IntoIter {
        fn mk<'b>((ad, weight): (&'b AdId, &'b f32)) -> Posting {
            Posting {
                ad: *ad,
                weight: *weight,
            }
        }
        self.ads.iter().zip(self.weights.iter()).map(mk)
    }
}

/// The blocked impact-ordered inverted index over ads.
#[derive(Debug, Default, Clone)]
pub struct AdIndex {
    /// Term → posting list, keyed with the dense-id hasher: one multiply
    /// per changed term on apply and per context term on a TAAT walk.
    postings: IdMap<TermId, TermPostings>,
    num_ads: usize,
    num_postings: usize,
    /// `len_hist[n]` = number of indexed ads with exactly `n` terms.
    /// Maintains `max_ad_terms` exactly under churn.
    len_hist: Vec<u32>,
    /// Largest term count of any indexed ad. Caps how many frontier
    /// cursors can simultaneously contribute to one ad's score — the
    /// difference between a useless bound (Σ over a 100-term context) and
    /// a tight one (Σ of the top `max_ad_terms` cursor bounds).
    max_ad_terms: usize,
}

impl AdIndex {
    /// An empty index.
    pub fn new() -> Self {
        AdIndex::default()
    }

    /// Index `ad`'s vector. The caller guarantees the id is not already
    /// present (the store enforces this) and that every weight is
    /// positive and finite (ad validation enforces this).
    pub fn insert(&mut self, ad: AdId, vector: &SparseVector) {
        for (term, weight) in vector.iter() {
            debug_assert!(
                weight > 0.0 && weight.is_finite(),
                "indexed weight must be positive and finite, got {weight}"
            );
            let tp = self.postings.entry(term).or_default();
            let pos = tp.slot(ad, weight);
            debug_assert!(
                !tp.ads.contains(&ad),
                "ad {ad:?} already indexed under {term:?}"
            );
            tp.ads.insert(pos, ad);
            tp.weights.insert(pos, weight);
            tp.refresh_block_maxes(pos / BLOCK_SIZE);
            self.num_postings += 1;
        }
        self.num_ads += 1;
        let n = vector.len();
        if n >= self.len_hist.len() {
            self.len_hist.resize(n + 1, 0);
        }
        self.len_hist[n] += 1;
        self.max_ad_terms = self.max_ad_terms.max(n);
    }

    /// Remove `ad`'s postings (vector must be the one it was inserted
    /// with). Returns the number of postings removed.
    ///
    /// Impact order makes max maintenance O(1): the list max is always
    /// `weights[0]`, so no removal ever triggers a fold over the list —
    /// only the block maxima from the excised slot onward are refreshed
    /// (one cached read per trailing block).
    pub fn remove(&mut self, ad: AdId, vector: &SparseVector) -> usize {
        let mut removed = 0;
        for (term, weight) in vector.iter() {
            if let Some(tp) = self.postings.get_mut(&term) {
                let pos = tp.slot(ad, weight);
                // `slot` returns where (weight, ad) *would* insert; the
                // live posting, if present, sits exactly there.
                if tp.ads.get(pos) == Some(&ad) {
                    tp.ads.remove(pos);
                    tp.weights.remove(pos);
                    removed += 1;
                    self.num_postings -= 1;
                    if tp.ads.is_empty() {
                        self.postings.remove(&term);
                    } else {
                        tp.refresh_block_maxes(pos / BLOCK_SIZE);
                    }
                }
            }
        }
        if removed > 0 {
            self.num_ads -= 1;
            let n = vector.len();
            if let Some(count) = self.len_hist.get_mut(n) {
                *count = count.saturating_sub(1);
            }
            while self.max_ad_terms > 0
                && self.len_hist.get(self.max_ad_terms).is_none_or(|&c| c == 0)
            {
                self.max_ad_terms -= 1;
            }
        }
        removed
    }

    /// The blocked posting list for `term` (empty view if the term is
    /// unknown).
    pub fn postings(&self, term: TermId) -> PostingsView<'_> {
        match self.postings.get(&term) {
            Some(tp) => PostingsView {
                ads: &tp.ads,
                weights: &tp.weights,
                block_maxes: &tp.block_maxes,
            },
            None => PostingsView {
                ads: &[],
                weights: &[],
                block_maxes: &[],
            },
        }
    }

    /// The maximum term weight across ads containing `term`. O(1): impact
    /// order puts it at the head of the list.
    pub fn max_weight(&self, term: TermId) -> f32 {
        self.postings
            .get(&term)
            .and_then(|tp| tp.weights.first().copied())
            .unwrap_or(0.0)
    }

    /// Largest number of terms in any single indexed ad (0 when empty).
    pub fn max_ad_terms(&self) -> usize {
        self.max_ad_terms
    }

    /// Upper bound on `vector · ad_vector` over **all** indexed ads:
    /// `Σ_t |v(t)| · max_weight(t)`.
    pub fn score_upper_bound(&self, vector: &SparseVector) -> f32 {
        vector
            .iter()
            .map(|(t, w)| w.abs() * self.max_weight(t))
            .sum()
    }

    /// Number of indexed ads.
    pub fn num_ads(&self) -> usize {
        self.num_ads
    }

    /// Total postings across all terms.
    pub fn num_postings(&self) -> usize {
        self.num_postings
    }

    /// Number of distinct terms with non-empty posting lists.
    pub fn num_terms(&self) -> usize {
        self.postings.len()
    }

    /// Approximate resident bytes.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.postings.capacity()
                * (std::mem::size_of::<TermId>() + std::mem::size_of::<TermPostings>())
            + self.len_hist.capacity() * std::mem::size_of::<u32>()
            + self
                .postings
                .values()
                .map(|tp| {
                    tp.ads.capacity() * std::mem::size_of::<AdId>()
                        + (tp.weights.capacity() + tp.block_maxes.capacity())
                            * std::mem::size_of::<f32>()
                })
                .sum::<usize>()
    }

    /// Debug validation of the structural invariants (tests only).
    #[cfg(test)]
    fn check_invariants(&self) {
        for (term, tp) in &self.postings {
            assert!(!tp.ads.is_empty(), "{term:?}: empty list kept");
            assert_eq!(tp.ads.len(), tp.weights.len());
            assert_eq!(tp.block_maxes.len(), tp.ads.len().div_ceil(BLOCK_SIZE));
            for i in 1..tp.weights.len() {
                let ord = tp.weights[i - 1].total_cmp(&tp.weights[i]);
                assert!(
                    ord == std::cmp::Ordering::Greater
                        || (ord == std::cmp::Ordering::Equal && tp.ads[i - 1] < tp.ads[i]),
                    "{term:?}: impact order violated at {i}"
                );
            }
            for (b, &bm) in tp.block_maxes.iter().enumerate() {
                let lo = b * BLOCK_SIZE;
                let hi = (lo + BLOCK_SIZE).min(tp.weights.len());
                let true_max = adcast_text::kernels::max_or_zero(&tp.weights[lo..hi]);
                assert_eq!(bm, true_max, "{term:?}: block {b} max stale");
                assert_eq!(bm, tp.weights[lo], "{term:?}: block {b} head mismatch");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().map(|&(t, w)| (TermId(t), w)))
    }

    #[test]
    fn insert_builds_impact_ordered_postings() {
        let mut idx = AdIndex::new();
        idx.insert(AdId(2), &v(&[(1, 0.5), (2, 0.3)]));
        idx.insert(AdId(0), &v(&[(1, 0.9)]));
        idx.insert(AdId(1), &v(&[(2, 0.7)]));
        let p1 = idx.postings(TermId(1));
        assert_eq!(p1.len(), 2);
        // Impact order: highest weight first.
        assert_eq!(p1.ads(), &[AdId(0), AdId(2)]);
        assert_eq!(p1.weights(), &[0.9, 0.5]);
        assert_eq!(idx.max_weight(TermId(1)), 0.9);
        assert_eq!(idx.max_weight(TermId(2)), 0.7);
        assert_eq!(idx.num_ads(), 3);
        assert_eq!(idx.num_postings(), 4);
        assert_eq!(idx.num_terms(), 2);
        assert_eq!(idx.max_ad_terms(), 2);
        idx.check_invariants();
    }

    #[test]
    fn equal_weights_tie_break_by_ad_id() {
        let mut idx = AdIndex::new();
        idx.insert(AdId(5), &v(&[(1, 0.5)]));
        idx.insert(AdId(2), &v(&[(1, 0.5)]));
        idx.insert(AdId(9), &v(&[(1, 0.5)]));
        assert_eq!(idx.postings(TermId(1)).ads(), &[AdId(2), AdId(5), AdId(9)]);
        idx.check_invariants();
    }

    #[test]
    fn layout_is_insertion_order_independent() {
        // The snapshot/recovery path rebuilds the index from campaigns in
        // ad-id order, whatever order the live store interleaved inserts
        // and removals in; the blocked layout must come out bit-identical.
        let ads: Vec<(AdId, SparseVector)> = (0..200u32)
            .map(|i| {
                (
                    AdId(i),
                    v(&[(i % 7, 0.1 + ((i * 37) % 90) as f32 / 100.0), (7, 0.5)]),
                )
            })
            .collect();
        let mut fwd = AdIndex::new();
        for (ad, vec) in &ads {
            fwd.insert(*ad, vec);
        }
        let mut rev = AdIndex::new();
        for (ad, vec) in ads.iter().rev() {
            rev.insert(*ad, vec);
        }
        for t in 0..8u32 {
            let a = fwd.postings(TermId(t));
            let b = rev.postings(TermId(t));
            assert_eq!(a.ads(), b.ads(), "term {t} id lane");
            // Bit-level equality of the weight and block-max lanes.
            let bits = |s: &[f32]| s.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a.weights()), bits(b.weights()), "term {t} weights");
            assert_eq!(
                bits(a.block_maxes),
                bits(b.block_maxes),
                "term {t} block maxes"
            );
        }
        fwd.check_invariants();
    }

    #[test]
    fn blocks_and_maxes() {
        let mut idx = AdIndex::new();
        let n = (BLOCK_SIZE * 2 + 10) as u32;
        for i in 0..n {
            // Distinct weights so the order is fully determined.
            idx.insert(AdId(i), &v(&[(1, 1.0 - i as f32 / (n as f32 * 2.0))]));
        }
        let p = idx.postings(TermId(1));
        assert_eq!(p.num_blocks(), 3);
        let (ads0, w0) = p.block(0);
        assert_eq!(ads0.len(), BLOCK_SIZE);
        assert_eq!(p.block_max(0), w0[0]);
        let (ads2, w2) = p.block(2);
        assert_eq!(ads2.len(), 10);
        assert_eq!(p.block_max(2), w2[0]);
        assert_eq!(p.block(3).0.len(), 0);
        assert_eq!(p.block_max(3), 0.0);
        // Descending across block boundaries.
        assert!(p.block_max(0) > p.block_max(1));
        assert!(p.block_max(1) > p.block_max(2));
        idx.check_invariants();
    }

    #[test]
    fn unknown_term_is_empty() {
        let idx = AdIndex::new();
        assert!(idx.postings(TermId(9)).is_empty());
        assert_eq!(idx.max_weight(TermId(9)), 0.0);
        assert_eq!(idx.max_ad_terms(), 0);
    }

    #[test]
    fn remove_compacts_and_fixes_max() {
        let mut idx = AdIndex::new();
        let va = v(&[(1, 0.9), (2, 0.2)]);
        let vb = v(&[(1, 0.5)]);
        idx.insert(AdId(0), &va);
        idx.insert(AdId(1), &vb);
        assert_eq!(idx.remove(AdId(0), &va), 2);
        assert_eq!(
            idx.max_weight(TermId(1)),
            0.5,
            "max follows the new list head"
        );
        assert!(
            idx.postings(TermId(2)).is_empty(),
            "empty lists are dropped"
        );
        assert_eq!(idx.num_ads(), 1);
        assert_eq!(idx.num_postings(), 1);
        assert_eq!(idx.max_ad_terms(), 1, "2-term ad left, hist decays");
        idx.check_invariants();
    }

    #[test]
    fn remove_nonmax_keeps_max() {
        let mut idx = AdIndex::new();
        idx.insert(AdId(0), &v(&[(1, 0.9)]));
        idx.insert(AdId(1), &v(&[(1, 0.5)]));
        idx.remove(AdId(1), &v(&[(1, 0.5)]));
        assert_eq!(idx.max_weight(TermId(1)), 0.9);
        idx.check_invariants();
    }

    #[test]
    fn remove_absent_ad_is_noop() {
        let mut idx = AdIndex::new();
        idx.insert(AdId(0), &v(&[(1, 0.9)]));
        assert_eq!(idx.remove(AdId(5), &v(&[(1, 0.9)])), 0);
        assert_eq!(idx.num_ads(), 1);
        idx.check_invariants();
    }

    #[test]
    fn max_weight_maintained_under_churn() {
        // Satellite regression: removal must keep every cached max exact
        // without O(len) rescans — verified structurally after each step.
        let mut idx = AdIndex::new();
        let vec_of = |i: u32| {
            v(&[
                (0, 0.05 + ((i * 17) % 97) as f32 / 100.0),
                (1, 0.05 + ((i * 31) % 89) as f32 / 100.0),
                (2 + i % 3, 0.5),
            ])
        };
        let total = (BLOCK_SIZE * 3) as u32;
        let mut live: std::collections::HashMap<AdId, SparseVector> = Default::default();
        for i in 0..total {
            idx.insert(AdId(i), &vec_of(i));
            live.insert(AdId(i), vec_of(i));
        }
        idx.check_invariants();
        // Interleaved churn: remove every third ad, reinsert some under
        // fresh ids, and keep checking the cached maxima.
        let mut next_id = total;
        for i in (0..total).step_by(3) {
            idx.remove(AdId(i), &live.remove(&AdId(i)).unwrap());
            idx.check_invariants();
            if i % 9 == 0 {
                idx.insert(AdId(next_id), &vec_of(i));
                live.insert(AdId(next_id), vec_of(i));
                next_id += 1;
                idx.check_invariants();
            }
        }
        // Drain one term's list completely from the top: the head (= the
        // list max) departs every time, the O(1) rule must keep up.
        let survivors: Vec<AdId> = idx.postings(TermId(0)).ads().to_vec();
        for ad in survivors {
            idx.remove(ad, &live.remove(&ad).unwrap());
            idx.check_invariants();
        }
        assert!(idx.postings(TermId(0)).is_empty());
        assert_eq!(idx.num_ads(), 0);
        assert_eq!(idx.max_ad_terms(), 0);
    }

    #[test]
    fn upper_bound_dominates_every_ad() {
        let mut idx = AdIndex::new();
        let ads = [
            v(&[(1, 0.8), (3, 0.6)]),
            v(&[(1, 0.4), (2, 0.9)]),
            v(&[(3, 0.99)]),
        ];
        for (i, a) in ads.iter().enumerate() {
            idx.insert(AdId(i as u32), a);
        }
        let ctx = v(&[(1, 0.5), (2, 0.5), (3, 0.5)]);
        let ub = idx.score_upper_bound(&ctx);
        for a in &ads {
            assert!(ub >= ctx.dot(a) - 1e-6, "ub {ub} < dot {}", ctx.dot(a));
        }
    }

    #[test]
    fn reinsert_after_remove() {
        let mut idx = AdIndex::new();
        let va = v(&[(1, 0.9)]);
        idx.insert(AdId(0), &va);
        idx.remove(AdId(0), &va);
        idx.insert(AdId(0), &v(&[(1, 0.3)]));
        assert_eq!(idx.max_weight(TermId(1)), 0.3);
        assert_eq!(idx.num_ads(), 1);
        idx.check_invariants();
    }

    #[test]
    fn memory_grows_with_postings() {
        let mut idx = AdIndex::new();
        let before = idx.memory_bytes();
        for i in 0..50 {
            idx.insert(AdId(i), &v(&[(i, 0.5), (i + 1, 0.5)]));
        }
        assert!(idx.memory_bytes() > before);
    }
}
