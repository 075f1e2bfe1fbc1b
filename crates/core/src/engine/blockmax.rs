//! Block-max pruned top-k evaluation over the impact-ordered ad index.
//!
//! The index ([`adcast_ads::AdIndex`]) keeps every posting list sorted by
//! descending weight in fixed blocks with cached per-block maxima. This
//! module holds the machinery the engines run over that layout:
//!
//! * [`TaatAccumulator`] — a dense, epoch-stamped term-at-a-time score
//!   accumulator (O(1) clear, no hashing, no per-request allocation),
//! * [`taat_blocked`] — the exhaustive blocked TAAT walk shared by the
//!   index-scan reference path and the incremental engine's
//!   refresh/fallback (one implementation so accumulation order — and
//!   therefore every f32 rounding — is identical everywhere),
//! * [`BlockMaxScorer`] — the WAND/BMW-style pruned evaluator: walk term
//!   cursors best-block-first, score newly discovered ads with one exact
//!   dot, and stop as soon as `Σ ctx_weight · block_max` over the
//!   remaining frontier provably cannot beat the k-th retained rank,
//! * [`IndexObs`] — pre-resolved prune telemetry handles.
//!
//! ## Exactness
//!
//! The pruned evaluator returns the **same ads, the same bit-identical
//! scores, and the same order** as the exhaustive walk:
//!
//! * Candidate discovery walks only *positive*-weight context terms. Ad
//!   weights are strictly positive (store validation), so a context term
//!   with weight ≤ 0 can never raise an ad's score — any ad clearing the
//!   positive serving threshold shares at least one positive context term
//!   and is therefore discoverable.
//! * Each discovered ad is scored by the same exact dot
//!   ([`dot_ad_side`]) the exhaustive path's accumulation is
//!   order-equivalent to (ascending shared-term order, one f32
//!   accumulator), so scores agree bit-for-bit.
//! * The stop rule compares a *padded* frontier bound (f64 sum of f32
//!   cursor bounds, inflated by a relative epsilon covering every f32
//!   rounding between the bound and a candidate's computed dot) strictly
//!   against the k-th retained rank, and keeps walking on ties — an
//!   undiscovered ad that could tie the k-th score (and win the id
//!   tie-break) is never pruned.

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

use adcast_stream::clock::now_ns;

use adcast_ads::{AdId, AdIndex, AdStore, BLOCK_SIZE};
use adcast_stream::clock::Timestamp;
use adcast_stream::event::LocationId;
use adcast_text::dictionary::TermId;
use adcast_text::{kernels, SparseVector};

use crate::engine::{dot_ad_side, EngineStats};
use crate::score::ScoringPolicy;

/// Pre-resolved prune-telemetry handles. Resolved once per engine
/// (registration takes a lock; recording never does), so the serving hot
/// path stays lock-free and allocation-free.
#[derive(Debug)]
pub(crate) struct IndexObs {
    /// Posting blocks actually walked.
    pub blocks_scanned: adcast_obs::Counter,
    /// Posting blocks skipped by the block-max bound.
    pub blocks_skipped: adcast_obs::Counter,
    /// Prune ratio of the most recent pruned evaluation, in basis points
    /// (10_000 = every block skipped).
    pub prune_ratio_bp: adcast_obs::Gauge,
    /// Wall time of the pruned block-walk loop per request.
    pub block_scan_ns: adcast_obs::Hist,
}

impl IndexObs {
    pub fn resolve() -> IndexObs {
        let reg = adcast_obs::registry();
        IndexObs {
            blocks_scanned: reg.counter(
                "adcast_index_blocks_scanned_total",
                "Posting blocks walked by the blocked index evaluators.",
            ),
            blocks_skipped: reg.counter(
                "adcast_index_blocks_skipped_total",
                "Posting blocks pruned by the block-max upper bound.",
            ),
            prune_ratio_bp: reg.gauge(
                "adcast_index_prune_ratio_bp",
                "Prune ratio of the latest pruned evaluation (basis points).",
            ),
            block_scan_ns: reg.hist(
                "adcast_index_block_scan_ns",
                "Pruned block-walk loop time per recommend request.",
            ),
        }
    }
}

/// Dense, epoch-stamped TAAT accumulator.
///
/// `begin` is O(1) amortized: instead of zeroing, a per-call epoch stamp
/// lazily invalidates old values. Slots are indexed by dense [`AdId`], so
/// accumulation is one array write — no hashing — and `touched` replays
/// the candidates in deterministic first-touch order. The incremental
/// engine also owns one as its per-delta gain scratch.
#[derive(Debug, Default)]
pub(crate) struct TaatAccumulator {
    stamps: Vec<u32>,
    values: Vec<f32>,
    touched: Vec<AdId>,
    epoch: u32,
}

impl TaatAccumulator {
    /// Start a new accumulation over ads `0..slots`.
    pub fn begin(&mut self, slots: usize) {
        self.touched.clear();
        if self.stamps.len() < slots {
            self.stamps.resize(slots, 0);
            self.values.resize(slots, 0.0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: old stamps could alias. Hard reset (once per
            // 2^32 begins).
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    /// Accumulate `delta` into `ad`'s score.
    #[inline]
    pub fn add(&mut self, ad: AdId, delta: f32) {
        let i = ad.index();
        debug_assert!(i < self.stamps.len(), "ad {ad:?} beyond begin() slots");
        if self.stamps[i] != self.epoch {
            self.stamps[i] = self.epoch;
            self.values[i] = 0.0;
            self.touched.push(ad);
        }
        self.values[i] += delta;
    }

    /// The accumulated score of `ad` (0.0 if untouched).
    #[inline]
    pub fn get(&self, ad: AdId) -> f32 {
        let i = ad.index();
        if self.stamps.get(i).copied() == Some(self.epoch) {
            self.values[i]
        } else {
            0.0
        }
    }

    /// Ads touched since `begin`, in first-touch order.
    pub fn touched(&self) -> &[AdId] {
        &self.touched
    }

    /// Approximate resident bytes.
    pub fn memory_bytes(&self) -> usize {
        self.stamps.capacity() * std::mem::size_of::<u32>()
            + self.values.capacity() * std::mem::size_of::<f32>()
            + self.touched.capacity() * std::mem::size_of::<AdId>()
    }
}

/// Exhaustive blocked TAAT walk: accumulate `ctx · ad` for every ad
/// sharing a term with `ctx`, block by block, forming each block's
/// contribution products with the vectorized [`kernels::scale_into`]
/// before the scalar scatter. Counts walked postings into `stats` and
/// walked blocks into `obs`.
///
/// Per ad, contributions land in ascending context-term order into a
/// single f32 accumulator — the exact operation order of
/// [`dot_ad_side`]'s merge/gallop kernels, which is what makes the pruned
/// evaluator's per-candidate dots bit-identical to this walk.
pub(crate) fn taat_blocked(
    index: &AdIndex,
    ctx: &SparseVector,
    slots: usize,
    acc: &mut TaatAccumulator,
    stats: &mut EngineStats,
    obs: &IndexObs,
) {
    acc.begin(slots);
    let mut products = [0.0f32; BLOCK_SIZE];
    let mut blocks = 0u64;
    for (term, weight) in ctx.iter() {
        let postings = index.postings(term);
        stats.postings_scanned += postings.len() as u64;
        for b in 0..postings.num_blocks() {
            let (ads, ws) = postings.block(b);
            kernels::scale_into(weight, ws, &mut products);
            for (j, &ad) in ads.iter().enumerate() {
                acc.add(ad, products[j]);
            }
            blocks += 1;
        }
    }
    obs.blocks_scanned.add(blocks);
}

/// One retained top-k entry of the pruned evaluator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Hit {
    /// The ad.
    pub ad: AdId,
    /// Blended rank in forward scale.
    pub rank: f32,
    /// Exact forward-scale relevance (the full dot, negative context
    /// terms included).
    pub fwd: f32,
}

/// A term cursor over one blocked posting list.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    term: TermId,
    ctx_weight: f32,
    next_block: u32,
    num_blocks: u32,
    /// `ctx_weight · block_max(next_block)` — an upper bound on this
    /// term's contribution to any ad not yet walked under it.
    bound: f32,
}

/// The block-max pruned top-k evaluator (engine-owned scratch; all
/// buffers retain capacity across requests).
#[derive(Debug, Default)]
pub(crate) struct BlockMaxScorer {
    cursors: Vec<Cursor>,
    /// Epoch-stamped "already scored this request" table, dense by ad id.
    seen: Vec<u32>,
    seen_epoch: u32,
    /// Retained top-k, sorted best-first (rank desc, ad id asc).
    hits: Vec<Hit>,
}

impl BlockMaxScorer {
    /// Evaluate the top `k` eligible ads for `ctx`, leaving the result in
    /// [`BlockMaxScorer::hits`]. `min_fwd` is the forward-scale serving
    /// threshold (candidates must score strictly above it).
    #[expect(
        clippy::too_many_arguments,
        reason = "one caller (`IndexScanEngine::recommend_pruned`) passes a serving request's inputs unbundled"
    )]
    pub fn run(
        &mut self,
        store: &AdStore,
        ctx: &SparseVector,
        now: Timestamp,
        location: LocationId,
        k: usize,
        min_fwd: f32,
        policy: ScoringPolicy,
        stats: &mut EngineStats,
        obs: &IndexObs,
    ) {
        self.hits.clear();
        if k == 0 {
            return;
        }
        let started = now_ns();
        let index = store.index();

        // Cursors over the positive-weight context terms. Non-positive
        // context weights cannot raise any score (ad weights are strictly
        // positive), so they play no part in discovery; the exact dot per
        // candidate still includes them.
        self.cursors.clear();
        let mut total_blocks = 0u64;
        for (term, weight) in ctx.iter() {
            if weight <= 0.0 {
                continue;
            }
            let view = index.postings(term);
            if view.is_empty() {
                continue;
            }
            let num_blocks = view.num_blocks() as u32;
            total_blocks += u64::from(num_blocks);
            self.cursors.push(Cursor {
                term,
                ctx_weight: weight,
                next_block: 0,
                num_blocks,
                bound: weight * view.block_max(0),
            });
        }
        // Best bound first; term id breaks ties so the walk order (and
        // every work counter) is deterministic.
        self.cursors.sort_unstable_by(|a, b| {
            b.bound
                .total_cmp(&a.bound)
                .then_with(|| a.term.cmp(&b.term))
        });

        let slots = store.num_total();
        if self.seen.len() < slots {
            self.seen.resize(slots, 0);
        }
        self.seen_epoch = self.seen_epoch.wrapping_add(1);
        if self.seen_epoch == 0 {
            self.seen.fill(0);
            self.seen_epoch = 1;
        }

        // An undiscovered ad holds at most `max_ad_terms` terms, so at
        // most that many cursors can contribute to its score — the
        // frontier sums only the strongest few bounds, not the whole
        // context.
        let max_terms = index.max_ad_terms();
        let max_bid = store.max_bid_bound();
        let mut scanned = 0u64;
        loop {
            if self.cursors.is_empty() {
                break;
            }
            let m = max_terms.min(self.cursors.len());
            let mut frontier = 0.0f64;
            for c in &self.cursors[..m] {
                frontier += f64::from(c.bound);
            }
            // Pad by the worst-case relative f32 error between this bound
            // and a candidate's computed dot (per-product rounding plus
            // the dot's own accumulation, both ≤ ~1.2e-7 per term).
            frontier *= 1.0 + 1e-5 + 1.2e-7 * (m as f64 + 2.0);
            if frontier <= f64::from(min_fwd) {
                break;
            }
            if self.hits.len() == k {
                let theta = self.hits[k - 1].rank;
                let rank_ub = policy.rank(frontier as f32, max_bid);
                // Strict: an undiscovered ad tying the k-th rank could
                // still win the ascending-id tie-break.
                if rank_ub < theta {
                    break;
                }
            }

            // Walk the best cursor's next block.
            let cur = self.cursors[0];
            let view = index.postings(cur.term);
            let (ads, _) = view.block(cur.next_block as usize);
            scanned += 1;
            stats.postings_scanned += ads.len() as u64;
            for &ad in ads {
                let i = ad.index();
                if self.seen.get(i).copied() == Some(self.seen_epoch) {
                    continue;
                }
                if let Some(slot) = self.seen.get_mut(i) {
                    *slot = self.seen_epoch;
                }
                // Indexed ads always resolve within one borrow of the
                // store; skip defensively rather than panic.
                let Some(ad_ref) = store.ad(ad) else { continue };
                stats.ads_scored += 1;
                let fwd = dot_ad_side(ctx, &ad_ref.vector);
                if fwd <= min_fwd {
                    continue;
                }
                if !ad_ref.targeting.matches(location, now) {
                    continue;
                }
                self.offer(
                    Hit {
                        ad,
                        rank: policy.rank(fwd, ad_ref.bid),
                        fwd,
                    },
                    k,
                );
            }

            // Advance the cursor and restore descending-bound order.
            if cur.next_block + 1 >= cur.num_blocks {
                self.cursors.remove(0);
                continue;
            }
            let next = cur.next_block + 1;
            self.cursors[0].next_block = next;
            self.cursors[0].bound = cur.ctx_weight * view.block_max(next as usize);
            let mut i = 0;
            while i + 1 < self.cursors.len() {
                let (a, b) = (self.cursors[i], self.cursors[i + 1]);
                let after = match a.bound.total_cmp(&b.bound) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Equal => a.term > b.term,
                    std::cmp::Ordering::Greater => false,
                };
                if !after {
                    break;
                }
                self.cursors.swap(i, i + 1);
                i += 1;
            }
        }

        obs.blocks_scanned.add(scanned);
        let skipped = total_blocks - scanned;
        obs.blocks_skipped.add(skipped);
        if let Some(ratio) = skipped.saturating_mul(10_000).checked_div(total_blocks) {
            obs.prune_ratio_bp.set(ratio as i64);
        }
        obs.block_scan_ns.record(now_ns().saturating_sub(started));
    }

    /// The retained top-k, best-first.
    pub fn hits(&self) -> &[Hit] {
        &self.hits
    }

    /// Insert into the sorted top-k (rank desc, ad asc), dropping the
    /// worst entry when over capacity.
    fn offer(&mut self, hit: Hit, k: usize) {
        let pos = self
            .hits
            .partition_point(|h| match h.rank.total_cmp(&hit.rank) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Equal => h.ad < hit.ad,
                std::cmp::Ordering::Less => false,
            });
        if pos >= k {
            return;
        }
        if self.hits.len() == k {
            self.hits.pop();
        }
        self.hits.insert(pos, hit);
    }

    /// Approximate resident bytes.
    pub fn memory_bytes(&self) -> usize {
        self.cursors.capacity() * std::mem::size_of::<Cursor>()
            + self.seen.capacity() * std::mem::size_of::<u32>()
            + self.hits.capacity() * std::mem::size_of::<Hit>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_stamps_reset_per_begin() {
        let mut acc = TaatAccumulator::default();
        acc.begin(4);
        acc.add(AdId(1), 0.5);
        acc.add(AdId(1), 0.25);
        acc.add(AdId(3), 1.0);
        assert_eq!(acc.get(AdId(1)), 0.75);
        assert_eq!(acc.get(AdId(3)), 1.0);
        assert_eq!(acc.get(AdId(0)), 0.0);
        assert_eq!(acc.touched(), &[AdId(1), AdId(3)]);
        acc.begin(4);
        assert_eq!(acc.get(AdId(1)), 0.0, "stale value invisible");
        assert!(acc.touched().is_empty());
    }

    #[test]
    fn accumulator_survives_epoch_wrap() {
        let mut acc = TaatAccumulator::default();
        acc.begin(2);
        acc.add(AdId(0), 1.0);
        // Force the wrap path.
        acc.epoch = u32::MAX;
        acc.begin(2);
        assert_eq!(acc.get(AdId(0)), 0.0);
        acc.add(AdId(1), 2.0);
        assert_eq!(acc.get(AdId(1)), 2.0);
        assert_eq!(acc.epoch, 1);
    }

    #[test]
    fn accumulator_grows_slots() {
        let mut acc = TaatAccumulator::default();
        acc.begin(1);
        acc.add(AdId(0), 1.0);
        acc.begin(10);
        acc.add(AdId(9), 3.0);
        assert_eq!(acc.get(AdId(9)), 3.0);
        assert!(acc.memory_bytes() > 0);
    }

    #[test]
    fn offer_keeps_sorted_top_k_with_ties() {
        let mut s = BlockMaxScorer::default();
        let hit = |ad: u32, rank: f32| Hit {
            ad: AdId(ad),
            rank,
            fwd: rank,
        };
        for h in [
            hit(5, 1.0),
            hit(2, 3.0),
            hit(9, 1.0),
            hit(1, 1.0),
            hit(7, 2.0),
        ] {
            s.offer(h, 3);
        }
        let got: Vec<(u32, f32)> = s.hits().iter().map(|h| (h.ad.0, h.rank)).collect();
        // Ties at 1.0 resolve by ascending id: ad1 wins, ad5/ad9 fall out.
        assert_eq!(got, vec![(2, 3.0), (7, 2.0), (1, 1.0)]);
    }
}
