//! A user context scattered into a dense, epoch-stamped `TermId`-indexed
//! array, so an exact `ctx · ad` walks only the ad's ~10 terms.
//!
//! The incremental engine pays tens of exact dots per feed delta, all
//! against the same (post-update) context of a hundred-plus terms. A
//! merge or gallop join re-walks that context for every ad; scattering it
//! once per delta turns each later dot into one array probe per ad term.
//!
//! ## Bit-identity with [`SparseVector::dot`]
//!
//! Both kernels of [`SparseVector::dot`] (merge and gallop) visit the
//! shared terms in ascending term order and add each product into one f32
//! accumulator starting at 0.0. [`ContextScatter::dot`] walks the ad's
//! terms in ascending order and skips the ones the context lacks — the
//! same shared terms, in the same order, into the same single accumulator.
//! The products are the same two f32 factors, and IEEE multiplication is
//! commutative, so every rounding step and the result agree bit for bit.
//! Context terms of weight zero are scattered too: they are shared terms
//! of the join kernels as well.

use adcast_text::SparseVector;

/// Dense stamped scatter of one context (see the module docs).
///
/// `slots[t] = (stamp, weight)`: the weight is live only while the stamp
/// equals the current epoch, so invalidation is O(1) and never zeroes the
/// array. Stamp and weight share a slot so a probe touches one cache line.
#[derive(Debug, Default)]
pub(crate) struct ContextScatter {
    slots: Vec<(u32, f32)>,
    epoch: u32,
    loaded: bool,
}

impl ContextScatter {
    /// Forget the scattered context. The caller must call this whenever
    /// the context it passes to [`dot`](Self::dot) may have changed; the
    /// next `dot` then scatters afresh.
    pub fn invalidate(&mut self) {
        self.loaded = false;
    }

    /// `ctx · ad`, bit-identical to `ctx.dot(ad)`. The first call after
    /// [`invalidate`](Self::invalidate) scatters `ctx`; later calls reuse
    /// that scatter, so they must pass the same context.
    #[inline]
    pub fn dot(&mut self, ctx: &SparseVector, ad: &SparseVector) -> f32 {
        if !self.loaded {
            self.scatter(ctx);
        }
        debug_assert!(
            ctx.iter()
                .all(|(t, w)| self.slots[t.index()] == (self.epoch, w)),
            "dot called with a context other than the scattered one"
        );
        let mut acc = 0.0f32;
        for (term, weight) in ad.iter() {
            if let Some(&(stamp, cw)) = self.slots.get(term.index()) {
                if stamp == self.epoch {
                    acc += weight * cw;
                }
            }
        }
        acc
    }

    fn scatter(&mut self, ctx: &SparseVector) {
        // Terms are sorted, so the last one is the largest id.
        let len = ctx.terms().last().map_or(0, |t| t.index() + 1);
        if self.slots.len() < len {
            self.slots.resize(len, (0, 0.0));
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: old stamps could alias. Hard reset once per 2^32
            // scatters.
            for slot in &mut self.slots {
                slot.0 = 0;
            }
            self.epoch = 1;
        }
        for (term, weight) in ctx.iter() {
            self.slots[term.index()] = (self.epoch, weight);
        }
        self.loaded = true;
    }

    /// Approximate resident bytes.
    pub fn memory_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<(u32, f32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcast_text::dictionary::TermId;
    use adcast_text::sparse::{GALLOP_MIN_LEN, GALLOP_RATIO};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn sparse(pairs: impl IntoIterator<Item = (u32, f32)>) -> SparseVector {
        SparseVector::from_pairs(pairs.into_iter().map(|(t, w)| (TermId(t), w)))
    }

    /// `n` distinct terms drawn from `0..vocab`, weights of mixed sign and
    /// magnitude (including exact zeros) so rounding differences would show.
    fn random(rng: &mut SmallRng, n: usize, vocab: u32) -> SparseVector {
        sparse((0..n).map(|_| {
            let w = match rng.gen_range(0..8u32) {
                0 => 0.0,
                1 => -rng.gen_range(1e-3f32..10.0),
                _ => rng.gen_range(1e-6f32..1e3),
            };
            (rng.gen_range(0..vocab), w)
        }))
    }

    fn assert_bit_identical(scatter: &mut ContextScatter, ctx: &SparseVector, ad: &SparseVector) {
        let want = ctx.dot(ad);
        let got = scatter.dot(ctx, ad);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "scatter {got} vs dot {want} (ctx {} terms, ad {} terms)",
            ctx.len(),
            ad.len()
        );
    }

    #[test]
    fn matches_sparse_dot_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(0xd07);
        let mut scatter = ContextScatter::default();
        let (mut gallop, mut merge) = (0, 0);
        for round in 0..400 {
            // Contexts of 1–512 terms against ads of 1–32: the ratio spans
            // both sides of the merge/gallop dispatch.
            let ctx_len = rng.gen_range(1..=512usize);
            let vocab = rng.gen_range(ctx_len as u32..=4 * ctx_len as u32 + 64);
            let ctx = random(&mut rng, ctx_len, vocab);
            scatter.invalidate();
            for _ in 0..24 {
                let ad_len = rng.gen_range(1..=32usize);
                let ad = match rng.gen_range(0..4u32) {
                    // Disjoint: terms above the context's vocabulary.
                    0 => sparse((0..ad_len).map(|i| (vocab + i as u32, 1.5))),
                    // Identical support, different weights.
                    1 => sparse(
                        ctx.terms()
                            .iter()
                            .take(ad_len)
                            .map(|t| (t.0, rng.gen_range(0.01f32..2.0))),
                    ),
                    // Overlapping: drawn from the same vocabulary.
                    _ => random(&mut rng, ad_len, vocab),
                };
                if ctx.len() >= GALLOP_MIN_LEN && ad.len() * GALLOP_RATIO <= ctx.len() {
                    gallop += 1;
                } else {
                    merge += 1;
                }
                assert_bit_identical(&mut scatter, &ctx, &ad);
            }
            // The identical pair: the context against itself.
            if round % 16 == 0 {
                let mut own = ContextScatter::default();
                assert_bit_identical(&mut own, &ctx, &ctx);
            }
        }
        assert!(
            gallop > 1_000 && merge > 1_000,
            "gallop {gallop}, merge {merge}"
        );
    }

    #[test]
    fn invalidate_rescatters_and_empty_vectors_dot_to_zero() {
        let mut s = ContextScatter::default();
        let empty = SparseVector::new();
        let a = sparse([(1, 2.0), (5, 3.0)]);
        assert_eq!(s.dot(&empty, &a), 0.0);
        s.invalidate();
        let ctx = sparse([(1, 0.5), (9, 1.0)]);
        assert_eq!(s.dot(&ctx, &a), 1.0);
        assert_eq!(s.dot(&ctx, &empty), 0.0);
        // A new, shorter context: stale slot 9 must not leak through.
        s.invalidate();
        let ctx2 = sparse([(5, 2.0)]);
        assert_eq!(s.dot(&ctx2, &sparse([(9, 1.0), (5, 1.0)])), 2.0);
    }

    #[test]
    fn epoch_wrap_clears_stale_stamps() {
        let mut s = ContextScatter::default();
        let a = sparse([(3, 1.0)]);
        s.dot(&sparse([(3, 7.0)]), &a);
        s.epoch = u32::MAX;
        s.invalidate();
        assert_eq!(s.dot(&sparse([(1, 1.0)]), &a), 0.0, "term 3 left over");
        assert_eq!(s.epoch, 1);
    }
}
