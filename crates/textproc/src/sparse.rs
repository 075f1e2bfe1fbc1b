//! Sorted sparse vectors — the workhorse representation of messages, ads,
//! and user contexts.
//!
//! A [`SparseVector`] stores its entries in a struct-of-arrays layout: a
//! sorted `Vec<TermId>` of term ids and a parallel `Vec<f32>` of weights.
//! The split keeps the term-id lane densely packed (8 ids per cache line
//! instead of 4 interleaved pairs), which is what the merge-join kernels
//! below actually scan; weights are only touched on a term match.
//!
//! All kernel operations used by the scoring engines live here: dot
//! products (branch-light merge-join with a galloping path for skewed
//! operand lengths), cosine similarity, scaled accumulation (`axpy`, with
//! the same skew dispatch), deltas, and top-component extraction.
//! Kernels that need temporary buffers take a caller-owned
//! [`ScratchSpace`] so steady-state callers (the incremental engine's
//! delta path) never touch the allocator.
//!
//! Invariants (checked by `debug_assert!` and enforced by every
//! constructor):
//!
//! 1. term ids sorted strictly ascending,
//! 2. no entry has weight exactly `0.0` or a non-finite weight,
//! 3. `terms.len() == weights.len()`.

use crate::dictionary::TermId;

/// When the longer operand of a dot product has at least this many
/// entries *and* is [`GALLOP_RATIO`]× longer than the shorter one, the
/// kernel switches from a linear merge-join to galloping (exponential
/// search) over the long side. Below these thresholds the linear merge's
/// sequential scan wins on cache behaviour.
pub const GALLOP_MIN_LEN: usize = 64;

/// Minimum long/short length ratio for the galloping dot path.
pub const GALLOP_RATIO: usize = 8;

/// Caller-owned temporaries for the merge kernels.
///
/// [`SparseVector::axpy_in`] builds its merged result here and then swaps
/// the buffers into place, so the *previous* backing storage of the
/// destination vector becomes the next call's scratch. After a warm-up
/// period the capacities stabilise and the kernels stop allocating — the
/// property the engine's zero-allocation delta path is built on.
#[derive(Debug, Default)]
pub struct ScratchSpace {
    terms: Vec<TermId>,
    weights: Vec<f32>,
}

impl ScratchSpace {
    /// An empty scratch space.
    pub fn new() -> Self {
        ScratchSpace::default()
    }

    /// Approximate resident bytes.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.terms.capacity() * std::mem::size_of::<TermId>()
            + self.weights.capacity() * std::mem::size_of::<f32>()
    }

    /// Empty both lanes and make room for `need` entries.
    fn begin(&mut self, need: usize) {
        self.terms.clear();
        self.weights.clear();
        if self.terms.capacity() < need {
            self.terms.reserve(need);
            self.weights.reserve(need);
        }
    }

    /// Push the sum `a + alpha·b` of a term both operands hold. Tiny
    /// residues collapse to exact zero so repeated add/remove cycles
    /// cannot leak entries; `alpha·b` can also be non-finite for extreme
    /// scales.
    fn push_sum(&mut self, term: TermId, w: f32) {
        if w.abs() >= 1e-12 && w.is_finite() {
            self.terms.push(term);
            self.weights.push(w);
        }
    }

    /// Push `alpha·b` for a term only the added operand holds.
    fn push_new(&mut self, term: TermId, w: f32) {
        if w != 0.0 && w.is_finite() {
            self.terms.push(term);
            self.weights.push(w);
        }
    }
}

/// A sorted sparse vector over interned terms (struct-of-arrays layout).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVector {
    terms: Vec<TermId>,
    weights: Vec<f32>,
}

impl SparseVector {
    /// The empty vector.
    pub fn new() -> Self {
        SparseVector::default()
    }

    /// Build from unsorted `(term, weight)` pairs, combining duplicate
    /// terms by summation and dropping zero/non-finite results.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (TermId, f32)>) -> Self {
        let mut entries: Vec<(TermId, f32)> = pairs.into_iter().collect();
        entries.sort_unstable_by_key(|&(t, _)| t);
        let mut out = SparseVector {
            terms: Vec::with_capacity(entries.len()),
            weights: Vec::with_capacity(entries.len()),
        };
        for (t, w) in entries {
            match out.terms.last() {
                Some(&lt) if lt == t => *out.weights.last_mut().unwrap() += w,
                _ => {
                    out.terms.push(t);
                    out.weights.push(w);
                }
            }
        }
        out.drop_degenerate();
        out.debug_check();
        out
    }

    /// Build from entries already sorted, unique, and non-zero.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the invariants are violated.
    pub fn from_sorted(entries: Vec<(TermId, f32)>) -> Self {
        let mut v = SparseVector {
            terms: Vec::with_capacity(entries.len()),
            weights: Vec::with_capacity(entries.len()),
        };
        for (t, w) in entries {
            v.terms.push(t);
            v.weights.push(w);
        }
        v.debug_check();
        v
    }

    /// Retain only finite non-zero weights, keeping the lanes parallel.
    fn drop_degenerate(&mut self) {
        let mut keep = 0usize;
        for i in 0..self.terms.len() {
            let w = self.weights[i];
            if w != 0.0 && w.is_finite() {
                self.terms[keep] = self.terms[i];
                self.weights[keep] = w;
                keep += 1;
            }
        }
        self.terms.truncate(keep);
        self.weights.truncate(keep);
    }

    fn debug_check(&self) {
        debug_assert_eq!(
            self.terms.len(),
            self.weights.len(),
            "lanes must stay parallel"
        );
        debug_assert!(
            self.terms.windows(2).all(|w| w[0] < w[1]),
            "entries must be strictly sorted by term id"
        );
        debug_assert!(
            self.weights.iter().all(|&w| w != 0.0 && w.is_finite()),
            "weights must be finite and non-zero"
        );
    }

    /// Number of non-zero entries.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The sorted term-id lane.
    pub fn terms(&self) -> &[TermId] {
        &self.terms
    }

    /// The weight lane, parallel to [`terms`](Self::terms).
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// The sorted entries, materialised as freshly allocated pairs.
    ///
    /// Replaces the pre-SoA `entries() -> &[(TermId, f32)]` accessor,
    /// which no longer has backing storage to borrow. The rename is
    /// deliberate: a caller of the old name gets a compile error instead
    /// of a silent per-call allocation. Prefer [`iter`](Self::iter) or the
    /// [`terms`](Self::terms) / [`weights`](Self::weights) lanes on hot
    /// paths.
    pub fn to_pairs(&self) -> Vec<(TermId, f32)> {
        self.iter().collect()
    }

    /// Iterate over `(TermId, weight)`.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, f32)> + '_ {
        self.terms.iter().copied().zip(self.weights.iter().copied())
    }

    /// The weight of `term`, or 0.0 if absent. O(log n).
    pub fn get(&self, term: TermId) -> f32 {
        match self.terms.binary_search(&term) {
            Ok(i) => self.weights[i],
            Err(_) => 0.0,
        }
    }

    /// Set the weight of `term` (removing the entry when `weight == 0.0`).
    pub fn set(&mut self, term: TermId, weight: f32) {
        match self.terms.binary_search(&term) {
            Ok(i) => {
                if weight == 0.0 {
                    self.terms.remove(i);
                    self.weights.remove(i);
                } else {
                    self.weights[i] = weight;
                }
            }
            Err(i) => {
                if weight != 0.0 {
                    self.terms.insert(i, term);
                    self.weights.insert(i, weight);
                }
            }
        }
    }

    /// Add `delta` to the weight of `term`.
    pub fn add(&mut self, term: TermId, delta: f32) {
        match self.terms.binary_search(&term) {
            Ok(i) => {
                let w = self.weights[i] + delta;
                // Treat tiny residues as exact zeros so repeated add/remove
                // cycles cannot leak entries.
                if w.abs() < 1e-12 {
                    self.terms.remove(i);
                    self.weights.remove(i);
                } else {
                    self.weights[i] = w;
                }
            }
            Err(i) => {
                if delta != 0.0 {
                    self.terms.insert(i, term);
                    self.weights.insert(i, delta);
                }
            }
        }
    }

    /// `self += alpha * other` via a single merge pass.
    ///
    /// Convenience wrapper that owns its own temporaries; hot paths should
    /// hold a [`ScratchSpace`] and call [`axpy_in`](Self::axpy_in).
    pub fn axpy(&mut self, alpha: f32, other: &SparseVector) {
        let mut scratch = ScratchSpace::new();
        self.axpy_in(alpha, other, &mut scratch);
    }

    /// `self += alpha * other`, building the merged result in `scratch`
    /// and swapping it into place. The vector's previous backing storage
    /// becomes the scratch for the next call, so a caller that reuses one
    /// `ScratchSpace` across calls stops allocating once capacities have
    /// warmed up.
    ///
    /// Dispatches on skew like [`dot`](Self::dot): when `self` has at
    /// least [`GALLOP_MIN_LEN`] entries and `other` is
    /// [`GALLOP_RATIO`]× shorter (a message's or a delta's ~15 terms
    /// into a context's hundreds), it gallops to each of `other`'s terms
    /// and bulk-copies the untouched runs of `self`; otherwise it runs the
    /// linear merge. Both kernels compute every entry as `a + alpha·b` (or
    /// `alpha·b` for a new term) and apply the same residue and
    /// non-finite rule, so the result is bit-identical either way.
    pub fn axpy_in(&mut self, alpha: f32, other: &SparseVector, scratch: &mut ScratchSpace) {
        if self.len() >= GALLOP_MIN_LEN && other.len() * GALLOP_RATIO <= self.len() {
            self.axpy_gallop_in(alpha, other, scratch);
        } else {
            self.axpy_merge_in(alpha, other, scratch);
        }
    }

    /// [`axpy_in`](Self::axpy_in) by a linear merge of both operands,
    /// O(|self| + |other|). Exposed so tests and the benchmark suite can
    /// hold it against [`axpy_gallop_in`](Self::axpy_gallop_in).
    pub fn axpy_merge_in(&mut self, alpha: f32, other: &SparseVector, scratch: &mut ScratchSpace) {
        if alpha == 0.0 || other.is_empty() {
            return;
        }
        scratch.begin(self.len() + other.len());
        let (at, aw) = (&self.terms, &self.weights);
        let (bt, bw) = (&other.terms, &other.weights);
        let (mut i, mut j) = (0usize, 0usize);
        while i < at.len() && j < bt.len() {
            let (ta, tb) = (at[i], bt[j]);
            if ta == tb {
                scratch.push_sum(ta, aw[i] + alpha * bw[j]);
                i += 1;
                j += 1;
            } else if ta < tb {
                scratch.terms.push(ta);
                scratch.weights.push(aw[i]);
                i += 1;
            } else {
                scratch.push_new(tb, alpha * bw[j]);
                j += 1;
            }
        }
        scratch.terms.extend_from_slice(&at[i..]);
        scratch.weights.extend_from_slice(&aw[i..]);
        for k in j..bt.len() {
            scratch.push_new(bt[k], alpha * bw[k]);
        }
        self.swap_in(scratch);
    }

    /// [`axpy_in`](Self::axpy_in) by galloping: for each of `other`'s
    /// terms, exponential-search `self` from a monotone cursor and copy
    /// the run of `self` it skipped in one `extend_from_slice`,
    /// O(|other| · log |self|) probes plus one copy of `self`. Exposed
    /// like [`axpy_merge_in`](Self::axpy_merge_in); any operand lengths
    /// are accepted.
    pub fn axpy_gallop_in(&mut self, alpha: f32, other: &SparseVector, scratch: &mut ScratchSpace) {
        if alpha == 0.0 || other.is_empty() {
            return;
        }
        scratch.begin(self.len() + other.len());
        let (at, aw) = (&self.terms[..], &self.weights[..]);
        let mut i = 0usize;
        for (&tb, &wb) in other.terms.iter().zip(&other.weights) {
            let run_end = gallop_to(at, i, tb);
            scratch.terms.extend_from_slice(&at[i..run_end]);
            scratch.weights.extend_from_slice(&aw[i..run_end]);
            i = run_end;
            if at.get(i) == Some(&tb) {
                scratch.push_sum(tb, aw[i] + alpha * wb);
                i += 1;
            } else {
                scratch.push_new(tb, alpha * wb);
            }
        }
        scratch.terms.extend_from_slice(&at[i..]);
        scratch.weights.extend_from_slice(&aw[i..]);
        self.swap_in(scratch);
    }

    /// Move the merged lanes built in `scratch` into place; the old
    /// lanes become the scratch.
    fn swap_in(&mut self, scratch: &mut ScratchSpace) {
        std::mem::swap(&mut self.terms, &mut scratch.terms);
        std::mem::swap(&mut self.weights, &mut scratch.weights);
        self.debug_check();
    }

    /// Dot product. Dispatches between the linear merge-join and the
    /// galloping kernel based on operand-length skew: ad vectors are ~10
    /// terms while user contexts run to hundreds, and galloping turns
    /// that case from O(|ctx|) into O(|ad| · log |ctx|).
    pub fn dot(&self, other: &SparseVector) -> f32 {
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        if large.len() >= GALLOP_MIN_LEN && small.len() * GALLOP_RATIO <= large.len() {
            small.dot_gallop(large)
        } else {
            small.dot_merge(large)
        }
    }

    /// Dot product via a branch-light linear merge join, O(|a| + |b|).
    /// Cursor advancement is computed arithmetically from the comparison
    /// so the only data-dependent branch left is the term match itself
    /// (rare: sparse supports mostly miss).
    pub fn dot_merge(&self, other: &SparseVector) -> f32 {
        let (at, aw) = (&self.terms[..], &self.weights[..]);
        let (bt, bw) = (&other.terms[..], &other.weights[..]);
        let (mut i, mut j) = (0usize, 0usize);
        let mut acc = 0.0f32;
        while i < at.len() && j < bt.len() {
            let (ta, tb) = (at[i], bt[j]);
            if ta == tb {
                acc += aw[i] * bw[j];
            }
            // Advance whichever side is behind; both on a match.
            i += usize::from(ta <= tb);
            j += usize::from(tb <= ta);
        }
        acc
    }

    /// Dot product via galloping (exponential) search of the longer
    /// operand, O(|small| · log |large|). Operand order is irrelevant;
    /// the kernel orders the sides itself. Exposed separately so the
    /// benchmark suite can measure it against [`dot_merge`](Self::dot_merge).
    pub fn dot_gallop(&self, other: &SparseVector) -> f32 {
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        let lt = &large.terms[..];
        let mut lo = 0usize;
        let mut acc = 0.0f32;
        for (i, &t) in small.terms.iter().enumerate() {
            lo = gallop_to(lt, lo, t);
            if lo >= lt.len() {
                break;
            }
            if lt[lo] == t {
                acc += small.weights[i] * large.weights[lo];
                lo += 1;
            }
        }
        acc
    }

    /// L2 norm.
    pub fn norm(&self) -> f32 {
        self.weights
            .iter()
            .map(|&w| (w as f64) * (w as f64))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Cosine similarity in `[−1, 1]`; 0.0 when either vector is empty.
    pub fn cosine(&self, other: &SparseVector) -> f32 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            return 0.0;
        }
        self.dot(other) / denom
    }

    /// Scale every weight by `alpha` (removing all entries when `alpha == 0`).
    pub fn scale(&mut self, alpha: f32) {
        if alpha == 0.0 {
            self.terms.clear();
            self.weights.clear();
            return;
        }
        for w in &mut self.weights {
            *w *= alpha;
        }
    }

    /// `self − other` as a new vector (used for window-slide deltas).
    pub fn delta_from(&self, other: &SparseVector) -> SparseVector {
        let mut out = SparseVector::new();
        self.delta_into(other, &mut out);
        out
    }

    /// `self − other`, written into the caller-owned `out` buffer via a
    /// single merge pass (no intermediate clone, and `out`'s capacity is
    /// reused across calls).
    pub fn delta_into(&self, other: &SparseVector, out: &mut SparseVector) {
        out.terms.clear();
        out.weights.clear();
        let (at, aw) = (&self.terms, &self.weights);
        let (bt, bw) = (&other.terms, &other.weights);
        let (mut i, mut j) = (0usize, 0usize);
        while i < at.len() && j < bt.len() {
            let (ta, tb) = (at[i], bt[j]);
            if ta == tb {
                let w = aw[i] - bw[j];
                if w.abs() >= 1e-12 && w.is_finite() {
                    out.terms.push(ta);
                    out.weights.push(w);
                }
                i += 1;
                j += 1;
            } else if ta < tb {
                out.terms.push(ta);
                out.weights.push(aw[i]);
                i += 1;
            } else {
                out.terms.push(tb);
                out.weights.push(-bw[j]);
                j += 1;
            }
        }
        out.terms.extend_from_slice(&at[i..]);
        out.weights.extend_from_slice(&aw[i..]);
        for k in j..bt.len() {
            out.terms.push(bt[k]);
            out.weights.push(-bw[k]);
        }
        out.debug_check();
    }

    /// L1 norm (sum of absolute weights).
    pub fn l1(&self) -> f32 {
        self.weights.iter().map(|&w| w.abs()).sum()
    }

    /// The `n` largest-weight components, sorted descending by weight.
    pub fn top_components(&self, n: usize) -> Vec<(TermId, f32)> {
        let mut v: Vec<_> = self.iter().collect();
        v.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// Normalize to unit L2 norm (no-op for the empty vector).
    pub fn normalized(&self) -> SparseVector {
        let n = self.norm();
        if n == 0.0 {
            return self.clone();
        }
        let mut out = self.clone();
        out.scale(1.0 / n);
        out
    }

    /// Remove all entries (capacity is retained).
    pub fn clear(&mut self) {
        self.terms.clear();
        self.weights.clear();
    }

    /// Approximate resident bytes.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.terms.capacity() * std::mem::size_of::<TermId>()
            + self.weights.capacity() * std::mem::size_of::<f32>()
    }
}

/// First index `>= lo` in the sorted slice whose value is `>= target`,
/// found by exponential probing followed by a binary search of the
/// bracketed window. Returns `terms.len()` when every remaining value is
/// smaller than `target`.
fn gallop_to(terms: &[TermId], mut lo: usize, target: TermId) -> usize {
    let n = terms.len();
    if lo >= n || terms[lo] >= target {
        return lo;
    }
    // terms[lo] < target: probe lo+1, lo+2, lo+4, ... until we overshoot.
    let mut step = 1usize;
    while lo + step < n && terms[lo + step] < target {
        lo += step;
        step <<= 1;
    }
    let hi = (lo + step + 1).min(n);
    lo + terms[lo..hi].partition_point(|&t| t < target)
}

impl FromIterator<(TermId, f32)> for SparseVector {
    fn from_iter<I: IntoIterator<Item = (TermId, f32)>>(iter: I) -> Self {
        SparseVector::from_pairs(iter)
    }
}

/// Zipped iterator over the term and weight lanes.
pub struct Iter<'a> {
    terms: std::slice::Iter<'a, TermId>,
    weights: std::slice::Iter<'a, f32>,
}

impl Iterator for Iter<'_> {
    type Item = (TermId, f32);

    fn next(&mut self) -> Option<(TermId, f32)> {
        Some((*self.terms.next()?, *self.weights.next()?))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.terms.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a SparseVector {
    type Item = (TermId, f32);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        Iter {
            terms: self.terms.iter(),
            weights: self.weights.iter(),
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
    fn from_pairs_sorts_and_merges() {
        let a = v(&[(3, 1.0), (1, 2.0), (3, 0.5)]);
        assert_eq!(a.to_pairs(), &[(TermId(1), 2.0), (TermId(3), 1.5)]);
    }

    #[test]
    fn from_pairs_drops_zeros_and_nonfinite() {
        let a = SparseVector::from_pairs([
            (TermId(0), 0.0),
            (TermId(1), f32::NAN),
            (TermId(2), f32::INFINITY),
            (TermId(3), 1.0),
            (TermId(4), -1.0),
            (TermId(4), 1.0), // cancels to zero
        ]);
        assert_eq!(a.to_pairs(), &[(TermId(3), 1.0)]);
    }

    #[test]
    fn lanes_stay_parallel() {
        let a = v(&[(1, 1.0), (7, -2.0), (9, 0.5)]);
        assert_eq!(a.terms(), &[TermId(1), TermId(7), TermId(9)]);
        assert_eq!(a.weights(), &[1.0, -2.0, 0.5]);
    }

    #[test]
    fn get_set_add() {
        let mut a = v(&[(1, 1.0), (5, 2.0)]);
        assert_eq!(a.get(TermId(1)), 1.0);
        assert_eq!(a.get(TermId(2)), 0.0);
        a.set(TermId(2), 3.0);
        assert_eq!(a.get(TermId(2)), 3.0);
        a.set(TermId(2), 0.0);
        assert_eq!(a.get(TermId(2)), 0.0);
        assert_eq!(a.len(), 2);
        a.add(TermId(5), -2.0);
        assert_eq!(a.len(), 1, "exact cancellation removes the entry");
        a.add(TermId(9), 0.0);
        assert_eq!(a.len(), 1, "zero delta on absent term is a no-op");
    }

    #[test]
    fn dot_merge_join() {
        let a = v(&[(1, 1.0), (2, 2.0), (4, 3.0)]);
        let b = v(&[(2, 5.0), (3, 7.0), (4, 1.0)]);
        assert_eq!(a.dot(&b), 2.0 * 5.0 + 3.0 * 1.0);
        assert_eq!(b.dot(&a), a.dot(&b));
        assert_eq!(a.dot(&SparseVector::new()), 0.0);
    }

    #[test]
    fn dot_kernels_agree() {
        let a = v(&[(1, 1.0), (40, 2.0), (90, 3.0)]);
        let b = v(&(0..200)
            .map(|t| (t, 0.01 * t as f32 + 1.0))
            .collect::<Vec<_>>());
        let expect: f32 = a.iter().map(|(t, w)| w * b.get(t)).sum();
        assert!((a.dot_merge(&b) - expect).abs() < 1e-4);
        assert!((a.dot_gallop(&b) - expect).abs() < 1e-4);
        assert!(
            (b.dot_gallop(&a) - expect).abs() < 1e-4,
            "gallop orders operands itself"
        );
        assert!(
            (a.dot(&b) - expect).abs() < 1e-4,
            "dispatch picks the gallop path here"
        );
    }

    #[test]
    fn gallop_handles_edges() {
        let b = v(&(0..100).map(|t| (2 * t, 1.0)).collect::<Vec<_>>());
        // Probe below the range, between entries, at the last entry, and past it.
        let a = v(&[(0, 1.0), (3, 1.0), (198, 1.0), (500, 1.0)]);
        assert_eq!(a.dot_gallop(&b), 2.0);
        // Short side entirely past the long side.
        let c = v(&[(1000, 1.0)]);
        assert_eq!(c.dot_gallop(&b), 0.0);
        // Empty short side.
        assert_eq!(SparseVector::new().dot_gallop(&b), 0.0);
    }

    #[test]
    fn cosine_bounds_and_identity() {
        let a = v(&[(1, 3.0), (2, 4.0)]);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-6);
        let b = v(&[(3, 1.0)]);
        assert_eq!(a.cosine(&b), 0.0, "disjoint supports are orthogonal");
        assert_eq!(a.cosine(&SparseVector::new()), 0.0);
    }

    #[test]
    fn axpy_merges_and_cancels() {
        let mut a = v(&[(1, 1.0), (2, 2.0)]);
        let b = v(&[(2, 2.0), (3, 3.0)]);
        a.axpy(-1.0, &b);
        assert_eq!(a.to_pairs(), &[(TermId(1), 1.0), (TermId(3), -3.0)]);
        a.axpy(0.0, &b);
        assert_eq!(a.len(), 2, "alpha=0 is a no-op");
    }

    #[test]
    fn axpy_equivalent_to_elementwise() {
        let mut a = v(&[(1, 1.0), (4, 2.0), (9, -1.5)]);
        let b = v(&[(1, 0.5), (2, 1.0), (9, 3.0)]);
        let mut elementwise = a.clone();
        for (t, w) in b.iter() {
            elementwise.add(t, 2.5 * w);
        }
        a.axpy(2.5, &b);
        assert_eq!(a.len(), elementwise.len());
        for (x, y) in a.iter().zip(elementwise.iter()) {
            assert_eq!(x.0, y.0);
            assert!((x.1 - y.1).abs() < 1e-6);
        }
    }

    #[test]
    fn axpy_in_recycles_capacity() {
        let mut scratch = ScratchSpace::new();
        let mut a = v(&[(1, 1.0), (2, 2.0), (3, 3.0)]);
        let b = v(&[(2, 1.0), (4, 1.0)]);
        a.axpy_in(1.0, &b, &mut scratch);
        assert_eq!(
            a.to_pairs(),
            &[
                (TermId(1), 1.0),
                (TermId(2), 3.0),
                (TermId(3), 3.0),
                (TermId(4), 1.0)
            ]
        );
        // The swapped-out buffer keeps its capacity for the next call.
        assert!(scratch.memory_bytes() > std::mem::size_of::<ScratchSpace>());
        let before = a.get(TermId(2));
        a.axpy_in(-1.0, &b, &mut scratch);
        assert_eq!(a.get(TermId(2)), before - 1.0);
        assert_eq!(
            a.get(TermId(4)),
            0.0,
            "exact cancellation removes the entry"
        );
    }

    #[test]
    fn norm_and_l1() {
        let a = v(&[(1, 3.0), (2, -4.0)]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
        assert!((a.l1() - 7.0).abs() < 1e-6);
        assert_eq!(SparseVector::new().norm(), 0.0);
    }

    #[test]
    fn scale_and_normalized() {
        let mut a = v(&[(1, 3.0), (2, 4.0)]);
        a.scale(2.0);
        assert_eq!(a.get(TermId(1)), 6.0);
        let unit = a.normalized();
        assert!((unit.norm() - 1.0).abs() < 1e-6);
        a.scale(0.0);
        assert!(a.is_empty());
    }

    #[test]
    fn delta_from() {
        let new = v(&[(1, 2.0), (2, 1.0)]);
        let old = v(&[(2, 1.0), (3, 4.0)]);
        let d = new.delta_from(&old);
        assert_eq!(d.to_pairs(), &[(TermId(1), 2.0), (TermId(3), -4.0)]);
    }

    #[test]
    fn delta_into_reuses_buffer() {
        let new = v(&[(1, 2.0), (2, 1.0)]);
        let old = v(&[(2, 1.0), (3, 4.0)]);
        let mut out = v(&[(9, 9.0)]); // stale contents must be overwritten
        new.delta_into(&old, &mut out);
        assert_eq!(out.to_pairs(), &[(TermId(1), 2.0), (TermId(3), -4.0)]);
        new.delta_into(&new, &mut out);
        assert!(out.is_empty(), "self-delta is empty");
    }

    #[test]
    fn top_components_ordering() {
        let a = v(&[(1, 0.5), (2, 2.0), (3, 1.0), (4, 2.0)]);
        let top = a.top_components(3);
        // Ties broken by term id for determinism.
        assert_eq!(
            top,
            vec![(TermId(2), 2.0), (TermId(4), 2.0), (TermId(3), 1.0)]
        );
        assert_eq!(a.top_components(0), vec![]);
        assert_eq!(a.top_components(10).len(), 4);
    }

    #[test]
    fn collect_from_iterator() {
        let a: SparseVector = [(TermId(2), 1.0), (TermId(1), 1.0)].into_iter().collect();
        assert_eq!(a.to_pairs()[0].0, TermId(1));
        let round: Vec<_> = (&a).into_iter().collect();
        assert_eq!(round.len(), 2);
    }
}
