//! Deterministic top-k selection.
//!
//! Ties are broken by ascending [`AdId`] so every engine produces an
//! identical list for identical scores — a hard requirement for the
//! cross-engine equivalence tests.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use adcast_ads::AdId;

/// A scored candidate in a top-k computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scored {
    /// The ad.
    pub ad: AdId,
    /// Ranking score (higher is better).
    pub score: f32,
}

impl Scored {
    /// Total order: higher score first, then lower ad id.
    fn cmp_desc(&self, other: &Self) -> Ordering {
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| self.ad.cmp(&other.ad))
    }
}

// Wrapper giving BinaryHeap (a max-heap) min-heap behaviour over the
// descending candidate order: the heap root is the *worst* retained item.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Worst(Scored);

impl Eq for Worst {}

impl PartialOrd for Worst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Worst {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse of cmp_desc: the max of this order is the worst candidate.
        other.0.cmp_desc(&self.0).reverse()
    }
}

/// Select the top `k` candidates from an iterator in O(n log k), sorted
/// best-first with deterministic ties.
pub fn top_k(candidates: impl IntoIterator<Item = Scored>, k: usize) -> Vec<Scored> {
    if k == 0 {
        return Vec::new();
    }
    let mut heap: BinaryHeap<Worst> = BinaryHeap::with_capacity(k + 1);
    for c in candidates {
        if heap.len() < k {
            heap.push(Worst(c));
        } else if let Some(worst) = heap.peek() {
            if c.cmp_desc(&worst.0) == Ordering::Less {
                heap.pop();
                heap.push(Worst(c));
            }
        }
    }
    let mut out: Vec<Scored> = heap.into_iter().map(|w| w.0).collect();
    out.sort_by(|a, b| a.cmp_desc(b));
    out
}

/// Offer `c` to `top`, a caller-owned list kept sorted best-first and at
/// most `k` long: it enters when there is room or it beats the worst
/// entry. Offering every candidate leaves the same list [`top_k`] returns,
/// without a heap allocation per call — and a scan that knows a bound on a
/// candidate's score can compare it with `top`'s last entry and skip the
/// candidate unscored.
pub fn insert_bounded(top: &mut Vec<Scored>, k: usize, c: Scored) {
    if top.len() >= k {
        match top.last() {
            Some(worst) if c.cmp_desc(worst) == Ordering::Less => {
                top.pop();
            }
            _ => return,
        }
    }
    let at = top.partition_point(|s| s.cmp_desc(&c) == Ordering::Less);
    top.insert(at, c);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(ad: u32, score: f32) -> Scored {
        Scored {
            ad: AdId(ad),
            score,
        }
    }

    #[test]
    fn selects_highest_scores() {
        let got = top_k([s(0, 1.0), s(1, 3.0), s(2, 2.0), s(3, 0.5)], 2);
        assert_eq!(got, vec![s(1, 3.0), s(2, 2.0)]);
    }

    #[test]
    fn ties_broken_by_ad_id() {
        let got = top_k([s(5, 1.0), s(1, 1.0), s(3, 1.0)], 2);
        assert_eq!(got, vec![s(1, 1.0), s(3, 1.0)]);
    }

    #[test]
    fn fewer_candidates_than_k() {
        let got = top_k([s(0, 1.0)], 5);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn k_zero_and_empty() {
        assert!(top_k([s(0, 1.0)], 0).is_empty());
        assert!(top_k(std::iter::empty(), 3).is_empty());
    }

    #[test]
    fn matches_full_sort_on_random_input() {
        // Deterministic pseudo-random input without rand: an LCG.
        let mut x = 12345u64;
        let mut candidates = Vec::new();
        for i in 0..500u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let score = ((x >> 33) % 100) as f32 / 10.0; // many ties
            candidates.push(s(i, score));
        }
        let mut sorted = candidates.clone();
        sorted.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.ad.cmp(&b.ad)));
        for k in [0, 1, 7, 50, 499, 500, 600] {
            let got = top_k(candidates.iter().copied(), k);
            assert_eq!(got, sorted[..k.min(500)].to_vec(), "k={k}");
            let mut top = Vec::new();
            for &c in &candidates {
                insert_bounded(&mut top, k, c);
            }
            assert_eq!(top, got, "insert_bounded, k={k}");
        }
    }

    #[test]
    fn negative_and_zero_scores_are_valid() {
        let got = top_k([s(0, -1.0), s(1, 0.0), s(2, -0.5)], 2);
        assert_eq!(got, vec![s(1, 0.0), s(2, -0.5)]);
    }
}
