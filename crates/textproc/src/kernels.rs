//! Chunked, autovectorization-friendly scoring kernels.
//!
//! The blocked ad index ([`adcast-ads`]'s `AdIndex`) stores postings in
//! SoA layout — an id lane and a weight lane — in fixed-size blocks. The
//! kernels here are the dense inner loops the engines run over those
//! lanes: a scale (`dst[i] = alpha·src[i]`) and a horizontal max. Both are
//! written as straight-line loops over `LANES`-wide chunks with
//! independent accumulators, the shape LLVM reliably autovectorizes to
//! SIMD on every target the workspace builds for (no intrinsics, no
//! `unsafe`, no feature detection).
//!
//! They live next to the sparse dot kernels ([`crate::sparse`]) and obey
//! the same contract: plain slices in, no allocation, no panics on
//! hot-path inputs (length mismatches are debug assertions — callers pass
//! slices cut from the same block).

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

/// Chunk width for the vectorized loops. Eight `f32` lanes is one AVX2
/// register and two NEON registers; wider chunks stop paying once the
/// loop is memory-bound.
pub const LANES: usize = 8;

/// `dst[i] = alpha * src[i]` for every `i`.
///
/// The blocked TAAT walk uses this to form a whole block's contribution
/// products (`ctx_weight · posting_weight`) in one vectorized pass before
/// the (inherently scalar) scatter into the accumulator. `dst` is only
/// written, never read, so the loop has no loop-carried dependence.
#[inline]
pub fn scale_into(alpha: f32, src: &[f32], dst: &mut [f32]) {
    debug_assert!(dst.len() >= src.len(), "scale_into: dst shorter than src");
    let n = src.len().min(dst.len());
    let (src, dst) = (&src[..n], &mut dst[..n]);
    let mut chunks_s = src.chunks_exact(LANES);
    let mut chunks_d = dst.chunks_exact_mut(LANES);
    for (s, d) in (&mut chunks_s).zip(&mut chunks_d) {
        for i in 0..LANES {
            d[i] = alpha * s[i];
        }
    }
    for (s, d) in chunks_s
        .remainder()
        .iter()
        .zip(chunks_d.into_remainder().iter_mut())
    {
        *d = alpha * s;
    }
}

/// Maximum of `src` (0.0 for an empty slice).
///
/// Index maintenance uses this to (re)derive block maxima. Four
/// independent partial maxima break the reduction dependence chain so the
/// loop vectorizes; `f32::max` ignores NaN operands, and index weights
/// are finite by the `SparseVector` invariant, so the reduction order
/// cannot change the result.
#[inline]
pub fn max_or_zero(src: &[f32]) -> f32 {
    let mut m = [0.0f32; 4];
    let mut chunks = src.chunks_exact(4);
    for c in &mut chunks {
        for i in 0..4 {
            m[i] = m[i].max(c[i]);
        }
    }
    for &v in chunks.remainder() {
        m[0] = m[0].max(v);
    }
    m[0].max(m[1]).max(m[2]).max(m[3])
}

/// Sum of `a[i] * b[i]` over the common prefix, accumulated in strict
/// left-to-right order (bench baseline for the blocked walk; the engines
/// themselves need the scatter variant above because posting blocks are
/// gathered by ad id).
#[inline]
pub fn dot_dense(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let mut acc = 0.0f32;
    for i in 0..n {
        acc += a[i] * b[i];
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_matches_scalar() {
        let src: Vec<f32> = (0..37).map(|i| i as f32 * 0.25).collect();
        let mut dst = vec![0.0f32; 37];
        scale_into(1.5, &src, &mut dst);
        for (i, (&s, &d)) in src.iter().zip(&dst).enumerate() {
            assert_eq!(d, 1.5 * s, "lane {i}");
        }
    }

    #[test]
    fn scale_handles_empty_and_short() {
        let mut dst = [9.0f32; 3];
        scale_into(2.0, &[], &mut dst);
        assert_eq!(dst, [9.0; 3], "empty src writes nothing");
        scale_into(2.0, &[1.0, 2.0], &mut dst);
        assert_eq!(&dst[..2], &[2.0, 4.0]);
    }

    #[test]
    fn max_of_blocks() {
        assert_eq!(max_or_zero(&[]), 0.0);
        assert_eq!(max_or_zero(&[0.3]), 0.3);
        let v: Vec<f32> = (0..100).map(|i| ((i * 37) % 100) as f32 / 100.0).collect();
        assert_eq!(max_or_zero(&v), 0.99);
    }

    #[test]
    fn dot_dense_matches_scalar() {
        let a: Vec<f32> = (0..19).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..19).map(|i| (i as f32) * 0.5).collect();
        let expect: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert_eq!(dot_dense(&a, &b), expect);
    }
}
