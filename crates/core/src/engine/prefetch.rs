//! Software prefetch for the batch apply loop
//! ([`IncrementalEngine::apply_batch`](super::IncrementalEngine::apply_batch)).
//!
//! A feed delta lands on a random user whose state is cold: the
//! `UserState` slot, the context's term and weight lanes, and (for a
//! dense user) an 8 KB exact lane. Applying it is mostly waiting on those
//! misses. The batch knows which users come next, so the loop asks the
//! CPU to start loading their lines while the current delta computes.
//!
//! A prefetch is a hint: it changes no value and cannot fault, so the
//! engine's results are the same with or without it. On x86_64 it is one
//! `prefetcht0` per 64-byte line; on other targets it compiles to
//! nothing.

/// Bytes per cache line on every x86_64 part the engine targets.
#[cfg(target_arch = "x86_64")]
const LINE: usize = 64;

/// Ask the CPU to pull every cache line of `items` into L1.
#[cfg(target_arch = "x86_64")]
#[expect(
    unsafe_code,
    reason = "`_mm_prefetch` takes a raw pointer; the engine's one prefetch site"
)]
#[inline]
pub(super) fn prefetch<T>(items: &[T]) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    let len = std::mem::size_of_val(items);
    if len == 0 {
        return; // an empty `Vec`'s pointer is dangling: nothing to fetch
    }
    let start = items.as_ptr().cast::<i8>();
    // Start from the line holding the first byte, so a slice that begins
    // mid-line still has its last line covered.
    let mut line = start.wrapping_sub(start as usize % LINE);
    let end = (start as usize).wrapping_add(len);
    while (line as usize) < end {
        // SAFETY: `prefetcht0` is a hint: it never faults and reads no
        // value the program sees, whatever the address. `line` is besides
        // the start of a cache line holding a byte of `items`, and SSE,
        // which provides the instruction, is part of the x86_64 baseline.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(line) };
        line = line.wrapping_add(LINE);
    }
}

/// Ask the CPU to pull every cache line of `items` into L1 (a no-op on
/// this target).
#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub(super) fn prefetch<T>(_items: &[T]) {}
