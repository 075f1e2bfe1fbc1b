//! Heap-allocation accounting for the hot path (the `debug-stats`
//! feature).
//!
//! The engine's steady-state claim — *zero heap allocations per feed
//! delta once scratch capacities have warmed up* — is asserted by a test
//! rather than argued in a comment. The test binary installs
//! [`CountingAllocator`] as its `#[global_allocator]`; the engine then
//! samples the thread-local counter around each `on_feed_delta` and
//! accumulates the difference into `EngineStats::hot_path_allocs`.
//!
//! When no counting allocator is installed (every normal build), the
//! counter never moves and the accounting is a pair of thread-local
//! reads per delta. The module only exists under the `debug-stats`
//! feature, so release binaries carry none of it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Number of heap allocations performed by the current thread since it
/// started (only counted while [`CountingAllocator`] is the global
/// allocator; 0 otherwise).
pub fn allocation_count() -> u64 {
    ALLOCATIONS.with(|c| c.get())
}

/// A [`System`]-backed allocator that counts allocation events
/// (`alloc`, `alloc_zeroed`, `realloc`) per thread. Deallocation is free
/// and deliberately not counted: the steady-state property under test is
/// "no new heap blocks", and dropping an `Arc<Message>` evicted from a
/// feed window is expected.
pub struct CountingAllocator;

impl CountingAllocator {
    fn bump() {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method delegates verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump,
// which itself never allocates (`Cell<u64>` write) and so cannot re-enter
// the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract
        // (nonzero-size layout); we forward the same layout to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::bump();
        // SAFETY: same contract forwarding as `alloc`; `System.alloc_zeroed`
        // receives the caller's layout unmodified.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::bump();
        // SAFETY: the caller guarantees `ptr` was allocated by this
        // allocator with `layout` and `new_size` is nonzero; since we
        // delegate allocation to `System`, forwarding the triple to
        // `System.realloc` is sound.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr`/`layout` match a live
        // allocation from this allocator, and every allocation path above
        // came from `System`, so `System.dealloc` is the matching
        // deallocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}
