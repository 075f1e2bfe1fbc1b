//! Lock-free metric handles — the hot-path half of the registry.
//!
//! Handles are cheap `Arc` clones around atomic state; every mutation on
//! the serving path (`inc`, `add`, `set`, `record`) is a couple of relaxed
//! atomic RMWs with no locks and no allocation, so instrumentation can sit
//! inside `apply_feed_delta` without costing the zero-alloc steady state.
//! Aggregation (exposition, snapshots) happens on the cold side in
//! [`crate::registry`] and tolerates the slight cross-field skew relaxed
//! ordering allows.

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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use adcast_metrics::histogram::{bucket_of, NUM_BUCKETS};

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    inner: Arc<AtomicU64>,
}

impl Counter {
    /// A counter not attached to any registry (tests, kind-mismatch
    /// fallback). Registered counters come from [`crate::Registry`].
    #[must_use]
    pub fn detached() -> Self {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.inner.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.inner.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.inner.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down. Stored as a `u64` holding the
/// two's-complement bits of an `i64`, so `dec` past zero stays coherent.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    inner: Arc<AtomicU64>,
}

impl Gauge {
    /// A gauge not attached to any registry.
    #[must_use]
    pub fn detached() -> Self {
        Gauge::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.inner.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtract one.
    #[inline]
    pub fn dec(&self) {
        self.inner.fetch_sub(1, Ordering::Relaxed);
    }

    /// Set to an absolute value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.inner.store(v as u64, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.inner.load(Ordering::Relaxed) as i64
    }
}

/// The shared atomic state behind a [`Hist`] handle: one `AtomicU64` per
/// bucket of the same log-bucket layout `adcast_metrics::LatencyHistogram`
/// uses, plus running sum and count.
#[derive(Debug)]
pub struct HistState {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

/// A lock-free histogram over `u64` nanosecond values.
#[derive(Clone, Debug)]
pub struct Hist {
    inner: Arc<HistState>,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            inner: Arc::new(HistState {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }),
        }
    }
}

impl Hist {
    /// A histogram not attached to any registry.
    #[must_use]
    pub fn detached() -> Self {
        Hist::default()
    }

    /// Record one value. `bucket_of` never returns an index outside the
    /// fixed layout, so the bucket access cannot fault.
    #[inline]
    pub fn record(&self, value: u64) {
        self.inner.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(value, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the nanoseconds elapsed since `since` (the span-timing
    /// idiom: `let t = Instant::now(); ...; hist.record_elapsed(t)`).
    #[inline]
    pub fn record_elapsed(&self, since: Instant) {
        let nanos = since.elapsed().as_nanos();
        self.record(if nanos > u64::MAX as u128 {
            u64::MAX
        } else {
            nanos as u64
        });
    }

    /// Total observations recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every bucket, for exposition. Buckets are
    /// read individually with relaxed loads; concurrent recording can make
    /// the copy internally skewed by a few in-flight observations, which
    /// exposition tolerates (each scrape is already a racy sample).
    #[must_use]
    pub fn snapshot_buckets(&self) -> Vec<u64> {
        self.inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::detached();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let c2 = c.clone();
        c2.inc();
        assert_eq!(c.get(), 43, "clones share state");
    }

    #[test]
    fn gauge_goes_both_ways() {
        let g = Gauge::detached();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.dec();
        g.dec();
        assert_eq!(g.get(), -1, "negative values survive the u64 carrier");
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn hist_uses_the_shared_bucket_layout() {
        let h = Hist::detached();
        let values = [0u64, 1, 15, 16, 999, 123_456, 10_000_000];
        for v in values {
            h.record(v);
        }
        assert_eq!(h.count(), values.len() as u64);
        assert_eq!(h.sum(), values.iter().sum::<u64>());
        let buckets = h.snapshot_buckets();
        for v in values {
            assert!(
                buckets[bucket_of(v)] >= 1,
                "value {v} not in its shared-layout bucket"
            );
        }
        assert_eq!(buckets.iter().sum::<u64>(), values.len() as u64);
    }

    #[test]
    fn hist_quantiles_on_uniform_data() {
        // Quantiles of a `Hist` are read through its exposition.
        let reg = crate::Registry::new();
        let h = reg.hist("adcast_test_uniform_ns", "Uniform data.");
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let families = crate::parse_exposition(&reg.expose()).unwrap();
        let family = crate::find_family(&families, "adcast_test_uniform_ns").unwrap();
        // Within the shared layout's precision: 16 sub-buckets per power.
        for (q, want) in [(0.5, 500_000.0), (0.99, 990_000.0)] {
            let got = crate::histogram_quantile(family, q).unwrap();
            assert!((got - want).abs() <= want / 16.0, "q{q}: {got}");
        }
    }

    #[test]
    fn hist_concurrent_records_all_land() {
        let h = Hist::detached();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for v in 0..10_000u64 {
                        h.record(v);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
        assert_eq!(h.snapshot_buckets().iter().sum::<u64>(), 40_000);
    }
}
