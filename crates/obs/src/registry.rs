//! The metric registry: name → handle, plus the process-wide instance.
//!
//! Registration and exposition take a `Mutex` (they run at startup and on
//! scrape, never on the serving path); the handles they return are the
//! lock-free types from [`crate::metrics`]. Registration is idempotent by
//! name — asking twice for the same family returns clones of one handle —
//! because `cargo test` runs many servers inside one process and all of
//! them share the global registry.

#![expect(
    clippy::disallowed_types,
    reason = "registration and exposition lock the family list; they run at startup and on scrape, never in `record()`"
)]

use std::sync::{Mutex, OnceLock};

use crate::metrics::{Counter, Gauge, Hist};

/// What kind of metric a family is (drives the `# TYPE` line).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FamilyKind {
    Counter,
    Gauge,
    Histogram,
}

impl FamilyKind {
    /// The Prometheus `# TYPE` keyword.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FamilyKind::Counter => "counter",
            FamilyKind::Gauge => "gauge",
            FamilyKind::Histogram => "histogram",
        }
    }
}

#[derive(Clone)]
pub(crate) enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Hist(Hist),
}

/// One registered metric family — strictly, one *labelset* of a family:
/// several entries may share a `name` with distinct `labels` (e.g. the
/// per-partition replication gauges), and exposition groups them under
/// one `# HELP`/`# TYPE` header.
pub(crate) struct Family {
    pub(crate) name: &'static str,
    pub(crate) help: &'static str,
    /// Label pairs attached to every sample of this entry, in
    /// registration order. Empty for classic unlabeled families.
    pub(crate) labels: Vec<(String, String)>,
    pub(crate) handle: Handle,
}

impl Family {
    pub(crate) fn kind(&self) -> FamilyKind {
        match self.handle {
            Handle::Counter(_) => FamilyKind::Counter,
            Handle::Gauge(_) => FamilyKind::Gauge,
            Handle::Hist(_) => FamilyKind::Histogram,
        }
    }
}

/// A set of metric families. Most code uses the process-wide [`registry`];
/// standalone instances exist for unit tests.
#[derive(Default)]
pub struct Registry {
    pub(crate) families: Mutex<Vec<Family>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register (or fetch) a counter family. Counter names follow the
    /// `adcast_<layer>_<name>_total` scheme. If the name is already
    /// registered as a different kind, a detached handle is returned so
    /// the caller keeps working and the registered family stays coherent.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Register (or fetch) a gauge family.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Register (or fetch) a histogram family over nanosecond values.
    pub fn hist(&self, name: &'static str, help: &'static str) -> Hist {
        self.hist_with(name, help, &[])
    }

    /// Register (or fetch) a counter with a fixed labelset. Idempotency is
    /// keyed on `(name, labels)`: the same name with different labels is a
    /// distinct series sharing one `# HELP`/`# TYPE` header on exposition.
    pub fn counter_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Counter {
        match self.register(name, help, labels, || Handle::Counter(Counter::detached())) {
            Handle::Counter(c) => c,
            _ => Counter::detached(),
        }
    }

    /// Register (or fetch) a gauge with a fixed labelset.
    pub fn gauge_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Gauge {
        match self.register(name, help, labels, || Handle::Gauge(Gauge::detached())) {
            Handle::Gauge(g) => g,
            _ => Gauge::detached(),
        }
    }

    /// Register (or fetch) a histogram with a fixed labelset.
    pub fn hist_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Hist {
        match self.register(name, help, labels, || Handle::Hist(Hist::detached())) {
            Handle::Hist(h) => h,
            _ => Hist::detached(),
        }
    }

    fn register(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        let mut families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(existing) = families.iter().find(|f| {
            f.name == name
                && f.labels.len() == labels.len()
                && f.labels
                    .iter()
                    .zip(labels)
                    .all(|((k, v), (lk, lv))| k == lk && v == lv)
        }) {
            return existing.handle.clone();
        }
        let handle = make();
        families.push(Family {
            name,
            help,
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                .collect(),
            handle: handle.clone(),
        });
        handle
    }

    /// Number of registered families.
    #[must_use]
    pub fn len(&self) -> usize {
        self.families
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// True when nothing is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render the whole registry in Prometheus text format.
    #[must_use]
    pub fn expose(&self) -> String {
        crate::expo::write_exposition(self)
    }
}

/// The process-wide registry every layer registers into. Lives for the
/// process lifetime; counts are cumulative across all servers started in
/// the process (relevant for tests, which share it).
pub fn registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_by_name() {
        let reg = Registry::new();
        let a = reg.counter("adcast_test_x_total", "x");
        let b = reg.counter("adcast_test_x_total", "x");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same family, shared state");
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn kind_mismatch_returns_detached_handle() {
        let reg = Registry::new();
        let c = reg.counter("adcast_test_y_total", "y");
        c.inc();
        let g = reg.gauge("adcast_test_y_total", "y as gauge");
        g.set(99);
        assert_eq!(c.get(), 1, "registered family untouched by the mismatch");
        assert_eq!(reg.len(), 1, "mismatched registration adds no family");
    }

    #[test]
    fn global_registry_is_shared() {
        let a = registry().counter("adcast_test_global_total", "g");
        let b = registry().counter("adcast_test_global_total", "g");
        a.inc();
        assert_eq!(b.get(), a.get());
    }

    #[test]
    fn labelsets_are_distinct_series_under_one_name() {
        let reg = Registry::new();
        let p0 = reg.gauge_with("adcast_test_lag", "lag", &[("partition", "0")]);
        let p1 = reg.gauge_with("adcast_test_lag", "lag", &[("partition", "1")]);
        let p0_again = reg.gauge_with("adcast_test_lag", "lag", &[("partition", "0")]);
        p0.set(7);
        p1.set(9);
        assert_eq!(p0_again.get(), 7, "same labelset shares state");
        assert_eq!(p1.get(), 9);
        assert_eq!(reg.len(), 2, "two labelsets, two entries");
        let text = reg.expose();
        assert!(
            text.contains("adcast_test_lag{partition=\"0\"} 7"),
            "{text}"
        );
        assert!(
            text.contains("adcast_test_lag{partition=\"1\"} 9"),
            "{text}"
        );
        assert_eq!(
            text.matches("# TYPE adcast_test_lag gauge").count(),
            1,
            "one TYPE header for the grouped name:\n{text}"
        );
    }

    #[test]
    fn families_expose_in_registration_order() {
        let reg = Registry::new();
        reg.counter("adcast_test_b_total", "b");
        reg.gauge("adcast_test_a", "a");
        let text = reg.expose();
        let b_pos = text.find("adcast_test_b_total").unwrap();
        let a_pos = text.find("adcast_test_a").unwrap();
        assert!(b_pos < a_pos, "registration order preserved:\n{text}");
    }
}
