//! Process readiness: the bitmask behind `GET /readyz`.
//!
//! `/healthz` answers "is the process alive"; `/readyz` answers "should
//! this node take traffic *right now*". Replication flips the bits: a
//! partition in degraded mode (follower unreachable, acks not durable on
//! two nodes) or a follower mid-snapshot-catch-up is alive but not ready.
//! The mask is a single relaxed atomic so the serving path can flip it
//! for free.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Replication is running degraded (follower unreachable; acks are
/// single-node durable only).
pub const UNREADY_DEGRADED: u64 = 1 << 0;
/// A follower is replaying a snapshot to catch up; its state lags the
/// primary until the install completes.
pub const UNREADY_CATCHING_UP: u64 = 1 << 1;

const REASONS: &[(u64, &str)] = &[
    (UNREADY_DEGRADED, "degraded"),
    (UNREADY_CATCHING_UP, "catching_up"),
];

/// The readiness bitmask. Zero ⇔ ready. Most code uses the process-wide
/// [`readiness`]; standalone instances exist for tests.
#[derive(Default)]
pub struct Readiness {
    mask: AtomicU64,
}

impl Readiness {
    /// A ready (all-clear) instance.
    #[must_use]
    pub fn new() -> Readiness {
        Readiness::default()
    }

    /// Set or clear one unready bit.
    pub fn set(&self, bit: u64, unready: bool) {
        if unready {
            self.mask.fetch_or(bit, Ordering::Relaxed);
        } else {
            self.mask.fetch_and(!bit, Ordering::Relaxed);
        }
    }

    /// The raw mask (zero ⇔ ready).
    #[must_use]
    pub fn mask(&self) -> u64 {
        self.mask.load(Ordering::Relaxed)
    }

    /// Whether the process should take traffic.
    #[must_use]
    pub fn ready(&self) -> bool {
        self.mask() == 0
    }

    /// The `/readyz` body: `ready\n`, or `unready: <reasons>\n`.
    #[must_use]
    pub fn report(&self) -> String {
        let mask = self.mask();
        if mask == 0 {
            return "ready\n".to_string();
        }
        let mut out = String::from("unready:");
        for &(bit, name) in REASONS {
            if mask & bit != 0 {
                out.push(' ');
                out.push_str(name);
            }
        }
        if out == "unready:" {
            out.push_str(" unknown");
        }
        out.push('\n');
        out
    }
}

/// The process-wide readiness mask `/readyz` reports.
pub fn readiness() -> &'static Readiness {
    static GLOBAL: OnceLock<Readiness> = OnceLock::new();
    GLOBAL.get_or_init(Readiness::new)
}

/// Serializes tests that flip the process-wide mask (they run in one
/// process and would otherwise race each other's assertions).
#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "test-only: serializes tests over the process-wide mask"
)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_flip_independently_and_report_reasons() {
        let r = Readiness::new();
        assert!(r.ready());
        assert_eq!(r.report(), "ready\n");
        r.set(UNREADY_DEGRADED, true);
        r.set(UNREADY_CATCHING_UP, true);
        assert!(!r.ready());
        assert_eq!(r.report(), "unready: degraded catching_up\n");
        r.set(UNREADY_DEGRADED, false);
        assert_eq!(r.report(), "unready: catching_up\n");
        r.set(UNREADY_CATCHING_UP, false);
        assert!(r.ready());
    }
}
