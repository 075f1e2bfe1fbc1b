//! # adcast-durability — WAL, snapshots, and crash recovery
//!
//! The serving engine is a long-lived process whose state (budget spend,
//! pacing, CTR statistics, per-user context) lives in memory; this crate
//! makes that state survive crashes:
//!
//! * [`backend`] — the storage seam: named files + explicit durability
//!   barriers ([`FsBackend`] in production; the simulation harness
//!   substitutes an in-memory backend with fault injection),
//! * [`codec`] — shared length-prefixed record helpers (vectors, feed
//!   deltas, time slots) reused by the `adcast-net` wire codec,
//! * [`record`] — the WAL record vocabulary: every store/engine mutation,
//! * [`wal`] — segmented, CRC-checked write-ahead log with group commit,
//!   configurable fsync policy, rotation, and torn-tail truncation,
//! * [`snapshot`] — versioned, checksummed full-state snapshots written
//!   atomically (tmp + rename) by a background persister thread,
//! * [`apply`] — the one mutation-application path shared by the live
//!   server and recovery replay (what makes replay ≡ original execution),
//! * [`recovery`] — snapshot load (with fallback to older snapshots on
//!   corruption) plus WAL-tail replay,
//! * [`manager`] — the [`Durability`] handle the server drives: log →
//!   commit → apply → ack, periodic snapshot triggering, counters.
//!
//! Everything is std-only and hand-rolled on the `bytes` crate, like the
//! rest of the workspace; no serde formats are available offline.
//!
//! Every public enum is `#[non_exhaustive]` unless its variants are a
//! closed set on purpose; each such enum carries an `#[expect]` saying
//! why.

#![warn(clippy::exhaustive_enums)]

pub mod apply;
pub mod backend;
pub mod codec;
pub mod crc;
pub mod manager;
pub mod record;
pub mod recovery;
pub mod snapshot;
pub mod wal;

pub use apply::{apply_record, ApplyEffect};
pub use backend::{fs_backend, FsBackend, OpenFile, StorageBackend, StorageFile};
pub use manager::{Durability, DurabilityCounters, DurabilityOptions};
pub use record::WalRecord;
pub use recovery::{recover, recover_on, RecoveredState, RecoveryError, RecoveryReport};
pub use snapshot::EngineSetSnapshot;
pub use wal::{FsyncPolicy, WalError, WalOptions, WalWriter};
