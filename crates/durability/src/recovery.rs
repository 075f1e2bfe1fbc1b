//! Crash recovery: snapshot load + WAL tail replay.
//!
//! [`recover`] rebuilds a `(AdStore, ShardedDriver)` pair from a data
//! directory:
//!
//! 1. load the newest **valid** snapshot (falling back to older files on
//!    corruption; cold start when none exists),
//! 2. replay every WAL record with `lsn >= snapshot.next_lsn` through
//!    [`crate::apply::apply_record`] — the same code path the live
//!    server took, which is what makes the result bit-identical to an
//!    uninterrupted twin,
//! 3. heal a torn final segment by physically truncating it to its valid
//!    prefix, and hand back a [`wal::WalWriter`] positioned at the next
//!    LSN.
//!
//! Corruption in a *non-final* position (a damaged middle segment, a gap
//! in the LSN sequence between segments) is a hard error: those records
//! were acknowledged durable, so silently skipping them would serve
//! wrong budgets.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::indexing_slicing
    )
)]

use std::fs;
use std::io;
use std::path::Path;
use std::sync::Arc;

use adcast_ads::AdStore;
use adcast_core::{EngineConfig, ShardedDriver};
use adcast_stream::cursor::TraceError;

use crate::apply::apply_record;
use crate::backend::{fs_backend, StorageBackend};
use crate::record::WalRecord;
use crate::snapshot::load_latest_on;
use crate::wal::{self, WalError, WalOptions, WalWriter};

/// Why recovery failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum RecoveryError {
    /// Filesystem failure.
    Io(io::Error),
    /// WAL damage that truncation may not heal (non-final segment).
    Wal(WalError),
    /// A CRC-valid record failed to decode — framing and payload disagree.
    Decode {
        /// The record's LSN.
        lsn: u64,
        /// The decode failure.
        error: TraceError,
    },
    /// A decoded record failed to apply (snapshot/WAL mismatch).
    Apply {
        /// The record's LSN.
        lsn: u64,
        /// The application failure.
        error: String,
    },
    /// The snapshot is incompatible with the requested topology, or its
    /// contents fail store validation.
    Snapshot(String),
    /// The log does not reach back to where replay must start: the first
    /// WAL segment begins at `found`, but the snapshot (or, with none, a
    /// cold start) needs every record from `expected` on.
    MissingPrefix {
        /// The LSN replay must start at (`next_lsn` of the snapshot used,
        /// 0 without one).
        expected: u64,
        /// The base LSN of the first WAL segment on disk.
        found: u64,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "recovery io: {e}"),
            RecoveryError::Wal(e) => write!(f, "recovery wal: {e}"),
            RecoveryError::Decode { lsn, error } => {
                write!(f, "wal record {lsn} failed to decode: {error}")
            }
            RecoveryError::Apply { lsn, error } => {
                write!(f, "wal record {lsn} failed to apply: {error}")
            }
            RecoveryError::Snapshot(e) => write!(f, "snapshot: {e}"),
            RecoveryError::MissingPrefix { expected, found } => write!(
                f,
                "wal starts at lsn {found} but replay must start at {expected}: \
                 records {expected}..{found} are missing"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<io::Error> for RecoveryError {
    fn from(e: io::Error) -> Self {
        RecoveryError::Io(e)
    }
}

impl From<WalError> for RecoveryError {
    fn from(e: WalError) -> Self {
        RecoveryError::Wal(e)
    }
}

impl From<crate::snapshot::SnapshotError> for RecoveryError {
    fn from(e: crate::snapshot::SnapshotError) -> Self {
        match e {
            crate::snapshot::SnapshotError::Io(io) => RecoveryError::Io(io),
            crate::snapshot::SnapshotError::Wal(w) => RecoveryError::Wal(w),
        }
    }
}

/// What recovery did (surfaced through server stats and logs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// `next_lsn` of the snapshot used (`None` for a cold start).
    pub snapshot_lsn: Option<u64>,
    /// Newer snapshot files skipped as corrupt before one loaded.
    pub snapshots_skipped: u32,
    /// WAL records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Torn-tail bytes physically truncated from the final segment.
    pub truncated_bytes: u64,
}

/// A recovered serving state, ready to serve.
pub struct RecoveredState {
    /// The store, replayed to the WAL tip.
    pub store: AdStore,
    /// The sharded engines, replayed to the WAL tip.
    pub driver: ShardedDriver,
    /// A writer positioned at the next LSN (fresh segment).
    pub wal: WalWriter,
    /// What happened.
    pub report: RecoveryReport,
}

/// Rebuild serving state from `dir` (see module docs). An empty or
/// missing directory is a cold start: fresh store, fresh engines, a WAL
/// beginning at LSN 0.
///
/// # Errors
///
/// [`RecoveryError`] — see its variants. Never panics, whatever the
/// directory contains.
pub fn recover(
    dir: &Path,
    num_users: u32,
    num_shards: usize,
    config: EngineConfig,
    options: WalOptions,
) -> Result<RecoveredState, RecoveryError> {
    fs::create_dir_all(dir)?;
    recover_on(fs_backend(dir), num_users, num_shards, config, options)
}

/// [`recover`] against an explicit [`StorageBackend`] — the entry point
/// the simulation harness uses to crash-recover an in-memory data dir.
///
/// # Errors
///
/// As [`recover`].
pub fn recover_on(
    backend: Arc<dyn StorageBackend>,
    num_users: u32,
    num_shards: usize,
    config: EngineConfig,
    options: WalOptions,
) -> Result<RecoveredState, RecoveryError> {
    // 1. Snapshot.
    let loaded = load_latest_on(&*backend)?;
    let mut report = RecoveryReport::default();
    let (mut store, mut driver, replay_from) = match loaded {
        Some((snapshot, skipped_corrupt)) => {
            if snapshot.num_users != num_users || snapshot.num_shards as usize != num_shards {
                return Err(RecoveryError::Snapshot(format!(
                    "snapshot topology is {} users × {} shards, requested {num_users} × {num_shards}",
                    snapshot.num_users, snapshot.num_shards
                )));
            }
            report.snapshot_lsn = Some(snapshot.next_lsn);
            report.snapshots_skipped = skipped_corrupt;
            let store = AdStore::from_snapshot(snapshot.store).map_err(RecoveryError::Snapshot)?;
            let mut driver = ShardedDriver::new(num_users, num_shards, config);
            driver
                .restore_snapshots(&snapshot.engines)
                .map_err(RecoveryError::Snapshot)?;
            (store, driver, snapshot.next_lsn)
        }
        None => (
            AdStore::new(),
            ShardedDriver::new(num_users, num_shards, config),
            0,
        ),
    };

    // 2. WAL tail replay. The log must reach back to the replay start:
    // a first segment beginning past it means acked records are gone.
    let segments = wal::list_segment_lsns_on(&*backend)?;
    if let Some(&found) = segments.first() {
        if found > replay_from {
            return Err(RecoveryError::MissingPrefix {
                expected: replay_from,
                found,
            });
        }
    }
    let mut next_lsn = replay_from;
    for (i, &base_lsn) in segments.iter().enumerate() {
        let is_last = i + 1 == segments.len();
        let name = wal::segment_file_name(base_lsn);
        let raw = backend.read(&name).map_err(WalError::Io)?;
        let raw_len = raw.len() as u64;
        let contents = match wal::parse_segment(raw, base_lsn, is_last) {
            Ok(contents) => contents,
            // A *final* segment whose header itself is torn can only be a
            // freshly rotated (or freshly created) segment that crashed
            // before its first commit fsync: any durable record in it
            // would have carried the full header to disk with the same
            // fsync. Nothing in it was ever acked, so drop the file —
            // treating it as damage would brick recovery on a crash
            // window every rotation opens.
            Err(WalError::Header(_)) if is_last => {
                report.truncated_bytes += raw_len;
                backend.remove(&name)?;
                break;
            }
            Err(e) => return Err(e.into()),
        };
        // Cross-segment continuity: every record up to the next segment's
        // base must be present — a short non-final segment that happens to
        // end exactly at a record boundary still lost durable records.
        if let Some(&next_base) = segments.get(i + 1) {
            let end = base_lsn + contents.records.len() as u64;
            if end != next_base {
                return Err(RecoveryError::Wal(WalError::Corrupt {
                    segment: base_lsn,
                    offset: contents.valid_len,
                    what: "segment ends before the next segment's base lsn",
                }));
            }
        }
        // Records below replay_from are already covered by the snapshot
        // but still advance the LSN cursor past them.
        next_lsn = next_lsn.max(base_lsn + contents.records.len() as u64);
        for (lsn, payload) in contents.records {
            if lsn < replay_from {
                continue;
            }
            let record =
                WalRecord::decode(payload).map_err(|error| RecoveryError::Decode { lsn, error })?;
            apply_record(&mut store, &mut driver, record)
                .map_err(|error| RecoveryError::Apply { lsn, error })?;
            report.replayed_records += 1;
        }
        // 3. Heal the torn tail so the next open sees a clean log.
        if is_last && contents.truncated_bytes > 0 {
            report.truncated_bytes = contents.truncated_bytes;
            backend.truncate(&wal::segment_file_name(base_lsn), contents.valid_len)?;
        }
    }

    let wal = WalWriter::create_on(backend, options, next_lsn)?;
    Ok(RecoveredState {
        store,
        driver,
        wal,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::WalRecord;
    use adcast_ads::{AdSubmission, Budget, Targeting};
    use adcast_text::dictionary::TermId;
    use adcast_text::SparseVector;
    use std::io::Write as _;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "adcast-rec-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn submission(term: u32) -> WalRecord {
        WalRecord::Submit(AdSubmission {
            vector: SparseVector::from_pairs([(TermId(term), 1.0)]),
            bid: 1.0,
            targeting: Targeting::everywhere(),
            budget: Budget::unlimited(),
            topic_hint: None,
        })
    }

    fn recover_default(dir: &Path) -> Result<RecoveredState, RecoveryError> {
        recover(
            dir,
            4,
            1,
            adcast_core::EngineConfig::default(),
            WalOptions::default(),
        )
    }

    /// A WAL whose first segment starts at `base`, holding one Submit per
    /// term.
    fn wal_from(dir: &Path, base: u64, terms: &[u32]) {
        let mut wal = WalWriter::create(dir, WalOptions::default(), base).unwrap();
        for &t in terms {
            wal.append(&submission(t)).unwrap();
        }
        wal.commit().unwrap();
    }

    #[test]
    fn log_starting_past_lsn_zero_without_a_snapshot_is_missing_its_prefix() {
        let dir = temp_dir("missing-prefix");
        wal_from(&dir, 3610, &[1, 2]);
        match recover_default(&dir) {
            Err(RecoveryError::MissingPrefix { expected, found }) => {
                assert_eq!((expected, found), (0, 3610));
            }
            Err(e) => panic!("wrong error: {e}"),
            Ok(r) => panic!("recovered {:?} from a log with no prefix", r.report),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_covering_the_log_start_recovers_and_a_gap_does_not() {
        // The snapshot holds LSNs 0..2 (two Submits) and needs replay
        // from 2.
        let mut store = AdStore::new();
        let mut driver = ShardedDriver::new(4, 1, adcast_core::EngineConfig::default());
        for t in [1, 2] {
            apply_record(&mut store, &mut driver, submission(t)).unwrap();
        }
        let snapshot = crate::snapshot::EngineSetSnapshot::capture(2, &store, &driver).encode();

        // First segment base 1 ≤ 2: LSN 1 is skipped (already in the
        // snapshot) and LSN 2 replayed.
        let dir = temp_dir("prefix-covered");
        crate::snapshot::write_snapshot_atomic(&dir, 2, &snapshot).unwrap();
        wal_from(&dir, 1, &[2, 3]);
        let recovered = recover_default(&dir).unwrap();
        assert_eq!(recovered.report.snapshot_lsn, Some(2));
        assert_eq!(recovered.report.replayed_records, 1);
        assert_eq!(recovered.wal.next_lsn(), 3);
        assert!(recovered.store.campaign(adcast_ads::AdId(2)).is_some());
        fs::remove_dir_all(&dir).ok();

        // First segment base 3 > 2: LSN 2 is lost.
        let dir = temp_dir("prefix-gap");
        crate::snapshot::write_snapshot_atomic(&dir, 2, &snapshot).unwrap();
        wal_from(&dir, 3, &[4]);
        assert!(matches!(
            recover_default(&dir),
            Err(RecoveryError::MissingPrefix {
                expected: 2,
                found: 3
            })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_final_segment_header_is_dropped_not_fatal() {
        let dir = temp_dir("torn-header");
        let mut wal = WalWriter::create(&dir, WalOptions::default(), 0).unwrap();
        wal.append(&WalRecord::Submit(AdSubmission {
            vector: SparseVector::from_pairs([(TermId(1), 1.0)]),
            bid: 1.0,
            targeting: Targeting::everywhere(),
            budget: Budget::unlimited(),
            topic_hint: None,
        }))
        .unwrap();
        wal.commit().unwrap();
        drop(wal);

        // A crash right after rotation can leave the next segment with a
        // half-written header: the file name is durable (sync_dir) but no
        // content fsync ever covered it.
        let torn = dir.join(wal::segment_file_name(1));
        let mut f = fs::File::create(&torn).unwrap();
        f.write_all(&wal::WAL_MAGIC[..2]).unwrap();
        drop(f);

        let recovered = recover(
            &dir,
            4,
            1,
            adcast_core::EngineConfig::default(),
            WalOptions::default(),
        )
        .unwrap();
        assert_eq!(recovered.report.replayed_records, 1);
        assert_eq!(recovered.report.truncated_bytes, 2);
        assert_eq!(recovered.wal.next_lsn(), 1);
        assert!(recovered.store.campaign(adcast_ads::AdId(0)).is_some());
        // The returned writer recreated the segment with an intact header.
        assert_eq!(fs::metadata(&torn).unwrap().len(), wal::SEGMENT_HEADER);
        fs::remove_dir_all(&dir).ok();
    }
}
