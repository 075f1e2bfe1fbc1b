//! The [`Durability`] handle a serving layer drives.
//!
//! Lifecycle per mutating RPC on the engine thread:
//!
//! ```text
//! validate → log() every record → commit() → apply → ack
//! ```
//!
//! `commit` failing means the records are **not durable** and the caller
//! must refuse the ack (and not apply). Snapshots are taken at batch
//! boundaries: the engine thread serializes a consistent cut (cheap —
//! memory traversal only) and a background persister thread does the
//! slow part: atomic file write, fsync, pruning. [`Durability::checkpoint`]
//! is the synchronous variant behind the `Checkpoint` RPC; periodic
//! snapshots via [`Durability::maybe_snapshot`] are fire-and-forget.

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

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use adcast_ads::AdStore;
use adcast_core::ShardedDriver;
use adcast_stream::clock::now_ns;
use bytes::Bytes;

use crate::backend::{fs_backend, StorageBackend};
use crate::record::WalRecord;
use crate::recovery::RecoveryReport;
use crate::snapshot::{prune_on, write_snapshot_atomic_on, EngineSetSnapshot, SnapshotError};
use crate::wal::{WalError, WalOptions, WalWriter};

/// Durability subsystem failure, as surfaced to the serving layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum DurabilityError {
    /// The WAL writer failed; logged records are **not durable** and the
    /// caller must refuse the ack.
    Wal(WalError),
    /// A synchronous checkpoint failed to persist its snapshot.
    Snapshot(SnapshotError),
    /// The background persister thread is gone; checkpoints cannot
    /// complete (periodic snapshots degrade to no-ops).
    PersisterDied,
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityError::Wal(e) => write!(f, "durability wal: {e}"),
            DurabilityError::Snapshot(e) => write!(f, "durability snapshot: {e}"),
            DurabilityError::PersisterDied => write!(f, "snapshot persister died"),
        }
    }
}

impl std::error::Error for DurabilityError {}

impl From<WalError> for DurabilityError {
    fn from(e: WalError) -> Self {
        DurabilityError::Wal(e)
    }
}

impl From<SnapshotError> for DurabilityError {
    fn from(e: SnapshotError) -> Self {
        DurabilityError::Snapshot(e)
    }
}

/// Knobs for the durability subsystem.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityOptions {
    /// WAL writer knobs (fsync policy, segment size).
    pub wal: WalOptions,
    /// Take a background snapshot every this many WAL records
    /// (0 disables periodic snapshots; `Checkpoint` still works).
    pub snapshot_every: u64,
    /// Snapshot files to retain (older ones are pruned after each
    /// successful write). At least 1.
    pub keep_snapshots: usize,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            wal: WalOptions::default(),
            snapshot_every: 0,
            keep_snapshots: 2,
        }
    }
}

/// Counters surfaced through the server's `Stats` RPC.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityCounters {
    /// WAL records appended since startup.
    pub wal_records: u64,
    /// WAL bytes appended (framing included).
    pub wal_bytes: u64,
    /// fsync calls issued by the WAL writer.
    pub wal_fsyncs: u64,
    /// Snapshots successfully persisted since startup.
    pub snapshots_written: u64,
    /// WAL records replayed during startup recovery.
    pub recovered_records: u64,
    /// Torn-tail bytes truncated during startup recovery.
    pub recovered_truncated_bytes: u64,
}

struct SnapshotJob {
    bytes: Bytes,
    next_lsn: u64,
    /// `Some` for a synchronous checkpoint; the persister reports the
    /// outcome (the final file name). `None` for fire-and-forget
    /// periodic snapshots.
    ack: Option<Sender<Result<String, SnapshotError>>>,
}

/// WAL writer + background snapshot persister, owned by the engine
/// thread. Dropping it drains pending snapshot jobs and joins the
/// persister.
pub struct Durability {
    wal: WalWriter,
    options: DurabilityOptions,
    records_since_snapshot: u64,
    snapshots_written: Arc<AtomicU64>,
    report: RecoveryReport,
    job_tx: Option<Sender<SnapshotJob>>,
    persister: Option<JoinHandle<()>>,
}

impl Durability {
    /// Wrap a recovered (or fresh) WAL writer and spawn the persister.
    ///
    /// # Panics
    ///
    /// Panics when `keep_snapshots` is 0 or the persister thread cannot
    /// be spawned.
    pub fn new(
        dir: &Path,
        wal: WalWriter,
        options: DurabilityOptions,
        report: RecoveryReport,
    ) -> Durability {
        Durability::new_on(fs_backend(dir), wal, options, report)
    }

    /// [`Durability::new`] against an explicit [`StorageBackend`] — the
    /// simulation harness hands in its in-memory backend here.
    ///
    /// # Panics
    ///
    /// As [`Durability::new`].
    pub fn new_on(
        backend: Arc<dyn StorageBackend>,
        wal: WalWriter,
        options: DurabilityOptions,
        report: RecoveryReport,
    ) -> Durability {
        assert!(options.keep_snapshots > 0, "must keep at least 1 snapshot");
        let snapshots_written = Arc::new(AtomicU64::new(0));
        let (job_tx, job_rx) = mpsc::channel::<SnapshotJob>();
        let snapshot_write_ns = adcast_obs::registry().hist(
            "adcast_durability_snapshot_write_ns",
            "Background persister time per snapshot (atomic write + fsync).",
        );
        let persister = {
            let written = Arc::clone(&snapshots_written);
            let keep = options.keep_snapshots;
            let snapshot_write_ns = snapshot_write_ns.clone();
            #[expect(
                clippy::expect_used,
                reason = "one-time startup spawn, documented under \"# Panics\"; no request is in flight"
            )]
            std::thread::Builder::new()
                .name("adcast-persister".to_owned())
                .spawn(move || {
                    while let Ok(job) = job_rx.recv() {
                        let started = now_ns();
                        let outcome = write_snapshot_atomic_on(&*backend, job.next_lsn, &job.bytes);
                        snapshot_write_ns.record(now_ns().saturating_sub(started));
                        if outcome.is_ok() {
                            written.fetch_add(1, Ordering::Relaxed);
                            // Pruning failures are not fatal: the snapshot
                            // itself is durable, stale files only waste disk.
                            let _ = prune_on(&*backend, job.next_lsn, keep);
                        }
                        if let Some(ack) = job.ack {
                            let _ = ack.send(outcome);
                        }
                    }
                })
                .expect("spawn persister thread")
        };
        Durability {
            wal,
            options,
            records_since_snapshot: 0,
            snapshots_written,
            report,
            job_tx: Some(job_tx),
            persister: Some(persister),
        }
    }

    /// Append one record (buffered; not durable until [`Self::commit`]).
    /// Returns the record's LSN.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Wal`] on append failures (oversized record or
    /// filesystem trouble).
    pub fn log(&mut self, record: &WalRecord) -> Result<u64, DurabilityError> {
        let lsn = self.wal.append(record)?;
        self.records_since_snapshot += 1;
        Ok(lsn)
    }

    /// Group-commit everything logged since the last commit (one fsync
    /// per policy covers the whole group).
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Wal`] on commit failures — the caller must treat
    /// the logged records as not durable and refuse the ack.
    pub fn commit(&mut self) -> Result<(), DurabilityError> {
        self.wal.commit().map_err(DurabilityError::Wal)
    }

    /// Fire-and-forget a periodic snapshot when `snapshot_every` records
    /// have accumulated since the last one. Returns whether a snapshot
    /// was enqueued. Call between batches — the capture walks live
    /// engine state.
    pub fn maybe_snapshot(&mut self, store: &AdStore, driver: &ShardedDriver) -> bool {
        if self.options.snapshot_every == 0
            || self.records_since_snapshot < self.options.snapshot_every
        {
            return false;
        }
        self.enqueue(store, driver, None);
        true
    }

    /// Synchronously snapshot (the `Checkpoint` RPC): commit the WAL,
    /// capture a cut, and block until the persister reports the file
    /// durable. Returns the snapshot's `next_lsn`.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Wal`] on commit failures,
    /// [`DurabilityError::Snapshot`] when the snapshot write fails, and
    /// [`DurabilityError::PersisterDied`] when the persister is gone.
    pub fn checkpoint(
        &mut self,
        store: &AdStore,
        driver: &ShardedDriver,
    ) -> Result<u64, DurabilityError> {
        self.wal.commit()?;
        let (ack_tx, ack_rx) = mpsc::channel();
        let next_lsn = self.enqueue(store, driver, Some(ack_tx));
        match ack_rx.recv() {
            Ok(outcome) => outcome.map(|_| next_lsn).map_err(DurabilityError::Snapshot),
            Err(_) => Err(DurabilityError::PersisterDied),
        }
    }

    fn enqueue(
        &mut self,
        store: &AdStore,
        driver: &ShardedDriver,
        ack: Option<Sender<Result<String, SnapshotError>>>,
    ) -> u64 {
        let next_lsn = self.wal.next_lsn();
        let bytes = EngineSetSnapshot::capture(next_lsn, store, driver).encode();
        self.records_since_snapshot = 0;
        let job = SnapshotJob {
            bytes,
            next_lsn,
            ack,
        };
        if let Some(tx) = &self.job_tx {
            let _ = tx.send(job);
        }
        next_lsn
    }

    /// Current counters (WAL side read directly; snapshot side atomic).
    pub fn counters(&self) -> DurabilityCounters {
        DurabilityCounters {
            wal_records: self.wal.records(),
            wal_bytes: self.wal.bytes(),
            wal_fsyncs: self.wal.fsyncs(),
            snapshots_written: self.snapshots_written.load(Ordering::Relaxed),
            recovered_records: self.report.replayed_records,
            recovered_truncated_bytes: self.report.truncated_bytes,
        }
    }

    /// The startup recovery report.
    pub fn recovery_report(&self) -> RecoveryReport {
        self.report
    }

    /// LSN the next logged record will carry.
    pub fn next_lsn(&self) -> u64 {
        self.wal.next_lsn()
    }
}

impl Drop for Durability {
    fn drop(&mut self) {
        // Closing the channel lets the persister drain pending jobs and
        // exit; joining bounds shutdown on the last in-flight snapshot.
        drop(self.job_tx.take());
        if let Some(join) = self.persister.take() {
            let _ = join.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply_record;
    use crate::recovery::recover;
    use crate::snapshot::list_snapshots;
    use crate::wal::FsyncPolicy;
    use adcast_ads::{AdId, AdSubmission, Budget, Targeting};
    use adcast_core::EngineConfig;
    use adcast_feed::FeedDelta;
    use adcast_graph::UserId;
    use adcast_stream::clock::Timestamp;
    use adcast_stream::event::{LocationId, Message, MessageId};
    use adcast_text::dictionary::TermId;
    use adcast_text::SparseVector;
    use std::fs;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicU64 as SeqU64;
    use std::sync::Arc as StdArc;

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: SeqU64 = SeqU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "adcast-mgr-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn v(pairs: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().map(|&(t, w)| (TermId(t), w)))
    }

    fn delta(term: u32, secs: u64) -> FeedDelta {
        FeedDelta {
            entered: Some(StdArc::new(Message {
                id: MessageId(secs),
                author: UserId(0),
                ts: Timestamp::from_secs(secs),
                location: LocationId(0),
                vector: v(&[(term, 1.0)]),
            })),
            evicted: vec![],
        }
    }

    fn config() -> EngineConfig {
        EngineConfig {
            half_life: None,
            ..Default::default()
        }
    }

    #[test]
    fn periodic_snapshots_fire_and_prune() {
        let dir = temp_dir("periodic");
        let wal = WalWriter::create(
            &dir,
            WalOptions {
                fsync: FsyncPolicy::Off,
                segment_bytes: 1 << 20,
            },
            0,
        )
        .unwrap();
        let options = DurabilityOptions {
            wal: WalOptions {
                fsync: FsyncPolicy::Off,
                segment_bytes: 1 << 20,
            },
            snapshot_every: 4,
            keep_snapshots: 2,
        };
        let mut durability = Durability::new(&dir, wal, options, RecoveryReport::default());
        let mut store = AdStore::new();
        let mut driver = ShardedDriver::new(4, 1, config());
        store
            .submit(AdSubmission {
                vector: v(&[(0, 1.0)]),
                bid: 1.0,
                targeting: Targeting::everywhere(),
                budget: Budget::unlimited(),
                topic_hint: None,
            })
            .unwrap();

        let mut fired = 0;
        for i in 0..20u64 {
            let record = WalRecord::IngestBatch(vec![(UserId((i % 4) as u32), delta(0, i + 1))]);
            durability.log(&record).unwrap();
            durability.commit().unwrap();
            apply_record(&mut store, &mut driver, record).unwrap();
            if durability.maybe_snapshot(&store, &driver) {
                fired += 1;
            }
        }
        assert_eq!(fired, 5, "every=4 over 20 records");
        drop(durability); // joins the persister: all jobs flushed
        let snapshots = list_snapshots(&dir).unwrap();
        assert_eq!(snapshots.len(), 2, "pruned to keep_snapshots");
        assert_eq!(snapshots.last().unwrap().next_lsn, 20);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_blocks_until_durable_and_recovers() {
        let dir = temp_dir("checkpoint");
        let wal = WalWriter::create(&dir, WalOptions::default(), 0).unwrap();
        let mut durability = Durability::new(
            &dir,
            wal,
            DurabilityOptions::default(),
            RecoveryReport::default(),
        );
        let mut store = AdStore::new();
        let mut driver = ShardedDriver::new(4, 1, config());

        let submit = WalRecord::Submit(AdSubmission {
            vector: v(&[(1, 1.0)]),
            bid: 2.0,
            targeting: Targeting::everywhere(),
            budget: Budget::new(5.0),
            topic_hint: None,
        });
        durability.log(&submit).unwrap();
        durability.commit().unwrap();
        apply_record(&mut store, &mut driver, submit).unwrap();

        let lsn = durability.checkpoint(&store, &driver).unwrap();
        assert_eq!(lsn, 1);
        assert!(dir.join(crate::snapshot::snapshot_file_name(lsn)).exists());
        let counters = durability.counters();
        assert_eq!(counters.wal_records, 1);
        assert_eq!(counters.snapshots_written, 1);
        assert!(counters.wal_fsyncs >= 1);
        drop(durability);

        // A restart from this directory sees the campaign without
        // replaying anything (the checkpoint covers the whole log).
        let recovered = recover(&dir, 4, 1, config(), WalOptions::default()).unwrap();
        assert_eq!(recovered.report.snapshot_lsn, Some(1));
        assert_eq!(recovered.report.replayed_records, 0);
        assert!(recovered.store.campaign(AdId(0)).is_some());
        assert_eq!(recovered.wal.next_lsn(), 1);
        fs::remove_dir_all(&dir).ok();
    }
}
