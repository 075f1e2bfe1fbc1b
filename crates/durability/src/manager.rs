//! The [`Durability`] handle a serving layer drives.
//!
//! Lifecycle per mutating RPC on the engine thread:
//!
//! ```text
//! validate → log() every record → commit() → apply → ack
//! ```
//!
//! `commit` failing means the records are **not durable** and the caller
//! must refuse the ack (and not apply). The failure is also a fence: the
//! writer may already hold the refused record, and a later commit would
//! make it durable, so after the first WAL fault every `log` and `commit`
//! fails with it until the process restarts and recovery reads what the
//! disk really holds.
//!
//! Snapshots are taken at batch boundaries: the engine thread captures a
//! consistent cut (a copy of the state, timed by
//! `adcast_durability_snapshot_capture_ns`) and a background persister
//! thread does the slow part: encoding, atomic file write, fsync,
//! read-back, pruning. Each cut also starts a new WAL segment, so the
//! segment the snapshot covers can be pruned instead of being read again
//! at every restart. [`Durability::checkpoint`] is the synchronous
//! variant behind the `Checkpoint` RPC; periodic snapshots via
//! [`Durability::maybe_snapshot`] are fire-and-forget.

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

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use adcast_ads::AdStore;
use adcast_core::ShardedDriver;
use adcast_stream::clock::now_ns;

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
    /// The captured cut; the persister encodes it.
    snapshot: EngineSetSnapshot,
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
    /// The first WAL I/O fault (a failed append, commit or cut rotation).
    /// Once set, the writer may hold a record that was never applied, so
    /// every later log and commit fails with it until restart.
    wal_fault: Option<io::Error>,
    snapshots_written: Arc<AtomicU64>,
    report: RecoveryReport,
    /// Span timing: the engine thread's stall per snapshot cut.
    capture_ns: adcast_obs::Hist,
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
            "Background persister time per snapshot (encode + atomic write + fsync + read-back).",
        );
        let capture_ns = adcast_obs::registry().hist(
            "adcast_durability_snapshot_capture_ns",
            "Engine-thread time per snapshot cut (capture only; the persister encodes).",
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
                    while let Ok(SnapshotJob { snapshot, ack }) = job_rx.recv() {
                        let started = now_ns();
                        let next_lsn = snapshot.next_lsn;
                        let bytes = snapshot.encode();
                        // The capture goes before the write, so the write
                        // and its read-back hold only the image.
                        drop(snapshot);
                        let outcome = write_snapshot_atomic_on(&*backend, next_lsn, &bytes);
                        snapshot_write_ns.record(now_ns().saturating_sub(started));
                        // The write read the file back, so pruning runs
                        // only behind a snapshot that decodes as encoded.
                        if outcome.is_ok() {
                            written.fetch_add(1, Ordering::Relaxed);
                            // Pruning failures are not fatal: the snapshot
                            // itself is durable, stale files only waste disk.
                            let _ = prune_on(&*backend, next_lsn, keep);
                        }
                        if let Some(ack) = ack {
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
            wal_fault: None,
            snapshots_written,
            report,
            capture_ns,
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
    /// filesystem trouble), and after any earlier WAL fault.
    pub fn log(&mut self, record: &WalRecord) -> Result<u64, DurabilityError> {
        self.fenced()?;
        let appended = self.wal.append(record);
        let lsn = self.fence(appended)?;
        self.records_since_snapshot += 1;
        Ok(lsn)
    }

    /// Append a record body exactly as another node encoded and logged it
    /// (a follower taking its primary's shipment), so both logs hold the
    /// same bytes at every LSN. The caller must have decoded `body`.
    ///
    /// # Errors
    ///
    /// As [`Self::log`].
    pub fn log_encoded(&mut self, body: &[u8]) -> Result<u64, DurabilityError> {
        self.fenced()?;
        let appended = self.wal.append_encoded(body);
        let lsn = self.fence(appended)?;
        self.records_since_snapshot += 1;
        Ok(lsn)
    }

    /// The body of the record last logged, byte for byte as the WAL holds
    /// it: what a primary ships instead of encoding the record again.
    pub fn last_logged(&self) -> &[u8] {
        self.wal.last_body()
    }

    /// Group-commit everything logged since the last commit (one fsync
    /// per policy covers the whole group).
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Wal`] on commit failures, and after any earlier
    /// WAL fault (a snapshot cut's failed rotation included) — the caller
    /// must treat the logged records as not durable and refuse the ack.
    /// A retried fsync cannot be trusted, so the fault stands until
    /// restart.
    pub fn commit(&mut self) -> Result<(), DurabilityError> {
        self.fenced()?;
        let committed = self.wal.commit();
        self.fence(committed)
    }

    /// The fence: the stored fault, once one was met.
    fn fenced(&self) -> Result<(), DurabilityError> {
        match &self.wal_fault {
            None => Ok(()),
            Some(fault) => Err(DurabilityError::Wal(WalError::Io(io::Error::new(
                fault.kind(),
                fault.to_string(),
            )))),
        }
    }

    /// Pass `outcome` on, storing its I/O fault as the fence. An
    /// oversized record is refused before it reaches the writer's
    /// buffer, so it fences nothing.
    fn fence<T>(&mut self, outcome: Result<T, WalError>) -> Result<T, DurabilityError> {
        if let Err(WalError::Io(fault)) = &outcome {
            self.wal_fault = Some(io::Error::new(fault.kind(), fault.to_string()));
        }
        outcome.map_err(DurabilityError::Wal)
    }

    /// Fire-and-forget a periodic snapshot when `snapshot_every` records
    /// have accumulated since the last one, starting a new WAL segment at
    /// the cut. Returns whether a snapshot was enqueued. Call between
    /// batches — the capture walks live engine state. Once a WAL fault
    /// stands, no snapshot is taken: the writer's next LSN may count a
    /// record the state never applied.
    pub fn maybe_snapshot(&mut self, store: &AdStore, driver: &ShardedDriver) -> bool {
        if self.options.snapshot_every == 0
            || self.records_since_snapshot < self.options.snapshot_every
            || self.wal_fault.is_some()
        {
            return false;
        }
        // A failed rotation keeps the covered records in the live
        // segment, which pruning then keeps too, so the snapshot still
        // lands. The fault itself (a failed fsync of the outgoing
        // segment, say) is not dropped: it fences the log, and the next
        // write is refused.
        let rotated = self.wal.rotate_if_nonempty();
        let _ = self.fence(rotated);
        self.enqueue(store, driver, None);
        true
    }

    /// Synchronously snapshot (the `Checkpoint` RPC): commit the WAL,
    /// start a new segment, capture a cut, and block until the persister
    /// reports the file durable. Returns the snapshot's `next_lsn`.
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
        self.commit()?;
        let rotated = self.wal.rotate_if_nonempty();
        self.fence(rotated)?;
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
        let started = now_ns();
        let snapshot = EngineSetSnapshot::capture(next_lsn, store, driver);
        self.capture_ns.record(now_ns().saturating_sub(started));
        self.records_since_snapshot = 0;
        let job = SnapshotJob { snapshot, ack };
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

    /// Shut down as dropping does, and return the counters as they stand
    /// once every queued snapshot has been persisted.
    pub fn close(mut self) -> DurabilityCounters {
        self.stop_persister();
        self.counters()
    }

    fn stop_persister(&mut self) {
        // Closing the channel lets the persister drain pending jobs and
        // exit; joining bounds shutdown on the last in-flight snapshot.
        drop(self.job_tx.take());
        if let Some(join) = self.persister.take() {
            let _ = join.join();
        }
    }
}

impl Drop for Durability {
    fn drop(&mut self) {
        self.stop_persister();
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

    /// A disk that flips one byte of the next snapshot renamed into
    /// place once armed.
    struct CorruptingBackend {
        inner: crate::backend::FsBackend,
        armed: std::sync::atomic::AtomicBool,
    }

    impl StorageBackend for CorruptingBackend {
        fn create(&self, name: &str) -> std::io::Result<Box<dyn crate::backend::StorageFile>> {
            self.inner.create(name)
        }
        fn open(&self, name: &str) -> std::io::Result<crate::backend::OpenFile> {
            self.inner.open(name)
        }
        fn list(&self) -> std::io::Result<Vec<String>> {
            self.inner.list()
        }
        fn remove(&self, name: &str) -> std::io::Result<()> {
            self.inner.remove(name)
        }
        fn rename(&self, from: &str, to: &str) -> std::io::Result<()> {
            self.inner.rename(from, to)?;
            if crate::snapshot::parse_snapshot_name(to).is_some()
                && self.armed.swap(false, Ordering::Relaxed)
            {
                let path = self.inner.dir().join(to);
                let mut raw = fs::read(&path)?;
                let mid = raw.len() / 2;
                raw[mid] ^= 0x10;
                fs::write(&path, raw)?;
            }
            Ok(())
        }
        fn truncate(&self, name: &str, len: u64) -> std::io::Result<()> {
            self.inner.truncate(name, len)
        }
        fn sync_dir(&self) -> std::io::Result<()> {
            self.inner.sync_dir()
        }
    }

    fn log_and_apply(
        durability: &mut Durability,
        store: &mut AdStore,
        driver: &mut ShardedDriver,
        record: WalRecord,
    ) {
        durability.log(&record).unwrap();
        durability.commit().unwrap();
        apply_record(store, driver, record).unwrap();
    }

    #[test]
    fn a_snapshot_that_does_not_read_back_prunes_nothing() {
        use crate::recovery::recover_on;
        use crate::snapshot::{list_snapshot_lsns_on, SnapshotError};
        use crate::wal::list_segment_lsns_on;

        let dir = temp_dir("readback");
        let backend = StdArc::new(CorruptingBackend {
            inner: crate::backend::FsBackend::new(&dir),
            armed: std::sync::atomic::AtomicBool::new(false),
        });
        let wal_options = WalOptions {
            fsync: FsyncPolicy::Off,
            segment_bytes: 256,
        };
        let wal = WalWriter::create_on(backend.clone(), wal_options, 0).unwrap();
        let options = DurabilityOptions {
            wal: wal_options,
            snapshot_every: 0,
            keep_snapshots: 1,
        };
        let mut durability =
            Durability::new_on(backend.clone(), wal, options, RecoveryReport::default());
        let (mut store, mut driver) = (AdStore::new(), ShardedDriver::new(4, 1, config()));
        let submit = WalRecord::Submit(AdSubmission {
            vector: v(&[(0, 1.0)]),
            bid: 1.0,
            targeting: Targeting::everywhere(),
            budget: Budget::unlimited(),
            topic_hint: None,
        });
        log_and_apply(&mut durability, &mut store, &mut driver, submit);
        let ingest =
            |i: u64| WalRecord::IngestBatch(vec![(UserId((i % 4) as u32), delta(0, i + 1))]);
        for i in 0..12 {
            log_and_apply(&mut durability, &mut store, &mut driver, ingest(i));
        }
        let good = durability.checkpoint(&store, &driver).unwrap();
        for i in 12..24 {
            log_and_apply(&mut durability, &mut store, &mut driver, ingest(i));
        }
        let segments = list_segment_lsns_on(&*backend).unwrap();
        assert!(
            segments.len() > 2,
            "the log must span segments: {segments:?}"
        );

        // The disk corrupts the next snapshot: the checkpoint fails, the
        // bad file is gone, and not one snapshot or segment was pruned.
        backend.armed.store(true, Ordering::Relaxed);
        let Err(DurabilityError::Snapshot(SnapshotError::ReadBack(_))) =
            durability.checkpoint(&store, &driver)
        else {
            panic!("a snapshot that does not read back must fail the checkpoint");
        };
        assert_eq!(list_segment_lsns_on(&*backend).unwrap(), segments);
        assert_eq!(list_snapshot_lsns_on(&*backend).unwrap(), vec![good]);
        assert_eq!(durability.counters().snapshots_written, 1);
        for i in 24..30 {
            log_and_apply(&mut durability, &mut store, &mut driver, ingest(i));
        }
        let tip = durability.next_lsn();
        drop(durability);

        // Recovery falls back to the older snapshot plus the WAL and
        // lands on the live state byte for byte.
        let recovered = recover_on(backend, 4, 1, config(), wal_options).unwrap();
        assert_eq!(recovered.report.snapshot_lsn, Some(good));
        assert_eq!(recovered.report.replayed_records, tip - good);
        assert_eq!(
            EngineSetSnapshot::capture(tip, &recovered.store, &recovered.driver).encode(),
            EngineSetSnapshot::capture(tip, &store, &driver).encode()
        );
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

    #[test]
    fn a_checkpoint_starts_a_segment_and_prunes_the_covered_one() {
        use crate::wal::list_segment_lsns_on;

        let dir = temp_dir("cut");
        let backend = fs_backend(&dir);
        let wal_options = WalOptions {
            fsync: FsyncPolicy::Off,
            ..WalOptions::default()
        };
        let wal = WalWriter::create_on(Arc::clone(&backend), wal_options, 0).unwrap();
        let options = DurabilityOptions {
            wal: wal_options,
            ..DurabilityOptions::default()
        };
        let mut durability = Durability::new_on(
            Arc::clone(&backend),
            wal,
            options,
            RecoveryReport::default(),
        );
        let (mut store, mut driver) = (AdStore::new(), ShardedDriver::new(4, 1, config()));
        let submit = WalRecord::Submit(AdSubmission {
            vector: v(&[(0, 1.0)]),
            bid: 1.0,
            targeting: Targeting::everywhere(),
            budget: Budget::unlimited(),
            topic_hint: None,
        });
        log_and_apply(&mut durability, &mut store, &mut driver, submit);
        for i in 0..8u64 {
            let record = WalRecord::IngestBatch(vec![(UserId((i % 4) as u32), delta(0, i + 1))]);
            log_and_apply(&mut durability, &mut store, &mut driver, record);
        }
        let cut = durability.checkpoint(&store, &driver).unwrap();
        assert_eq!(cut, 9);
        drop(durability);

        // The snapshot covers the whole log, so the one segment left is
        // the empty one the cut started.
        assert_eq!(list_segment_lsns_on(&*backend).unwrap(), vec![cut]);
        let recovered = crate::recovery::recover_on(backend, 4, 1, config(), wal_options).unwrap();
        assert_eq!(recovered.report.snapshot_lsn, Some(cut));
        assert_eq!(recovered.report.replayed_records, 0);
        assert_eq!(
            EngineSetSnapshot::capture(cut, &recovered.store, &recovered.driver).encode(),
            EngineSetSnapshot::capture(cut, &store, &driver).encode()
        );
        fs::remove_dir_all(&dir).ok();
    }

    /// A disk whose next fsync fails once armed.
    struct FailingSyncBackend {
        inner: crate::backend::FsBackend,
        armed: StdArc<std::sync::atomic::AtomicBool>,
    }

    struct FailingSyncFile {
        inner: Box<dyn crate::backend::StorageFile>,
        armed: StdArc<std::sync::atomic::AtomicBool>,
    }

    impl std::io::Write for FailingSyncFile {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.inner.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }
    }

    impl crate::backend::StorageFile for FailingSyncFile {
        fn sync_data(&mut self) -> std::io::Result<()> {
            if self.armed.swap(false, Ordering::Relaxed) {
                return Err(std::io::Error::other("injected fsync failure"));
            }
            self.inner.sync_data()
        }
    }

    impl StorageBackend for FailingSyncBackend {
        fn create(&self, name: &str) -> std::io::Result<Box<dyn crate::backend::StorageFile>> {
            let inner = self.inner.create(name)?;
            let armed = StdArc::clone(&self.armed);
            Ok(Box::new(FailingSyncFile { inner, armed }))
        }
        fn open(&self, name: &str) -> std::io::Result<crate::backend::OpenFile> {
            self.inner.open(name)
        }
        fn list(&self) -> std::io::Result<Vec<String>> {
            self.inner.list()
        }
        fn remove(&self, name: &str) -> std::io::Result<()> {
            self.inner.remove(name)
        }
        fn rename(&self, from: &str, to: &str) -> std::io::Result<()> {
            self.inner.rename(from, to)
        }
        fn truncate(&self, name: &str, len: u64) -> std::io::Result<()> {
            self.inner.truncate(name, len)
        }
        fn sync_dir(&self) -> std::io::Result<()> {
            self.inner.sync_dir()
        }
    }

    #[test]
    fn a_failed_fsync_at_a_periodic_cut_fails_the_next_commit() {
        let dir = temp_dir("cutfault");
        let armed = StdArc::new(std::sync::atomic::AtomicBool::new(false));
        let backend = StdArc::new(FailingSyncBackend {
            inner: crate::backend::FsBackend::new(&dir),
            armed: StdArc::clone(&armed),
        });
        let wal_options = WalOptions {
            fsync: FsyncPolicy::Off,
            ..WalOptions::default()
        };
        let wal = WalWriter::create_on(backend.clone(), wal_options, 0).unwrap();
        let options = DurabilityOptions {
            wal: wal_options,
            snapshot_every: 2,
            keep_snapshots: 1,
        };
        let mut durability =
            Durability::new_on(backend.clone(), wal, options, RecoveryReport::default());
        let (mut store, mut driver) = (AdStore::new(), ShardedDriver::new(4, 1, config()));
        for i in 0..2u64 {
            let record = WalRecord::IngestBatch(vec![(UserId((i % 4) as u32), delta(0, i + 1))]);
            log_and_apply(&mut durability, &mut store, &mut driver, record);
        }
        // Under `Off` no commit has synced yet, so the cut's rotation
        // issues the first fsync, and it fails.
        armed.store(true, Ordering::Relaxed);
        assert!(durability.maybe_snapshot(&store, &driver));
        assert!(!armed.load(Ordering::Relaxed), "the rotation synced");
        // The fault fences the log until restart: nothing more is
        // logged, and every commit fails.
        let next_lsn = durability.next_lsn();
        let record = WalRecord::IngestBatch(vec![(UserId(0), delta(0, 9))]);
        assert!(
            matches!(durability.log(&record), Err(DurabilityError::Wal(_))),
            "the cut's fsync failure refuses the next log"
        );
        for _ in 0..2 {
            assert!(
                matches!(durability.commit(), Err(DurabilityError::Wal(_))),
                "the cut's fsync failure fails every later commit"
            );
        }
        assert_eq!(durability.next_lsn(), next_lsn);
        drop(durability);
        fs::remove_dir_all(&dir).ok();
    }
}
