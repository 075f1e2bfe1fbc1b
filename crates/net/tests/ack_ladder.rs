//! The replication ack ladder, by behaviour (DESIGN §14).
//!
//! A primary logs and commits a mutation before it applies it, applies it
//! before it ships it, and ships nothing it could not commit; a follower
//! commits a shipment before it applies it and acks only what it
//! committed. Each node here runs on a disk whose next `sync_data` can be
//! made to fail, and the primary ships into a sink that checks, when it
//! is called, that the record is already durable and already applied.

use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use adcast_ads::AdStore;
use adcast_core::{EngineConfig, ShardedDriver};
use adcast_durability::recovery::RecoveryReport;
use adcast_durability::{
    Durability, DurabilityOptions, EngineSetSnapshot, FsBackend, OpenFile, StorageBackend,
    StorageFile, WalOptions, WalRecord, WalWriter,
};
use adcast_feed::FeedDelta;
use adcast_graph::UserId;
use adcast_net::{
    ClusterConfig, ClusterState, Node, NodeRole, ReplicateError, ReplicationSink, Request,
    Response, WireError,
};
use adcast_obs::tracestore::{trace_id_for, tracestore, SpanKind, TraceContext};
use adcast_stream::clock::{now_ns, Timestamp};
use adcast_stream::event::{LocationId, Message, MessageId};
use adcast_text::dictionary::TermId;
use adcast_text::SparseVector;
use bytes::Bytes;

const USERS: u32 = 8;

/// What the disk shares with the test: a switch that fails the next
/// `sync_data`, and how many bytes of the live file the last successful
/// one made durable.
#[derive(Default)]
struct DiskState {
    fail_next_sync: AtomicBool,
    synced: AtomicU64,
}

/// A real directory whose files report their durable length and whose
/// fsync fails on demand.
struct FlakyDisk {
    inner: FsBackend,
    state: Arc<DiskState>,
}

struct FlakyFile {
    inner: Box<dyn StorageFile>,
    written: u64,
    state: Arc<DiskState>,
}

impl Write for FlakyFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl StorageFile for FlakyFile {
    fn sync_data(&mut self) -> io::Result<()> {
        if self.state.fail_next_sync.swap(false, Ordering::SeqCst) {
            return Err(io::Error::other("injected fsync failure"));
        }
        self.inner.sync_data()?;
        self.state.synced.store(self.written, Ordering::SeqCst);
        Ok(())
    }
}

impl StorageBackend for FlakyDisk {
    fn create(&self, name: &str) -> io::Result<Box<dyn StorageFile>> {
        Ok(Box::new(FlakyFile {
            inner: self.inner.create(name)?,
            written: 0,
            state: Arc::clone(&self.state),
        }))
    }
    fn open(&self, name: &str) -> io::Result<OpenFile> {
        self.inner.open(name)
    }
    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }
    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }
    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(name, len)
    }
    fn sync_dir(&self) -> io::Result<()> {
        self.inner.sync_dir()
    }
}

/// The bytes of the one WAL segment that the last successful fsync made
/// durable (no test here writes enough to rotate).
fn durable_wal(disk: &FsBackend, state: &DiskState) -> Vec<u8> {
    let names = disk.list().unwrap();
    let [segment] = names.as_slice() else {
        panic!("expected one WAL segment, found {names:?}");
    };
    let mut bytes = Vec::new();
    disk.open(segment)
        .unwrap()
        .reader
        .read_to_end(&mut bytes)
        .unwrap();
    bytes.truncate(usize::try_from(state.synced.load(Ordering::SeqCst)).unwrap());
    bytes
}

/// A sink that checks each shipment against the primary's disk and trace
/// when it is handed one, and counts what it was handed.
struct CheckingSink {
    disk: FsBackend,
    state: Arc<DiskState>,
    shipped: Arc<AtomicU64>,
}

impl ReplicationSink for CheckingSink {
    fn replicate(
        &mut self,
        _epoch: u64,
        trace: TraceContext,
        entries: &[(u64, Bytes)],
    ) -> Result<u64, ReplicateError> {
        let durable = durable_wal(&self.disk, &self.state);
        for (lsn, payload) in entries {
            assert!(
                durable.windows(payload.len()).any(|w| w == &payload[..]),
                "lsn {lsn} was shipped before its WAL commit made it durable"
            );
        }
        let kinds: Vec<SpanKind> = tracestore()
            .trace(trace.trace_id)
            .iter()
            .map(|s| s.kind)
            .collect();
        assert!(
            kinds.contains(&SpanKind::WalCommit) && kinds.contains(&SpanKind::EngineApply),
            "shipped before the local commit and apply finished: spans so far {kinds:?}"
        );
        self.shipped
            .fetch_add(entries.len() as u64, Ordering::SeqCst);
        Ok(entries.last().map_or(0, |(lsn, _)| lsn + 1))
    }

    fn install(&mut self, _epoch: u64, _snapshot: Bytes) -> Result<u64, ReplicateError> {
        panic!("a follower that acks every shipment never needs a snapshot");
    }
}

struct Harness {
    node: Node,
    state: Arc<DiskState>,
    shipped: Arc<AtomicU64>,
    dir: PathBuf,
}

impl Drop for Harness {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// A node of `cluster`'s role at epoch 1 of partition 0, durable on a
/// fresh flaky disk; a primary ships into a [`CheckingSink`].
fn harness(tag: &str, cluster: ClusterState) -> Harness {
    let dir = std::env::temp_dir().join(format!("adcast-ladder-{tag}-{}", std::process::id()));
    let disk = FsBackend::new(&dir);
    let state = Arc::new(DiskState::default());
    let backend: Arc<dyn StorageBackend> = Arc::new(FlakyDisk {
        inner: disk.clone(),
        state: Arc::clone(&state),
    });
    let wal = WalWriter::create_on(Arc::clone(&backend), WalOptions::default(), 0).unwrap();
    let durability = Durability::new_on(
        backend,
        wal,
        DurabilityOptions::default(),
        RecoveryReport::default(),
    );
    let shipped = Arc::new(AtomicU64::new(0));
    let sink = (cluster.role == NodeRole::Primary).then(|| {
        Box::new(CheckingSink {
            disk,
            state: Arc::clone(&state),
            shipped: Arc::clone(&shipped),
        }) as Box<dyn ReplicationSink>
    });
    let driver = ShardedDriver::new(
        USERS,
        1,
        EngineConfig {
            half_life: None,
            ..EngineConfig::default()
        },
    );
    let node = Node::new(
        AdStore::new(),
        driver,
        Some(durability),
        ClusterConfig {
            state: cluster,
            sink,
            replica: None,
        },
    );
    Harness {
        node,
        state,
        shipped,
        dir,
    }
}

fn deltas(user: u32, secs: u64) -> Vec<(UserId, FeedDelta)> {
    let message = Message {
        id: MessageId(secs),
        author: UserId(0),
        ts: Timestamp::from_secs(secs),
        location: LocationId(0),
        vector: SparseVector::from_pairs([(TermId(3), 1.0)]),
    };
    vec![(
        UserId(user),
        FeedDelta {
            entered: Some(Arc::new(message)),
            evicted: vec![],
        },
    )]
}

/// A routed Ingest at epoch 1 of partition 0 under a sampled trace.
fn routed_ingest(deltas: Vec<(UserId, FeedDelta)>, trace_ordinal: u64) -> Request {
    Request::Routed {
        partition: 0,
        epoch: 1,
        trace: TraceContext {
            trace_id: trace_id_for(0xACC_1ADD, trace_ordinal),
            parent_span_id: 0,
        },
        inner: Box::new(Request::Ingest { deltas }),
    }
}

/// The node's whole serving state (store and every engine), as bytes.
fn state_of(node: &Node) -> Bytes {
    EngineSetSnapshot::capture(0, node.store(), node.driver()).encode()
}

#[test]
fn a_primary_whose_commit_fails_refuses_applies_nothing_and_ships_nothing() {
    let mut h = harness("primary-fail", ClusterState::primary(0, 1));
    let before = state_of(&h.node);
    h.state.fail_next_sync.store(true, Ordering::SeqCst);
    let reply = h.node.handle(routed_ingest(deltas(1, 10), 1), now_ns());
    assert_eq!(reply, Response::Error(WireError::Unavailable));
    assert!(
        !h.state.fail_next_sync.load(Ordering::SeqCst),
        "the commit never reached the disk's fsync"
    );
    assert_eq!(
        state_of(&h.node),
        before,
        "a refused write changed the store or an engine"
    );
    assert_eq!(
        h.shipped.load(Ordering::SeqCst),
        0,
        "a refused write was shipped"
    );
}

#[test]
fn a_primary_ships_only_what_it_committed_and_applied() {
    let mut h = harness("primary-ok", ClusterState::primary(0, 1));
    for (n, user) in [2u32, 5, 2].into_iter().enumerate() {
        let before = state_of(&h.node);
        let reply = h.node.handle(
            routed_ingest(deltas(user, 20 + n as u64), 100 + n as u64),
            now_ns(),
        );
        assert_eq!(reply, Response::Ingested { accepted: 1 });
        assert_ne!(state_of(&h.node), before, "an acked write was not applied");
        assert_eq!(h.shipped.load(Ordering::SeqCst), n as u64 + 1);
    }
    let lsns = h.node.durability().map(Durability::next_lsn);
    assert_eq!(lsns, Some(3));
}

#[test]
fn a_follower_whose_commit_fails_neither_acks_nor_applies() {
    let mut h = harness("follower-fail", ClusterState::follower(0, 1));
    let before = state_of(&h.node);
    let record = WalRecord::IngestBatch(deltas(3, 30));
    h.state.fail_next_sync.store(true, Ordering::SeqCst);
    let reply = h.node.handle(
        Request::ReplAppend {
            partition: 0,
            epoch: 1,
            trace: TraceContext::NONE,
            entries: vec![(0, record.encode())],
        },
        now_ns(),
    );
    assert!(
        matches!(reply, Response::Error(_)),
        "a follower acked a shipment it could not commit: {reply:?}"
    );
    assert!(
        !h.state.fail_next_sync.load(Ordering::SeqCst),
        "the commit never reached the disk's fsync"
    );
    assert_eq!(
        state_of(&h.node),
        before,
        "a follower applied what it could not commit"
    );
}

#[test]
fn a_failed_commit_fences_every_later_write_until_restart() {
    let mut h = harness("primary-fence", ClusterState::primary(0, 1));
    h.state.fail_next_sync.store(true, Ordering::SeqCst);
    let reply = h.node.handle(routed_ingest(deltas(1, 10), 200), now_ns());
    assert_eq!(reply, Response::Error(WireError::Unavailable));
    // The refused record may sit in the WAL writer: a later commit would
    // make it durable, so the disk working again must not matter.
    let next_lsn = h.node.durability().map(Durability::next_lsn);
    let before = state_of(&h.node);
    let reply = h.node.handle(routed_ingest(deltas(2, 11), 201), now_ns());
    assert_eq!(
        reply,
        Response::Error(WireError::Unavailable),
        "a write after a failed commit was acked"
    );
    assert_eq!(
        h.node.durability().map(Durability::next_lsn),
        next_lsn,
        "a write after a failed commit was logged"
    );
    assert_eq!(
        state_of(&h.node),
        before,
        "a write after a failed commit was applied"
    );
    assert_eq!(
        h.shipped.load(Ordering::SeqCst),
        0,
        "a refused write was shipped"
    );
    // Reads are still served.
    let read = Request::Routed {
        partition: 0,
        epoch: 1,
        trace: TraceContext::NONE,
        inner: Box::new(Request::Recommend {
            user: UserId(1),
            now: Timestamp::from_secs(12),
            location: LocationId(0),
            k: 5,
        }),
    };
    let reply = h.node.handle(read, now_ns());
    assert!(
        matches!(reply, Response::Recommendations(_)),
        "a fenced node stopped serving reads: {reply:?}"
    );
}
