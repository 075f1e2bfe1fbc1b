//! Primary/backup WAL replication core (transport-free).
//!
//! One partition is served by a **primary** and mirrored by a
//! **follower**. The primary's ack ladder per mutating RPC is
//!
//! ```text
//! validate → log → commit (local fsync) → apply → replicate
//!          → follower durable ack → ack client
//! ```
//!
//! so a client-acked delta is durable on two nodes (or the primary is
//! explicitly in *degraded* mode — follower unreachable — and acks
//! local-durable only, with the counters below saying so). The follower
//! logs **and applies** every replicated record through the same
//! [`apply_record`] path as the primary, so it is a hot standby:
//! promotion is an epoch bump, not a replay.
//!
//! **Epoch fencing.** Every routed frame and replication RPC carries the
//! sender's epoch; any mismatch with the node's own epoch is refused
//! with the typed [`WireError::StaleEpoch`] carrying the node's current
//! epoch. Promotion bumps the follower's epoch, so a deposed primary's
//! next `ReplAppend` is refused — it fences itself and stops acking.
//!
//! **LSN alignment.** The follower's own WAL assigns LSNs sequentially;
//! [`replica_append`] refuses a batch that does not continue the local
//! sequence with [`ReplicaError::LsnGap`], and the primary falls back to
//! [`install_snapshot_on`] — full-state transfer that also serves
//! rejoining or rebalanced nodes.
//!
//! This module is deliberately transport-free: [`crate::node::Node`] runs
//! the ladder on it, the TCP sink lives in `adcast-cluster`, and the
//! simulation harness ships between `Node`s in-process.

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

use std::sync::Arc;

use adcast_ads::AdStore;
use adcast_core::{EngineConfig, ShardedDriver};
use adcast_durability::manager::DurabilityError;
use adcast_durability::recovery::RecoveryReport;
use adcast_durability::snapshot::{prune_on, write_snapshot_atomic_on};
use adcast_durability::wal::{list_segment_lsns_on, segment_file_name};
use adcast_durability::{
    apply_record, Durability, DurabilityOptions, EngineSetSnapshot, StorageBackend, WalError,
    WalRecord, WalWriter,
};
use adcast_obs::tracestore::{tracestore, SpanKind, TraceContext};
use adcast_obs::{Counter, Gauge, Hist};
use adcast_stream::clock::now_ns;
use adcast_stream::cursor::TraceError;
use bytes::Bytes;

use crate::protocol::{NodeRole, WireError};

/// A node's view of its own place in the cluster. The engine thread owns
/// it; the router is the epoch authority and changes it only through the
/// `Promote` RPC.
#[derive(Debug, Clone)]
pub struct ClusterState {
    /// Current role.
    pub role: NodeRole,
    /// Partition this node owns (primary) or mirrors (follower).
    pub partition: u16,
    /// Epoch this node holds; bumped by promotion.
    pub epoch: u64,
    /// A fenced stale primary refuses all writes until re-enrolled.
    pub fenced: bool,
    /// Primary whose follower is unreachable: acks are local-durable
    /// only until the follower answers again.
    pub degraded: bool,
}

impl Default for ClusterState {
    fn default() -> Self {
        ClusterState::standalone()
    }
}

impl ClusterState {
    /// Not in a cluster (the default for `adcast-serve`).
    #[must_use]
    pub fn standalone() -> ClusterState {
        ClusterState {
            role: NodeRole::Standalone,
            partition: 0,
            epoch: 0,
            fenced: false,
            degraded: false,
        }
    }

    /// A partition primary at `epoch`.
    #[must_use]
    pub fn primary(partition: u16, epoch: u64) -> ClusterState {
        ClusterState {
            role: NodeRole::Primary,
            partition,
            epoch,
            fenced: false,
            degraded: false,
        }
    }

    /// A partition follower at `epoch`.
    #[must_use]
    pub fn follower(partition: u16, epoch: u64) -> ClusterState {
        ClusterState {
            role: NodeRole::Follower,
            partition,
            epoch,
            fenced: false,
            degraded: false,
        }
    }

    /// Admission check for a `Routed` client envelope or a replication
    /// RPC: partition must match and epoch must be current (a fenced
    /// node refuses regardless).
    ///
    /// # Errors
    ///
    /// [`WireError::WrongPartition`] / [`WireError::StaleEpoch`].
    pub fn admit(&self, partition: u16, epoch: u64) -> Result<(), WireError> {
        if partition != self.partition {
            return Err(WireError::WrongPartition {
                expected: self.partition,
            });
        }
        if epoch != self.epoch || self.fenced {
            return Err(WireError::StaleEpoch {
                current: self.epoch,
            });
        }
        Ok(())
    }
}

/// Promote a node to primary of `partition` under a strictly higher
/// epoch. Idempotent: re-promoting an already-primary node at the epoch
/// it holds is a no-op success, so the router can safely retry.
///
/// # Errors
///
/// [`WireError::WrongPartition`] when the partition is not this node's;
/// [`WireError::StaleEpoch`] when `epoch` does not exceed the held one
/// (except the idempotent re-promote above).
pub fn promote(state: &mut ClusterState, partition: u16, epoch: u64) -> Result<(), WireError> {
    if partition != state.partition {
        return Err(WireError::WrongPartition {
            expected: state.partition,
        });
    }
    if epoch == state.epoch && state.role == NodeRole::Primary && !state.fenced {
        return Ok(());
    }
    if epoch <= state.epoch {
        return Err(WireError::StaleEpoch {
            current: state.epoch,
        });
    }
    state.epoch = epoch;
    state.role = NodeRole::Primary;
    state.fenced = false;
    // A freshly promoted primary has no follower of its own yet; it
    // serves degraded (local-durable acks) until one is enrolled.
    state.degraded = true;
    Ok(())
}

/// Why a replica-side operation failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum ReplicaError {
    /// The batch does not continue the local LSN sequence; the sender
    /// must fall back to snapshot transfer.
    LsnGap {
        /// LSN the replica expected next.
        expected: u64,
    },
    /// A shipped record or snapshot failed to decode.
    Corrupt(TraceError),
    /// The local WAL refused to log/commit; nothing was acked.
    Durability(DurabilityError),
    /// WAL file management failed during snapshot install.
    Wal(WalError),
    /// Snapshot contents failed store/driver validation.
    State(String),
    /// A committed record failed to apply (replica and primary have
    /// diverged — fatal for this replica).
    Apply(String),
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::LsnGap { expected } => {
                write!(f, "replication lsn gap (expected {expected})")
            }
            ReplicaError::Corrupt(e) => write!(f, "corrupt replicated payload: {e}"),
            ReplicaError::Durability(e) => write!(f, "replica durability: {e}"),
            ReplicaError::Wal(e) => write!(f, "replica wal: {e}"),
            ReplicaError::State(e) => write!(f, "snapshot state: {e}"),
            ReplicaError::Apply(e) => write!(f, "replica apply: {e}"),
        }
    }
}

impl std::error::Error for ReplicaError {}

impl ReplicaError {
    /// The wire-level refusal this failure travels as.
    #[must_use]
    pub fn to_wire(&self) -> WireError {
        match self {
            ReplicaError::LsnGap { expected } => WireError::LsnGap {
                expected: *expected,
            },
            ReplicaError::Corrupt(e) => WireError::BadRequest(format!("corrupt payload: {e}")),
            ReplicaError::State(e) => WireError::BadRequest(e.clone()),
            ReplicaError::Durability(_) | ReplicaError::Wal(_) | ReplicaError::Apply(_) => {
                WireError::Unavailable
            }
        }
    }
}

/// Follower side of `ReplAppend`: check LSN continuity, decode, log,
/// group-commit (one fsync for the batch), then apply every record
/// through the shared [`apply_record`] path — the hot-standby discipline
/// that makes promotion instant. Returns the new highest durable LSN
/// count (`next_lsn` after the batch).
///
/// All-or-nothing: continuity and decode are checked for the whole batch
/// before the first byte is logged, so a refused batch leaves no partial
/// state.
///
/// A sampled `trace` (parented on the node-local queue-wait span) records
/// the follower half of the ack ladder — a `follower_commit` span over the
/// log + group-commit and a `follower_apply` span over the apply loop —
/// into the process-wide [`tracestore`].
///
/// # Errors
///
/// [`ReplicaError`] — see its variants.
pub fn replica_append(
    durability: &mut Durability,
    store: &mut AdStore,
    driver: &mut ShardedDriver,
    trace: TraceContext,
    entries: &[(u64, Bytes)],
) -> Result<u64, ReplicaError> {
    let mut records = Vec::with_capacity(entries.len());
    for (expected, (lsn, payload)) in (durability.next_lsn()..).zip(entries.iter()) {
        if *lsn != expected {
            return Err(ReplicaError::LsnGap {
                expected: durability.next_lsn(),
            });
        }
        records.push(WalRecord::decode(payload.clone()).map_err(ReplicaError::Corrupt)?);
    }
    let salt = 0;
    let commit_started = now_ns();
    for record in &records {
        durability.log(record).map_err(ReplicaError::Durability)?;
    }
    durability.commit().map_err(ReplicaError::Durability)?;
    tracestore().record(
        trace,
        SpanKind::FollowerCommit,
        salt,
        commit_started,
        now_ns().saturating_sub(commit_started),
    );
    let trace = trace.child(SpanKind::FollowerCommit, salt);
    let apply_started = now_ns();
    for record in records {
        apply_record(store, driver, record).map_err(ReplicaError::Apply)?;
    }
    tracestore().record(
        trace,
        SpanKind::FollowerApply,
        salt,
        apply_started,
        now_ns().saturating_sub(apply_started),
    );
    Ok(durability.next_lsn())
}

/// Everything a replica-enabled node needs to rebuild itself from a
/// shipped snapshot: its storage backend, durability knobs, and the
/// engine configuration (topology comes from the snapshot itself).
pub struct ReplicaSetup {
    /// The node's storage backend (data directory or simulated disk).
    pub backend: Arc<dyn StorageBackend>,
    /// WAL/snapshot knobs for the rebuilt [`Durability`].
    pub options: DurabilityOptions,
    /// Engine configuration for the rebuilt driver (must match the
    /// primary's, or recommendations diverge).
    pub engine: EngineConfig,
}

/// Install a shipped [`EngineSetSnapshot`] wholesale: persist the image,
/// discard the local WAL, and rebuild `(store, driver, durability)` with
/// the WAL restarting at the snapshot's `next_lsn`. The image is made
/// durable *before* the old WAL is removed, so a crash anywhere in
/// between recovers to either the old state or the new — never neither.
///
/// # Errors
///
/// [`ReplicaError`] — decode, validation, or file-management failures
/// leave the previous on-disk state recoverable.
pub fn install_snapshot_on(
    setup: &ReplicaSetup,
    snapshot: Bytes,
) -> Result<(AdStore, ShardedDriver, Durability), ReplicaError> {
    let decoded = EngineSetSnapshot::decode(snapshot.clone()).map_err(ReplicaError::Corrupt)?;
    let next_lsn = decoded.next_lsn;
    let store = AdStore::from_snapshot(decoded.store).map_err(ReplicaError::State)?;
    let mut driver = ShardedDriver::new(
        decoded.num_users,
        decoded.num_shards as usize,
        setup.engine.clone(),
    );
    driver
        .restore_snapshots(&decoded.engines)
        .map_err(ReplicaError::State)?;
    write_snapshot_atomic_on(&*setup.backend, next_lsn, &snapshot)
        .map_err(|e| ReplicaError::State(e.to_string()))?;
    // Pruning failures only waste disk; the install itself is durable.
    let _ = prune_on(
        &*setup.backend,
        next_lsn,
        setup.options.keep_snapshots.max(1),
    );
    for base in list_segment_lsns_on(&*setup.backend).map_err(ReplicaError::Wal)? {
        setup
            .backend
            .remove(&segment_file_name(base))
            .map_err(|e| ReplicaError::Wal(WalError::Io(e)))?;
    }
    let wal = WalWriter::create_on(Arc::clone(&setup.backend), setup.options.wal, next_lsn)
        .map_err(ReplicaError::Wal)?;
    let report = RecoveryReport {
        snapshot_lsn: Some(next_lsn),
        ..RecoveryReport::default()
    };
    let durability = Durability::new_on(Arc::clone(&setup.backend), wal, setup.options, report);
    Ok((store, driver, durability))
}

/// Why the primary's shipping attempt failed, as reported by a
/// [`ReplicationSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReplicateError {
    /// The follower holds a higher epoch: this primary is deposed and
    /// must fence itself.
    Fenced {
        /// Epoch the follower holds.
        current: u64,
    },
    /// The follower's WAL is not at the shipped LSN; fall back to
    /// snapshot transfer.
    LsnGap {
        /// LSN the follower expected.
        expected: u64,
    },
    /// The follower did not answer (connect/RPC failures after the
    /// sink's own retries): enter degraded mode.
    Unreachable,
}

impl std::fmt::Display for ReplicateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicateError::Fenced { current } => {
                write!(f, "fenced by follower at epoch {current}")
            }
            ReplicateError::LsnGap { expected } => {
                write!(f, "follower expects lsn {expected}")
            }
            ReplicateError::Unreachable => write!(f, "follower unreachable"),
        }
    }
}

impl std::error::Error for ReplicateError {}

impl ReplicateError {
    /// The sink error a follower's wire refusal means to the primary: a
    /// stale epoch fences it, an LSN gap asks for snapshot transfer, and
    /// anything else the protocol doesn't type degrades it rather than
    /// stalling or fencing it.
    #[must_use]
    pub fn from_wire(err: &WireError) -> ReplicateError {
        match err {
            WireError::StaleEpoch { current } => ReplicateError::Fenced { current: *current },
            WireError::LsnGap { expected } => ReplicateError::LsnGap {
                expected: *expected,
            },
            _ => ReplicateError::Unreachable,
        }
    }
}

/// The primary's outbound replication transport. `adcast-cluster`
/// provides the TCP implementation; tests and the simulation harness
/// substitute in-process ones.
pub trait ReplicationSink: Send {
    /// Ship `(lsn, encoded record)` pairs under `epoch`; block until the
    /// follower acks them durable. Returns the follower's `next_lsn`.
    /// `trace` is the context the follower records its spans under
    /// (parented on the primary's `replicate` span); pass
    /// [`TraceContext::NONE`] when unsampled.
    ///
    /// # Errors
    ///
    /// [`ReplicateError`] — see its variants.
    fn replicate(
        &mut self,
        epoch: u64,
        trace: TraceContext,
        entries: &[(u64, Bytes)],
    ) -> Result<u64, ReplicateError>;

    /// Ship a full snapshot image for catch-up; block until installed.
    /// Returns the follower's `next_lsn` after the install.
    ///
    /// # Errors
    ///
    /// [`ReplicateError`] — see its variants.
    fn install(&mut self, epoch: u64, snapshot: Bytes) -> Result<u64, ReplicateError>;
}

/// Handles into the process-wide metrics registry for the replication
/// layer (primary and follower sides both feed it). Every family carries
/// a `partition` label so the router's federated scrape can tell the
/// partitions of one process-group apart.
#[derive(Clone)]
pub struct ReplObs {
    /// Records shipped to the follower (primary side).
    pub shipped_total: Counter,
    /// Replication lag in records: primary `next_lsn` minus the
    /// follower's last durable ack.
    pub lag_records: Gauge,
    /// Transitions into degraded (follower-unreachable) mode.
    pub degraded_total: Counter,
    /// Times this node fenced itself after a stale-epoch refusal.
    pub fenced_total: Counter,
    /// Full-snapshot catch-up transfers initiated.
    pub snapshots_shipped_total: Counter,
    /// Promotions this node accepted (follower → primary).
    pub promotions_total: Counter,
    /// Primary-side ship time per mutating RPC (RPC round trip to the
    /// follower's durable ack).
    pub ship_ns: Hist,
    /// The epoch this node currently holds (health: a lagging epoch means
    /// a deposed node still serving).
    pub epoch: Gauge,
    /// 1 while the partition is degraded (single-node-durable acks), else
    /// 0 — the gauge twin of the `/readyz` `degraded` bit.
    pub degraded: Gauge,
    /// Full ack-ladder time per mutating RPC on the primary: WAL log +
    /// commit + apply + replicate round trip (DESIGN § 14).
    pub ack_ladder_ns: Hist,
}

impl ReplObs {
    /// Register (or re-resolve) the replication families for `partition`.
    #[must_use]
    pub fn resolve(partition: u16) -> ReplObs {
        let reg = adcast_obs::registry();
        let p = partition.to_string();
        let labels: &[(&str, &str)] = &[("partition", &p)];
        ReplObs {
            shipped_total: reg.counter_with(
                "adcast_repl_shipped_total",
                "WAL records shipped to the follower.",
                labels,
            ),
            lag_records: reg.gauge_with(
                "adcast_repl_lag_records",
                "Replication lag: primary next_lsn minus follower durable ack.",
                labels,
            ),
            degraded_total: reg.counter_with(
                "adcast_repl_degraded_total",
                "Transitions into degraded (follower-unreachable) mode.",
                labels,
            ),
            fenced_total: reg.counter_with(
                "adcast_repl_fenced_total",
                "Times this node fenced itself after a stale-epoch refusal.",
                labels,
            ),
            snapshots_shipped_total: reg.counter_with(
                "adcast_repl_snapshots_shipped_total",
                "Full-snapshot catch-up transfers initiated.",
                labels,
            ),
            promotions_total: reg.counter_with(
                "adcast_repl_promotions_total",
                "Promotions accepted (follower became primary).",
                labels,
            ),
            ship_ns: reg.hist_with(
                "adcast_repl_ship_ns",
                "Primary-side replication round trip per mutating RPC.",
                labels,
            ),
            epoch: reg.gauge_with(
                "adcast_repl_epoch",
                "Cluster epoch this node currently holds.",
                labels,
            ),
            degraded: reg.gauge_with(
                "adcast_repl_degraded",
                "1 while this partition acks single-node-durable only.",
                labels,
            ),
            ack_ladder_ns: reg.hist_with(
                "adcast_repl_ack_ladder_ns",
                "Full primary ack ladder per mutating RPC: log, commit, apply, replicate ack.",
                labels,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcast_ads::{AdSubmission, Budget, Targeting};
    use adcast_feed::FeedDelta;
    use adcast_graph::UserId;
    use adcast_stream::clock::Timestamp;
    use adcast_stream::event::{LocationId, Message, MessageId};
    use adcast_text::dictionary::TermId;
    use adcast_text::SparseVector;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_backend(tag: &str) -> Arc<dyn StorageBackend> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "adcast-repl-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        adcast_durability::fs_backend(&dir)
    }

    fn engine_config() -> EngineConfig {
        EngineConfig {
            half_life: None,
            ..EngineConfig::default()
        }
    }

    fn fresh_node(backend: &Arc<dyn StorageBackend>) -> (AdStore, ShardedDriver, Durability) {
        let wal = WalWriter::create_on(
            Arc::clone(backend),
            adcast_durability::WalOptions::default(),
            0,
        )
        .unwrap();
        let durability = Durability::new_on(
            Arc::clone(backend),
            wal,
            DurabilityOptions::default(),
            RecoveryReport::default(),
        );
        (
            AdStore::new(),
            ShardedDriver::new(8, 1, engine_config()),
            durability,
        )
    }

    fn submit_record(term: u32) -> WalRecord {
        WalRecord::Submit(AdSubmission {
            vector: SparseVector::from_pairs([(TermId(term), 1.0)]),
            bid: 1.0,
            targeting: Targeting::everywhere(),
            budget: Budget::unlimited(),
            topic_hint: None,
        })
    }

    fn delta_record(user: u32, secs: u64) -> WalRecord {
        WalRecord::IngestBatch(vec![(
            UserId(user),
            FeedDelta {
                entered: Some(std::sync::Arc::new(Message {
                    id: MessageId(secs),
                    author: UserId(0),
                    ts: Timestamp::from_secs(secs),
                    location: LocationId(0),
                    vector: SparseVector::from_pairs([(TermId(1), 1.0)]),
                })),
                evicted: vec![],
            },
        )])
    }

    #[test]
    fn admit_checks_partition_epoch_and_fence() {
        let mut state = ClusterState::primary(2, 5);
        assert!(state.admit(2, 5).is_ok());
        assert!(matches!(
            state.admit(1, 5),
            Err(WireError::WrongPartition { expected: 2 })
        ));
        assert!(matches!(
            state.admit(2, 4),
            Err(WireError::StaleEpoch { current: 5 })
        ));
        state.fenced = true;
        assert!(matches!(
            state.admit(2, 5),
            Err(WireError::StaleEpoch { current: 5 })
        ));
    }

    #[test]
    fn promote_bumps_epoch_and_is_idempotent() {
        let mut state = ClusterState::follower(1, 3);
        assert!(matches!(
            promote(&mut state, 1, 3),
            Err(WireError::StaleEpoch { current: 3 })
        ));
        promote(&mut state, 1, 4).unwrap();
        assert_eq!(state.role, NodeRole::Primary);
        assert_eq!(state.epoch, 4);
        assert!(state.degraded, "fresh primary has no follower yet");
        // Retrying the same promotion is a success, not a StaleEpoch.
        promote(&mut state, 1, 4).unwrap();
        assert!(matches!(
            promote(&mut state, 2, 5),
            Err(WireError::WrongPartition { expected: 1 })
        ));
    }

    #[test]
    fn replica_append_is_hot_standby_and_lsn_strict() {
        let backend = temp_backend("append");
        let (mut store, mut driver, mut durability) = fresh_node(&backend);

        let records = [submit_record(1), delta_record(0, 1), delta_record(1, 2)];
        let entries: Vec<(u64, Bytes)> = records
            .iter()
            .enumerate()
            .map(|(i, r)| (i as u64, r.encode()))
            .collect();
        let durable = replica_append(
            &mut durability,
            &mut store,
            &mut driver,
            TraceContext::NONE,
            &entries,
        )
        .unwrap();
        assert_eq!(durable, 3);
        // Applied, not just logged: the campaign is live.
        assert!(store.campaign(adcast_ads::AdId(0)).is_some());

        // A gap is refused wholesale — nothing logged, nothing applied.
        let gap = vec![(7u64, submit_record(2).encode())];
        let err = replica_append(
            &mut durability,
            &mut store,
            &mut driver,
            TraceContext::NONE,
            &gap,
        )
        .unwrap_err();
        assert!(matches!(err, ReplicaError::LsnGap { expected: 3 }), "{err}");
        assert_eq!(durability.next_lsn(), 3);
    }

    #[test]
    fn install_snapshot_rebuilds_byte_identical_state() {
        // Primary: build some state and capture a snapshot.
        let primary_backend = temp_backend("install-p");
        let (mut store, mut driver, mut durability) = fresh_node(&primary_backend);
        for (lsn, record) in [submit_record(1), delta_record(2, 5)]
            .into_iter()
            .enumerate()
        {
            let entry = vec![(lsn as u64, record.encode())];
            replica_append(
                &mut durability,
                &mut store,
                &mut driver,
                TraceContext::NONE,
                &entry,
            )
            .unwrap();
        }
        let image = EngineSetSnapshot::capture(durability.next_lsn(), &store, &driver).encode();

        // Replica: diverged local WAL gets wiped by the install.
        let replica_backend = temp_backend("install-r");
        let (mut rstore, mut rdriver, mut rdur) = fresh_node(&replica_backend);
        let stale = vec![(0u64, submit_record(9).encode())];
        replica_append(
            &mut rdur,
            &mut rstore,
            &mut rdriver,
            TraceContext::NONE,
            &stale,
        )
        .unwrap();
        drop(rdur);

        let setup = ReplicaSetup {
            backend: Arc::clone(&replica_backend),
            options: DurabilityOptions::default(),
            engine: engine_config(),
        };
        let (new_store, new_driver, new_dur) = install_snapshot_on(&setup, image.clone()).unwrap();
        assert_eq!(new_dur.next_lsn(), 2);
        let recaptured =
            EngineSetSnapshot::capture(new_dur.next_lsn(), &new_store, &new_driver).encode();
        assert_eq!(recaptured, image, "installed state is byte-identical");
        // The stale WAL is gone: nothing below the snapshot survives.
        assert!(list_segment_lsns_on(&*replica_backend)
            .unwrap()
            .iter()
            .all(|&base| base >= 2));
    }

    #[test]
    fn corrupt_snapshot_refused_without_side_effects() {
        let backend = temp_backend("install-bad");
        let setup = ReplicaSetup {
            backend,
            options: DurabilityOptions::default(),
            engine: engine_config(),
        };
        let Err(err) = install_snapshot_on(&setup, Bytes::from_static(b"not a snapshot")) else {
            panic!("corrupt snapshot must be refused");
        };
        assert!(matches!(err, ReplicaError::Corrupt(_)), "{err}");
        assert!(matches!(err.to_wire(), WireError::BadRequest(_)));
    }
}
