//! One serving node as a transport-free state machine.
//!
//! A [`Node`] owns an [`AdStore`] + [`ShardedDriver`], the optional
//! [`Durability`] handle, and the node's cluster identity, and answers
//! one [`Request`] at a time through [`Node::handle`]. The TCP
//! [`Server`](crate::server::Server) runs it on its engine thread; the
//! simulation harness calls the same `handle` under virtual time, so the
//! ack ladder the simulator proves is the one that serves traffic.
//!
//! Every mutating RPC climbs the ack ladder in [`Node::log_apply`]:
//! validated, WAL-logged and group-committed **before** it is applied
//! through the shared [`apply_record`] path, then — on a cluster primary
//! — shipped through the node's [`ReplicationSink`], with the reply
//! waiting for the follower's durable ack ([`crate::replication`],
//! DESIGN § 14). Every layer is timed into the process-wide
//! [`adcast_obs::registry`], sampled requests leave spans in the
//! [`tracestore`], and admissions, checkpoints and slow ingests land in
//! the [`flightrec`] ring.

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

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use adcast_ads::{AdStore, CampaignState};
use adcast_core::ShardedDriver;
use adcast_durability::{apply_record, ApplyEffect, Durability, EngineSetSnapshot, WalRecord};
use adcast_graph::UserId;
use adcast_metrics::LatencyHistogram;
use adcast_obs::tracestore::{tracestore, SpanKind, TraceContext};
use adcast_obs::{flightrec, readiness, Counter, EventKind, Gauge, Hist};
use adcast_obs::{UNREADY_CATCHING_UP, UNREADY_DEGRADED};
use adcast_stream::clock::now_ns;
use bytes::Bytes;

use crate::protocol::{NodeRole, Request, Response, ServerStats, WireError};
use crate::replication::{
    install_snapshot_on, promote, replica_append, ClusterState, ReplObs, ReplicaSetup,
    ReplicateError, ReplicationSink,
};

/// An Ingest whose engine service time exceeds this (in clock
/// nanoseconds) gets a `SlowDelta` flight-recorder event (hot-path budget
/// is microseconds; 10 ms means something is badly wrong — an fsync
/// stall, a pool hiccup).
const SLOW_DELTA_THRESHOLD_NS: u64 = 10_000_000;

/// Cluster-mode wiring for a node: its identity plus the replication
/// plumbing for its role. The default is a standalone node — exactly the
/// pre-cluster server.
#[derive(Default)]
pub struct ClusterConfig {
    /// The node's role, partition, and epoch.
    pub state: ClusterState,
    /// Primary side: transport to this partition's follower. A primary
    /// without one serves degraded (local-durable acks only).
    pub sink: Option<Box<dyn ReplicationSink>>,
    /// Follower side: what [`install_snapshot_on`] needs to rebuild the
    /// node from a shipped image.
    pub replica: Option<ReplicaSetup>,
}

/// State shared between a node and the transport in front of it: the
/// shutdown flag and the counters [`Request::Stats`] reports (all zero
/// when no server fronts the node).
#[derive(Default)]
pub(crate) struct Transport {
    pub(crate) shutdown: AtomicBool,
    pub(crate) shed: AtomicU64,
    pub(crate) connections: AtomicU64,
}

/// Handles into the process-wide metrics registry for the serving layer
/// (the node's request path and the server's transport). Cloning is
/// cheap (each handle is an `Arc`), so every reader thread carries its
/// own copy.
#[derive(Clone)]
pub(crate) struct NetObs {
    rpcs_total: Counter,
    pub(crate) shed_total: Counter,
    pub(crate) connections_total: Counter,
    pub(crate) reader_threads: Gauge,
    queue_wait_ns: Hist,
    ingest_ns: Hist,
    recommend_ns: Hist,
    wal_commit_ns: Hist,
    engine_apply_ns: Hist,
}

impl NetObs {
    pub(crate) fn resolve() -> NetObs {
        let reg = adcast_obs::registry();
        NetObs {
            rpcs_total: reg.counter(
                "adcast_net_rpcs_total",
                "RPCs that reached the engine thread (all kinds).",
            ),
            shed_total: reg.counter(
                "adcast_net_shed_total",
                "Hot-path requests shed because the bounded queue was full.",
            ),
            connections_total: reg.counter("adcast_net_connections_total", "Connections accepted."),
            reader_threads: reg.gauge(
                "adcast_net_reader_threads",
                "Live per-connection reader threads.",
            ),
            queue_wait_ns: reg.hist(
                "adcast_net_queue_wait_ns",
                "Time an admitted RPC waited in the bounded queue before the engine picked it up.",
            ),
            ingest_ns: reg.hist(
                "adcast_net_ingest_ns",
                "Engine service time per successful Ingest RPC.",
            ),
            recommend_ns: reg.hist(
                "adcast_net_recommend_ns",
                "Engine service time per successful Recommend RPC.",
            ),
            wal_commit_ns: reg.hist(
                "adcast_net_wal_commit_ns",
                "WAL log + group-commit time per mutating RPC.",
            ),
            engine_apply_ns: reg.hist(
                "adcast_net_engine_apply_ns",
                "Engine apply time per mutating RPC (after the WAL commit).",
            ),
        }
    }
}

/// One serving node: the single owner of its store and driver, plus the
/// counters and telemetry handles its request path feeds.
pub struct Node {
    store: AdStore,
    driver: ShardedDriver,
    durability: Option<Durability>,
    /// The node's cluster identity; mutated only here (fencing on a
    /// stale-epoch refusal, promotion, degraded-mode transitions).
    cluster: ClusterState,
    /// Primary side: transport to this partition's follower.
    sink: Option<Box<dyn ReplicationSink>>,
    /// Follower side: rebuild recipe for snapshot installs.
    replica: Option<ReplicaSetup>,
    /// Set by the server in front of the node: the counters and queue
    /// bound `Stats` reports, and where `ObsDump` writes.
    pub(crate) transport: Arc<Transport>,
    pub(crate) queue_depth: usize,
    pub(crate) flightrec_path: Option<PathBuf>,
    obs: NetObs,
    repl_obs: ReplObs,
    rpcs: u64,
    /// Trace context of the request being served (the wire context's
    /// child after the queue-wait span); `NONE` for unsampled requests.
    cur_trace: TraceContext,
    ingest_lat: LatencyHistogram,
    recommend_lat: LatencyHistogram,
}

impl Node {
    /// A node serving `store` + `driver`. With a [`Durability`] handle
    /// every mutating RPC is WAL-logged and group-committed before it is
    /// applied or acked, periodic snapshots fire per its options, and
    /// [`Request::Checkpoint`] is served; build the handle from
    /// [`adcast_durability::recover`]'s output so the WAL continues at
    /// the recovered LSN. `cluster` gives the node its partition, epoch,
    /// and replication plumbing (default: standalone).
    #[must_use]
    pub fn new(
        store: AdStore,
        driver: ShardedDriver,
        durability: Option<Durability>,
        cluster: ClusterConfig,
    ) -> Node {
        let repl_obs = ReplObs::resolve(cluster.state.partition);
        repl_obs
            .epoch
            .set(i64::try_from(cluster.state.epoch).unwrap_or(i64::MAX));
        repl_obs.degraded.set(i64::from(cluster.state.degraded));
        Node {
            store,
            driver,
            durability,
            cluster: cluster.state,
            sink: cluster.sink,
            replica: cluster.replica,
            transport: Arc::default(),
            queue_depth: 0,
            flightrec_path: None,
            obs: NetObs::resolve(),
            repl_obs,
            rpcs: 0,
            cur_trace: TraceContext::NONE,
            ingest_lat: LatencyHistogram::new(),
            recommend_lat: LatencyHistogram::new(),
        }
    }

    /// The node's campaign store.
    #[must_use]
    pub fn store(&self) -> &AdStore {
        &self.store
    }

    /// The node's engine driver.
    #[must_use]
    pub fn driver(&self) -> &ShardedDriver {
        &self.driver
    }

    /// The node's durability handle, when it runs with one.
    #[must_use]
    pub fn durability(&self) -> Option<&Durability> {
        self.durability.as_ref()
    }

    /// Detach the durability handle (the node then serves in-memory
    /// only). Dropping the returned handle flushes the WAL buffer and
    /// joins the snapshot persister, which is how a harness models the
    /// process dying.
    pub fn take_durability(&mut self) -> Option<Durability> {
        self.durability.take()
    }

    /// Serve one request that was enqueued at `enqueued_ns` (clock
    /// nanoseconds; the queue-wait span's start) and return its reply.
    /// Periodic snapshots fire after the reply is built, between RPCs,
    /// where the worker pool is idle — a consistent cut for free.
    pub fn handle(&mut self, req: Request, enqueued_ns: u64) -> Response {
        self.rpcs += 1;
        self.obs.rpcs_total.inc();
        let queue_wait_ns = now_ns().saturating_sub(enqueued_ns);
        self.obs.queue_wait_ns.record(queue_wait_ns);
        flightrec().record(
            EventKind::Admission,
            req.kind() as u64,
            queue_wait_ns / 1_000,
            0,
        );
        // A sampled wire context (routed client traffic or a replicated
        // batch) records the queue-wait span here; everything downstream
        // in this request parents on it through `cur_trace`.
        let salt = u64::from(self.cluster.partition);
        let wire_trace = match &req {
            Request::Routed { trace, .. } | Request::ReplAppend { trace, .. } => *trace,
            _ => TraceContext::NONE,
        };
        tracestore().record(
            wire_trace,
            SpanKind::QueueWait,
            salt,
            enqueued_ns,
            queue_wait_ns,
        );
        self.cur_trace = wire_trace.child(SpanKind::QueueWait, salt);
        let lead_user = lead_user(&req);
        let started = now_ns();
        let resp = self.serve_one(req).unwrap_or_else(Response::Error);
        let elapsed_ns = now_ns().saturating_sub(started);
        match &resp {
            Response::Ingested { .. } => {
                self.ingest_lat
                    .record_duration(Duration::from_nanos(elapsed_ns));
                self.obs.ingest_ns.record(elapsed_ns);
                if elapsed_ns >= SLOW_DELTA_THRESHOLD_NS {
                    flightrec().record(EventKind::SlowDelta, lead_user, elapsed_ns / 1_000, 0);
                }
            }
            Response::Recommendations(_) => {
                self.recommend_lat
                    .record_duration(Duration::from_nanos(elapsed_ns));
                self.obs.recommend_ns.record(elapsed_ns);
                tracestore().record(
                    self.cur_trace,
                    SpanKind::Recommend,
                    salt,
                    started,
                    elapsed_ns,
                );
            }
            Response::Checkpointed { lsn } => {
                flightrec().record(EventKind::Checkpoint, *lsn, 0, 0);
            }
            _ => {}
        }
        if let Some(d) = self.durability.as_mut() {
            d.maybe_snapshot(&self.store, &self.driver);
        }
        resp
    }

    /// WAL-log `record` (when durability is on), group-commit it, apply
    /// it through the shared [`apply_record`] path, then — on a cluster
    /// primary — ship it to the follower and wait for the durable ack
    /// (the replication ack ladder; see DESIGN § 14). A commit failure
    /// means the mutation is **not durable**: it is refused without being
    /// applied, so memory and log can never diverge. Mutations without a
    /// [`Request`] of their own (pacing attachments) enter here directly.
    ///
    /// # Errors
    ///
    /// [`WireError::StaleEpoch`] on a fenced or freshly deposed node,
    /// [`WireError::Unavailable`] when the commit fails or the engine is
    /// dead, [`WireError::BadRequest`] when the record does not apply.
    pub fn log_apply(&mut self, record: WalRecord) -> Result<ApplyEffect, WireError> {
        if self.cluster.fenced {
            // A deposed primary must not accept writes the promoted
            // follower will never see.
            return Err(WireError::StaleEpoch {
                current: self.cluster.epoch,
            });
        }
        let ladder_started = now_ns();
        let salt = u64::from(self.cluster.partition);
        let mut trace = self.cur_trace;
        let mut shipment: Option<(u64, Bytes)> = None;
        if let Some(d) = self.durability.as_mut() {
            let wal_started = now_ns();
            let logged = d.log(&record);
            let committed = logged.is_ok() && d.commit().is_ok();
            let wal_ns = now_ns().saturating_sub(wal_started);
            self.obs.wal_commit_ns.record(wal_ns);
            tracestore().record(trace, SpanKind::WalCommit, salt, wal_started, wal_ns);
            trace = trace.child(SpanKind::WalCommit, salt);
            if !committed {
                return Err(WireError::Unavailable);
            }
            if self.sink.is_some() {
                if let Ok(lsn) = logged {
                    shipment = Some((lsn, record.encode()));
                }
            }
        }
        let apply_started = now_ns();
        let outcome = apply_record(&mut self.store, &mut self.driver, record);
        let apply_ns = now_ns().saturating_sub(apply_started);
        self.obs.engine_apply_ns.record(apply_ns);
        tracestore().record(trace, SpanKind::EngineApply, salt, apply_started, apply_ns);
        trace = trace.child(SpanKind::EngineApply, salt);
        let effect = outcome.map_err(|why| {
            if self.driver.is_dead() {
                WireError::Unavailable
            } else {
                WireError::BadRequest(why)
            }
        })?;
        if let Some((lsn, payload)) = shipment {
            self.replicate(lsn, payload, trace)?;
        }
        self.repl_obs
            .ack_ladder_ns
            .record(now_ns().saturating_sub(ladder_started));
        Ok(effect)
    }

    /// Ship one committed record to the follower and block for its
    /// durable ack. Failure policy: an epoch refusal fences this node
    /// (it has been deposed), an LSN gap falls back to snapshot-transfer
    /// catch-up, and an unreachable follower degrades the primary to
    /// local-durable acks rather than stalling the partition.
    fn replicate(
        &mut self,
        lsn: u64,
        payload: Bytes,
        trace: TraceContext,
    ) -> Result<(), WireError> {
        let epoch = self.cluster.epoch;
        let salt = u64::from(self.cluster.partition);
        let Some(sink) = self.sink.as_mut() else {
            return Ok(());
        };
        let ship_started = now_ns();
        // The follower parents its spans on our replicate span — whose id
        // is derived, so it can ride the wire before the span is timed.
        let outcome = sink.replicate(
            epoch,
            trace.child(SpanKind::Replicate, salt),
            &[(lsn, payload)],
        );
        let ship_ns = now_ns().saturating_sub(ship_started);
        self.repl_obs.ship_ns.record(ship_ns);
        tracestore().record(trace, SpanKind::Replicate, salt, ship_started, ship_ns);
        match outcome {
            Ok(follower_next) => {
                self.repl_obs.shipped_total.inc();
                self.set_degraded(false);
                let next = self
                    .durability
                    .as_ref()
                    .map_or(lsn + 1, Durability::next_lsn);
                let lag = next.saturating_sub(follower_next);
                self.repl_obs
                    .lag_records
                    .set(i64::try_from(lag).unwrap_or(i64::MAX));
                Ok(())
            }
            Err(ReplicateError::LsnGap { .. }) => self.catch_up_follower(),
            Err(err) => self.ship_failed(err),
        }
    }

    /// A shipment the follower did not take: a stale-epoch refusal fences
    /// this node (it has been deposed); anything else degrades it.
    fn ship_failed(&mut self, err: ReplicateError) -> Result<(), WireError> {
        if let ReplicateError::Fenced { current } = err {
            self.cluster.fenced = true;
            self.repl_obs.fenced_total.inc();
            return Err(WireError::StaleEpoch { current });
        }
        self.set_degraded(true);
        Ok(())
    }

    /// Flip the partition's degraded state everywhere it is visible at
    /// once: the cluster state, the transition counter, the gauge twin,
    /// and the process `/readyz` bit.
    fn set_degraded(&mut self, degraded: bool) {
        if degraded && !self.cluster.degraded {
            self.repl_obs.degraded_total.inc();
        }
        self.cluster.degraded = degraded;
        self.repl_obs.degraded.set(i64::from(degraded));
        readiness().set(UNREADY_DEGRADED, degraded);
    }

    /// Snapshot-transfer catch-up: the follower's WAL does not continue
    /// ours (fresh node, rejoin after divergence), so ship the full
    /// image. The capture happens post-apply, so it already contains the
    /// record whose shipment detected the gap — no entry retry needed.
    fn catch_up_follower(&mut self) -> Result<(), WireError> {
        let Some(d) = self.durability.as_ref() else {
            return Ok(());
        };
        let image = EngineSetSnapshot::capture(d.next_lsn(), &self.store, &self.driver).encode();
        self.repl_obs.snapshots_shipped_total.inc();
        let epoch = self.cluster.epoch;
        let Some(sink) = self.sink.as_mut() else {
            return Ok(());
        };
        match sink.install(epoch, image) {
            Ok(_) => {
                self.set_degraded(false);
                self.repl_obs.lag_records.set(0);
                Ok(())
            }
            Err(err) => self.ship_failed(err),
        }
    }

    /// Admission, validation, and the dispatch table; every refusal is a
    /// typed `Err`.
    fn serve_one(&mut self, req: Request) -> Result<Response, WireError> {
        // Unwrap the routing envelope before anything else: partition
        // and epoch admission happens first, and an admitted inner
        // request then flows through exactly the standalone pipeline.
        let req = match req {
            Request::Routed {
                partition,
                epoch,
                trace: _,
                inner,
            } => {
                self.cluster.admit(partition, epoch)?;
                *inner
            }
            req => req,
        };
        // Followers mirror the primary and serve only replication and
        // control RPCs; client traffic is refused with a typed error so
        // the router (or a misdirected client) knows to go to the
        // primary rather than seeing timeouts or wrong answers.
        if self.cluster.role == NodeRole::Follower
            && matches!(
                req,
                Request::Ingest { .. }
                    | Request::Recommend { .. }
                    | Request::SubmitCampaign(_)
                    | Request::PauseCampaign { .. }
                    | Request::Impression { .. }
                    | Request::Maintain { .. }
            )
        {
            return Err(WireError::NotPrimary);
        }
        let unavailable = Err(WireError::Unavailable);
        Ok(match req {
            Request::Ingest { deltas } => {
                if self.driver.is_dead() {
                    return unavailable;
                }
                // Validate ids *before* logging or dispatch: an
                // out-of-range user would panic a shard worker, and a
                // record that cannot apply must never reach the WAL
                // (replay aborts on apply failures).
                for (user, _) in &deltas {
                    self.check_user(*user)?;
                }
                let ApplyEffect::Ingested { accepted } =
                    self.log_apply(WalRecord::IngestBatch(deltas))?
                else {
                    return unavailable;
                };
                Response::Ingested { accepted }
            }
            Request::Recommend {
                user,
                now,
                location,
                k,
            } => {
                self.check_user(user)?;
                // Reads are not logged: the engine refreshes rankings
                // eagerly on ingest, so recommendations are a pure
                // function of the mutation history the WAL captures.
                Response::Recommendations(self.driver.recommend(
                    &self.store,
                    user,
                    now,
                    location,
                    k as usize,
                ))
            }
            Request::SubmitCampaign(spec) => {
                let sub = spec.try_into_submission().map_err(WireError::BadRequest)?;
                if sub.vector.is_empty() || !(sub.bid.is_finite() && sub.bid > 0.0) {
                    // The store would reject this submission; catch it
                    // before it can reach the WAL.
                    return Err(WireError::BadRequest(format!(
                        "empty keyword vector or invalid bid {}",
                        sub.bid
                    )));
                }
                let ApplyEffect::Submitted { ad } = self.log_apply(WalRecord::Submit(sub))? else {
                    return unavailable;
                };
                Response::CampaignAccepted { ad }
            }
            Request::PauseCampaign { ad } => match self.log_apply(WalRecord::Pause(ad))? {
                ApplyEffect::Paused { changed: true } => Response::CampaignPaused { ad },
                ApplyEffect::Paused { changed: false } => {
                    return Err(WireError::UnknownCampaign(ad))
                }
                _ => return unavailable,
            },
            Request::Impression {
                ad,
                cost,
                clicked,
                now,
            } => {
                if self.store.campaign(ad).is_none() {
                    return Err(WireError::UnknownCampaign(ad));
                }
                let record = WalRecord::Impression {
                    ad,
                    cost,
                    clicked,
                    now,
                };
                let ApplyEffect::Impression { state } = self.log_apply(record)? else {
                    return unavailable;
                };
                Response::ImpressionRecorded {
                    ad,
                    exhausted: state == Some(CampaignState::Exhausted),
                }
            }
            Request::Maintain { now, idle_for } => {
                if self.driver.is_dead() {
                    return unavailable;
                }
                let ApplyEffect::Maintained {
                    scanned,
                    decayed,
                    pruned,
                } = self.log_apply(WalRecord::Maintenance { now, idle_for })?
                else {
                    return unavailable;
                };
                Response::Maintained {
                    scanned,
                    decayed,
                    pruned,
                }
            }
            Request::Checkpoint => {
                let d = self.durability.as_mut().ok_or_else(no_data_dir)?;
                let lsn = d
                    .checkpoint(&self.store, &self.driver)
                    .map_err(|_| WireError::Unavailable)?;
                Response::Checkpointed { lsn }
            }
            Request::ObsDump => {
                let path = self.flightrec_path.as_deref().ok_or_else(no_data_dir)?;
                let events = flightrec()
                    .dump_to_path(path)
                    .map_err(|_| WireError::Unavailable)?;
                Response::ObsDumped { events }
            }
            Request::Stats => {
                let engine = self.driver.stats();
                let dur = self
                    .durability
                    .as_ref()
                    .map(Durability::counters)
                    .unwrap_or_default();
                Response::Stats(ServerStats {
                    deltas: engine.deltas,
                    recommends: engine.recommends,
                    active_campaigns: self.store.num_active() as u64,
                    rpcs: self.rpcs,
                    shed: self.transport.shed.load(Ordering::Relaxed),
                    connections: self.transport.connections.load(Ordering::Relaxed),
                    queue_capacity: self.queue_depth as u64,
                    ingest_p50_ns: self.ingest_lat.p50(),
                    ingest_p99_ns: self.ingest_lat.p99(),
                    recommend_p50_ns: self.recommend_lat.p50(),
                    recommend_p99_ns: self.recommend_lat.p99(),
                    wal_records: dur.wal_records,
                    wal_bytes: dur.wal_bytes,
                    wal_fsyncs: dur.wal_fsyncs,
                    snapshots_written: dur.snapshots_written,
                    recovered_records: dur.recovered_records,
                    recovered_truncated_bytes: dur.recovered_truncated_bytes,
                })
            }
            Request::ReplAppend {
                partition,
                epoch,
                trace: _,
                entries,
            } => {
                self.admit_follower(partition, epoch, "replication append to a non-follower")?;
                let d = self.durability.as_mut().ok_or_else(|| {
                    WireError::BadRequest("follower is running without a data directory".into())
                })?;
                let durable_lsn = replica_append(
                    d,
                    &mut self.store,
                    &mut self.driver,
                    self.cur_trace,
                    &entries,
                )
                .map_err(|e| e.to_wire())?;
                Response::ReplAck { durable_lsn }
            }
            Request::InstallSnapshot {
                partition,
                epoch,
                snapshot,
            } => {
                self.admit_follower(partition, epoch, "snapshot install on a non-follower")?;
                let setup = self.replica.as_ref().ok_or_else(|| {
                    WireError::BadRequest("follower is running without replica setup".into())
                })?;
                // The node's state lags the primary until the install
                // completes: `/readyz` says so.
                readiness().set(UNREADY_CATCHING_UP, true);
                let outcome = install_snapshot_on(setup, snapshot);
                readiness().set(UNREADY_CATCHING_UP, false);
                let (store, driver, durability) = outcome.map_err(|e| e.to_wire())?;
                let next_lsn = durability.next_lsn();
                self.store = store;
                self.driver = driver;
                self.durability = Some(durability);
                Response::SnapshotInstalled { next_lsn }
            }
            Request::Promote { partition, epoch } => {
                let was_primary = self.cluster.role == NodeRole::Primary;
                promote(&mut self.cluster, partition, epoch)?;
                if !was_primary {
                    self.repl_obs.promotions_total.inc();
                }
                self.repl_obs
                    .epoch
                    .set(i64::try_from(self.cluster.epoch).unwrap_or(i64::MAX));
                // A fresh primary serves degraded until a follower is
                // enrolled; surface that on `/readyz` too.
                self.repl_obs.degraded.set(i64::from(self.cluster.degraded));
                readiness().set(UNREADY_DEGRADED, self.cluster.degraded);
                Response::Promoted {
                    epoch: self.cluster.epoch,
                    next_lsn: self.durability.as_ref().map_or(0, Durability::next_lsn),
                }
            }
            Request::ClusterStatus => Response::ClusterStatusReply {
                role: self.cluster.role,
                partition: self.cluster.partition,
                epoch: self.cluster.epoch,
                durable_lsn: self.durability.as_ref().map_or(0, Durability::next_lsn),
                fenced: self.cluster.fenced,
                degraded: self.cluster.degraded,
            },
            // Unreachable: the envelope was unwrapped above and the
            // decoder refuses nesting, but the match must stay total.
            Request::Routed { .. } => {
                return Err(WireError::BadRequest("nested routed envelope".into()))
            }
            Request::Shutdown => Response::ShutdownAck,
        })
    }

    /// Refuse a user id the driver does not serve.
    fn check_user(&self, user: UserId) -> Result<(), WireError> {
        if user.index() < self.driver.num_users() as usize {
            return Ok(());
        }
        Err(WireError::BadRequest(format!(
            "user {} out of range (num_users = {})",
            user.0,
            self.driver.num_users()
        )))
    }

    /// Admission for a replication RPC: current partition and epoch, and
    /// only a follower takes one.
    fn admit_follower(&self, partition: u16, epoch: u64, refusal: &str) -> Result<(), WireError> {
        self.cluster.admit(partition, epoch)?;
        if self.cluster.role != NodeRole::Follower {
            return Err(WireError::BadRequest(refusal.into()));
        }
        Ok(())
    }
}

fn no_data_dir() -> WireError {
    WireError::BadRequest(
        "server is running without a data directory (start with --data-dir)".into(),
    )
}

/// The lead user of an ingest batch (routed or not), for `SlowDelta`
/// events; 0 for every other request.
fn lead_user(req: &Request) -> u64 {
    match req {
        Request::Ingest { deltas } => deltas.first().map_or(0, |(u, _)| u64::from(u.0)),
        Request::Routed { inner, .. } => lead_user(inner),
        _ => 0,
    }
}
