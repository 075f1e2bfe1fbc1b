//! Multi-node cluster scenarios: replication, failover, and fencing
//! under virtual time.
//!
//! [`run_cluster`] drives N partitions, each a primary/follower pair of
//! production [`Node`]s on their own [`MemBackend`]s — no sockets, no
//! threads, no wall clock. The harness plays the network: as the router
//! it sends `Routed` envelopes under its view of each partition's epoch
//! to the serving node's [`Node::handle`], and each node replicates
//! through an in-process [`ReplicationSink`] that delivers `ReplAppend`
//! and `InstallSnapshot` to its peer's `handle` — or answers
//! `Unreachable` while a fault has the link down. So the ack ladder,
//! admission, fencing and catch-up being proven here are the ones the
//! TCP server runs.
//!
//! What the scenarios prove, deterministically and in milliseconds:
//!
//! * **Kill the primary** ([`ClusterFault::KillPrimary`]): the follower
//!   promotes under a bumped epoch and every client-acked record is
//!   already durable *and applied* on it — zero acked loss, and the
//!   promoted state is byte-identical to a clean replay of the acked
//!   log (the PR-3 twin check, now surviving machine loss).
//! * **Isolate the follower** ([`ClusterFault::IsolateFollower`]): the
//!   primary degrades to local-durable acks; on reconnect the follower
//!   refuses the gap with a typed `LsnGap` and catches up by snapshot
//!   transfer, ending byte-identical to the primary.
//! * **Split-brain promotion** ([`ClusterFault::SplitPromote`]): a
//!   false-positive failover promotes the follower while the deposed
//!   primary is still alive; the old primary's next shipment is refused
//!   with `StaleEpoch`, it fences itself (the write is never acked),
//!   and it rejoins as a follower via snapshot transfer.
//!
//! Same config ⇒ byte-identical transcript and summary, like the
//! single-node runner.

use std::sync::{Arc, Mutex, MutexGuard, Weak};

use adcast_core::EngineConfig;
use adcast_durability::{Durability, DurabilityOptions, StorageBackend, WalOptions, WalRecord};
use adcast_graph::UserId;
use adcast_net::protocol::{Request, Response, WireError};
use adcast_net::replication::{ClusterState, ReplicaSetup, ReplicateError, ReplicationSink};
use adcast_net::synth::{self, SynthConfig, SynthWorkload};
use adcast_net::{ClusterConfig, Node};
use adcast_obs::tracestore::{head_sample, TraceContext};
use adcast_stream::clock::{now_ns, SimClock, Timestamp};
use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::backend::MemBackend;
use crate::runner::{event_time, image, logged_record, Shape};

/// An injectable cluster fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterFault {
    /// `kill -9` the partition's primary: its backend tears to the
    /// durability horizon and the node is never touched again. The
    /// harness promotes the follower under a bumped epoch and
    /// immediately proves zero acked loss + a byte-identical twin.
    KillPrimary {
        /// The partition whose primary dies.
        partition: u16,
    },
    /// The primary⇄follower link drops for this many of the partition's
    /// ingest batches: shipments are lost, the primary degrades to
    /// local-durable acks. Reconnection surfaces the gap as a typed
    /// `LsnGap` refusal and a snapshot-transfer catch-up.
    IsolateFollower {
        /// The partition whose follower goes dark.
        partition: u16,
        /// Ingest batches the link stays down.
        batches: u64,
    },
    /// A false-positive failover: the follower is promoted while the
    /// old primary is still alive. The deposed primary attempts one
    /// more write; epoch fencing refuses it (never acked) and the node
    /// rejoins as a follower by snapshot transfer.
    SplitPromote {
        /// The partition that splits.
        partition: u16,
    },
}

/// A cluster fault pinned to a position in the batch stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterFaultAt {
    /// Fires just before this ingest batch (0-based).
    pub at_batch: usize,
    /// What happens.
    pub fault: ClusterFault,
}

/// Everything that shapes one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterSimConfig {
    /// Workload shape (users, campaigns, messages, batching, seed).
    pub synth: SynthConfig,
    /// User partitions; each gets a primary/follower pair.
    pub partitions: usize,
    /// Engine shards per node.
    pub num_shards: usize,
    /// Engine knobs (must match across nodes, like production).
    pub engine: EngineConfig,
    /// WAL knobs for every node.
    pub wal: WalOptions,
    /// Background snapshot cadence in WAL records (0 = never).
    pub snapshot_every: u64,
    /// Snapshots retained by pruning.
    pub keep_snapshots: usize,
    /// Virtual cost of one fsync, nanoseconds.
    pub fsync_latency_ns: u64,
    /// Serve a recommendation wave every this many batches (0 = never).
    pub recommend_every: usize,
    /// Users served per wave.
    pub wave_users: usize,
    /// Impression cost charged (broadcast) for each wave's top pick.
    pub impression_cost: f64,
    /// Head-based trace sampling: every `trace_sample`-th acked record
    /// carries a sampled [`TraceContext`] through the real replication
    /// path (0 = off). Trace ids derive from the synth seed and the
    /// record ordinal, so the transcript's trace lines are byte-identical
    /// across runs of the same config.
    pub trace_sample: u64,
    /// The fault script, in firing order.
    pub faults: Vec<ClusterFaultAt>,
}

impl ClusterSimConfig {
    /// A seconds-scale cluster scenario: the single-node smoke workload
    /// split over `partitions` primary/follower pairs, no faults (add
    /// your own).
    #[must_use]
    pub fn smoke(seed: u64, partitions: usize) -> ClusterSimConfig {
        ClusterSimConfig {
            synth: SynthConfig {
                num_users: 400,
                num_ads: 60,
                messages: 1_200,
                batch_size: 200,
                msgs_per_sec: 200.0,
                seed,
            },
            partitions,
            num_shards: 2,
            engine: EngineConfig::default(),
            wal: WalOptions::default(),
            snapshot_every: 0,
            keep_snapshots: 2,
            fsync_latency_ns: 100_000,
            recommend_every: 2,
            wave_users: 6,
            impression_cost: 0.05,
            trace_sample: 4,
            faults: Vec::new(),
        }
    }
}

/// Deterministic cluster run counters.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ClusterCounters {
    /// Partitions in the run.
    pub partitions: u64,
    /// Ingest batches routed (whole-cluster batches, pre-split).
    pub batches: u64,
    /// Feed deltas acked to the client across all partitions.
    pub acked_deltas: u64,
    /// WAL records acked across all partitions (campaigns, ingest,
    /// impressions).
    pub acked_records: u64,
    /// Recommendation requests served.
    pub recommends: u64,
    /// Recommendations returned across all requests.
    pub served: u64,
    /// Impressions charged (one broadcast = `partitions` records).
    pub impressions: u64,
    /// Replicated shipments acked durable by a follower.
    pub shipments: u64,
    /// Shipments dropped while a follower link was down.
    pub dropped_shipments: u64,
    /// Primaries killed.
    pub kills: u64,
    /// Follower promotions (failover + split-brain).
    pub promotions: u64,
    /// Writes refused because the node was fenced or deposed.
    pub fenced_writes: u64,
    /// Typed `LsnGap` refusals from reconnecting followers.
    pub lsn_gap_refusals: u64,
    /// Snapshot-transfer catch-ups (gap recovery + rejoins).
    pub catch_up_snapshots: u64,
    /// Byte-identical state checks passed (promotion twins, catch-up
    /// convergence, end-of-run replica agreement).
    pub twin_checks: u64,
}

/// What a cluster run produced.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// One line per event, stamped with virtual event time.
    /// Byte-identical across runs of the same config.
    pub transcript: String,
    /// Fixed-order `key=value` rendering of [`ClusterCounters`].
    /// Byte-identical across runs of the same config.
    pub summary: String,
    /// The counters behind the summary.
    pub counters: ClusterCounters,
}

/// One pair's replication link as both nodes' sinks see it. The harness
/// sets the faults; the sinks count what crossed.
#[derive(Default)]
struct Link {
    /// Both nodes of the pair, by slot; a killed node's slot is emptied,
    /// so shipments to it go unanswered.
    nodes: [Weak<Mutex<Node>>; 2],
    /// Ingest batches the link stays down for.
    isolated: u64,
    /// Shipments, drops, gap refusals, and snapshot installs so far.
    c: ClusterCounters,
    /// A peer reply the protocol does not allow; fails the run.
    failure: Option<String>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a node or link panicked mid-request; the run is void")
}

/// The in-process replication transport: a node's shipments go to its
/// peer's [`Node::handle`], as the TCP sink's go to the peer's server.
struct SimSink {
    link: Arc<Mutex<Link>>,
    partition: u16,
    peer: usize,
}

impl SimSink {
    /// Hand `req` to the peer unless the link is down and count what
    /// crossed: the peer's durable LSN, or the sink error its refusal
    /// means to the shipping node.
    fn ship(&self, req: Request) -> Result<u64, ReplicateError> {
        let peer = {
            let mut link = lock(&self.link);
            if link.isolated > 0 {
                link.c.dropped_shipments += 1;
            }
            let up = link.isolated == 0;
            link.nodes[self.peer].upgrade().filter(|_| up)
        };
        let peer = peer.ok_or(ReplicateError::Unreachable)?;
        let resp = lock(&peer).handle(req, now_ns());
        let mut link = lock(&self.link);
        let err = match &resp {
            Response::ReplAck { durable_lsn } => {
                link.c.shipments += 1;
                return Ok(*durable_lsn);
            }
            Response::SnapshotInstalled { next_lsn } => {
                link.c.catch_up_snapshots += 1;
                return Ok(*next_lsn);
            }
            Response::Error(e) => ReplicateError::from_wire(e),
            _ => ReplicateError::Unreachable,
        };
        match err {
            ReplicateError::LsnGap { .. } => link.c.lsn_gap_refusals += 1,
            ReplicateError::Fenced { .. } => {}
            _ => {
                link.failure = Some(format!(
                    "partition {}: peer answered {resp:?}",
                    self.partition
                ))
            }
        }
        Err(err)
    }
}

impl ReplicationSink for SimSink {
    fn replicate(
        &mut self,
        epoch: u64,
        trace: TraceContext,
        entries: &[(u64, Bytes)],
    ) -> Result<u64, ReplicateError> {
        let (partition, entries) = (self.partition, entries.to_vec());
        self.ship(Request::ReplAppend {
            partition,
            epoch,
            trace,
            entries,
        })
    }

    fn install(&mut self, epoch: u64, snapshot: Bytes) -> Result<u64, ReplicateError> {
        let partition = self.partition;
        self.ship(Request::InstallSnapshot {
            partition,
            epoch,
            snapshot,
        })
    }
}

/// One partition's pair plus the harness's router-side view of it.
struct SimPartition {
    nodes: [Arc<Mutex<Node>>; 2],
    link: Arc<Mutex<Link>>,
    backends: [Arc<MemBackend>; 2],
    /// Index of the current primary in `nodes`.
    serving: usize,
    /// Index of the current follower, when one is attached.
    follower: Option<usize>,
    /// The router's epoch for this partition.
    epoch: u64,
    /// Whether this pair's standby state was seeded by a live-primary
    /// snapshot (catch-up / rejoin). A live snapshot bakes in the
    /// primary's serve-time engine state (score caches, work counters),
    /// so log-replay byte checks no longer apply to the pair — LSN
    /// accounting still does.
    snapshot_seeded: bool,
    /// Every record acked to a client, in ack order — the loss oracle.
    acked_log: Vec<WalRecord>,
}

struct ClusterRunner {
    config: ClusterSimConfig,
    clock: Arc<SimClock>,
    parts: Vec<SimPartition>,
    rng: SmallRng,
    now: Timestamp,
    transcript: Vec<String>,
    /// Acked-record ordinal for head-based trace sampling — advances on
    /// every routed write, sampled or not, so which records are sampled
    /// is a pure function of the config.
    trace_ordinal: u64,
    shape: Shape,
    c: ClusterCounters,
}

/// Execute one cluster scenario to completion.
///
/// # Errors
///
/// A description when replication, promotion, or a byte-identity check
/// fails (a bug in the cluster stack, not the scenario), or when the
/// fault script references a partition the config doesn't have.
pub fn run_cluster(config: ClusterSimConfig) -> Result<ClusterOutcome, String> {
    if config.partitions == 0 {
        return Err("cluster needs at least one partition".to_string());
    }
    if config.partitions > usize::from(u16::MAX) {
        return Err("partitions exceed the u16 wire header".to_string());
    }
    for f in &config.faults {
        let p = match f.fault {
            ClusterFault::KillPrimary { partition }
            | ClusterFault::IsolateFollower { partition, .. }
            | ClusterFault::SplitPromote { partition } => partition,
        };
        if usize::from(p) >= config.partitions {
            return Err(format!(
                "fault targets partition {p} of {}",
                config.partitions
            ));
        }
    }
    let workload = synth::build(&config.synth);
    let clock = Arc::new(SimClock::new());
    let shape = Shape {
        num_users: workload.num_users,
        num_shards: config.num_shards,
        engine: config.engine.clone(),
        options: DurabilityOptions {
            wal: config.wal,
            snapshot_every: config.snapshot_every,
            keep_snapshots: config.keep_snapshots,
        },
    };
    let mut parts = Vec::with_capacity(config.partitions);
    for p in 0..config.partitions {
        let partition = p as u16;
        let backends =
            [(); 2].map(|()| MemBackend::new(Arc::clone(&clock), config.fsync_latency_ns));
        let link = Arc::default();
        let primary = ClusterState::primary(partition, 0);
        let follower = ClusterState::follower(partition, 0);
        let nodes = [
            boot(&shape, &backends[0], primary, &link, 1)?,
            boot(&shape, &backends[1], follower, &link, 0)?,
        ]
        .map(|node| Arc::new(Mutex::new(node)));
        lock(&link).nodes = [Arc::downgrade(&nodes[0]), Arc::downgrade(&nodes[1])];
        parts.push(SimPartition {
            nodes,
            link,
            backends,
            serving: 0,
            follower: Some(1),
            epoch: 0,
            snapshot_seeded: false,
            acked_log: Vec::new(),
        });
    }
    let seed = config.synth.seed;
    let runner = ClusterRunner {
        config,
        clock,
        parts,
        rng: SmallRng::seed_from_u64(seed ^ 0xC1_057E2),
        now: Timestamp::EPOCH,
        transcript: Vec::new(),
        trace_ordinal: 0,
        shape,
        c: ClusterCounters::default(),
    };
    runner.execute(workload)
}

/// Start (or restart) a node on `backend` in `state`: recover whatever
/// is on disk, and ship to slot `peer` of `link`.
fn boot(
    shape: &Shape,
    backend: &Arc<MemBackend>,
    state: ClusterState,
    link: &Arc<Mutex<Link>>,
    peer: usize,
) -> Result<Node, String> {
    let sink = SimSink {
        link: Arc::clone(link),
        partition: state.partition,
        peer,
    };
    let replica = ReplicaSetup {
        backend: Arc::clone(backend) as Arc<dyn StorageBackend>,
        options: shape.options,
        engine: shape.engine.clone(),
    };
    let cluster = ClusterConfig {
        state,
        sink: Some(Box::new(sink)),
        replica: Some(replica),
    };
    shape.boot(backend, cluster)
}

impl ClusterRunner {
    fn execute(mut self, workload: SynthWorkload) -> Result<ClusterOutcome, String> {
        self.c.partitions = self.parts.len() as u64;

        // Campaigns broadcast to every partition in one global order, so
        // replayed campaign ids agree across the cluster (DESIGN §14).
        let total_campaigns = workload.campaigns.len();
        for spec in workload.campaigns {
            for p in 0..self.parts.len() {
                self.write(p, Request::SubmitCampaign(spec.clone()))?;
            }
        }
        self.line(format!(
            "submitted campaigns={total_campaigns} partitions={}",
            self.parts.len()
        ));

        let num_partitions = self.parts.len();
        for (i, batch) in workload.batches.into_iter().enumerate() {
            let due: Vec<ClusterFault> = self
                .config
                .faults
                .iter()
                .filter(|f| f.at_batch == i)
                .map(|f| f.fault)
                .collect();
            for fault in due {
                self.fire(fault)?;
            }

            self.now = event_time(self.now, &batch);

            // The router's split: one sub-batch per owning partition.
            let mut subs: Vec<Vec<(UserId, adcast_feed::FeedDelta)>> =
                vec![Vec::new(); num_partitions];
            for (user, delta) in batch {
                subs[user.index() % num_partitions].push((user, delta));
            }
            let mut routed = 0u64;
            for (p, deltas) in subs.into_iter().enumerate() {
                if deltas.is_empty() {
                    continue;
                }
                let count = deltas.len() as u64;
                self.write(p, Request::Ingest { deltas })?;
                self.c.acked_deltas += count;
                routed += count;
                let mut link = lock(&self.parts[p].link);
                link.isolated = link.isolated.saturating_sub(1);
            }
            self.c.batches += 1;
            self.line(format!("ingest batch={i} deltas={routed}"));

            if self.config.recommend_every > 0 && (i + 1) % self.config.recommend_every == 0 {
                self.serve_wave()?;
            }
        }

        // End-of-run agreement: every live follower that isn't mid-gap
        // must be at the primary's LSN and hold exactly a replay of the
        // acked log (hot standby, not a cold log copy); every primary
        // must hold exactly the acked log.
        for p in 0..self.parts.len() {
            let part = &self.parts[p];
            let primary_lsn = self.lsn(p, part.serving);
            let isolated = lock(&part.link).isolated;
            if let Some(f) = part.follower {
                let follower_lsn = self.lsn(p, f);
                if isolated == 0 && follower_lsn != primary_lsn {
                    return Err(format!(
                        "partition {p}: follower at lsn {follower_lsn}, primary at {primary_lsn}"
                    ));
                }
                self.check_twin(p, f)?;
            }
            let part = &self.parts[p];
            if part.acked_log.len() as u64 != primary_lsn {
                return Err(format!(
                    "partition {p}: {} acked records but primary lsn {primary_lsn}",
                    part.acked_log.len(),
                ));
            }
            let link = lock(&part.link);
            self.c.shipments += link.c.shipments;
            self.c.dropped_shipments += link.c.dropped_shipments;
            self.c.lsn_gap_refusals += link.c.lsn_gap_refusals;
            self.c.catch_up_snapshots += link.c.catch_up_snapshots;
        }
        self.line(format!(
            "done batches={} acked_records={} twin_checks={}",
            self.c.batches, self.c.acked_records, self.c.twin_checks
        ));

        let summary = self.render_summary();
        let mut transcript = self.transcript.join("\n");
        transcript.push('\n');
        Ok(ClusterOutcome {
            transcript,
            summary,
            counters: self.c,
        })
    }

    /// Deliver `req` to node `n` of partition `p`, as the network would.
    fn send(&self, p: usize, n: usize, req: Request) -> Result<Response, String> {
        let part = &self.parts[p];
        let resp = lock(&part.nodes[n]).handle(req, now_ns());
        lock(&part.link).failure.take().map_or(Ok(resp), Err)
    }

    /// The router's forward: `req` in a `Routed` envelope under `epoch`
    /// (the serving node's, unless given) to node `n` of partition `p`.
    fn route(
        &self,
        p: usize,
        target: Option<(usize, u64)>,
        trace: TraceContext,
        req: Request,
    ) -> Result<Response, String> {
        let part = &self.parts[p];
        let (n, epoch) = target.unwrap_or((part.serving, part.epoch));
        let routed = Request::Routed {
            partition: p as u16,
            epoch,
            trace,
            inner: Box::new(req),
        };
        self.send(p, n, routed)
    }

    /// Partition `p`'s replication counts (shipments, snapshot installs).
    fn shipped(&self, p: usize) -> (u64, u64) {
        let link = lock(&self.parts[p].link);
        (link.c.shipments, link.c.catch_up_snapshots)
    }

    /// One client write on partition `p`: routed to the serving node,
    /// which runs the whole ack ladder; a non-error reply is the ack and
    /// the record the node logged joins the loss oracle.
    fn write(&mut self, p: usize, req: Request) -> Result<(), String> {
        let record = logged_record(&req)?;
        // Head sampling exactly like the live router's: the id is a pure
        // function of (synth seed, write ordinal).
        let (seed, every) = (self.config.synth.seed, self.config.trace_sample);
        let trace = head_sample(seed, every, self.trace_ordinal);
        self.trace_ordinal += 1;
        let (shipments, installs) = self.shipped(p);
        if let Response::Error(e) = self.route(p, None, trace, req)? {
            return Err(format!("partition {p}: write refused: {e}"));
        }
        self.parts[p].acked_log.push(record);
        self.c.acked_records += 1;
        let caught_up = self.shipped(p).1 > installs;
        if caught_up {
            self.caught_up(p)?;
        }
        if trace.sampled() {
            // The transcript's trace line is computed purely from the
            // config (never read back from the shared span ring, which a
            // double-run in one process would pollute): the id from the
            // sampling function, the hop list from the ladder just run.
            let ladder = if self.shipped(p).0 > shipments {
                "replicate,follower_commit,follower_apply"
            } else if caught_up {
                "replicate,install_snapshot"
            } else {
                "local_durable"
            };
            self.line(format!(
                "trace partition={p} id={:016x} ladder={ladder}",
                trace.trace_id
            ));
        }
        Ok(())
    }

    /// The write's shipment met an LSN gap and the primary rebuilt its
    /// follower by snapshot transfer: the installed state must be the
    /// primary's exact bytes.
    fn caught_up(&mut self, p: usize) -> Result<(), String> {
        let (serving, follower) = (self.parts[p].serving, self.parts[p].follower);
        let f = follower.ok_or(format!("partition {p}: no follower"))?;
        // The follower's `/readyz` was unready for the duration of the
        // install; the transcript pins both edges of the flip.
        self.line(format!("readyz partition={p} state=catching_up"));
        self.line(format!("readyz partition={p} state=ready"));
        if self.image(p, f) != self.image(p, serving) {
            return Err(format!(
                "partition {p}: installed snapshot recaptures differently"
            ));
        }
        self.parts[p].snapshot_seeded = true;
        self.c.twin_checks += 1;
        self.line(format!("catch_up partition={p} lsn={}", self.lsn(p, f)));
        Ok(())
    }

    /// Node `n`'s next LSN on partition `p`.
    fn lsn(&self, p: usize, n: usize) -> u64 {
        let node = lock(&self.parts[p].nodes[n]);
        node.durability().map_or(0, Durability::next_lsn)
    }

    /// Node `n`'s full state image on partition `p`.
    fn image(&self, p: usize, n: usize) -> Bytes {
        image(&lock(&self.parts[p].nodes[n]))
    }

    fn fire(&mut self, fault: ClusterFault) -> Result<(), String> {
        match fault {
            ClusterFault::KillPrimary { partition } => {
                let p = usize::from(partition);
                let part = &self.parts[p];
                lock(&part.link).nodes[part.serving] = Weak::new();
                part.backends[part.serving].crash();
                self.c.kills += 1;
                self.line(format!("fault kill_primary partition={p}"));
                self.promote_follower(p)?;
                // Zero acked loss: every acked record is durable and
                // applied on the promoted node, byte-for-byte.
                let part = &self.parts[p];
                let next_lsn = self.lsn(p, part.serving);
                if next_lsn != part.acked_log.len() as u64 {
                    return Err(format!(
                        "partition {p}: acked {} records but promoted node is at lsn {next_lsn}",
                        part.acked_log.len()
                    ));
                }
                self.check_twin(p, part.serving)?;
                self.line(format!("twin partition={p} lsn={next_lsn} ok"));
                Ok(())
            }
            ClusterFault::IsolateFollower { partition, batches } => {
                let p = usize::from(partition);
                if self.parts[p].follower.is_none() {
                    return Err(format!("partition {p} has no follower to isolate"));
                }
                lock(&self.parts[p].link).isolated = batches;
                self.line(format!(
                    "fault isolate_follower partition={p} batches={batches}"
                ));
                Ok(())
            }
            ClusterFault::SplitPromote { partition } => {
                let p = usize::from(partition);
                let (deposed, stale_epoch) = (self.parts[p].serving, self.parts[p].epoch);
                self.line(format!("fault split_promote partition={p}"));
                self.promote_follower(p)?;
                // The deposed primary is still alive and doesn't know:
                // a router with the old map sends it one more write.
                self.stale_write(p, deposed, stale_epoch)?;
                // It then rejoins as a follower of the new primary.
                self.rejoin(p, deposed)
            }
        }
    }

    /// The router's failover: bump the epoch and promote the follower.
    fn promote_follower(&mut self, p: usize) -> Result<(), String> {
        let Some(f) = self.parts[p].follower else {
            return Err(format!("partition {p}: no follower to promote"));
        };
        let epoch = self.parts[p].epoch + 1;
        let promote = Request::Promote {
            partition: p as u16,
            epoch,
        };
        let Response::Promoted { next_lsn, .. } = self.send(p, f, promote)? else {
            return Err(format!("partition {p}: promotion refused"));
        };
        let part = &mut self.parts[p];
        part.epoch = epoch;
        part.serving = f;
        part.follower = None;
        lock(&part.link).isolated = 0;
        self.c.promotions += 1;
        self.line(format!(
            "promoted partition={p} epoch={epoch} lsn={next_lsn}"
        ));
        Ok(())
    }

    /// A deposed-but-alive primary takes one more write under the old
    /// epoch. Its own shipment is refused by the promoted node, so it
    /// fences itself and answers `StaleEpoch`: the write is never acked.
    fn stale_write(&mut self, p: usize, deposed: usize, stale_epoch: u64) -> Result<(), String> {
        let maintain = Request::Maintain {
            now: self.now,
            idle_for: adcast_stream::clock::Duration::from_secs(1),
        };
        let reply = self.route(
            p,
            Some((deposed, stale_epoch)),
            TraceContext::NONE,
            maintain,
        )?;
        let Response::Error(WireError::StaleEpoch { current }) = reply else {
            return Err(format!(
                "partition {p}: stale write (epoch {stale_epoch}) was answered {reply:?}"
            ));
        };
        self.c.fenced_writes += 1;
        self.line(format!(
            "fenced partition={p} stale_epoch={stale_epoch} current={current} reply={reply:?}"
        ));
        let Response::ClusterStatusReply {
            role,
            epoch,
            fenced: true,
            ..
        } = self.send(p, deposed, Request::ClusterStatus)?
        else {
            return Err(format!("partition {p}: deposed node is not fenced"));
        };
        self.line(format!(
            "cluster_status partition={p} node={deposed} role={role:?} epoch={epoch} fenced=true"
        ));
        Ok(())
    }

    /// Restart a fenced ex-primary as the follower of the current
    /// primary under the new epoch. Its WAL diverged (the fenced write),
    /// so the next shipment meets an LSN gap and the primary rebuilds it
    /// by snapshot transfer.
    fn rejoin(&mut self, p: usize, n: usize) -> Result<(), String> {
        let part = &self.parts[p];
        let mut node = lock(&part.nodes[n]);
        // The old process exits first: its WAL and persister are released
        // before the restart recovers from the same disk.
        drop(node.take_durability());
        let state = ClusterState::follower(p as u16, part.epoch);
        *node = boot(&self.shape, &part.backends[n], state, &part.link, 1 - n)?;
        drop(node);
        self.parts[p].follower = Some(n);
        self.line(format!("rejoined partition={p} as follower"));
        Ok(())
    }

    /// Node `n` must hold exactly a clean replay of the acked log up to
    /// its LSN. Serve-time engine state (score caches, work counters)
    /// lives only on the node that served, so the comparison is against
    /// a replay twin, not a live peer's bytes; a pair whose standby was
    /// seeded by a live snapshot is checked by LSN accounting alone.
    fn check_twin(&mut self, p: usize, n: usize) -> Result<(), String> {
        let part = &self.parts[p];
        if part.snapshot_seeded {
            return Ok(());
        }
        let lsn = self.lsn(p, n);
        let records = part
            .acked_log
            .get(..lsn as usize)
            .ok_or_else(|| format!("partition {p}: lsn {lsn} is past the acked log"))?;
        if self.image(p, n) != self.shape.replay_twin(records)? {
            return Err(format!(
                "partition {p}: node {n} diverges from acked-log replay at lsn {lsn}"
            ));
        }
        self.c.twin_checks += 1;
        Ok(())
    }

    fn serve_wave(&mut self) -> Result<(), String> {
        let num_partitions = self.parts.len();
        let mut served = 0u64;
        let mut top = None;
        for _ in 0..self.config.wave_users {
            let user = UserId(self.rng.gen_range(0..self.shape.num_users));
            let p = user.index() % num_partitions;
            let recommend = Request::Recommend {
                user,
                now: self.now,
                location: adcast_stream::event::LocationId(0),
                k: u16::try_from(self.config.engine.k).unwrap_or(u16::MAX),
            };
            let reply = self.route(p, None, TraceContext::NONE, recommend)?;
            let Response::Recommendations(recs) = reply else {
                return Err(format!("partition {p}: recommend answered {reply:?}"));
            };
            served += recs.len() as u64;
            if top.is_none() {
                top = recs.first().map(|r| r.ad);
            }
        }
        self.c.recommends += self.config.wave_users as u64;
        self.c.served += served;
        // Impressions are control-plane: broadcast the charge to every
        // partition in the same order, like the router does.
        if let Some(ad) = top {
            let clicked = self.rng.gen_range(0..10u32) == 0;
            for p in 0..num_partitions {
                let impression = Request::Impression {
                    ad,
                    cost: self.config.impression_cost,
                    clicked,
                    now: self.now,
                };
                self.write(p, impression)?;
            }
            self.c.impressions += 1;
        }
        self.line(format!(
            "wave users={} served={served} impressions={}",
            self.config.wave_users, self.c.impressions
        ));
        Ok(())
    }

    fn line(&mut self, body: String) {
        self.transcript.push(format!("t={} {body}", self.now));
    }

    fn render_summary(&self) -> String {
        let c = &self.c;
        let mut s = String::new();
        for (key, value) in [
            ("partitions", c.partitions),
            ("batches", c.batches),
            ("acked_deltas", c.acked_deltas),
            ("acked_records", c.acked_records),
            ("recommends", c.recommends),
            ("served", c.served),
            ("impressions", c.impressions),
            ("shipments", c.shipments),
            ("dropped_shipments", c.dropped_shipments),
            ("kills", c.kills),
            ("promotions", c.promotions),
            ("fenced_writes", c.fenced_writes),
            ("lsn_gap_refusals", c.lsn_gap_refusals),
            ("catch_up_snapshots", c.catch_up_snapshots),
            ("twin_checks", c.twin_checks),
        ] {
            s.push_str(key);
            s.push('=');
            s.push_str(&value.to_string());
            s.push('\n');
        }
        // The shared clock only sequences fsyncs; assert it advanced so
        // a future refactor can't silently bypass the simulated disk.
        debug_assert!(self.clock.now_ns() > 0 || c.acked_records == 0);
        s
    }
}
