//! The scenario runner: a simulated day against the production stack.
//!
//! [`run`] drives N partitions over virtual time, single-threaded, each
//! served by a production [`Node`] on its own [`MemBackend`], with or
//! without a follower. One partition without a follower is a standalone
//! node taking plain requests, as `adcast-serve` without `--partition`
//! serves them. Every other shape is cluster-mode primaries behind the
//! router's own decisions ([`adcast_cluster::route`]): each client
//! request is planned into legs, the legs run one after another in
//! partition order in the router's envelopes, and their replies merge as
//! the router merges them; a failover asks for and adopts the router's
//! epoch. Every write, pacing flights included, is a client request on
//! that path, and the record the oracles replay for it is the one
//! [`wal_record`] maps it to, the mapping the node logs by. Followers
//! replicate through the in-process `link`.
//!
//! Determinism: the transcript and summary derive only from the seeded
//! workload, the runner's seeded RNG, and counters kept on this thread.
//! Fsyncs (the snapshot persisters' too) advance the shared [`SimClock`],
//! so it is never printed: workload event time stamps every line, and
//! disk is read only once every persister has been joined.
//!
//! The oracles of the crate doc run on every shape, in `check_twin`,
//! `check_acked` and `check_logs`, each where its doc says.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, Weak};

use adcast_ads::AdStore;
use adcast_cluster::route;
use adcast_core::{EngineStats, ShardedDriver};
use adcast_durability::recovery::recover_on;
use adcast_durability::snapshot::EngineSetSnapshot;
use adcast_durability::wal::{list_segment_lsns_on, read_segment_on};
use adcast_durability::{apply_record, Durability, DurabilityOptions, StorageBackend, WalRecord};
use adcast_feed::FeedDelta;
use adcast_graph::UserId;
use adcast_net::protocol::{wal_record, CampaignSpec, Logged, Request, Response, WireError};
use adcast_net::replication::{ClusterState, ReplicaSetup};
use adcast_net::synth::{self, SynthWorkload};
use adcast_net::{ClusterConfig, Node};
use adcast_obs::tracestore::{head_sample, TraceContext};
use adcast_stream::clock::{now_ns, Duration, SimClock, Timestamp};
use adcast_stream::event::LocationId;
use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::backend::MemBackend;
use crate::link::{lock, Link, SimSink};
use crate::scenario::{Fault, SimConfig};

/// Declares [`SimCounters`] and its fixed summary order in one list.
macro_rules! counters {
    ($($name:ident: $doc:literal,)*) => {
        /// Deterministic run counters (everything the summary renders).
        #[derive(Debug, Default, Clone, PartialEq, Eq)]
        pub struct SimCounters {
            $(#[doc = $doc] pub $name: u64,)*
        }

        impl SimCounters {
            /// Every counter by name, in declaration order.
            fn named(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name)),*]
            }
        }
    };
}

counters! {
    partitions: "Partitions in the run.",
    campaigns: "Campaigns submitted up front.",
    batches: "Ingest batches applied (whole batches, before the split).",
    acked_deltas: "Feed deltas acked across all partitions.",
    acked_records: "WAL records acked across all partitions.",
    recommends: "Recommendation requests served.",
    served: "Recommendations returned across all requests.",
    impressions: "Impressions charged (each one a record on every partition).",
    exhausted: "Impressions that exhausted a campaign's budget.",
    sheds: "Phantom requests shed by the bounded admission queue.",
    maint_passes: "Maintenance passes run.",
    maint_scanned: "Users examined by maintenance.",
    maint_decayed: "Idle users reset by maintenance.",
    maint_pruned: "Ended-flight campaigns evicted, summed over partitions.",
    crashes: "Primaries crash-recovered in place.",
    twin_checks: "Byte-identical state checks passed.",
    lost_records: "Batches lost in crashes before their commit (never acked).",
    lost_acked: "Acked records lost to a crash (only under weaker fsync policies).",
    replayed_records: "WAL records replayed across all crash recoveries.",
    torn_bytes: "Torn bytes truncated across all crash recoveries.",
    kills: "Primaries killed.",
    promotions: "Follower promotions (failover + split-brain).",
    fenced_writes: "Writes refused because the node was fenced or deposed.",
    shipments: "Replicated shipments acked durable by a follower.",
    dropped_shipments: "Shipments dropped while a follower link was down.",
    lsn_gap_refusals: "Typed `LsnGap` refusals from reconnecting followers.",
    catch_up_snapshots: "Snapshot-transfer catch-ups (gap recovery + rejoins).",
    snapshots_written: "Snapshots persisted by the live nodes since their last boot.",
    wal_records: "WAL records the live nodes appended since their last boot.",
    fsyncs: "fsyncs issued by every backend (WALs + snapshot persisters).",
    store_active: "Campaigns still active at the end (partition 0's primary).",
    disk_bytes: "Data-dir bytes of the live nodes once their persisters settled.",
    disk_files: "Data-dir files of the live nodes once their persisters settled.",
}

/// What a run produced; transcript and summary are byte-identical
/// across runs of the same config.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// One line per event, stamped with virtual event time.
    pub transcript: String,
    /// Fixed-order `key=value` lines: the node shape, [`SimCounters`],
    /// and engine work counters summed over the serving nodes (each
    /// since its last boot, like `snapshots_written`).
    pub summary: String,
    /// The counters behind the summary.
    pub counters: SimCounters,
}

/// One partition's nodes plus the router's view of them.
struct Partition {
    /// Every node that served the partition, by slot: the primary at 0,
    /// the follower (when the scenario has one) at 1.
    nodes: Vec<Arc<Mutex<Node>>>,
    backends: Vec<Arc<MemBackend>>,
    link: Arc<Mutex<Link>>,
    /// Slot of the current primary.
    serving: usize,
    /// Slot of the current follower, when one is attached.
    follower: Option<usize>,
    /// The router's epoch for this partition.
    epoch: u64,
    /// Every record acked to a client, in ack order — the loss oracle.
    acked_log: Vec<WalRecord>,
}

struct Runner {
    config: SimConfig,
    options: DurabilityOptions,
    parts: Vec<Partition>,
    rng: SmallRng,
    now: Timestamp,
    last_maint: Timestamp,
    backlog: u64,
    storm_steps_left: u64,
    storm_arrivals: u64,
    homes: Vec<LocationId>,
    transcript: Vec<String>,
    c: SimCounters,
}

/// Execute one scenario to completion.
///
/// # Errors
///
/// A reason when the config asks for a shape the runner refuses, or
/// when durability, replication or promotion fails or an oracle finds
/// divergence (a bug in the stack, not in the scenario).
pub fn run(config: SimConfig) -> Result<SimOutcome, String> {
    let (runner, workload) = Runner::new(config)?;
    runner.execute(workload)
}

impl Runner {
    /// Check the config, build its workload, and boot every partition's
    /// nodes on fresh simulated disks.
    fn new(config: SimConfig) -> Result<(Runner, SynthWorkload), String> {
        config.check()?;
        let workload = synth::build(&config.synth);
        let clock = Arc::new(SimClock::new());
        let options = DurabilityOptions {
            wal: config.wal,
            snapshot_every: config.snapshot_every,
            keep_snapshots: config.keep_snapshots,
        };
        let seed = config.synth.seed;
        let mut runner = Runner {
            config,
            options,
            parts: Vec::new(),
            // A distinct stream from the workload generator's, so harness
            // choices (wave users, clicks) never alias workload structure.
            rng: SmallRng::seed_from_u64(seed ^ 0x51D_CA57),
            now: Timestamp::EPOCH,
            last_maint: Timestamp::EPOCH,
            backlog: 0,
            storm_steps_left: 0,
            storm_arrivals: 0,
            homes: workload.homes.clone(),
            transcript: Vec::new(),
            c: SimCounters::default(),
        };
        let slots = if runner.config.followers { 2 } else { 1 };
        for p in 0..runner.config.partitions as u16 {
            let latency = runner.config.fsync_latency_ns;
            let backends: Vec<_> = (0..slots)
                .map(|_| MemBackend::new(Arc::clone(&clock), latency))
                .collect();
            let link = Arc::default();
            let mut nodes = Vec::with_capacity(slots);
            for (n, backend) in backends.iter().enumerate() {
                let state = if n == 0 {
                    ClusterState::primary(p, 0)
                } else {
                    ClusterState::follower(p, 0)
                };
                let node = Arc::new(Mutex::new(runner.boot(backend, state, &link, n)?));
                lock(&link).nodes[n] = Arc::downgrade(&node);
                nodes.push(node);
            }
            runner.parts.push(Partition {
                nodes,
                backends,
                link,
                serving: 0,
                follower: runner.config.followers.then_some(1),
                epoch: 0,
                acked_log: Vec::new(),
            });
        }
        Ok((runner, workload))
    }

    /// One partition without a follower: a plain node, plain requests.
    fn standalone(&self) -> bool {
        self.config.partitions == 1 && !self.config.followers
    }

    /// Start (or restart) a node process on `backend` in `state`:
    /// recover whatever is on disk, continue its WAL, and, when the
    /// scenario has followers, ship to the other slot of `link`.
    fn boot(
        &self,
        backend: &Arc<MemBackend>,
        state: ClusterState,
        link: &Arc<Mutex<Link>>,
        slot: usize,
    ) -> Result<Node, String> {
        let mut cluster = ClusterConfig::default();
        if !self.standalone() {
            cluster.state = state;
        }
        if self.config.followers {
            let partition = cluster.state.partition;
            let (link, peer) = (Arc::clone(link), 1 - slot);
            cluster.sink = Some(Box::new(SimSink {
                link,
                partition,
                peer,
            }));
            cluster.replica = Some(ReplicaSetup {
                backend: Arc::clone(backend) as Arc<dyn StorageBackend>,
                options: self.options,
                engine: self.config.engine.clone(),
            });
        }
        let backend = Arc::clone(backend) as Arc<dyn StorageBackend>;
        let (users, shards) = (self.config.synth.num_users, self.config.num_shards);
        let (engine, wal) = (self.config.engine.clone(), self.options.wal);
        let recovered = recover_on(Arc::clone(&backend), users, shards, engine, wal)
            .map_err(|e| e.to_string())?;
        let durability = Durability::new_on(backend, recovered.wal, self.options, recovered.report);
        let (store, driver) = (recovered.store, recovered.driver);
        Ok(Node::new(store, driver, Some(durability), cluster))
    }

    /// Replay `records` into a fresh store + driver and capture the
    /// result at LSN `records.len()` — the oracle every twin check
    /// compares against.
    fn replay_twin(&self, records: &[WalRecord]) -> Result<Bytes, String> {
        let (users, shards) = (self.config.synth.num_users, self.config.num_shards);
        let mut store = AdStore::new();
        let mut driver = ShardedDriver::new(users, shards, self.config.engine.clone());
        for record in records {
            apply_record(&mut store, &mut driver, record.clone())?;
        }
        Ok(EngineSetSnapshot::capture(records.len() as u64, &store, &driver).encode())
    }

    fn execute(mut self, workload: SynthWorkload) -> Result<SimOutcome, String> {
        self.c.partitions = self.parts.len() as u64;
        self.submit_campaigns(workload.campaigns)?;

        let script = self.config.faults.clone();
        for (i, batch) in workload.batches.into_iter().enumerate() {
            // Fault script first: the fault "arrives" before the batch.
            let mut crash = false;
            for f in script.iter().filter(|f| f.at_batch == i) {
                crash |= self.fire(f.fault)?;
            }

            self.now = event_time(self.now, &batch);
            let ingest = Request::Ingest { deltas: batch };
            if crash {
                // Every primary goes down with its leg of the batch.
                let mut legs = self.plan(ingest)?.legs.into_iter().peekable();
                for p in 0..self.parts.len() {
                    let leg = legs.next_if(|(q, _)| usize::from(*q) == p);
                    self.crash_and_recover(p, leg.map(|(_, leg)| leg))?;
                }
                continue;
            }

            self.admission_step();
            let reply = self.serve(ingest)?;
            let Response::Ingested { accepted } = reply else {
                return Err(format!("batch {i} answered {reply:?}"));
            };
            let routed = u64::from(accepted);
            self.c.batches += 1;
            self.c.acked_deltas += routed;
            self.line(format!(
                "ingest batch={i} deltas={routed} backlog={} shed_total={}",
                self.backlog, self.c.sheds
            ));

            if self.config.recommend_every > 0 && (i + 1) % self.config.recommend_every == 0 {
                self.serve_wave()?;
            }
            self.maybe_maintain()?;
        }
        self.finish()
    }

    /// End-of-run oracles, then settle every live node and read disk.
    fn finish(mut self) -> Result<SimOutcome, String> {
        // Every live follower that isn't mid-gap must be at its primary's
        // LSN; every primary must hold exactly the acked log; and every
        // live node, primaries that served reads included, must hold
        // exactly a replay of the acked log up to its LSN (a hot
        // standby, not a cold log copy).
        for p in 0..self.parts.len() {
            let (serving, follower) = (self.parts[p].serving, self.parts[p].follower);
            if let Some(f) = follower {
                let (primary_lsn, follower_lsn) = (self.lsn(p, serving), self.lsn(p, f));
                if lock(&self.parts[p].link).isolated == 0 && follower_lsn != primary_lsn {
                    return Err(format!(
                        "partition {p}: follower at lsn {follower_lsn}, primary at {primary_lsn}"
                    ));
                }
            }
            self.check_acked(p)?;
            for n in std::iter::once(serving).chain(follower) {
                self.check_twin(p, n)?;
            }
        }

        // Settle: every live node's process exits — its WAL buffer
        // flushed, its snapshot persister joined — so WAL bytes and disk
        // numbers are stable before anything reads them.
        let mut engine = EngineStats::default();
        for part in &self.parts {
            for n in std::iter::once(part.serving).chain(part.follower) {
                let mut node = lock(&part.nodes[n]);
                if n == part.serving {
                    engine = [engine, node.driver().stats()].into_iter().sum();
                }
                let durability = node.take_durability().ok_or("durability live at end")?;
                let counters = durability.close();
                self.c.wal_records += counters.wal_records;
                self.c.snapshots_written += counters.snapshots_written;
                self.c.disk_bytes += part.backends[n].total_bytes();
                self.c.disk_files += part.backends[n].file_count() as u64;
            }
            let link = lock(&part.link);
            self.c.shipments += link.c.shipments;
            self.c.dropped_shipments += link.c.dropped_shipments;
            self.c.lsn_gap_refusals += link.c.lsn_gap_refusals;
            self.c.catch_up_snapshots += link.c.catch_up_snapshots;
        }
        let backends = self.parts.iter().flat_map(|part| &part.backends);
        self.c.fsyncs = backends.map(|b| b.fsyncs()).sum();
        let first = &self.parts[0];
        self.c.store_active = lock(&first.nodes[first.serving]).store().num_active() as u64;
        for p in 0..self.parts.len() {
            if let Some(f) = self.parts[p].follower {
                self.check_logs(p, f)?;
            }
        }
        let c = &self.c;
        let done = format!("done batches={} disk_bytes={}", c.batches, c.disk_bytes);
        self.line(done);

        let summary = self.render_summary(&engine);
        let mut transcript = self.transcript.join("\n");
        transcript.push('\n');
        Ok(SimOutcome {
            transcript,
            summary,
            counters: self.c,
        })
    }

    /// Campaigns go to every partition in one global order, so replayed
    /// campaign ids agree across the cluster (DESIGN §14); so does every
    /// pacing flight, which the router broadcasts like a submission.
    fn submit_campaigns(&mut self, campaigns: Vec<CampaignSpec>) -> Result<(), String> {
        let total = campaigns.len();
        for (i, spec) in campaigns.into_iter().enumerate() {
            let reply = self.serve(Request::SubmitCampaign(spec))?;
            let Response::CampaignAccepted { ad } = reply else {
                return Err(format!("campaign {i} answered {reply:?}"));
            };
            self.c.campaigns += 1;
            if self.config.paced_every > 0 && i % self.config.paced_every == 0 {
                let reply = self.serve(Request::SetPacing {
                    ad,
                    start: Timestamp::EPOCH,
                    end: Timestamp::from_secs(self.config.flight_secs),
                    budget: self.config.flight_budget,
                })?;
                if reply != (Response::PacingSet { ad }) {
                    return Err(format!("campaign {i}: pacing answered {reply:?}"));
                }
            }
        }
        self.line(format!(
            "submitted campaigns={total} partitions={} paced_every={}",
            self.parts.len(),
            self.config.paced_every
        ));
        Ok(())
    }

    /// Fire one fault; `true` when it is a crash, which takes the batch
    /// it interrupts down with it.
    fn fire(&mut self, fault: Fault) -> Result<bool, String> {
        match fault {
            Fault::FsyncStall { ms } => {
                for part in &self.parts {
                    part.backends[part.serving].stall_next_fsync(ms * 1_000_000);
                }
                self.line(format!("fault fsync_stall ms={ms}"));
            }
            Fault::ShedStorm { arrivals, steps } => {
                self.storm_arrivals = arrivals;
                self.storm_steps_left = steps;
                self.line(format!(
                    "fault shed_storm arrivals={arrivals} steps={steps}"
                ));
            }
            Fault::Crash => return Ok(true),
            Fault::KillPrimary { partition } => {
                let p = usize::from(partition);
                let part = &self.parts[p];
                let n = part.serving;
                lock(&part.link).nodes[n] = Weak::new();
                // The process dies with its persister idle, so the torn
                // disk is a pure function of the run.
                drop(lock(&part.nodes[n]).take_durability());
                part.backends[n].crash();
                self.c.kills += 1;
                self.line(format!("fault kill_primary partition={p}"));
                self.promote_follower(p)?;
                // Zero acked loss: every acked record is durable and
                // applied on the promoted node, byte for byte.
                let lsn = self.check_acked(p)?;
                self.check_twin(p, self.parts[p].serving)?;
                self.line(format!("twin partition={p} lsn={lsn} ok"));
            }
            Fault::IsolateFollower { partition, batches } => {
                let p = usize::from(partition);
                if self.parts[p].follower.is_none() {
                    return Err(format!("partition {p} has no follower to isolate"));
                }
                lock(&self.parts[p].link).isolated = batches;
                self.line(format!(
                    "fault isolate_follower partition={p} batches={batches}"
                ));
            }
            Fault::SplitPromote { partition } => {
                let p = usize::from(partition);
                let (deposed, stale_epoch) = (self.parts[p].serving, self.parts[p].epoch);
                self.line(format!("fault split_promote partition={p}"));
                self.promote_follower(p)?;
                // The deposed primary is still alive and doesn't know:
                // a router with the old map sends it one more write.
                self.stale_write(p, deposed, stale_epoch)?;
                // It then rejoins as a follower of the new primary.
                self.rejoin(p, deposed)?;
            }
        }
        Ok(false)
    }

    /// Deliver `f` to node `n` of partition `p`, as the network would,
    /// and surface any protocol violation its replication met.
    fn deliver<R>(&self, p: usize, n: usize, f: impl FnOnce(&mut Node) -> R) -> Result<R, String> {
        let part = &self.parts[p];
        let out = f(&mut lock(&part.nodes[n]));
        lock(&part.link).failure.take().map_or(Ok(out), Err)
    }

    /// Deliver `req` to node `n` of partition `p`.
    fn send(&self, p: usize, n: usize, req: Request) -> Result<Response, String> {
        self.deliver(p, n, |node| node.handle(req, now_ns()))
    }

    /// The router's forward: leg `req` to node `n` of partition `p` under
    /// `epoch` (the serving node's, unless given), in the router's
    /// envelope unless the node is standalone.
    fn route(
        &self,
        p: usize,
        target: Option<(usize, u64)>,
        trace: TraceContext,
        req: Request,
    ) -> Result<Response, String> {
        let part = &self.parts[p];
        let (n, epoch) = target.unwrap_or((part.serving, part.epoch));
        if self.standalone() {
            return self.send(p, n, req);
        }
        self.send(p, n, route::envelope(p as u16, epoch, trace, req))
    }

    /// The router's plan for `req` over this run's partitions.
    fn plan(&self, req: Request) -> Result<route::Plan, String> {
        route::plan(req, self.parts.len()).map_err(|e| e.to_string())
    }

    /// One client request as the router serves it: planned, its legs
    /// run one after another in partition order (a read routed, a
    /// mutation written), and their replies merged.
    fn serve(&mut self, req: Request) -> Result<Response, String> {
        let route::Plan { legs, merge } = self.plan(req)?;
        let mut replies = Vec::with_capacity(legs.len());
        for (p, leg) in legs {
            let p = usize::from(p);
            replies.push(if matches!(leg, Request::Recommend { .. }) {
                self.route(p, None, TraceContext::NONE, leg)?
            } else {
                self.write(p, leg)?
            });
        }
        Ok(merge.merge(replies))
    }

    /// Partition `p`'s replication counts (shipments, snapshot installs).
    fn shipped(&self, p: usize) -> (u64, u64) {
        let link = lock(&self.parts[p].link);
        (link.c.shipments, link.c.catch_up_snapshots)
    }

    /// One client write on partition `p`: routed to the serving node,
    /// which runs the whole ack ladder; a non-error reply is the ack and
    /// the record the node logged joins the loss oracle.
    fn write(&mut self, p: usize, req: Request) -> Result<Response, String> {
        let record = record_of(&req)?;
        // An isolated link stays down for its partition's next ingests.
        let ingest = matches!(record, WalRecord::IngestBatch(_));
        // Head sampling exactly like the live router's: the id is a pure
        // function of (synth seed, acked-record ordinal).
        let every = self.config.trace_sample;
        let trace = head_sample(self.config.synth.seed, every, self.c.acked_records);
        let (shipments, installs) = self.shipped(p);
        let reply = self.route(p, None, trace, req)?;
        if let Response::Error(e) = reply {
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
        if ingest {
            let mut link = lock(&self.parts[p].link);
            link.isolated = link.isolated.saturating_sub(1);
        }
        Ok(reply)
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
        let node = lock(&self.parts[p].nodes[n]);
        let next_lsn = node.durability().map_or(0, Durability::next_lsn);
        EngineSetSnapshot::capture(next_lsn, node.store(), node.driver()).encode()
    }

    /// The router's failover: promote the follower under the router's
    /// epoch rule.
    fn promote_follower(&mut self, p: usize) -> Result<(), String> {
        let Some(f) = self.parts[p].follower else {
            return Err(format!("partition {p}: no follower to promote"));
        };
        let promote = route::promotion(p as u16, self.parts[p].epoch);
        let reply = self.send(p, f, promote)?;
        let Some(epoch) = route::adopted_epoch(&reply) else {
            return Err(format!("partition {p}: promotion answered {reply:?}"));
        };
        let next_lsn = self.lsn(p, f);
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
            idle_for: self.config.idle_for,
        };
        let target = Some((deposed, stale_epoch));
        let reply = self.route(p, target, TraceContext::NONE, maintain)?;
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
        *node = self.boot(&part.backends[n], state, &part.link, n)?;
        drop(node);
        self.parts[p].follower = Some(n);
        self.line(format!("rejoined partition={p} as follower"));
        Ok(())
    }

    /// Power loss on partition `p`'s primary with its leg of the batch,
    /// if it has one, logged but never committed, then recovery in place
    /// and the bit-identical twin check.
    fn crash_and_recover(&mut self, p: usize, leg: Option<Request>) -> Result<(), String> {
        let part = &self.parts[p];
        let n = part.serving;
        let mut node = lock(&part.nodes[n]);
        let mut durability = node.take_durability().ok_or("durability live")?;
        let lost = leg.is_some();
        if let Some(leg) = leg {
            durability
                .log(&record_of(&leg)?)
                .map_err(|e| e.to_string())?;
        }
        // Dropping flushes the writer's buffer (unsynced bytes) and joins
        // the snapshot persister — anything it finished is on "disk".
        drop(durability);
        let crash = part.backends[n].crash();
        let state = ClusterState::primary(p as u16, part.epoch);
        *node = self.boot(&part.backends[n], state, &part.link, n)?;
        let durability = node.durability().ok_or("durability live")?;
        let (next_lsn, report) = (durability.next_lsn(), durability.recovery_report());
        drop(node);
        let acked_log = &mut self.parts[p].acked_log;
        if acked_log.len() as u64 > next_lsn {
            self.c.lost_acked += acked_log.len() as u64 - next_lsn;
            acked_log.truncate(next_lsn as usize);
        }
        self.c.crashes += 1;
        self.c.lost_records += u64::from(lost);
        self.c.replayed_records += report.replayed_records;
        self.c.torn_bytes += report.truncated_bytes + crash.bytes_lost;
        self.check_twin(p, n)?;
        self.line(format!(
            "crash partition={p} recovered_lsn={next_lsn} replayed={} snapshot_lsn={} twin=ok",
            report.replayed_records,
            report
                .snapshot_lsn
                .map_or_else(|| "none".to_string(), |l| l.to_string()),
        ));
        Ok(())
    }

    /// Node `n` must hold exactly a clean replay of the acked log up to
    /// its LSN. Reads are pure and a snapshot holds only log-derived
    /// state, so this holds for every node: one that served reads, one
    /// recovered from its own snapshot, one seeded by a peer's.
    fn check_twin(&mut self, p: usize, n: usize) -> Result<(), String> {
        let part = &self.parts[p];
        let lsn = self.lsn(p, n);
        let records = part
            .acked_log
            .get(..lsn as usize)
            .ok_or_else(|| format!("partition {p}: lsn {lsn} is past the acked log"))?;
        if self.image(p, n) != self.replay_twin(records)? {
            return Err(format!(
                "partition {p}: node {n} diverges from acked-log replay at lsn {lsn}"
            ));
        }
        self.c.twin_checks += 1;
        Ok(())
    }

    /// Partition `p`'s primary must be at exactly the LSN its acked log
    /// reaches: nothing acked is missing, nothing unacked was kept.
    /// Returns that LSN.
    fn check_acked(&mut self, p: usize) -> Result<u64, String> {
        let acked = self.parts[p].acked_log.len() as u64;
        let lsn = self.lsn(p, self.parts[p].serving);
        if acked != lsn {
            return Err(format!(
                "partition {p}: {acked} acked records but primary lsn {lsn}"
            ));
        }
        Ok(lsn)
    }

    /// Follower `f`'s WAL must hold the primary's record bytes at every
    /// LSN both logs still have: the follower logs what was shipped
    /// verbatim, and the primary ships what it logged. Both logs are
    /// gap-free (see [`wal_records`]), so the LSNs compared are the whole
    /// range the two share.
    fn check_logs(&mut self, p: usize, f: usize) -> Result<(), String> {
        let part = &self.parts[p];
        let primary: BTreeMap<u64, Bytes> = wal_records(&*part.backends[part.serving])?
            .into_iter()
            .collect();
        let mut shared = 0u64;
        for (lsn, body) in wal_records(&*part.backends[f])? {
            match primary.get(&lsn) {
                Some(ours) if *ours != body => {
                    return Err(format!(
                        "partition {p}: follower wal record {lsn} differs from the primary's"
                    ));
                }
                Some(_) => shared += 1,
                None => {}
            }
        }
        self.line(format!("wal_identical partition={p} records={shared}"));
        Ok(())
    }

    /// One step of the bounded-admission model: phantom arrivals compete
    /// for queue space, overflow is shed (mirrors the server's bounded
    /// request queue + `Overloaded` refusal).
    fn admission_step(&mut self) {
        let mut arrivals = 1;
        if self.storm_steps_left > 0 {
            self.storm_steps_left -= 1;
            arrivals += self.storm_arrivals;
        }
        self.backlog += arrivals;
        let drained = self.backlog.min(self.config.drain_per_step);
        self.backlog -= drained;
        if self.backlog > self.config.queue_depth {
            self.c.sheds += self.backlog - self.config.queue_depth;
            self.backlog = self.config.queue_depth;
        }
    }

    /// Recommend to `wave_users` random users at their home locations,
    /// then charge each served user's top pick on every partition.
    fn serve_wave(&mut self) -> Result<(), String> {
        let mut served = 0u64;
        let mut charges = Vec::with_capacity(self.config.wave_users);
        for _ in 0..self.config.wave_users {
            let user = UserId(self.rng.gen_range(0..self.config.synth.num_users));
            let recommend = Request::Recommend {
                user,
                now: self.now,
                location: self.homes[user.index()],
                k: u16::try_from(self.config.engine.k).unwrap_or(u16::MAX),
            };
            let reply = self.serve(recommend)?;
            let Response::Recommendations(recs) = reply else {
                return Err(format!("user {}: recommend answered {reply:?}", user.0));
            };
            served += recs.len() as u64;
            if let Some(top) = recs.first() {
                let clicked = self.rng.gen_range(0..10u32) == 0;
                charges.push((top.ad, clicked));
            }
        }
        self.c.recommends += self.config.wave_users as u64;
        self.c.served += served;
        for (ad, clicked) in charges {
            let impression = Request::Impression {
                ad,
                cost: self.config.impression_cost,
                clicked,
                now: self.now,
            };
            let reply = self.serve(impression)?;
            self.c.impressions += 1;
            let exhausted = Response::ImpressionRecorded {
                ad,
                exhausted: true,
            };
            self.c.exhausted += u64::from(reply == exhausted);
        }
        self.line(format!(
            "wave users={} served={served} impressions={}",
            self.config.wave_users, self.c.impressions
        ));
        Ok(())
    }

    fn maybe_maintain(&mut self) -> Result<(), String> {
        if self.config.maintenance_every == Duration::ZERO
            || self.now.since(self.last_maint) < self.config.maintenance_every
        {
            return Ok(());
        }
        self.last_maint = self.now;
        let maintain = Request::Maintain {
            now: self.now,
            idle_for: self.config.idle_for,
        };
        let reply = self.serve(maintain)?;
        let Response::Maintained {
            scanned,
            decayed,
            pruned,
        } = reply
        else {
            return Err(format!("maintenance answered {reply:?}"));
        };
        self.c.maint_passes += 1;
        self.c.maint_scanned += scanned;
        self.c.maint_decayed += decayed;
        self.c.maint_pruned += pruned;
        self.line(format!(
            "maintenance scanned={scanned} decayed={decayed} pruned={pruned}"
        ));
        Ok(())
    }

    fn line(&mut self, body: String) {
        self.transcript.push(format!("t={} {body}", self.now));
    }

    fn render_summary(&self, engine: &EngineStats) -> String {
        let shape = [
            ("users", u64::from(self.config.synth.num_users)),
            ("shards", self.config.num_shards as u64),
            ("followers", u64::from(self.config.followers)),
        ];
        let work = [
            ("engine_deltas", engine.deltas),
            ("engine_postings_scanned", engine.postings_scanned),
            ("engine_ads_scored", engine.ads_scored),
            ("engine_promotions", engine.promotions),
            ("engine_refreshes", engine.refreshes),
            ("engine_recommends", engine.recommends),
        ];
        let all = shape.into_iter().chain(self.c.named()).chain(work);
        all.map(|(key, value)| format!("{key}={value}\n")).collect()
    }
}

/// Virtual event time after `batch`: its newest message's stamp, never
/// moving backwards.
fn event_time(now: Timestamp, batch: &[(UserId, FeedDelta)]) -> Timestamp {
    let stamps = batch.iter().filter_map(|(_, d)| d.entered.as_ref());
    stamps.map(|m| m.ts).fold(now, Timestamp::max)
}

/// Every `(lsn, record body)` in the WAL on `backend`, in log order.
/// Pruning trims a log from the front only, so a segment that does not
/// start where its predecessor ended is an error.
fn wal_records(backend: &dyn StorageBackend) -> Result<Vec<(u64, Bytes)>, String> {
    let segments = list_segment_lsns_on(backend).map_err(|e| e.to_string())?;
    let mut records: Vec<(u64, Bytes)> = Vec::new();
    for (i, &base) in segments.iter().enumerate() {
        if let Some((last, _)) = records.last().filter(|(last, _)| base != last + 1) {
            return Err(format!("wal jumps from lsn {last} to segment {base}"));
        }
        let is_last = i + 1 == segments.len();
        let segment = read_segment_on(backend, base, is_last).map_err(|e| e.to_string())?;
        records.extend(segment.records);
    }
    Ok(records)
}

/// The WAL record a node logs when it acks `request`, by the node's own
/// mapping — what the twin oracles replay.
fn record_of(request: &Request) -> Result<WalRecord, String> {
    match wal_record(request.clone()) {
        Logged::Write(record) => record.map_err(|e| e.to_string()),
        Logged::Other(other) => Err(format!("{other:?} is not a logged mutation")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcast_durability::wal::WalWriter;

    /// A runner over `config` (one partition) with its campaigns
    /// submitted and the first `batches` ingest batches acked.
    fn warmed(config: SimConfig, batches: usize) -> Runner {
        let (mut runner, workload) = Runner::new(config).unwrap();
        runner.submit_campaigns(workload.campaigns).unwrap();
        for deltas in workload.batches.into_iter().take(batches) {
            runner.write(0, Request::Ingest { deltas }).unwrap();
        }
        runner
    }

    #[test]
    fn a_crash_recovery_that_differs_from_replay_fails_the_run() {
        let mut runner = warmed(SimConfig::smoke(3), 2);
        // Swap campaigns 1 and 2 (campaign 0 is followed by its pacing
        // record): same length, different replay.
        runner.parts[0].acked_log.swap(2, 3);
        let err = runner.crash_and_recover(0, None).unwrap_err();
        assert!(err.contains("diverges from acked-log replay"), "{err}");
    }

    #[test]
    fn an_acked_log_shorter_than_the_primary_lsn_fails_the_run() {
        let mut runner = warmed(SimConfig::smoke(3), 2);
        runner.parts[0].acked_log.pop();
        let err = runner.finish().unwrap_err();
        assert!(err.contains("acked records but primary lsn"), "{err}");
    }

    /// A primary/follower pair that never snapshots, so neither log is
    /// pruned.
    fn pair() -> SimConfig {
        SimConfig {
            followers: true,
            snapshot_every: 0,
            ..SimConfig::smoke(3)
        }
    }

    #[test]
    fn a_follower_wal_record_unlike_the_primary_fails_the_run() {
        let runner = warmed(pair(), 2);
        // Rewrite the follower's one segment with different bytes at its
        // last LSN.
        let backend = Arc::clone(&runner.parts[0].backends[1]) as Arc<dyn StorageBackend>;
        let mut records = wal_records(&*backend).unwrap();
        records.last_mut().unwrap().1 = Bytes::from_static(b"not what the primary logged");
        let mut wal = WalWriter::create_on(backend, runner.options.wal, 0).unwrap();
        for (_, body) in &records {
            wal.append_encoded(body).unwrap();
        }
        wal.commit().unwrap();
        let err = runner.finish().unwrap_err();
        assert!(err.contains("differs from the primary's"), "{err}");
    }

    #[test]
    fn a_follower_wal_missing_a_segment_fails_the_run() {
        let mut config = pair();
        config.wal.segment_bytes = 16 << 10;
        let runner = warmed(config, 3);
        // Drop a segment from the middle of the follower's log: every
        // record both still hold matches, but not every shared LSN.
        let backend = &runner.parts[0].backends[1];
        let segments = list_segment_lsns_on(&**backend).unwrap();
        assert!(segments.len() >= 3, "{segments:?}");
        let name = adcast_durability::wal::segment_file_name(segments[1]);
        backend.remove(&name).unwrap();
        let err = runner.finish().unwrap_err();
        assert!(err.contains("wal jumps from lsn"), "{err}");
    }
}
