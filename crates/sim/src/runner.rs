//! The scenario runner: a simulated day against the production stack.
//!
//! [`run`] executes a [`SimConfig`] single-threaded over virtual time:
//! the synthetic workload's ingest batches, recommendation waves with
//! impression charges, WAL-logged lifecycle maintenance passes, and the
//! fault script — every request answered by the same [`Node::handle`]
//! the live server's engine thread runs, on the in-memory
//! [`MemBackend`]. No real sockets, no real disk, no real sleeping.
//!
//! Determinism contract: the transcript and summary derive only from the
//! workload (seeded), the harness's own RNG (seeded), and counters
//! maintained on the caller's thread. The shared [`SimClock`] is advanced
//! by fsyncs — including the background snapshot persister's — so it is
//! **never** printed; virtual *event* time (the workload's timestamps)
//! stamps every transcript line instead.
//!
//! Crash faults additionally prove the bit-identical-twin property: after
//! recovery the runner replays its own acked record log into a fresh
//! store + driver ([`Shape::replay_twin`]) and compares the two
//! [`EngineSetSnapshot`] encodings byte for byte.

use std::sync::Arc;

use adcast_ads::AdStore;
use adcast_core::{EngineConfig, ShardedDriver};
use adcast_durability::recovery::recover_on;
use adcast_durability::snapshot::EngineSetSnapshot;
use adcast_durability::{apply_record, Durability, DurabilityOptions, StorageBackend, WalRecord};
use adcast_feed::FeedDelta;
use adcast_graph::UserId;
use adcast_net::protocol::{CampaignSpec, Request, Response};
use adcast_net::synth::{self, SynthWorkload};
use adcast_net::{ClusterConfig, Node};
use adcast_stream::clock::{now_ns, SimClock, Timestamp};
use adcast_stream::event::LocationId;
use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::backend::MemBackend;
use crate::scenario::{Fault, SimConfig};

/// Deterministic run counters (everything the summary renders).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SimCounters {
    /// Campaigns submitted up front.
    pub campaigns: u64,
    /// Ingest batches applied.
    pub batches: u64,
    /// Feed deltas applied.
    pub deltas: u64,
    /// Recommendation requests served.
    pub recommends: u64,
    /// Recommendations returned across all requests.
    pub served: u64,
    /// Impressions charged.
    pub impressions: u64,
    /// Impressions that exhausted a campaign's budget.
    pub exhausted: u64,
    /// Phantom requests shed by the bounded admission queue.
    pub sheds: u64,
    /// Maintenance passes run.
    pub maint_passes: u64,
    /// Users examined by maintenance.
    pub maint_scanned: u64,
    /// Idle users reset by maintenance.
    pub maint_decayed: u64,
    /// Finished-flight campaigns evicted by maintenance.
    pub maint_pruned: u64,
    /// Crash faults executed.
    pub crashes: u64,
    /// Twin checks passed (== `crashes` when the run succeeds).
    pub twin_checks: u64,
    /// Batches lost in crashes before their commit (never acked).
    pub lost_records: u64,
    /// Acked records lost to a crash (possible only when the fsync
    /// policy is weaker than `Always`).
    pub lost_acked: u64,
    /// WAL records replayed across all recoveries.
    pub replayed_records: u64,
    /// Torn bytes truncated across all recoveries.
    pub torn_bytes: u64,
    /// Snapshots persisted (periodic + the final checkpoint).
    pub snapshots_written: u64,
    /// WAL records appended over the whole run.
    pub wal_records: u64,
    /// fsyncs issued by the backend (WAL + snapshot persister).
    pub fsyncs: u64,
    /// Campaigns still active at the end.
    pub store_active: u64,
    /// Data-dir bytes after the final checkpoint settled.
    pub disk_bytes: u64,
    /// Data-dir files after the final checkpoint settled.
    pub disk_files: u64,
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// One line per event, stamped with virtual event time. Byte-identical
    /// across runs of the same config.
    pub transcript: String,
    /// Fixed-order `key=value` rendering of [`SimCounters`] plus engine
    /// work counters. Byte-identical across runs of the same config.
    pub summary: String,
    /// The counters behind the summary.
    pub counters: SimCounters,
}

struct Runner {
    config: SimConfig,
    shape: Shape,
    backend: Arc<MemBackend>,
    node: Node,
    /// Every *acked* record in LSN order — the twin-check oracle.
    record_log: Vec<WalRecord>,
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
/// A description when durability fails, a record refuses to apply, or a
/// crash-recovery twin check finds divergence (which would be a bug in
/// the engine/durability stack, not in the scenario).
pub fn run(config: SimConfig) -> Result<SimOutcome, String> {
    let workload = synth::build(&config.synth);
    let clock = Arc::new(SimClock::new());
    let backend = MemBackend::new(Arc::clone(&clock), config.fsync_latency_ns);
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
    let node = shape.boot(&backend, ClusterConfig::default())?;
    let seed = config.synth.seed;
    let runner = Runner {
        config,
        shape,
        backend,
        node,
        record_log: Vec::new(),
        // A distinct stream from the workload generator's, so harness
        // choices (wave users, clicks) never alias workload structure.
        rng: SmallRng::seed_from_u64(seed ^ 0x51D_CA57),
        now: Timestamp::EPOCH,
        last_maint: Timestamp::EPOCH,
        backlog: 0,
        storm_steps_left: 0,
        storm_arrivals: 0,
        homes: Vec::new(),
        transcript: Vec::new(),
        c: SimCounters::default(),
    };
    runner.execute(workload)
}

impl Runner {
    fn execute(mut self, workload: SynthWorkload) -> Result<SimOutcome, String> {
        self.homes = workload.homes;
        self.submit_campaigns(workload.campaigns)?;

        let batches = workload.batches;
        for (i, batch) in batches.into_iter().enumerate() {
            // Fault script first: the fault "arrives" before the batch.
            let mut crash_now = false;
            let due: Vec<Fault> = self
                .config
                .faults
                .iter()
                .filter(|f| f.at_batch == i)
                .map(|f| f.fault)
                .collect();
            for fault in due {
                match fault {
                    Fault::FsyncStall { ms } => {
                        self.backend.stall_next_fsync(ms * 1_000_000);
                        self.line(format!("fault fsync_stall ms={ms}"));
                    }
                    Fault::ShedStorm { arrivals, steps } => {
                        self.storm_arrivals = arrivals;
                        self.storm_steps_left = steps;
                        self.line(format!(
                            "fault shed_storm arrivals={arrivals} steps={steps}"
                        ));
                    }
                    Fault::Crash => crash_now = true,
                }
            }

            self.now = event_time(self.now, &batch);

            if crash_now {
                self.crash_and_recover(WalRecord::IngestBatch(batch))?;
                continue;
            }

            self.admission_step();
            let deltas = batch.len() as u64;
            self.mutate(Request::Ingest { deltas: batch })?;
            self.c.batches += 1;
            self.c.deltas += deltas;
            self.line(format!(
                "ingest batch={i} deltas={deltas} backlog={} shed_total={}",
                self.backlog, self.c.sheds
            ));

            if self.config.recommend_every > 0 && (i + 1) % self.config.recommend_every == 0 {
                self.serve_wave(workload.num_users)?;
            }
            self.maybe_maintain()?;
        }

        // Settle: a final durable checkpoint, then join the persister so
        // disk numbers are stable before we read them.
        if let Response::Error(e) = self.node.handle(Request::Checkpoint, now_ns()) {
            return Err(format!("final checkpoint refused: {e}"));
        }
        let durability = self
            .node
            .take_durability()
            .ok_or("durability live at end")?;
        let counters = durability.counters();
        self.c.wal_records = counters.wal_records;
        drop(durability);
        self.c.snapshots_written = counters.snapshots_written;
        self.c.fsyncs = self.backend.fsyncs();
        self.c.store_active = self.node.store().num_active() as u64;
        self.c.disk_bytes = self.backend.total_bytes();
        self.c.disk_files = self.backend.file_count() as u64;
        self.line(format!(
            "done batches={} wal_records={} disk_bytes={} disk_files={}",
            self.c.batches, self.c.wal_records, self.c.disk_bytes, self.c.disk_files
        ));

        let summary = self.render_summary();
        let mut transcript = self.transcript.join("\n");
        transcript.push('\n');
        Ok(SimOutcome {
            transcript,
            summary,
            counters: self.c,
        })
    }

    fn submit_campaigns(&mut self, campaigns: Vec<CampaignSpec>) -> Result<(), String> {
        let total = campaigns.len();
        for (i, spec) in campaigns.into_iter().enumerate() {
            let Response::CampaignAccepted { ad } = self.mutate(Request::SubmitCampaign(spec))?
            else {
                return Err("submit produced a non-submit reply".to_string());
            };
            self.c.campaigns += 1;
            if self.config.paced_every > 0 && i % self.config.paced_every == 0 {
                // Pacing has no RPC of its own: it enters the node's ack
                // ladder directly.
                let record = WalRecord::SetPacing {
                    ad,
                    start: Timestamp::EPOCH,
                    end: Timestamp::from_secs(self.config.flight_secs),
                    budget: self.config.flight_budget,
                };
                self.node
                    .log_apply(record.clone())
                    .map_err(|e| format!("pacing refused: {e}"))?;
                self.record_log.push(record);
            }
        }
        self.line(format!(
            "submitted campaigns={total} paced_every={}",
            self.config.paced_every
        ));
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

    fn serve_wave(&mut self, num_users: u32) -> Result<(), String> {
        let mut served = 0u64;
        let mut charges = Vec::with_capacity(self.config.wave_users);
        for _ in 0..self.config.wave_users {
            let user = UserId(self.rng.gen_range(0..num_users));
            let request = Request::Recommend {
                user,
                now: self.now,
                location: self.homes[user.index()],
                k: u16::try_from(self.config.engine.k).unwrap_or(u16::MAX),
            };
            let Response::Recommendations(recs) = self.node.handle(request, now_ns()) else {
                return Err(format!("recommend for user {} refused", user.0));
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
            let request = Request::Impression {
                ad,
                cost: self.config.impression_cost,
                clicked,
                now: self.now,
            };
            self.c.impressions += 1;
            if let Response::ImpressionRecorded {
                exhausted: true, ..
            } = self.mutate(request)?
            {
                self.c.exhausted += 1;
            }
        }
        self.line(format!(
            "wave users={} served={served} impressions={}",
            self.config.wave_users, self.c.impressions
        ));
        Ok(())
    }

    fn maybe_maintain(&mut self) -> Result<(), String> {
        if self.config.maintenance_every == adcast_stream::clock::Duration::ZERO
            || self.now.since(self.last_maint) < self.config.maintenance_every
        {
            return Ok(());
        }
        self.last_maint = self.now;
        let reply = self.mutate(Request::Maintain {
            now: self.now,
            idle_for: self.config.idle_for,
        })?;
        let Response::Maintained {
            scanned,
            decayed,
            pruned,
        } = reply
        else {
            return Err("maintenance produced a non-maintenance reply".to_string());
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

    /// Send one mutation through the node's ack ladder. Only an acked
    /// record enters the twin-check oracle.
    fn mutate(&mut self, request: Request) -> Result<Response, String> {
        let record = logged_record(&request)?;
        match self.node.handle(request, now_ns()) {
            Response::Error(e) => Err(format!("node refused a mutation: {e}")),
            reply => {
                self.record_log.push(record);
                Ok(reply)
            }
        }
    }

    /// Power loss with `pending` logged but never committed, then
    /// recovery in place and the bit-identical twin check.
    fn crash_and_recover(&mut self, pending: WalRecord) -> Result<(), String> {
        let mut durability = self.node.take_durability().ok_or("durability live")?;
        durability.log(&pending).map_err(|e| e.to_string())?;
        // Dropping flushes the writer's buffer (unsynced bytes) and joins
        // the snapshot persister — anything it finished is on "disk".
        drop(durability);
        let crash = self.backend.crash();
        self.node = self.shape.boot(&self.backend, ClusterConfig::default())?;
        let durability = self.node.durability().ok_or("durability live")?;
        let (next_lsn, report) = (durability.next_lsn(), durability.recovery_report());
        if self.record_log.len() as u64 > next_lsn {
            self.c.lost_acked += self.record_log.len() as u64 - next_lsn;
            self.record_log.truncate(next_lsn as usize);
        }
        self.c.crashes += 1;
        self.c.lost_records += 1; // the pending, never-acked batch
        self.c.replayed_records += report.replayed_records;
        self.c.torn_bytes += report.truncated_bytes + crash.bytes_lost;

        // Twin check: a fresh pair replaying the acked log must be
        // byte-identical to the recovered state.
        let twin = self.shape.replay_twin(&self.record_log)?;
        if image(&self.node) != twin {
            return Err(format!(
                "twin check failed at lsn {next_lsn}: recovered state diverges from replay"
            ));
        }
        self.c.twin_checks += 1;
        self.line(format!(
            "crash recovered_lsn={next_lsn} replayed={} snapshot_lsn={} twin=ok",
            report.replayed_records,
            report
                .snapshot_lsn
                .map_or_else(|| "none".to_string(), |l| l.to_string()),
        ));
        Ok(())
    }

    fn line(&mut self, body: String) {
        self.transcript.push(format!("t={} {body}", self.now));
    }

    fn render_summary(&self) -> String {
        let c = &self.c;
        let driver = self.node.driver();
        let stats = driver.stats();
        let mut s = String::new();
        for (key, value) in [
            ("users", u64::from(driver.num_users())),
            ("shards", self.config.num_shards as u64),
            ("campaigns", c.campaigns),
            ("batches", c.batches),
            ("deltas", c.deltas),
            ("recommends", c.recommends),
            ("served", c.served),
            ("impressions", c.impressions),
            ("exhausted", c.exhausted),
            ("sheds", c.sheds),
            ("maint_passes", c.maint_passes),
            ("maint_scanned", c.maint_scanned),
            ("maint_decayed", c.maint_decayed),
            ("maint_pruned", c.maint_pruned),
            ("crashes", c.crashes),
            ("twin_checks", c.twin_checks),
            ("lost_records", c.lost_records),
            ("lost_acked", c.lost_acked),
            ("replayed_records", c.replayed_records),
            ("torn_bytes", c.torn_bytes),
            ("snapshots_written", c.snapshots_written),
            ("wal_records", c.wal_records),
            ("fsyncs", c.fsyncs),
            ("store_active", c.store_active),
            ("disk_bytes", c.disk_bytes),
            ("disk_files", c.disk_files),
            ("engine_deltas", stats.deltas),
            ("engine_postings_scanned", stats.postings_scanned),
            ("engine_ads_scored", stats.ads_scored),
            ("engine_promotions", stats.promotions),
            ("engine_refreshes", stats.refreshes),
            ("engine_recommends", stats.recommends),
        ] {
            s.push_str(key);
            s.push('=');
            s.push_str(&value.to_string());
            s.push('\n');
        }
        s
    }
}

/// Virtual event time after `batch`: its newest message's stamp, never
/// moving backwards.
pub(crate) fn event_time(now: Timestamp, batch: &[(UserId, FeedDelta)]) -> Timestamp {
    let stamps = batch.iter().filter_map(|(_, d)| d.entered.as_ref());
    stamps.map(|m| m.ts).fold(now, Timestamp::max)
}

/// What every node of a run shares — users, shards, engine, and WAL and
/// snapshot knobs — and the two things built from it: a booted node and
/// a replay twin.
pub(crate) struct Shape {
    pub(crate) num_users: u32,
    pub(crate) num_shards: usize,
    pub(crate) engine: EngineConfig,
    pub(crate) options: DurabilityOptions,
}

impl Shape {
    /// A node process starting on `backend`: recover whatever is on disk,
    /// continue its WAL, and serve as `cluster` says.
    pub(crate) fn boot(
        &self,
        backend: &Arc<MemBackend>,
        cluster: ClusterConfig,
    ) -> Result<Node, String> {
        let backend = Arc::clone(backend) as Arc<dyn StorageBackend>;
        let (users, shards, engine) = (self.num_users, self.num_shards, self.engine.clone());
        let recovered = recover_on(
            Arc::clone(&backend),
            users,
            shards,
            engine,
            self.options.wal,
        )
        .map_err(|e| e.to_string())?;
        let durability = Durability::new_on(backend, recovered.wal, self.options, recovered.report);
        let (store, driver) = (recovered.store, recovered.driver);
        Ok(Node::new(store, driver, Some(durability), cluster))
    }

    /// Replay `records` into a fresh store + driver and capture the
    /// result at LSN `records.len()` — the oracle every twin check
    /// compares against.
    pub(crate) fn replay_twin(&self, records: &[WalRecord]) -> Result<Bytes, String> {
        let mut store = AdStore::new();
        let mut driver = ShardedDriver::new(self.num_users, self.num_shards, self.engine.clone());
        for record in records {
            apply_record(&mut store, &mut driver, record.clone())?;
        }
        Ok(EngineSetSnapshot::capture(records.len() as u64, &store, &driver).encode())
    }
}

/// A node's full state image, for byte-identity checks.
pub(crate) fn image(node: &Node) -> Bytes {
    let next_lsn = node.durability().map_or(0, Durability::next_lsn);
    EngineSetSnapshot::capture(next_lsn, node.store(), node.driver()).encode()
}

/// The WAL record a node logs when it acks `request` — what the twin
/// oracles replay.
pub(crate) fn logged_record(request: &Request) -> Result<WalRecord, String> {
    Ok(match request {
        Request::Ingest { deltas } => WalRecord::IngestBatch(deltas.clone()),
        Request::SubmitCampaign(spec) => WalRecord::Submit(spec.clone().try_into_submission()?),
        &Request::Impression {
            ad,
            cost,
            clicked,
            now,
        } => WalRecord::Impression {
            ad,
            cost,
            clicked,
            now,
        },
        &Request::Maintain { now, idle_for } => WalRecord::Maintenance { now, idle_for },
        other => return Err(format!("{other:?} is not a logged mutation")),
    })
}
