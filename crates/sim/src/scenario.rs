//! Scenario vocabulary: the [`SimConfig`] that pins everything shaping a
//! run, and the [`Fault`] script it carries. Two runs from one config
//! execute the same events in the same order and must produce
//! byte-identical transcripts.

use adcast_core::EngineConfig;
use adcast_durability::{FsyncPolicy, WalOptions};
use adcast_net::synth::SynthConfig;
use adcast_stream::clock::Duration;

/// An injectable fault. `FsyncStall`, `ShedStorm` and `Crash` hit every
/// serving node; the others hit one partition's primary/follower pair
/// and need a scenario with followers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The next fsync of every serving node takes `ms` extra virtual
    /// milliseconds (a device hiccup), visible in the fsync span histogram.
    FsyncStall {
        /// Extra latency, virtual milliseconds.
        ms: u64,
    },
    /// Phantom load on the bounded admission queue: `arrivals` extra
    /// requests per step for `steps` steps; overflow is shed (the
    /// server's `Overloaded` path).
    ShedStorm {
        /// Extra arrivals per step.
        arrivals: u64,
        /// Steps the storm lasts.
        steps: u64,
    },
    /// Power loss on every primary: its share of the pending batch is
    /// logged but never committed, its files tear back to their
    /// durability horizons, and it recovers in place into a bit-identical
    /// twin of a clean replay. Needs partitions without followers.
    Crash,
    /// `kill -9` the partition's primary: its disk tears and it never
    /// serves again; the follower promotes under a bumped epoch with zero
    /// acked loss and a byte-identical twin.
    KillPrimary {
        /// The partition whose primary dies.
        partition: u16,
    },
    /// The pair's link drops for `batches` of the partition's ingest
    /// batches: the primary degrades to local-durable acks, and on
    /// reconnect the follower refuses the gap (`LsnGap`) and catches up
    /// by snapshot transfer.
    IsolateFollower {
        /// The partition whose follower goes dark.
        partition: u16,
        /// Ingest batches the link stays down.
        batches: u64,
    },
    /// A false-positive failover: the follower is promoted while the old
    /// primary lives; epoch fencing refuses the deposed primary's next
    /// write (never acked), and it rejoins as a follower by snapshot
    /// transfer.
    SplitPromote {
        /// The partition that splits.
        partition: u16,
    },
}

/// A fault pinned to a position in the batch stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultAt {
    /// Fires just before this ingest batch (0-based).
    pub at_batch: usize,
    /// What happens.
    pub fault: Fault,
}

/// Everything that shapes one simulated run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Workload shape (users, campaigns, messages, batching, seed).
    pub synth: SynthConfig,
    /// User partitions, each served by one primary; one partition
    /// without followers is a standalone node.
    pub partitions: usize,
    /// Whether each primary replicates to a follower of its own.
    pub followers: bool,
    /// Engine shards per node.
    pub num_shards: usize,
    /// Engine knobs, the same on every node.
    pub engine: EngineConfig,
    /// WAL knobs for every node. Under a policy weaker than
    /// [`FsyncPolicy::Always`] a crash may lose acked records, which the
    /// run counts as `lost_acked`.
    pub wal: WalOptions,
    /// Background snapshot cadence in WAL records (0 = never).
    pub snapshot_every: u64,
    /// Snapshots retained by pruning (also bounds live WAL segments).
    pub keep_snapshots: usize,
    /// Virtual cost of one fsync, nanoseconds.
    pub fsync_latency_ns: u64,
    /// Serve a recommendation wave every this many batches (0 = never).
    pub recommend_every: usize,
    /// Users served per wave.
    pub wave_users: usize,
    /// Cost charged on every partition for each served user's top pick.
    pub impression_cost: f64,
    /// Every Nth campaign gets a pacing flight attached (0 = none).
    pub paced_every: usize,
    /// Pacing flight length, seconds of virtual time from the epoch.
    pub flight_secs: u64,
    /// Pacing flight budget.
    pub flight_budget: f64,
    /// Run a maintenance pass once virtual time advances this far past
    /// the previous one ([`Duration::ZERO`] = never).
    pub maintenance_every: Duration,
    /// Maintenance resets users idle at least this long.
    pub idle_for: Duration,
    /// Admission queue bound (overflow is shed, as the server's bounded
    /// request queue sheds).
    pub queue_depth: u64,
    /// Requests drained from the admission queue per batch step.
    pub drain_per_step: u64,
    /// Head-based trace sampling: every Nth acked record carries a
    /// sampled trace context (0 = off); ids derive from the synth seed
    /// and the record ordinal, so trace lines reproduce. Only routed
    /// shapes carry trace contexts, so a standalone node needs 0.
    pub trace_sample: u64,
    /// The fault script, in firing order.
    pub faults: Vec<FaultAt>,
}

impl SimConfig {
    /// A seconds-scale standalone scenario: small workload, frequent
    /// snapshots, maintenance and pacing cadences matched to its ~6
    /// virtual seconds (~200 messages/s), no tracing, no faults. Set
    /// `partitions`, `followers` and `trace_sample` for a traced cluster.
    #[must_use]
    pub fn smoke(seed: u64) -> SimConfig {
        SimConfig {
            synth: SynthConfig {
                num_users: 400,
                num_ads: 120,
                messages: 1_200,
                batch_size: 200,
                msgs_per_sec: 200.0,
                seed,
            },
            partitions: 1,
            followers: false,
            num_shards: 2,
            engine: EngineConfig::default(),
            wal: WalOptions {
                fsync: FsyncPolicy::Always,
                segment_bytes: 256 << 10,
            },
            snapshot_every: 40,
            keep_snapshots: 2,
            fsync_latency_ns: 100_000,
            recommend_every: 4,
            wave_users: 8,
            impression_cost: 0.05,
            paced_every: 8,
            flight_secs: 3,
            flight_budget: 2.0,
            maintenance_every: Duration::from_secs(1),
            idle_for: Duration::from_secs(2),
            queue_depth: 64,
            drain_per_step: 4,
            trace_sample: 0,
            faults: Vec::new(),
        }
    }

    /// Refuse a shape the runner cannot drive, naming why.
    pub(crate) fn check(&self) -> Result<(), String> {
        if self.partitions == 0 {
            return Err("a scenario needs at least one partition".to_string());
        }
        if self.partitions > usize::from(u16::MAX) {
            return Err("partitions exceed the u16 wire header".to_string());
        }
        if self.trace_sample > 0 && self.partitions == 1 && !self.followers {
            return Err("trace sampling needs routed partitions".to_string());
        }
        for FaultAt { at_batch, fault } in &self.faults {
            let refusal = match *fault {
                Fault::KillPrimary { partition: p }
                | Fault::IsolateFollower { partition: p, .. }
                | Fault::SplitPromote { partition: p } => {
                    if usize::from(p) >= self.partitions {
                        format!("targets partition {p} of {}", self.partitions)
                    } else if !self.followers {
                        "needs partitions with followers".to_string()
                    } else {
                        continue;
                    }
                }
                Fault::Crash if self.followers => "needs partitions without followers: \
                    restarting a primary beside its follower is not modelled"
                    .to_string(),
                _ => continue,
            };
            return Err(format!("{fault:?} at batch {at_batch} {refusal}"));
        }
        Ok(())
    }
}
