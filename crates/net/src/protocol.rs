//! RPC message types for the adcast wire protocol.
//!
//! Every request carries a caller-assigned request id; the server echoes
//! it on the response so a client can detect stream desynchronization.
//! Failures travel as a typed [`WireError`] variant rather than a closed
//! connection, so clients can distinguish "retry later" ([`WireError::
//! Overloaded`]) from "give up" ([`WireError::Unavailable`]).

use adcast_ads::{AdId, AdSubmission, Budget, CampaignState, Targeting};
use adcast_core::Recommendation;
use adcast_durability::{ApplyEffect, WalRecord};
use adcast_feed::FeedDelta;
use adcast_graph::UserId;
use adcast_stream::clock::Timestamp;
use adcast_stream::event::{LocationId, TimeSlot};
use adcast_text::SparseVector;
use bytes::Bytes;

pub use adcast_obs::tracestore::TraceContext;

/// A client → server RPC.
#[expect(
    clippy::exhaustive_enums,
    reason = "the router's `route::plan` matches every request without a wildcard, \
              so a new kind does not compile until the router plans or refuses it"
)]
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Apply a batch of feed deltas (the write hot path).
    Ingest {
        /// Per-user deltas in arrival order.
        deltas: Vec<(UserId, FeedDelta)>,
    },
    /// Serve the top-`k` ads for a user (the read hot path).
    Recommend {
        /// The user to serve.
        user: UserId,
        /// Serve-time "now" for decay/targeting.
        now: Timestamp,
        /// The user's current location cell.
        location: LocationId,
        /// Results wanted.
        k: u16,
    },
    /// Submit a new campaign.
    SubmitCampaign(CampaignSpec),
    /// Pause an active campaign (de-indexes it everywhere).
    PauseCampaign {
        /// The campaign to pause.
        ad: AdId,
    },
    /// Attach a pacing controller to a campaign: spread the spend of
    /// `budget` over the flight `[start, end]`, replacing any earlier
    /// flight.
    SetPacing {
        /// The campaign to pace.
        ad: AdId,
        /// Flight start.
        start: Timestamp,
        /// Flight end (after `start`; the codec and the node enforce
        /// this).
        end: Timestamp,
        /// Flight budget (finite and positive; enforced likewise).
        budget: f64,
    },
    /// Charge a served impression against a campaign's budget and CTR
    /// prior (and its pacing controller when one is attached).
    Impression {
        /// The charged campaign.
        ad: AdId,
        /// Cost in currency units (finite, non-negative).
        cost: f64,
        /// Did the user click?
        clicked: bool,
        /// Charge time (drives pacing throttle updates).
        now: Timestamp,
    },
    /// Run a lifecycle maintenance pass: evict finished-flight campaigns
    /// from the index and reset users idle for at least `idle_for`.
    /// WAL-logged like any other mutation, so recovery twins replay the
    /// identical pass.
    Maintain {
        /// Pass time (expiry cut for pacing flights and idleness).
        now: Timestamp,
        /// Users idle at least this long are reset.
        idle_for: adcast_stream::clock::Duration,
    },
    /// Force a durable snapshot now; blocks until the snapshot file is
    /// on disk. Refused with [`WireError::BadRequest`] when the server
    /// runs without a data directory.
    Checkpoint,
    /// Dump the in-memory flight recorder to `flightrec.jsonl` in the
    /// server's data directory. Refused with [`WireError::BadRequest`]
    /// when the server runs without a data directory.
    ObsDump,
    /// Snapshot server + engine counters and RPC latency percentiles.
    Stats,
    /// Graceful shutdown: drain queued requests, then stop serving.
    Shutdown,
    /// A partition-routed envelope (wire v5). The router stamps the
    /// target partition and its view of the partition's epoch; the
    /// node refuses the inner request with a typed error when either
    /// disagrees ([`WireError::WrongPartition`] /
    /// [`WireError::StaleEpoch`]), which is how a fenced stale primary
    /// or a router with an outdated map finds out. Nesting a `Routed`
    /// inside a `Routed` is a decode error.
    Routed {
        /// Partition the router believes owns this request's user(s).
        partition: u16,
        /// Router's view of the partition epoch (bumped on promotion).
        epoch: u64,
        /// Distributed-tracing context (wire v6): 16 bytes after the
        /// epoch, all-zero when the request is unsampled. The node
        /// records its spans under `trace.trace_id`, parented on
        /// `trace.parent_span_id` (the router's forward span).
        trace: TraceContext,
        /// The request being routed.
        inner: Box<Request>,
    },
    /// Primary → follower: append committed WAL records. Each entry is
    /// `(lsn, WalRecord encoding)`; LSNs must continue the follower's
    /// sequence exactly or the follower answers [`WireError::LsnGap`]
    /// (the primary then falls back to snapshot transfer).
    ReplAppend {
        /// Partition these records belong to.
        partition: u16,
        /// Sender's epoch; a lower epoch than the follower's is fenced
        /// with [`WireError::StaleEpoch`].
        epoch: u64,
        /// Distributed-tracing context (wire v6), parented on the
        /// primary's replicate span; all-zero when unsampled.
        trace: TraceContext,
        /// `(lsn, encoded record)` pairs in LSN order.
        entries: Vec<(u64, Bytes)>,
    },
    /// Primary → rejoining/rebalanced node: install a full engine-set
    /// snapshot ([`adcast_durability::EngineSetSnapshot`] encoding,
    /// which carries its own `next_lsn`), replacing the target's WAL
    /// and state wholesale.
    InstallSnapshot {
        /// Partition the snapshot belongs to.
        partition: u16,
        /// Sender's epoch (same fencing rule as `ReplAppend`).
        epoch: u64,
        /// `EngineSetSnapshot::encode()` bytes.
        snapshot: Bytes,
    },
    /// Router → follower: take over the partition under a bumped epoch.
    /// Idempotent — re-promoting at the same or lower epoch than one
    /// already held answers [`WireError::StaleEpoch`].
    Promote {
        /// Partition being promoted.
        partition: u16,
        /// The new (bumped) epoch the node must adopt.
        epoch: u64,
    },
    /// Ask a node for its cluster role/epoch/durable-LSN view (used by
    /// the router's failure detector and the cluster smoke scripts).
    ClusterStatus,
}

/// A node's replication role as reported by [`Request::ClusterStatus`].
#[expect(
    clippy::exhaustive_enums,
    reason = "the three roles the status byte encodes; a new role is a wire-format change made in this crate"
)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// Not participating in a cluster (no partition assigned).
    Standalone,
    /// Owns its partition and accepts client writes.
    Primary,
    /// Mirrors a primary; refuses client writes with
    /// [`WireError::NotPrimary`].
    Follower,
}

/// A node's cluster identity and replication position, as assembled by
/// [`crate::Client::cluster_status`] from the
/// [`Response::ClusterStatusReply`] fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeStatus {
    /// Current role.
    pub role: NodeRole,
    /// Partition the node owns/mirrors (0 for standalone).
    pub partition: u16,
    /// Epoch the node holds.
    pub epoch: u64,
    /// The node's `next_lsn`: every LSN below it is locally durable.
    pub durable_lsn: u64,
    /// A fenced stale primary refuses writes until re-enrolled.
    pub fenced: bool,
    /// Primary running without a reachable follower.
    pub degraded: bool,
}

/// Campaign ingredients as they travel on the wire ([`AdSubmission`]
/// itself holds validated domain types that are not all encodable).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Weighted keyword vector (strictly sorted terms, finite non-zero
    /// weights — the codec enforces this on decode).
    pub vector: SparseVector,
    /// Bid per impression.
    pub bid: f32,
    /// Eligible location cells; empty = everywhere.
    pub locations: Vec<LocationId>,
    /// Eligible time slots; empty = always.
    pub slots: Vec<TimeSlot>,
    /// Budget in currency units; `None` = unlimited.
    pub budget: Option<f64>,
    /// Ground-truth topic (evaluation only).
    pub topic_hint: Option<u32>,
}

impl CampaignSpec {
    /// An unrestricted, unlimited-budget spec for `vector` and `bid`.
    pub fn unrestricted(vector: SparseVector, bid: f32) -> Self {
        CampaignSpec {
            vector,
            bid,
            locations: Vec::new(),
            slots: Vec::new(),
            budget: None,
            topic_hint: None,
        }
    }

    /// Convert into a store submission.
    ///
    /// # Errors
    ///
    /// Returns a description when the budget is not a finite non-negative
    /// number (the store's own validation then covers vector and bid).
    pub fn try_into_submission(self) -> Result<AdSubmission, String> {
        let budget = match self.budget {
            None => Budget::unlimited(),
            Some(b) if b.is_finite() && b >= 0.0 => Budget::new(b),
            Some(b) => return Err(format!("invalid budget {b}")),
        };
        Ok(AdSubmission {
            vector: self.vector,
            bid: self.bid,
            targeting: Targeting::everywhere()
                .in_locations(self.locations)
                .in_slots(self.slots),
            budget,
            topic_hint: self.topic_hint.map(|t| t as usize),
        })
    }
}

/// A server → client reply. Each variant answers exactly one [`Request`]
/// variant; [`Response::Error`] can answer any of them.
#[expect(
    clippy::exhaustive_enums,
    reason = "pairs with `Request` one to one; the round-trip suite builds one sample per kind \
              with a wildcard-free match, so a new reply does not compile until it has one"
)]
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The batch was applied.
    Ingested {
        /// Deltas applied.
        accepted: u32,
    },
    /// The served ranking.
    Recommendations(Vec<Recommendation>),
    /// The campaign was accepted under this id.
    CampaignAccepted {
        /// Assigned id.
        ad: AdId,
    },
    /// The campaign is now paused.
    CampaignPaused {
        /// The paused campaign.
        ad: AdId,
    },
    /// The campaign's pacing flight is attached.
    PacingSet {
        /// The paced campaign.
        ad: AdId,
    },
    /// The impression was charged.
    ImpressionRecorded {
        /// The charged campaign.
        ad: AdId,
        /// Did this charge exhaust the campaign's budget (it is no
        /// longer served)?
        exhausted: bool,
    },
    /// The maintenance pass completed.
    Maintained {
        /// Users examined across shards.
        scanned: u64,
        /// Idle users reset to fresh state.
        decayed: u64,
        /// Finished-flight campaigns evicted from the index.
        pruned: u64,
    },
    /// The checkpoint is durable on disk.
    Checkpointed {
        /// WAL position the snapshot covers: every record below this LSN
        /// is inside it.
        lsn: u64,
    },
    /// The flight-recorder dump is on disk.
    ObsDumped {
        /// Events written to the dump file.
        events: u64,
    },
    /// Counter + latency snapshot.
    Stats(ServerStats),
    /// Shutdown acknowledged; the server is draining.
    ShutdownAck,
    /// The replicated records are durable on the follower up to (but not
    /// including) this LSN.
    ReplAck {
        /// The follower's `next_lsn` after logging, fsyncing, and
        /// applying the batch — every LSN below it is durable there.
        durable_lsn: u64,
    },
    /// The snapshot is installed; the node's WAL restarts here.
    SnapshotInstalled {
        /// First LSN the node will assign after the install.
        next_lsn: u64,
    },
    /// The node now serves its partition as primary under this epoch.
    Promoted {
        /// Epoch the node adopted.
        epoch: u64,
        /// Next LSN the node will assign (== every acked delta it has).
        next_lsn: u64,
    },
    /// The node's cluster view.
    ClusterStatusReply {
        /// Current role.
        role: NodeRole,
        /// Partition the node owns/mirrors (0 for standalone).
        partition: u16,
        /// Epoch the node holds.
        epoch: u64,
        /// The node's `next_lsn`: every LSN below it is locally durable
        /// (0 when the node runs without a data directory).
        durable_lsn: u64,
        /// A fenced stale primary refuses writes until re-enrolled.
        fenced: bool,
        /// Primary running without a reachable follower (acks are
        /// local-durable only).
        degraded: bool,
    },
    /// The request failed.
    Error(WireError),
}

/// A request split by whether a node logs it.
#[expect(
    clippy::exhaustive_enums,
    reason = "a request logs one record or none; the node and the simulator branch on both"
)]
#[derive(Debug)]
pub enum Logged {
    /// A write: the one [`WalRecord`] it logs, or why its body cannot
    /// be one.
    Write(Result<WalRecord, WireError>),
    /// Every other request, unchanged: reads, control and cluster RPCs.
    Other(Request),
}

/// The write vocabulary, declared once: the [`WalRecord`] each client
/// write logs when a node acks it. Every record kind has exactly one
/// request here and every other request logs nothing, so a log holds
/// only what a served node can be asked to write. [`Node`] logs what
/// this returns; the simulator's replay oracles replay it.
///
/// [`Node`]: crate::Node
pub fn wal_record(req: Request) -> Logged {
    Logged::Write(Ok(match req {
        Request::Ingest { deltas } => WalRecord::IngestBatch(deltas),
        Request::SubmitCampaign(spec) => match spec.try_into_submission() {
            Ok(sub) => WalRecord::Submit(sub),
            Err(why) => return Logged::Write(Err(WireError::BadRequest(why))),
        },
        Request::PauseCampaign { ad } => WalRecord::Pause(ad),
        Request::SetPacing {
            ad,
            start,
            end,
            budget,
        } => WalRecord::SetPacing {
            ad,
            start,
            end,
            budget,
        },
        Request::Impression {
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
        Request::Maintain { now, idle_for } => WalRecord::Maintenance { now, idle_for },
        other @ (Request::Recommend { .. }
        | Request::Checkpoint
        | Request::ObsDump
        | Request::Stats
        | Request::Shutdown
        | Request::Routed { .. }
        | Request::ReplAppend { .. }
        | Request::InstallSnapshot { .. }
        | Request::Promote { .. }
        | Request::ClusterStatus) => return Logged::Other(other),
    }))
}

/// The reply a node acks a write with, from what applying its record
/// did: the other half of [`wal_record`]'s pairing.
///
/// # Errors
///
/// [`WireError::UnknownCampaign`] when a pause found no active campaign
/// or a flight found no campaign.
pub fn write_reply(effect: ApplyEffect) -> Result<Response, WireError> {
    Ok(match effect {
        ApplyEffect::Ingested { accepted } => Response::Ingested { accepted },
        ApplyEffect::Submitted { ad } => Response::CampaignAccepted { ad },
        ApplyEffect::Paused { ad, changed: true } => Response::CampaignPaused { ad },
        ApplyEffect::PacingSet { ad, known: true } => Response::PacingSet { ad },
        ApplyEffect::Paused { ad, changed: false }
        | ApplyEffect::PacingSet { ad, known: false } => {
            return Err(WireError::UnknownCampaign(ad))
        }
        // An inactive campaign is charged nothing (`state` is `None`):
        // still an acked impression, one that exhausted nothing.
        ApplyEffect::Impression { ad, state } => Response::ImpressionRecorded {
            ad,
            exhausted: state == Some(CampaignState::Exhausted),
        },
        ApplyEffect::Maintained {
            scanned,
            decayed,
            pruned,
        } => Response::Maintained {
            scanned,
            decayed,
            pruned,
        },
    })
}

/// Typed RPC failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The bounded request queue was full: the server shed this request
    /// instead of buffering unboundedly. Back off and retry.
    Overloaded,
    /// The engine driver is dead (a shard worker died); writes are
    /// refused for the life of the process.
    Unavailable,
    /// The server is draining for shutdown.
    ShuttingDown,
    /// Malformed or out-of-range request.
    BadRequest(String),
    /// No such active campaign.
    UnknownCampaign(AdId),
    /// The frame's epoch does not match the node's. Carries the node's
    /// current epoch so the sender can reconcile (a router refreshes
    /// its map; a stale primary fences itself).
    StaleEpoch {
        /// Epoch the node currently holds.
        current: u64,
    },
    /// The routed partition is not the one this node owns.
    WrongPartition {
        /// Partition the node actually owns.
        expected: u16,
    },
    /// Replicated LSNs do not continue the follower's sequence; the
    /// sender must fall back to snapshot transfer.
    LsnGap {
        /// LSN the follower expected next.
        expected: u64,
    },
    /// A client write reached a follower; only the primary accepts
    /// writes.
    NotPrimary,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Overloaded => write!(f, "server overloaded (request shed)"),
            WireError::Unavailable => write!(f, "engine unavailable"),
            WireError::ShuttingDown => write!(f, "server shutting down"),
            WireError::BadRequest(why) => write!(f, "bad request: {why}"),
            WireError::UnknownCampaign(ad) => write!(f, "unknown campaign {}", ad.0),
            WireError::StaleEpoch { current } => {
                write!(f, "stale epoch (node is at epoch {current})")
            }
            WireError::WrongPartition { expected } => {
                write!(f, "wrong partition (node owns partition {expected})")
            }
            WireError::LsnGap { expected } => {
                write!(f, "replication lsn gap (follower expects lsn {expected})")
            }
            WireError::NotPrimary => write!(f, "node is a follower; writes go to the primary"),
        }
    }
}

impl std::error::Error for WireError {}

/// Server-side counters and latency percentiles, served by
/// [`Request::Stats`]. Every counter is process-lifetime: none is
/// persisted in a snapshot, so a restarted server starts them afresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Feed deltas applied by the engine since this process started,
    /// WAL records its recovery replayed included. Snapshots hold no
    /// counters, so a restart counts from zero plus the replayed tail.
    pub deltas: u64,
    /// Recommendations served by the engine since this process started.
    pub recommends: u64,
    /// Active campaigns right now.
    pub active_campaigns: u64,
    /// RPCs that reached the engine (cumulative, all kinds).
    pub rpcs: u64,
    /// Requests shed with [`WireError::Overloaded`] (cumulative).
    pub shed: u64,
    /// Connections accepted (cumulative).
    pub connections: u64,
    /// Configured bound of the request queue.
    pub queue_capacity: u64,
    /// Ingest RPC service time, 50th percentile (ns).
    pub ingest_p50_ns: u64,
    /// Ingest RPC service time, 99th percentile (ns).
    pub ingest_p99_ns: u64,
    /// Recommend RPC service time, 50th percentile (ns).
    pub recommend_p50_ns: u64,
    /// Recommend RPC service time, 99th percentile (ns).
    pub recommend_p99_ns: u64,
    /// WAL records appended since startup (0 when serving without a data
    /// directory — as are the five counters below).
    pub wal_records: u64,
    /// WAL bytes appended (framing included).
    pub wal_bytes: u64,
    /// fsync calls issued by the WAL writer.
    pub wal_fsyncs: u64,
    /// Snapshots persisted since startup (periodic + checkpoints).
    pub snapshots_written: u64,
    /// WAL records replayed during startup recovery.
    pub recovered_records: u64,
    /// Torn-tail bytes truncated during startup recovery.
    pub recovered_truncated_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcast_text::dictionary::TermId;

    #[test]
    fn spec_roundtrips_into_submission() {
        let spec = CampaignSpec {
            vector: SparseVector::from_pairs([(TermId(3), 0.5), (TermId(9), 0.2)]),
            bid: 1.5,
            locations: vec![LocationId(2)],
            slots: vec![TimeSlot::Morning],
            budget: Some(12.5),
            topic_hint: Some(4),
        };
        let sub = spec.try_into_submission().unwrap();
        assert_eq!(sub.bid, 1.5);
        assert_eq!(sub.targeting.locations(), &[LocationId(2)]);
        assert_eq!(sub.targeting.slots(), &[TimeSlot::Morning]);
        assert!((sub.budget.remaining() - 12.5).abs() < 1e-9);
        assert_eq!(sub.topic_hint, Some(4));
    }

    #[test]
    fn bad_budget_rejected_without_panic() {
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let spec = CampaignSpec {
                budget: Some(bad),
                ..CampaignSpec::unrestricted(SparseVector::from_pairs([(TermId(0), 1.0)]), 1.0)
            };
            assert!(spec.try_into_submission().is_err(), "budget {bad}");
        }
    }

    #[test]
    fn every_record_kind_pairs_with_exactly_one_request_kind() {
        use crate::codec::tests::sample_requests;
        use crate::codec::RequestKind;
        use std::collections::{BTreeMap, BTreeSet};

        let mut sampled = BTreeSet::new();
        // Record tag → the request kind byte that logs it.
        let mut pairs: BTreeMap<u8, u8> = BTreeMap::new();
        for req in sample_requests() {
            let kind = req.kind() as u8;
            sampled.insert(kind);
            match wal_record(req) {
                Logged::Write(record) => {
                    let tag = record.unwrap().tag();
                    let first = *pairs.entry(tag).or_insert(kind);
                    assert_eq!(first, kind, "record tag {tag} has two requests");
                }
                Logged::Other(back) => assert_eq!(back.kind() as u8, kind),
            }
        }
        let all: BTreeSet<u8> = RequestKind::ALL.iter().map(|&k| k as u8).collect();
        assert_eq!(sampled, all, "a request kind has no sample");
        let tags: Vec<u8> = pairs.keys().copied().collect();
        assert_eq!(tags, WalRecord::TAGS, "a record kind has no request");
        let writers: BTreeSet<u8> = pairs.values().copied().collect();
        assert_eq!(
            writers.len(),
            pairs.len(),
            "a request logs two record kinds"
        );
    }

    #[test]
    fn write_replies_refuse_a_missing_campaign() {
        let ad = AdId(3);
        assert_eq!(
            write_reply(ApplyEffect::Paused { ad, changed: false }),
            Err(WireError::UnknownCampaign(ad))
        );
        assert_eq!(
            write_reply(ApplyEffect::PacingSet { ad, known: false }),
            Err(WireError::UnknownCampaign(ad))
        );
        assert_eq!(
            write_reply(ApplyEffect::PacingSet { ad, known: true }),
            Ok(Response::PacingSet { ad })
        );
        // An inactive campaign's impression is acked and charges nothing.
        assert_eq!(
            write_reply(ApplyEffect::Impression { ad, state: None }),
            Ok(Response::ImpressionRecorded {
                ad,
                exhausted: false
            })
        );
    }

    #[test]
    fn an_invalid_submission_is_a_bad_write() {
        let spec = CampaignSpec {
            budget: Some(f64::NAN),
            ..CampaignSpec::unrestricted(SparseVector::from_pairs([(TermId(0), 1.0)]), 1.0)
        };
        let Logged::Write(Err(WireError::BadRequest(_))) =
            wal_record(Request::SubmitCampaign(spec))
        else {
            panic!("an unconvertible submission must be a refused write");
        };
    }

    #[test]
    fn wire_error_display() {
        assert!(WireError::Overloaded.to_string().contains("shed"));
        assert!(WireError::UnknownCampaign(AdId(7))
            .to_string()
            .contains('7'));
    }
}
