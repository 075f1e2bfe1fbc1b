//! The router's decisions, with no transport: which partition owns a
//! user, which legs a client request becomes, the envelope a leg travels
//! in, how the legs' replies merge into the client's one reply, and
//! which epoch a failover asks for and adopts.
//!
//! Nothing here touches a socket, a thread, a lock or a clock. Each
//! caller keeps only its own execution: [`crate::Router`] runs a plan's
//! legs concurrently on its per-connection forwarders, under the global
//! broadcast lock when the plan is a broadcast; `adcast_sim::run` runs
//! them one after another against in-process nodes. So the simulator's
//! oracles check this code, not a copy of it.

use adcast_graph::UserId;
use adcast_net::protocol::{Request, Response, ServerStats, TraceContext, WireError};

/// The partition that owns `user` in a cluster of `partitions`
/// (`1..=u16::MAX`, as [`crate::PartitionMap`] and the simulator's
/// config both guarantee): `user.index() % partitions`. Static, so every
/// placement decision derives from the request alone.
#[must_use]
pub fn partition_of(user: UserId, partitions: usize) -> u16 {
    (user.index() % partitions) as u16
}

/// A client request as the router serves it: the legs to send, in
/// partition order, and how their replies become one.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// `(partition, request)` pairs, at most one per partition.
    pub legs: Vec<(u16, Request)>,
    /// How the legs' replies, in leg order, merge.
    pub merge: Merge,
}

/// How a plan's leg replies merge into the client's one reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Merge {
    /// Ingest sub-batches: the accepted counts sum, and the first leg
    /// that did not ingest decides the reply (its error, or
    /// `Overloaded` for any other reply).
    Sum,
    /// A single-partition request: the owner's reply as it is.
    Owner,
    /// A control kind sent to every partition, which the router
    /// serializes across connections so that every partition sees one
    /// order; merged per kind against the request kept here: `Submit`
    /// needs one campaign id from every partition, `Pause` and
    /// `SetPacing` answer for their campaign, `Impression` ORs
    /// `exhausted`, `Maintain` and `ObsDump` sum, `Checkpoint` takes the
    /// max LSN, `Stats` sums traffic and maxes percentiles, and any error
    /// wins.
    Broadcast(Request),
}

impl Merge {
    /// Merge the replies of a plan's legs, in leg order.
    #[must_use]
    pub fn merge(self, replies: Vec<Response>) -> Response {
        match self {
            Merge::Sum => {
                let mut accepted = 0u32;
                for reply in replies {
                    match reply {
                        Response::Ingested { accepted: n } => accepted += n,
                        Response::Error(err) => return Response::Error(err),
                        _ => return Response::Error(WireError::Overloaded),
                    }
                }
                Response::Ingested { accepted }
            }
            Merge::Owner => replies
                .into_iter()
                .next()
                .unwrap_or(Response::Error(WireError::Overloaded)),
            Merge::Broadcast(req) => merge_broadcast(&req, replies),
        }
    }
}

/// Plan `req` for a cluster of `partitions`: an Ingest batch splits into
/// one sub-batch per owning partition that has users in it, each keeping
/// its users' order, and is moved, never copied; a Recommend goes to the
/// user's owner; the control kinds go to every partition.
///
/// # Errors
///
/// The `BadRequest` the router answers for the cluster-internal kinds:
/// the router is a gateway, not a cluster member.
pub fn plan(req: Request, partitions: usize) -> Result<Plan, WireError> {
    match req {
        Request::Ingest { deltas } => {
            let mut subs = vec![Vec::new(); partitions];
            for (user, delta) in deltas {
                subs[usize::from(partition_of(user, partitions))].push((user, delta));
            }
            let legs = subs
                .into_iter()
                .enumerate()
                .filter(|(_, sub)| !sub.is_empty())
                .map(|(p, deltas)| (p as u16, Request::Ingest { deltas }))
                .collect();
            Ok(Plan {
                legs,
                merge: Merge::Sum,
            })
        }
        Request::Recommend { user, .. } => Ok(Plan {
            legs: vec![(partition_of(user, partitions), req)],
            merge: Merge::Owner,
        }),
        Request::SubmitCampaign(_)
        | Request::PauseCampaign { .. }
        | Request::SetPacing { .. }
        | Request::Impression { .. }
        | Request::Maintain { .. }
        | Request::Checkpoint
        | Request::ObsDump
        | Request::Stats
        | Request::Shutdown => Ok(Plan {
            legs: (0..partitions).map(|p| (p as u16, req.clone())).collect(),
            merge: Merge::Broadcast(req),
        }),
        Request::Routed { .. } => Err(WireError::BadRequest(
            "router does not accept pre-routed frames".into(),
        )),
        Request::ReplAppend { .. } | Request::InstallSnapshot { .. } | Request::Promote { .. } => {
            Err(WireError::BadRequest(
                "replication RPCs go directly to nodes, not through the router".into(),
            ))
        }
        Request::ClusterStatus => Err(WireError::BadRequest(
            "the router has no cluster status; ask a node".into(),
        )),
    }
}

/// The frame a leg travels in to `partition`'s primary: a `Routed`
/// envelope under the router's `epoch`, so a deposed primary refuses it
/// with a typed error instead of serving stale. `Shutdown` travels bare:
/// it is role- and epoch-independent (draining a fenced or deposed node
/// is still wanted).
#[must_use]
pub fn envelope(partition: u16, epoch: u64, trace: TraceContext, leg: Request) -> Request {
    match leg {
        Request::Shutdown => leg,
        inner => Request::Routed {
            partition,
            epoch,
            trace,
            inner: Box::new(inner),
        },
    }
}

/// The `Promote` a failover sends `partition`'s follower when the
/// router's view holds `epoch`: one epoch past it.
#[must_use]
pub fn promotion(partition: u16, epoch: u64) -> Request {
    Request::Promote {
        partition,
        epoch: epoch + 1,
    }
}

/// The epoch a failover adopts from the follower's answer to
/// [`promotion`]: the one it granted, or the higher one it already holds
/// (promoted during a previous router life; adopt instead of fighting).
/// `None` when the promotion failed.
#[must_use]
pub fn adopted_epoch(reply: &Response) -> Option<u64> {
    match reply {
        Response::Promoted { epoch, .. } => Some(*epoch),
        Response::Error(WireError::StaleEpoch { current }) => Some(*current),
        _ => None,
    }
}

/// Merge per-partition stats into the cluster view the router reports:
/// traffic counters sum; campaign state is replicated so the max is the
/// truth; latency percentiles report the worst partition.
fn merge_stats(replies: &[ServerStats]) -> ServerStats {
    let mut out = ServerStats::default();
    for s in replies {
        out.deltas += s.deltas;
        out.recommends += s.recommends;
        out.active_campaigns = out.active_campaigns.max(s.active_campaigns);
        out.rpcs += s.rpcs;
        out.shed += s.shed;
        out.connections += s.connections;
        out.queue_capacity += s.queue_capacity;
        out.ingest_p50_ns = out.ingest_p50_ns.max(s.ingest_p50_ns);
        out.ingest_p99_ns = out.ingest_p99_ns.max(s.ingest_p99_ns);
        out.recommend_p50_ns = out.recommend_p50_ns.max(s.recommend_p50_ns);
        out.recommend_p99_ns = out.recommend_p99_ns.max(s.recommend_p99_ns);
        out.wal_records += s.wal_records;
        out.wal_bytes += s.wal_bytes;
        out.wal_fsyncs += s.wal_fsyncs;
        out.snapshots_written += s.snapshots_written;
        out.recovered_records += s.recovered_records;
        out.recovered_truncated_bytes += s.recovered_truncated_bytes;
    }
    out
}

/// Merge a control broadcast's per-partition replies into one.
fn merge_broadcast(req: &Request, replies: Vec<Response>) -> Response {
    let (mut ads, mut stats) = (Vec::new(), Vec::new());
    let (mut exhausted, mut lsn, mut events) = (false, 0, 0);
    let (mut scanned, mut decayed, mut pruned) = (0, 0, 0);
    for reply in replies {
        match reply {
            // Any typed error wins over a merged success: broadcast
            // mutations are all-or-error so partitions cannot silently
            // diverge.
            Response::Error(err) => return Response::Error(err),
            Response::CampaignAccepted { ad } => ads.push(ad),
            Response::ImpressionRecorded { exhausted: e, .. } => exhausted |= e,
            Response::Maintained {
                scanned: s,
                decayed: d,
                pruned: p,
            } => (scanned, decayed, pruned) = (scanned + s, decayed + d, pruned + p),
            Response::Checkpointed { lsn: l } => lsn = lsn.max(l),
            Response::ObsDumped { events: e } => events += e,
            Response::Stats(s) => stats.push(s),
            _ => {}
        }
    }
    match req {
        Request::SubmitCampaign(_) => match ads.split_first() {
            Some((&ad, rest)) if rest.iter().all(|&other| other == ad) => {
                Response::CampaignAccepted { ad }
            }
            // Divergent ids mean the partitions saw different submission
            // histories — surface loudly.
            _ => Response::Error(WireError::Unavailable),
        },
        Request::PauseCampaign { ad } => Response::CampaignPaused { ad: *ad },
        Request::SetPacing { ad, .. } => Response::PacingSet { ad: *ad },
        Request::Impression { ad, .. } => Response::ImpressionRecorded { ad: *ad, exhausted },
        Request::Maintain { .. } => Response::Maintained {
            scanned,
            decayed,
            pruned,
        },
        Request::Checkpoint => Response::Checkpointed { lsn },
        Request::ObsDump => Response::ObsDumped { events },
        Request::Stats => Response::Stats(merge_stats(&stats)),
        Request::Shutdown => Response::ShutdownAck,
        // `plan` never broadcasts these kinds.
        Request::Ingest { .. }
        | Request::Recommend { .. }
        | Request::Routed { .. }
        | Request::ReplAppend { .. }
        | Request::InstallSnapshot { .. }
        | Request::Promote { .. }
        | Request::ClusterStatus => Response::Error(WireError::Unavailable),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use adcast_ads::AdId;
    use adcast_feed::FeedDelta;
    use adcast_net::codec::RequestKind;
    use adcast_net::protocol::CampaignSpec;
    use adcast_stream::clock::Timestamp;
    use adcast_stream::event::{LocationId, Message, MessageId};
    use adcast_text::dictionary::TermId;
    use adcast_text::SparseVector;

    const PARTITIONS: usize = 3;

    fn submit() -> Request {
        Request::SubmitCampaign(CampaignSpec::unrestricted(
            SparseVector::from_pairs([(TermId(1), 1.0)]),
            1.0,
        ))
    }

    fn stats(deltas: u64, p99: u64) -> ServerStats {
        ServerStats {
            deltas,
            ingest_p99_ns: p99,
            ..ServerStats::default()
        }
    }

    /// An Ingest of one delta per `(user, message id)` pair, in order.
    fn ingest(pairs: &[(u32, u64)]) -> Request {
        let deltas = pairs.iter().map(|&(user, id)| {
            let entered = Arc::new(Message {
                id: MessageId(id),
                author: UserId(user),
                ts: Timestamp::from_secs(id),
                location: LocationId(0),
                vector: SparseVector::new(),
            });
            let delta = FeedDelta {
                entered: Some(entered),
                evicted: Vec::new(),
            };
            (UserId(user), delta)
        });
        Request::Ingest {
            deltas: deltas.collect(),
        }
    }

    /// A control kind's case: the request itself to every partition.
    fn control(req: Request) -> (Request, Result<Plan, &'static str>) {
        let legs = (0..PARTITIONS as u16).map(|p| (p, req.clone())).collect();
        let merge = Merge::Broadcast(req.clone());
        (req, Ok(Plan { legs, merge }))
    }

    /// One sample of `kind` and what [`plan`] must make of it over
    /// [`PARTITIONS`] partitions: its plan, or its refusal text.
    fn case(kind: RequestKind) -> (Request, Result<Plan, &'static str>) {
        const PRE_ROUTED: &str = "router does not accept pre-routed frames";
        const REPLICATION: &str = "replication RPCs go directly to nodes, not through the router";
        let now = Timestamp::from_secs(5);
        match kind {
            // Users 4, 1, 7 and 10 live on partition 1, users 3 and 0 on
            // partition 0, and none on partition 2, which gets no leg.
            RequestKind::Ingest => (
                ingest(&[
                    (4, 1),
                    (3, 2),
                    (1, 3),
                    (4, 4),
                    (0, 5),
                    (7, 6),
                    (3, 7),
                    (10, 8),
                ]),
                Ok(Plan {
                    legs: vec![
                        (0, ingest(&[(3, 2), (0, 5), (3, 7)])),
                        (1, ingest(&[(4, 1), (1, 3), (4, 4), (7, 6), (10, 8)])),
                    ],
                    merge: Merge::Sum,
                }),
            ),
            RequestKind::Recommend => {
                let req = Request::Recommend {
                    user: UserId(5),
                    now,
                    location: LocationId(1),
                    k: 5,
                };
                let legs = vec![(2, req.clone())];
                let merge = Merge::Owner;
                (req, Ok(Plan { legs, merge }))
            }
            RequestKind::SubmitCampaign => control(submit()),
            RequestKind::PauseCampaign => control(Request::PauseCampaign { ad: AdId(7) }),
            RequestKind::SetPacing => control(Request::SetPacing {
                ad: AdId(7),
                start: now,
                end: Timestamp::from_secs(3600),
                budget: 12.0,
            }),
            RequestKind::Impression => control(Request::Impression {
                ad: AdId(7),
                cost: 0.5,
                clicked: true,
                now,
            }),
            RequestKind::Maintain => control(Request::Maintain {
                now,
                idle_for: adcast_stream::clock::Duration::from_secs(60),
            }),
            RequestKind::Checkpoint => control(Request::Checkpoint),
            RequestKind::ObsDump => control(Request::ObsDump),
            RequestKind::Stats => control(Request::Stats),
            RequestKind::Shutdown => control(Request::Shutdown),
            RequestKind::Routed => (
                envelope(0, 1, TraceContext::NONE, Request::Stats),
                Err(PRE_ROUTED),
            ),
            RequestKind::ReplAppend => (
                Request::ReplAppend {
                    partition: 0,
                    epoch: 1,
                    trace: TraceContext::NONE,
                    entries: Vec::new(),
                },
                Err(REPLICATION),
            ),
            RequestKind::InstallSnapshot => (
                Request::InstallSnapshot {
                    partition: 0,
                    epoch: 1,
                    snapshot: bytes::Bytes::new(),
                },
                Err(REPLICATION),
            ),
            RequestKind::Promote => (promotion(0, 1), Err(REPLICATION)),
            RequestKind::ClusterStatus => (
                Request::ClusterStatus,
                Err("the router has no cluster status; ask a node"),
            ),
        }
    }

    #[test]
    fn every_request_kind_is_planned_or_refused() {
        for &kind in RequestKind::ALL {
            let (req, want) = case(kind);
            assert_eq!(req.kind(), kind, "sample built for {kind:?}");
            let want = want.map_err(|text| WireError::BadRequest(text.into()));
            assert_eq!(plan(req, PARTITIONS), want, "{kind:?}");
        }
    }

    #[test]
    fn users_partition_by_index_modulo_partitions() {
        assert_eq!(partition_of(UserId(0), 3), 0);
        assert_eq!(partition_of(UserId(4), 3), 1);
        assert_eq!(partition_of(UserId(11), 3), 2);
        assert_eq!(partition_of(UserId(11), 1), 0);
    }

    /// Every delta lands in exactly one leg, on its owner's partition, in
    /// its batch order; legs are in partition order and never empty.
    #[test]
    fn ingest_legs_partition_the_batch() {
        // Message ids rise through the batch, so each leg's ids must too.
        let pairs: Vec<(u32, u64)> = (0..40u64).map(|i| ((i * 7 % 13) as u32, i)).collect();
        for partitions in 1..=5 {
            let Ok(Plan { legs, merge }) = plan(ingest(&pairs), partitions) else {
                panic!("ingest refused over {partitions} partitions");
            };
            assert_eq!(merge, Merge::Sum);
            if partitions == 1 {
                assert_eq!(legs, vec![(0, ingest(&pairs))]);
            }
            let mut seen = 0;
            let mut last_partition = None;
            for (p, leg) in legs {
                assert!(last_partition < Some(p), "legs out of partition order");
                last_partition = Some(p);
                let Request::Ingest { deltas } = leg else {
                    panic!("an ingest leg that is not an ingest");
                };
                assert!(!deltas.is_empty(), "empty leg to partition {p}");
                let ids: Vec<u64> = deltas
                    .iter()
                    .map(|(user, delta)| {
                        assert_eq!(partition_of(*user, partitions), p, "{user:?}");
                        delta.entered.as_ref().map_or(0, |m| m.id.0)
                    })
                    .collect();
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
                seen += ids.len();
            }
            assert_eq!(seen, pairs.len());
        }
    }

    #[test]
    fn ingest_legs_sum_and_the_first_failed_leg_wins() {
        let ingested = |accepted| Response::Ingested { accepted };
        let stale = Response::Error(WireError::StaleEpoch { current: 2 });
        let shutting_down = Response::Error(WireError::ShuttingDown);
        let cases = [
            (vec![ingested(3), ingested(5)], ingested(8)),
            (Vec::new(), ingested(0)),
            (
                vec![ingested(3), stale.clone(), shutting_down.clone()],
                stale,
            ),
            (
                vec![ingested(3), Response::ShutdownAck, shutting_down],
                Response::Error(WireError::Overloaded),
            ),
        ];
        for (replies, want) in cases {
            assert_eq!(Merge::Sum.merge(replies.clone()), want, "{replies:?}");
        }
        let recs = Response::Recommendations(Vec::new());
        assert_eq!(Merge::Owner.merge(vec![recs.clone()]), recs);
        assert_eq!(
            Merge::Owner.merge(Vec::new()),
            Response::Error(WireError::Overloaded)
        );
    }

    #[test]
    fn every_leg_but_shutdown_travels_routed() {
        let trace = TraceContext {
            trace_id: 9,
            parent_span_id: 4,
        };
        assert_eq!(envelope(2, 5, trace, Request::Shutdown), Request::Shutdown);
        for leg in [Request::Stats, ingest(&[(2, 1)])] {
            let want = Request::Routed {
                partition: 2,
                epoch: 5,
                trace,
                inner: Box::new(leg.clone()),
            };
            assert_eq!(envelope(2, 5, trace, leg), want);
        }
    }

    #[test]
    fn a_failover_asks_one_epoch_past_and_adopts_the_answer() {
        assert_eq!(
            promotion(1, 4),
            Request::Promote {
                partition: 1,
                epoch: 5
            }
        );
        let granted = Response::Promoted {
            epoch: 5,
            next_lsn: 9,
        };
        assert_eq!(adopted_epoch(&granted), Some(5));
        let higher = Response::Error(WireError::StaleEpoch { current: 7 });
        assert_eq!(adopted_epoch(&higher), Some(7));
        assert_eq!(adopted_epoch(&Response::Error(WireError::NotPrimary)), None);
        assert_eq!(adopted_epoch(&Response::ShutdownAck), None);
    }

    #[test]
    fn each_broadcast_kind_gets_its_merged_reply() {
        let ad = AdId(7);
        let now = Timestamp::from_secs(5);
        let cases = [
            (
                submit(),
                vec![
                    Response::CampaignAccepted { ad },
                    Response::CampaignAccepted { ad },
                ],
                Response::CampaignAccepted { ad },
            ),
            (
                Request::PauseCampaign { ad },
                vec![
                    Response::CampaignPaused { ad },
                    Response::CampaignPaused { ad },
                ],
                Response::CampaignPaused { ad },
            ),
            (
                Request::SetPacing {
                    ad,
                    start: now,
                    end: Timestamp::from_secs(3600),
                    budget: 12.0,
                },
                vec![Response::PacingSet { ad }, Response::PacingSet { ad }],
                Response::PacingSet { ad },
            ),
            (
                Request::Impression {
                    ad,
                    cost: 0.5,
                    clicked: false,
                    now,
                },
                vec![
                    Response::ImpressionRecorded {
                        ad,
                        exhausted: false,
                    },
                    Response::ImpressionRecorded {
                        ad,
                        exhausted: true,
                    },
                ],
                Response::ImpressionRecorded {
                    ad,
                    exhausted: true,
                },
            ),
            (
                Request::Maintain {
                    now,
                    idle_for: adcast_stream::clock::Duration::from_secs(60),
                },
                vec![
                    Response::Maintained {
                        scanned: 10,
                        decayed: 1,
                        pruned: 2,
                    },
                    Response::Maintained {
                        scanned: 5,
                        decayed: 3,
                        pruned: 2,
                    },
                ],
                Response::Maintained {
                    scanned: 15,
                    decayed: 4,
                    pruned: 4,
                },
            ),
            (
                Request::Checkpoint,
                vec![
                    Response::Checkpointed { lsn: 4 },
                    Response::Checkpointed { lsn: 9 },
                ],
                Response::Checkpointed { lsn: 9 },
            ),
            (
                Request::ObsDump,
                vec![
                    Response::ObsDumped { events: 3 },
                    Response::ObsDumped { events: 4 },
                ],
                Response::ObsDumped { events: 7 },
            ),
            (
                Request::Stats,
                vec![Response::Stats(stats(2, 50)), Response::Stats(stats(3, 80))],
                Response::Stats(merge_stats(&[stats(2, 50), stats(3, 80)])),
            ),
            (
                Request::Shutdown,
                vec![Response::ShutdownAck, Response::ShutdownAck],
                Response::ShutdownAck,
            ),
        ];
        for (req, replies, want) in cases {
            assert_eq!(merge_broadcast(&req, replies), want, "{:?}", req.kind());
        }
        assert_eq!(
            merge_stats(&[stats(2, 50), stats(3, 80)]),
            stats(5, 80),
            "counters add, latency percentiles take the max"
        );
    }

    #[test]
    fn any_error_reply_wins() {
        let replies = vec![
            Response::Checkpointed { lsn: 4 },
            Response::Error(WireError::ShuttingDown),
            Response::Checkpointed { lsn: 9 },
        ];
        assert_eq!(
            merge_broadcast(&Request::Checkpoint, replies),
            Response::Error(WireError::ShuttingDown)
        );
    }

    #[test]
    fn an_unknown_campaign_on_any_partition_wins() {
        let ad = AdId(9);
        let pace = Request::SetPacing {
            ad,
            start: Timestamp::from_secs(0),
            end: Timestamp::from_secs(60),
            budget: 1.0,
        };
        let replies = vec![
            Response::PacingSet { ad },
            Response::Error(WireError::UnknownCampaign(ad)),
        ];
        assert_eq!(
            merge_broadcast(&pace, replies),
            Response::Error(WireError::UnknownCampaign(ad))
        );
    }

    #[test]
    fn divergent_campaign_ids_are_unavailable() {
        let replies = vec![
            Response::CampaignAccepted { ad: AdId(1) },
            Response::CampaignAccepted { ad: AdId(2) },
        ];
        assert_eq!(
            merge_broadcast(&submit(), replies),
            Response::Error(WireError::Unavailable)
        );
    }

    #[test]
    fn a_non_broadcast_kind_is_unavailable() {
        let routed = Request::Routed {
            partition: 0,
            epoch: 1,
            trace: TraceContext::NONE,
            inner: Box::new(Request::Stats),
        };
        for req in [
            Request::Ingest { deltas: Vec::new() },
            Request::Recommend {
                user: UserId(1),
                now: Timestamp::from_secs(1),
                location: adcast_stream::event::LocationId(0),
                k: 5,
            },
            routed,
            Request::ReplAppend {
                partition: 0,
                epoch: 1,
                trace: TraceContext::NONE,
                entries: Vec::new(),
            },
            Request::InstallSnapshot {
                partition: 0,
                epoch: 1,
                snapshot: bytes::Bytes::new(),
            },
            Request::Promote {
                partition: 0,
                epoch: 2,
            },
            Request::ClusterStatus,
        ] {
            assert_eq!(
                merge_broadcast(&req, vec![Response::ShutdownAck]),
                Response::Error(WireError::Unavailable),
                "{:?}",
                req.kind()
            );
        }
    }
}
