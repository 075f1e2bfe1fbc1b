//! The routing gateway: one TCP front door for an N-partition cluster.
//!
//! ## Forwarding model
//!
//! ```text
//! client ──► router connection thread ──► per-partition forwarder threads
//!                  │ split Ingest by user partition        │ owns one Client
//!                  │ route Recommend by user               │ to the partition
//!                  │ broadcast control RPCs (serialized)   │ primary
//!                  ◄───────────── merged reply ────────────┘
//! ```
//!
//! Each accepted connection gets its own forwarder thread per partition,
//! so a mixed ingest batch fans out to all partitions **concurrently**
//! and the reply returns when the slowest sub-batch acks — wall-clock
//! per batch is the max partition latency, not the sum. Client RPCs are
//! wrapped in `Routed{partition, epoch}` envelopes; the epoch makes a
//! deposed primary refuse with a typed error instead of serving stale.
//!
//! ## Broadcast ordering
//!
//! Campaign state is replicated to every partition (only users are
//! sharded), so control-plane mutations (submit/pause/impression/
//! maintain) broadcast to all partitions. Broadcasts across *all* router
//! connections are serialized by one mutex, giving every partition the
//! identical submission order — campaign ids assigned by replay are
//! identical on every node, which the consistency tests assert.
//!
//! ## Failover
//!
//! A forwarder that cannot reach its primary (dead connection, refused
//! dial, stale-epoch refusal) triggers promotion: under the partition
//! lock it dials the follower, bumps the epoch, and `Promote`s it. The
//! generation counter tells every other forwarder to re-dial. A
//! partition with no promotable follower sheds with typed
//! [`WireError::Overloaded`] rather than blocking the connection.

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

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use adcast_feed::FeedDelta;
use adcast_graph::UserId;
use adcast_net::client::{Client, ClientConfig};
use adcast_net::codec::{encode_response, write_frame, NetError};
use adcast_net::protocol::{Request, Response, ServerStats, TraceContext, WireError};
use adcast_net::server::{accept_loop, read_request};
use adcast_obs::tracestore::{head_sample, tracestore, SpanKind};
use adcast_obs::{flightrec, Counter, EventKind, Gauge, Hist};
use adcast_stream::clock::now_ns;

use crate::partition::PartitionMap;

/// Router knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Connect/retry/timeout policy for the per-partition client pools.
    /// `connect_attempts` also bounds how long a forwarder probes a dead
    /// primary before giving up and promoting the follower.
    pub client: ClientConfig,
    /// How often blocked threads wake to poll the shutdown flag.
    pub poll_interval: Duration,
    /// Head-based trace sampling: every `trace_sample`-th forwarded
    /// client RPC carries a sampled [`TraceContext`] (0 disables
    /// tracing). Sampling is deterministic in the request ordinal, so a
    /// rerun with the same seed samples the same requests.
    pub trace_sample: u64,
    /// Seed for [`adcast_obs::tracestore::trace_id_for`]: same seed +
    /// same ordinal ⇒ same trace id, which is what makes sim traces
    /// reproducible.
    pub trace_seed: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            client: ClientConfig {
                connect_attempts: 3,
                ..ClientConfig::default()
            },
            poll_interval: Duration::from_millis(50),
            trace_sample: 0,
            trace_seed: 0xAD_CA57,
        }
    }
}

/// Handles into the process-wide metrics registry for the router.
#[derive(Clone)]
struct RouterObs {
    forwarded_total: Counter,
    broadcasts_total: Counter,
    failovers_total: Counter,
    shed_total: Counter,
    connections_total: Counter,
    partitions: Gauge,
    forward_ns: Hist,
    broadcast_ns: Hist,
}

impl RouterObs {
    fn resolve() -> RouterObs {
        let reg = adcast_obs::registry();
        RouterObs {
            forwarded_total: reg.counter(
                "adcast_router_forwarded_total",
                "Client RPCs forwarded to a partition primary.",
            ),
            broadcasts_total: reg.counter(
                "adcast_router_broadcasts_total",
                "Control RPCs broadcast to every partition.",
            ),
            failovers_total: reg.counter(
                "adcast_router_failovers_total",
                "Follower promotions initiated after a primary failure.",
            ),
            shed_total: reg.counter(
                "adcast_router_shed_total",
                "RPCs shed with Overloaded because a partition was unavailable.",
            ),
            connections_total: reg
                .counter("adcast_router_connections_total", "Connections accepted."),
            partitions: reg.gauge("adcast_router_partitions", "Partitions in the serving map."),
            forward_ns: reg.hist(
                "adcast_router_forward_ns",
                "Router span: single-partition forward round trip.",
            ),
            broadcast_ns: reg.hist(
                "adcast_router_broadcast_ns",
                "Router span: full-cluster control broadcast round trip.",
            ),
        }
    }
}

/// The router's authoritative view of one partition, shared by every
/// connection's forwarders. Locked briefly for reads; held across the
/// promotion RPC during failover (the partition is down anyway).
struct PartitionRuntime {
    epoch: u64,
    primary: String,
    follower: Option<String>,
    /// Bumped on every primary change; forwarders compare it to know
    /// their cached connection dials the wrong node.
    generation: u64,
}

struct RouterShared {
    shutdown: AtomicBool,
    partitions: Vec<Mutex<PartitionRuntime>>,
    /// Serializes control-plane broadcasts across all connections.
    broadcast: Mutex<()>,
    config: RouterConfig,
    obs: RouterObs,
    /// Ordinal of the next routable client RPC, across all connections —
    /// the head-based sampling counter.
    trace_ordinal: AtomicU64,
}

impl RouterShared {
    /// Sample (or not) the next routable client RPC: a root context whose
    /// trace id is a pure function of `(trace_seed, ordinal)`.
    fn sample_trace(&self) -> TraceContext {
        let ordinal = self.trace_ordinal.fetch_add(1, Ordering::Relaxed);
        head_sample(self.config.trace_seed, self.config.trace_sample, ordinal)
    }
}

/// One partition's forwarding state, owned by one forwarder thread of
/// one connection.
struct Forwarder {
    partition: u16,
    shared: Arc<RouterShared>,
    client: Option<Client>,
    generation: u64,
}

impl Forwarder {
    fn view(&self) -> (u64, String, u64) {
        match self.shared.partitions[usize::from(self.partition)].lock() {
            Ok(rt) => (rt.epoch, rt.primary.clone(), rt.generation),
            // A poisoned partition lock means a failover panicked; treat
            // the partition as unavailable rather than propagating.
            Err(poisoned) => {
                let rt = poisoned.into_inner();
                (rt.epoch, rt.primary.clone(), rt.generation)
            }
        }
    }

    /// Forward one client RPC to this partition, riding through at most
    /// two view changes (a failover by us or by a racing connection).
    /// A sampled `trace` roots the cross-node trace here: the envelope
    /// carries this forward span's derived id as the downstream parent,
    /// and the span itself is recorded when the reply lands.
    fn forward(&mut self, inner: &Request, trace: TraceContext) -> Response {
        let started = now_ns();
        let salt = u64::from(self.partition);
        for _ in 0..3 {
            let (epoch, primary, generation) = self.view();
            if self.client.is_none() || self.generation != generation {
                match Client::connect(primary, &self.shared.config.client) {
                    Ok(c) => {
                        self.client = Some(c);
                        self.generation = generation;
                    }
                    Err(_) => {
                        if self.failover(generation) {
                            continue;
                        }
                        break;
                    }
                }
            }
            let Some(client) = self.client.as_mut() else {
                break;
            };
            // Shutdown travels bare: it is role- and epoch-independent
            // (draining a fenced or deposed node is still wanted).
            let outcome = if matches!(inner, Request::Shutdown) {
                client.call(&Request::Shutdown)
            } else {
                client.call(&Request::Routed {
                    partition: self.partition,
                    epoch,
                    trace: trace.child(SpanKind::RouterForward, salt),
                    inner: Box::new(inner.clone()),
                })
            };
            match outcome {
                Ok(Response::Error(WireError::StaleEpoch { .. } | WireError::NotPrimary)) => {
                    // Our view lags the cluster (the node was promoted or
                    // fenced behind our back), or the primary is gone in
                    // all but TCP. Refresh; if the view hasn't moved,
                    // move it ourselves.
                    if self.view().2 == generation && !self.failover(generation) {
                        break;
                    }
                }
                Ok(resp) => {
                    self.shared.obs.forwarded_total.inc();
                    let forward_ns = now_ns().saturating_sub(started);
                    self.shared.obs.forward_ns.record(forward_ns);
                    tracestore().record(trace, SpanKind::RouterForward, salt, started, forward_ns);
                    return resp;
                }
                Err(NetError::Disconnected) => {
                    self.client = None;
                    if self.view().2 == generation && !self.failover(generation) {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        self.shared.obs.shed_total.inc();
        Response::Error(WireError::Overloaded)
    }

    /// Promote this partition's follower under a bumped epoch. Returns
    /// whether the caller should retry — true when the view changed,
    /// whether we moved it or a racing connection did.
    // adcast-lint: allow(lock-discipline) -- the promotion RPC runs under
    // the partition lock on purpose: the partition is down (nothing else
    // can make progress on it) and racing failovers must serialize on
    // exactly this lock so only one epoch bump wins.
    fn failover(&mut self, observed_generation: u64) -> bool {
        let mut rt = match self.shared.partitions[usize::from(self.partition)].lock() {
            Ok(rt) => rt,
            Err(poisoned) => poisoned.into_inner(),
        };
        if rt.generation != observed_generation {
            return true;
        }
        let Some(follower) = rt.follower.clone() else {
            return false;
        };
        let Ok(mut client) = Client::connect(follower.clone(), &self.shared.config.client) else {
            return false;
        };
        let adopted = match client.promote(self.partition, rt.epoch + 1) {
            Ok((epoch, _next_lsn)) => epoch,
            // The node already holds a higher epoch — promoted during a
            // previous router life. Adopt its view instead of fighting.
            Err(NetError::Remote(WireError::StaleEpoch { current })) => current,
            Err(_) => return false,
        };
        rt.epoch = adopted;
        rt.primary = follower;
        // The deposed primary is fenced, not a promotion target.
        rt.follower = None;
        rt.generation += 1;
        // Scripts grep this exact shape.
        eprintln!(
            "router: promoted partition={} epoch={} primary={}",
            self.partition, adopted, rt.primary
        );
        self.shared.obs.failovers_total.inc();
        flightrec().record(EventKind::Failover, u64::from(self.partition), adopted, 0);
        true
    }
}

/// One forwarding job for a partition forwarder thread.
struct Job {
    inner: Request,
    /// The sampled (or `NONE`) root context this RPC traces under; the
    /// fan-out legs of one broadcast share it and are told apart by the
    /// partition salt in their span ids.
    trace: TraceContext,
    /// Depth-1 by construction: the forwarder sends exactly one reply
    /// per job, so the bounded send can never block.
    reply: mpsc::SyncSender<Response>,
}

/// The per-connection fan-out: one forwarder thread per partition, fed
/// by channels, collected by the connection thread.
struct Pool {
    /// Each forwarder queue is bounded at one job: the connection thread
    /// is the only producer and collects every reply before dispatching
    /// the next RPC, so at most one job is ever in flight per partition.
    senders: Vec<mpsc::SyncSender<Job>>,
    joins: Vec<JoinHandle<()>>,
}

impl Pool {
    fn spawn(shared: &Arc<RouterShared>) -> Pool {
        let n = shared.partitions.len();
        let mut senders = Vec::with_capacity(n);
        let mut joins = Vec::with_capacity(n);
        for partition in 0..n {
            let (tx, rx) = mpsc::sync_channel::<Job>(1);
            let mut forwarder = Forwarder {
                // Construction bounds n to u16 (PartitionMap invariant).
                partition: partition as u16,
                shared: Arc::clone(shared),
                client: None,
                generation: u64::MAX, // force the first dial
            };
            let join = std::thread::Builder::new()
                .name(format!("adcast-fwd-{partition}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        let resp = forwarder.forward(&job.inner, job.trace);
                        // A connection thread that gave up mid-collect
                        // cannot receive; fine.
                        let _ = job.reply.send(resp);
                    }
                });
            match join {
                Ok(j) => joins.push(j),
                Err(_) => continue,
            }
            senders.push(tx);
        }
        Pool { senders, joins }
    }

    /// Dispatch `inner` to one partition; returns the reply receiver.
    fn dispatch(
        &self,
        partition: u16,
        inner: Request,
        trace: TraceContext,
    ) -> mpsc::Receiver<Response> {
        let (tx, rx) = mpsc::sync_channel(1);
        if let Some(sender) = self.senders.get(usize::from(partition)) {
            let _ = sender.send(Job {
                inner,
                trace,
                reply: tx,
            });
        }
        rx
    }

    /// Dispatch `inner` to every partition concurrently and collect the
    /// replies in partition order (missing replies — a dead forwarder —
    /// come back as `Overloaded`).
    fn broadcast(&self, inner: &Request, trace: TraceContext) -> Vec<Response> {
        let pending: Vec<_> = (0..self.senders.len())
            .map(|p| self.dispatch(p as u16, inner.clone(), trace))
            .collect();
        pending
            .into_iter()
            .map(|rx| rx.recv().unwrap_or(Response::Error(WireError::Overloaded)))
            .collect()
    }

    fn join(self) {
        drop(self.senders);
        for j in self.joins {
            let _ = j.join();
        }
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

/// A running router; like the node server, send `Shutdown` (or call
/// [`Router::shutdown`]) then [`Router::join`].
pub struct Router {
    addr: SocketAddr,
    shared: Arc<RouterShared>,
    accept_join: Option<JoinHandle<()>>,
}

impl Router {
    /// Bind `addr` and start routing for `map` on background threads.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] on bind or thread-spawn failures.
    pub fn start(addr: &str, map: &PartitionMap, config: RouterConfig) -> Result<Router, NetError> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let obs = RouterObs::resolve();
        obs.partitions.set(map.len() as i64);
        let partitions = map
            .iter()
            .map(|(_, nodes)| {
                Mutex::new(PartitionRuntime {
                    epoch: 0,
                    primary: nodes.primary.clone(),
                    follower: nodes.follower.clone(),
                    generation: 0,
                })
            })
            .collect();
        let shared = Arc::new(RouterShared {
            shutdown: AtomicBool::new(false),
            partitions,
            broadcast: Mutex::new(()),
            config,
            obs,
            trace_ordinal: AtomicU64::new(0),
        });
        let accept_join = {
            let shared = Arc::clone(&shared);
            let poll = shared.config.poll_interval;
            std::thread::Builder::new()
                .name("adcast-router".into())
                .spawn(move || {
                    accept_loop(&listener, &shared.shutdown, poll, |stream| {
                        shared.obs.connections_total.inc();
                        let shared = Arc::clone(&shared);
                        std::thread::Builder::new()
                            .name("adcast-route-conn".into())
                            .spawn(move || connection_loop(stream, &shared))
                            .ok()
                    });
                })?
        };
        Ok(Router {
            addr: local,
            shared,
            accept_join: Some(accept_join),
        })
    }

    /// The bound address (real port even when started on port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Trigger shutdown of the router itself (the nodes keep serving;
    /// a client-sent `Shutdown` stops nodes *and* router).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }

    /// Block until the accept loop and every connection have exited.
    pub fn join(mut self) {
        if let Some(j) = self.accept_join.take() {
            let _ = j.join();
        }
    }
}

fn connection_loop(mut stream: TcpStream, shared: &Arc<RouterShared>) {
    let pool = Pool::spawn(shared);
    while let Some((id, req)) = read_request(&mut stream, &shared.shutdown) {
        let is_shutdown = matches!(req, Request::Shutdown);
        let resp = route_one(shared, &pool, req);
        if write_frame(&mut stream, &encode_response(id, &resp)).is_err() {
            break;
        }
        if is_shutdown {
            shared.shutdown.store(true, Ordering::SeqCst);
            break;
        }
    }
    pool.join();
}

/// The partition a single-target request belongs to, or `None` for
/// broadcast/refused kinds.
fn route_one(shared: &Arc<RouterShared>, pool: &Pool, req: Request) -> Response {
    let num_partitions = shared.partitions.len();
    // One sampling decision per client RPC, taken before any fan-out, so
    // every partition leg of this request shares one trace id.
    let trace = match &req {
        Request::Ingest { .. }
        | Request::Recommend { .. }
        | Request::SubmitCampaign(_)
        | Request::PauseCampaign { .. }
        | Request::Impression { .. }
        | Request::Maintain { .. }
        | Request::Checkpoint
        | Request::ObsDump
        | Request::Stats
        | Request::Shutdown => shared.sample_trace(),
        Request::Routed { .. }
        | Request::ReplAppend { .. }
        | Request::InstallSnapshot { .. }
        | Request::Promote { .. }
        | Request::ClusterStatus => TraceContext::NONE,
    };
    match req {
        Request::Ingest { deltas } => {
            // Split the batch by owning partition and fan out; the reply
            // arrives when the slowest partition acks.
            let mut parts: Vec<Vec<(UserId, FeedDelta)>> = vec![Vec::new(); num_partitions];
            for (user, delta) in deltas {
                parts[user.index() % num_partitions].push((user, delta));
            }
            let pending: Vec<_> = parts
                .into_iter()
                .enumerate()
                .filter(|(_, sub)| !sub.is_empty())
                .map(|(p, sub)| pool.dispatch(p as u16, Request::Ingest { deltas: sub }, trace))
                .collect();
            let mut accepted = 0u32;
            for rx in pending {
                match rx.recv() {
                    Ok(Response::Ingested { accepted: n }) => accepted += n,
                    Ok(Response::Error(err)) => return Response::Error(err),
                    Ok(_) | Err(_) => return Response::Error(WireError::Overloaded),
                }
            }
            Response::Ingested { accepted }
        }
        Request::Recommend { user, .. } => {
            let partition = (user.index() % num_partitions) as u16;
            let rx = pool.dispatch(partition, req, trace);
            rx.recv().unwrap_or(Response::Error(WireError::Overloaded))
        }
        Request::SubmitCampaign(_)
        | Request::PauseCampaign { .. }
        | Request::Impression { .. }
        | Request::Maintain { .. }
        | Request::Checkpoint
        | Request::ObsDump
        | Request::Stats
        | Request::Shutdown => broadcast(shared, pool, &req, trace),
        // The router is a gateway, not a cluster member: partition-
        // addressed envelopes and replication RPCs stop here.
        Request::Routed { .. } => Response::Error(WireError::BadRequest(
            "router does not accept pre-routed frames".into(),
        )),
        Request::ReplAppend { .. } | Request::InstallSnapshot { .. } | Request::Promote { .. } => {
            Response::Error(WireError::BadRequest(
                "replication RPCs go directly to nodes, not through the router".into(),
            ))
        }
        Request::ClusterStatus => Response::Error(WireError::BadRequest(
            "the router has no cluster status; ask a node".into(),
        )),
    }
}

/// Broadcast a control RPC to every partition under the global broadcast
/// lock (identical delivery order on every partition — replayed campaign
/// ids match), then merge the per-partition replies.
fn broadcast(
    shared: &Arc<RouterShared>,
    pool: &Pool,
    req: &Request,
    trace: TraceContext,
) -> Response {
    let started = now_ns();
    let guard = shared.broadcast.lock();
    let replies = pool.broadcast(req, trace);
    drop(guard);
    shared.obs.broadcasts_total.inc();
    shared
        .obs
        .broadcast_ns
        .record(now_ns().saturating_sub(started));
    merge_broadcast(req, replies)
}

fn merge_broadcast(req: &Request, replies: Vec<Response>) -> Response {
    // Any typed error wins over a merged success: broadcast mutations
    // are all-or-error so partitions cannot silently diverge.
    if let Some(err) = replies.iter().find_map(|r| match r {
        Response::Error(e) => Some(e.clone()),
        _ => None,
    }) {
        return Response::Error(err);
    }
    match req {
        Request::SubmitCampaign(_) => {
            let mut ids = replies.iter().filter_map(|r| match r {
                Response::CampaignAccepted { ad } => Some(*ad),
                _ => None,
            });
            match ids.next() {
                Some(first) if ids.all(|ad| ad == first) => {
                    Response::CampaignAccepted { ad: first }
                }
                // Divergent ids mean the partitions saw different
                // submission histories — surface loudly.
                _ => Response::Error(WireError::Unavailable),
            }
        }
        Request::PauseCampaign { ad } => Response::CampaignPaused { ad: *ad },
        Request::Impression { ad, .. } => Response::ImpressionRecorded {
            ad: *ad,
            exhausted: replies.iter().any(|r| {
                matches!(
                    r,
                    Response::ImpressionRecorded {
                        exhausted: true,
                        ..
                    }
                )
            }),
        },
        Request::Maintain { .. } => {
            let (mut scanned, mut decayed, mut pruned) = (0u64, 0u64, 0u64);
            for r in &replies {
                if let Response::Maintained {
                    scanned: s,
                    decayed: d,
                    pruned: p,
                } = r
                {
                    scanned += s;
                    decayed += d;
                    pruned += p;
                }
            }
            Response::Maintained {
                scanned,
                decayed,
                pruned,
            }
        }
        Request::Checkpoint => Response::Checkpointed {
            lsn: replies
                .iter()
                .filter_map(|r| match r {
                    Response::Checkpointed { lsn } => Some(*lsn),
                    _ => None,
                })
                .max()
                .unwrap_or(0),
        },
        Request::ObsDump => Response::ObsDumped {
            events: replies
                .iter()
                .filter_map(|r| match r {
                    Response::ObsDumped { events } => Some(*events),
                    _ => None,
                })
                .sum(),
        },
        Request::Stats => {
            let stats: Vec<ServerStats> = replies
                .into_iter()
                .filter_map(|r| match r {
                    Response::Stats(s) => Some(s),
                    _ => None,
                })
                .collect();
            Response::Stats(merge_stats(&stats))
        }
        Request::Shutdown => Response::ShutdownAck,
        // `route_one` never broadcasts these kinds.
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
    use adcast_ads::AdId;
    use adcast_net::protocol::CampaignSpec;
    use adcast_stream::clock::Timestamp;
    use adcast_text::dictionary::TermId;
    use adcast_text::SparseVector;

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
