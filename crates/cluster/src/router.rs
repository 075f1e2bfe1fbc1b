//! The routing gateway: one TCP front door for an N-partition cluster.
//!
//! ## Forwarding model
//!
//! ```text
//! client ──► router connection thread ──► per-partition forwarder threads
//!                  │ route::plan: the request's legs       │ owns one Client
//!                  │ (Ingest split, Recommend to owner,    │ to the partition
//!                  │ control RPCs to all, serialized)      │ primary
//!                  ◄──────── route::Merge of the replies ──┘
//! ```
//!
//! What to send where, and how replies merge, is decided by the
//! transport-free [`crate::route`] module, which the simulator runs too;
//! this module only executes it. Each accepted connection gets its own
//! forwarder thread per partition, so a mixed ingest batch fans out to
//! all partitions **concurrently** and the reply returns when the slowest
//! sub-batch acks — wall-clock per batch is the max partition latency,
//! not the sum. Legs travel in [`route::envelope`]s; the epoch makes a
//! deposed primary refuse with a typed error instead of serving stale.
//!
//! ## Broadcast ordering
//!
//! Campaign state is replicated to every partition (only users are
//! sharded), so control-plane mutations (submit/pause/pacing/
//! impression/maintain) broadcast to all partitions. Broadcasts across *all* router
//! connections are serialized by one mutex, giving every partition the
//! identical submission order — campaign ids assigned by replay are
//! identical on every node, which the consistency tests assert.
//!
//! ## Failover
//!
//! A forwarder that cannot reach its primary (dead connection, refused
//! dial, stale-epoch refusal) triggers promotion: under the partition
//! lock it dials the follower and sends it [`route::promotion`], adopting
//! the [`route::adopted_epoch`] of the answer. The
//! generation counter tells every other forwarder to re-dial. A
//! partition with no promotable follower sheds with typed
//! [`WireError::Overloaded`] rather than blocking the connection.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use adcast_net::client::{Client, ClientConfig};
use adcast_net::codec::{encode_response, write_frame, NetError};
use adcast_net::protocol::{Request, Response, TraceContext, WireError};
use adcast_net::server::{accept_loop, read_request};
use adcast_obs::tracestore::{head_sample, tracestore, SpanKind};
use adcast_obs::{flightrec, Counter, EventKind, Gauge, Hist};
use adcast_stream::clock::now_ns;

use crate::partition::PartitionMap;
use crate::route::{self, Merge};

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
    #[expect(
        clippy::disallowed_methods,
        reason = "the partition lock guards three field reads and nothing that blocks"
    )]
    fn view(&self) -> (u64, String, u64) {
        // A poisoned partition lock means a failover panicked; read the
        // view it left rather than propagating.
        let rt = self.shared.partitions[usize::from(self.partition)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        (rt.epoch, rt.primary.clone(), rt.generation)
    }

    /// Forward one client RPC to this partition, riding through at most
    /// two view changes (a failover by us or by a racing connection).
    /// A sampled `trace` roots the cross-node trace here: the envelope
    /// carries this forward span's derived id as the downstream parent,
    /// and the span itself is recorded when the reply lands.
    fn forward(&mut self, mut leg: Request, trace: TraceContext) -> Response {
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
            let child = trace.child(SpanKind::RouterForward, salt);
            let sent = route::envelope(self.partition, epoch, child, leg);
            let outcome = client.call(&sent);
            // Take the leg back out for a retry: it is moved, never copied.
            leg = match sent {
                Request::Routed { inner, .. } => *inner,
                bare => bare,
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
    #[expect(
        clippy::disallowed_methods,
        reason = "the promotion RPC runs under the partition lock on purpose: the partition is down \
                  (nothing else can make progress on it) and racing failovers must serialize on \
                  exactly this lock so only one epoch bump wins"
    )]
    fn failover(&mut self, observed_generation: u64) -> bool {
        let mut rt = self.shared.partitions[usize::from(self.partition)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if rt.generation != observed_generation {
            return true;
        }
        let Some(follower) = rt.follower.clone() else {
            return false;
        };
        let Ok(mut client) = Client::connect(follower.clone(), &self.shared.config.client) else {
            return false;
        };
        let Ok(reply) = client.call(&route::promotion(self.partition, rt.epoch)) else {
            return false;
        };
        let Some(adopted) = route::adopted_epoch(&reply) else {
            return false;
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
    leg: Request,
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
    /// One forwarder per partition, slot `p` serving partition `p`; `None`
    /// when any fails to start, since a missing slot would shift every
    /// later partition's legs onto its neighbour's forwarder.
    fn spawn(shared: &Arc<RouterShared>) -> Option<Pool> {
        let n = shared.partitions.len();
        let mut pool = Pool {
            senders: Vec::with_capacity(n),
            joins: Vec::with_capacity(n),
        };
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
                        let resp = forwarder.forward(job.leg, job.trace);
                        // A connection thread that gave up mid-collect
                        // cannot receive; fine.
                        let _ = job.reply.send(resp);
                    }
                });
            match join {
                Ok(j) => pool.joins.push(j),
                Err(_) => {
                    pool.join();
                    return None;
                }
            }
            pool.senders.push(tx);
        }
        Some(pool)
    }

    /// Dispatch every leg to its partition's forwarder at once and
    /// collect the replies in leg order (missing replies — a dead
    /// forwarder — come back as `Overloaded`).
    fn run(&self, legs: Vec<(u16, Request)>, trace: TraceContext) -> Vec<Response> {
        let pending: Vec<_> = legs
            .into_iter()
            .map(|(p, leg)| {
                let (reply, rx) = mpsc::sync_channel(1);
                if let Some(sender) = self.senders.get(usize::from(p)) {
                    let _ = sender.send(Job { leg, trace, reply });
                }
                rx
            })
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
    // A connection without a forwarder for every partition is refused:
    // dropping the stream closes it.
    let Some(pool) = Pool::spawn(shared) else {
        return;
    };
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

/// Serve one client RPC: plan it with [`route::plan`], run its legs on
/// the connection's forwarders, and merge their replies.
fn route_one(shared: &Arc<RouterShared>, pool: &Pool, req: Request) -> Response {
    let plan = match route::plan(req, shared.partitions.len()) {
        Ok(plan) => plan,
        Err(refusal) => return Response::Error(refusal),
    };
    // One sampling decision per client RPC, taken before any fan-out, so
    // every partition leg of this request shares one trace id.
    let trace = shared.sample_trace();
    if !matches!(plan.merge, Merge::Broadcast(_)) {
        return plan.merge.merge(pool.run(plan.legs, trace));
    }
    // A broadcast runs under the global broadcast lock: identical
    // delivery order on every partition, so replayed campaign ids match.
    let started = now_ns();
    #[expect(
        clippy::disallowed_methods,
        reason = "the broadcast guard is held across `pool.run`, whose `recv`s block until every \
                  partition replies; it nests the partition locks a failover takes (broadcast, \
                  then partition, never the reverse)"
    )]
    let guard = shared.broadcast.lock();
    let replies = pool.run(plan.legs, trace);
    drop(guard);
    shared.obs.broadcasts_total.inc();
    let broadcast_ns = now_ns().saturating_sub(started);
    shared.obs.broadcast_ns.record(broadcast_ns);
    plan.merge.merge(replies)
}
