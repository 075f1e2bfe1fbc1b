//! Blocking client for the adcast wire protocol.
//!
//! One [`Client`] wraps one TCP connection and runs a closed loop: each
//! call writes a frame, then blocks for the matching reply (ids are
//! checked, so a desynchronized stream surfaces as
//! [`NetError::IdMismatch`] instead of silently mis-pairing replies).
//! Connect retries with exponential backoff so a load generator can race
//! server startup; the same retry loop backs [`Client::reconnect`], so a
//! caller can ride through a server restart. A peer that vanishes
//! mid-RPC (broken pipe, connection reset, EOF inside a reply) surfaces
//! as the typed [`NetError::Disconnected`] — the caller knows the
//! request's fate is unknown and can reconnect + retry where that is
//! safe. Per-call timeouts come from the socket read timeout.

use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use adcast_ads::AdId;
use adcast_core::Recommendation;
use adcast_feed::FeedDelta;
use adcast_graph::UserId;
use adcast_stream::clock::Timestamp;
use adcast_stream::event::LocationId;
use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::codec::{decode_response, encode_request, read_frame, write_frame, NetError};
use crate::protocol::{CampaignSpec, NodeStatus, Request, Response, ServerStats, TraceContext};

/// Connection and retry knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Connect attempts before giving up (also per [`Client::reconnect`]
    /// call).
    pub connect_attempts: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub initial_backoff: Duration,
    /// Per-RPC reply timeout (`None` = wait forever).
    pub rpc_timeout: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_attempts: 8,
            initial_backoff: Duration::from_millis(20),
            rpc_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// A blocking connection to an adcast server.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
    addr: String,
    config: ClientConfig,
}

/// Process-wide sequence feeding the reconnect jitter, so two clients in
/// the same process (a loadgen worker fleet, a router's per-node pools)
/// get different jitter streams even when dialing the same address.
static JITTER_SEQ: AtomicU64 = AtomicU64::new(0);

/// A jitter RNG seeded from the dialed address and the process-wide
/// sequence — deterministic (no wallclock, no OS entropy), but distinct
/// per connect attempt and per dialing thread.
fn jitter_rng(addr: &str) -> SmallRng {
    let mut seed = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
    for byte in addr.bytes() {
        seed = (seed ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    seed ^= JITTER_SEQ
        .fetch_add(1, Ordering::Relaxed)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
    SmallRng::seed_from_u64(seed)
}

/// The shared connect-with-backoff loop (initial connect and reconnect).
/// Each sleep is the exponential backoff plus up to 50% jitter: after a
/// failover, every pool and worker notices the dead primary in the same
/// instant, and unjittered backoff would have them all re-dial the
/// promoted node in synchronized waves.
fn connect_with_backoff(addr: &str, config: &ClientConfig) -> Result<TcpStream, NetError> {
    let mut rng = jitter_rng(addr);
    let mut backoff = config.initial_backoff;
    let mut last: Option<io::Error> = None;
    for attempt in 0..config.connect_attempts.max(1) {
        if attempt > 0 {
            std::thread::sleep(backoff.mul_f64(1.0 + rng.gen_range(0.0..0.5)));
            backoff = backoff.saturating_mul(2);
        }
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                stream.set_read_timeout(config.rpc_timeout)?;
                return Ok(stream);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(NetError::Io(last.unwrap_or_else(|| {
        io::Error::other("no connect attempts made")
    })))
}

/// Does this error mean the peer went away (as opposed to a protocol or
/// local failure)?
fn is_disconnect(err: &NetError) -> bool {
    match err {
        NetError::UnexpectedEof => true,
        NetError::Io(e) => matches!(
            e.kind(),
            io::ErrorKind::BrokenPipe
                | io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::NotConnected
        ),
        _ => false,
    }
}

impl Client {
    /// Connect with retry + exponential backoff.
    ///
    /// # Errors
    ///
    /// The last connect error once `connect_attempts` is exhausted.
    pub fn connect(addr: impl Into<String>, config: &ClientConfig) -> Result<Client, NetError> {
        let addr = addr.into();
        let stream = connect_with_backoff(&addr, config)?;
        Ok(Client {
            stream,
            next_id: 1,
            addr,
            config: config.clone(),
        })
    }

    /// Drop the (possibly dead) connection and dial the same address
    /// again with the same retry/backoff policy. Any RPC that was in
    /// flight when the old connection died is of unknown fate — re-issue
    /// it only where at-least-once semantics are acceptable.
    ///
    /// # Errors
    ///
    /// The last connect error once `connect_attempts` is exhausted; the
    /// client keeps its old (dead) stream in that case so a later retry
    /// is still possible.
    pub fn reconnect(&mut self) -> Result<(), NetError> {
        self.stream = connect_with_backoff(&self.addr, &self.config)?;
        self.next_id = 1;
        Ok(())
    }

    /// The address this client dials.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Issue one RPC and wait for its reply.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] when the server goes away mid-RPC
    /// (write or read side), [`NetError::IdMismatch`] on a
    /// desynchronized stream, and transport/codec failures otherwise. A
    /// server-side [`Response::Error`] is returned as `Ok` — use the
    /// typed wrappers below to turn those into [`NetError::Remote`].
    pub fn call(&mut self, req: &Request) -> Result<Response, NetError> {
        let id = self.next_id;
        self.next_id += 1;
        let outcome = (|| {
            write_frame(&mut self.stream, &encode_request(id, req))?;
            read_frame(&mut self.stream)?.ok_or(NetError::UnexpectedEof)
        })();
        let body = match outcome {
            Ok(body) => body,
            Err(e) if is_disconnect(&e) => return Err(NetError::Disconnected),
            Err(e) => return Err(e),
        };
        let (got, resp) = decode_response(body)?;
        if got != id {
            return Err(NetError::IdMismatch { expected: id, got });
        }
        Ok(resp)
    }

    /// Apply a batch of feed deltas; returns the accepted count.
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] carries server-side refusals — match
    /// [`crate::WireError::Overloaded`] to implement retry-with-backoff.
    pub fn ingest(&mut self, deltas: Vec<(UserId, FeedDelta)>) -> Result<u32, NetError> {
        match self.call(&Request::Ingest { deltas })? {
            Response::Ingested { accepted } => Ok(accepted),
            other => Err(unexpected(other)),
        }
    }

    /// Serve the top-`k` ads for `user`.
    ///
    /// # Errors
    ///
    /// See [`Client::ingest`].
    pub fn recommend(
        &mut self,
        user: UserId,
        now: Timestamp,
        location: LocationId,
        k: u16,
    ) -> Result<Vec<Recommendation>, NetError> {
        match self.call(&Request::Recommend {
            user,
            now,
            location,
            k,
        })? {
            Response::Recommendations(recs) => Ok(recs),
            other => Err(unexpected(other)),
        }
    }

    /// Submit a campaign; returns its assigned id.
    ///
    /// # Errors
    ///
    /// See [`Client::ingest`].
    pub fn submit_campaign(&mut self, spec: CampaignSpec) -> Result<AdId, NetError> {
        match self.call(&Request::SubmitCampaign(spec))? {
            Response::CampaignAccepted { ad } => Ok(ad),
            other => Err(unexpected(other)),
        }
    }

    /// Pause a campaign everywhere.
    ///
    /// # Errors
    ///
    /// See [`Client::ingest`].
    pub fn pause_campaign(&mut self, ad: AdId) -> Result<(), NetError> {
        match self.call(&Request::PauseCampaign { ad })? {
            Response::CampaignPaused { .. } => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Charge an impression; returns whether it exhausted the budget.
    ///
    /// # Errors
    ///
    /// See [`Client::ingest`].
    pub fn impression(
        &mut self,
        ad: AdId,
        cost: f64,
        clicked: bool,
        now: Timestamp,
    ) -> Result<bool, NetError> {
        match self.call(&Request::Impression {
            ad,
            cost,
            clicked,
            now,
        })? {
            Response::ImpressionRecorded { exhausted, .. } => Ok(exhausted),
            other => Err(unexpected(other)),
        }
    }

    /// Run a lifecycle maintenance pass (evict finished-flight campaigns,
    /// reset users idle for at least `idle_for`); returns `(scanned,
    /// decayed, pruned)` counts.
    ///
    /// # Errors
    ///
    /// See [`Client::ingest`].
    pub fn maintain(
        &mut self,
        now: Timestamp,
        idle_for: adcast_stream::clock::Duration,
    ) -> Result<(u64, u64, u64), NetError> {
        match self.call(&Request::Maintain { now, idle_for })? {
            Response::Maintained {
                scanned,
                decayed,
                pruned,
            } => Ok((scanned, decayed, pruned)),
            other => Err(unexpected(other)),
        }
    }

    /// Force a durable snapshot; returns the WAL position it covers.
    ///
    /// # Errors
    ///
    /// See [`Client::ingest`]; a server without a data directory refuses
    /// with [`crate::WireError::BadRequest`].
    pub fn checkpoint(&mut self) -> Result<u64, NetError> {
        match self.call(&Request::Checkpoint)? {
            Response::Checkpointed { lsn } => Ok(lsn),
            other => Err(unexpected(other)),
        }
    }

    /// Dump the server's flight recorder to disk; returns the number of
    /// events written.
    ///
    /// # Errors
    ///
    /// See [`Client::ingest`]; a server without a data directory refuses
    /// with [`crate::WireError::BadRequest`].
    pub fn obs_dump(&mut self) -> Result<u64, NetError> {
        match self.call(&Request::ObsDump)? {
            Response::ObsDumped { events } => Ok(events),
            other => Err(unexpected(other)),
        }
    }

    /// Snapshot the server's counters and latency percentiles.
    ///
    /// # Errors
    ///
    /// See [`Client::ingest`].
    pub fn stats(&mut self) -> Result<ServerStats, NetError> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(unexpected(other)),
        }
    }

    /// Ask the server to drain and stop.
    ///
    /// # Errors
    ///
    /// See [`Client::ingest`].
    pub fn shutdown(&mut self) -> Result<(), NetError> {
        match self.call(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Ship committed WAL records to a follower; returns the follower's
    /// `next_lsn` after making them durable **and** applying them.
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] carries the typed refusals the replication
    /// protocol turns on: [`crate::WireError::StaleEpoch`] (this sender
    /// is deposed), [`crate::WireError::LsnGap`] (fall back to
    /// [`Client::install_snapshot`]).
    pub fn repl_append(
        &mut self,
        partition: u16,
        epoch: u64,
        trace: TraceContext,
        entries: Vec<(u64, Bytes)>,
    ) -> Result<u64, NetError> {
        match self.call(&Request::ReplAppend {
            partition,
            epoch,
            trace,
            entries,
        })? {
            Response::ReplAck { durable_lsn } => Ok(durable_lsn),
            other => Err(unexpected(other)),
        }
    }

    /// Ship a full engine-set snapshot to a follower for catch-up;
    /// returns the follower's `next_lsn` after the install.
    ///
    /// # Errors
    ///
    /// See [`Client::repl_append`].
    pub fn install_snapshot(
        &mut self,
        partition: u16,
        epoch: u64,
        snapshot: Bytes,
    ) -> Result<u64, NetError> {
        match self.call(&Request::InstallSnapshot {
            partition,
            epoch,
            snapshot,
        })? {
            Response::SnapshotInstalled { next_lsn } => Ok(next_lsn),
            other => Err(unexpected(other)),
        }
    }

    /// A node's cluster identity and replication position (served by
    /// every role, including fenced nodes — it's how the router and the
    /// smoke scripts observe failover).
    ///
    /// # Errors
    ///
    /// See [`Client::ingest`].
    pub fn cluster_status(&mut self) -> Result<NodeStatus, NetError> {
        match self.call(&Request::ClusterStatus)? {
            Response::ClusterStatusReply {
                role,
                partition,
                epoch,
                durable_lsn,
                fenced,
                degraded,
            } => Ok(NodeStatus {
                role,
                partition,
                epoch,
                durable_lsn,
                fenced,
                degraded,
            }),
            other => Err(unexpected(other)),
        }
    }
}

/// Fold a non-matching reply into a typed error.
fn unexpected(resp: Response) -> NetError {
    match resp {
        Response::Error(e) => NetError::Remote(e),
        other => NetError::Decode(adcast_stream::cursor::TraceError::Corrupt(match other {
            Response::Ingested { .. } => "unexpected Ingested reply",
            Response::Recommendations(_) => "unexpected Recommendations reply",
            Response::CampaignAccepted { .. } => "unexpected CampaignAccepted reply",
            Response::CampaignPaused { .. } => "unexpected CampaignPaused reply",
            Response::PacingSet { .. } => "unexpected PacingSet reply",
            Response::ImpressionRecorded { .. } => "unexpected ImpressionRecorded reply",
            Response::Maintained { .. } => "unexpected Maintained reply",
            Response::Checkpointed { .. } => "unexpected Checkpointed reply",
            Response::ObsDumped { .. } => "unexpected ObsDumped reply",
            Response::Stats(_) => "unexpected Stats reply",
            Response::ShutdownAck => "unexpected ShutdownAck reply",
            Response::ReplAck { .. } => "unexpected ReplAck reply",
            Response::SnapshotInstalled { .. } => "unexpected SnapshotInstalled reply",
            Response::Promoted { .. } => "unexpected Promoted reply",
            Response::ClusterStatusReply { .. } => "unexpected ClusterStatusReply reply",
            Response::Error(_) => unreachable!(),
        })),
    }
}
