//! The TCP [`ReplicationSink`]: how a primary's engine thread reaches
//! its follower. Wraps one [`Client`] with lazy dial / redial-on-error,
//! and maps the wire's typed refusals onto the sink error contract the
//! engine acts on (fence, snapshot fallback, degrade).

use adcast_net::client::{Client, ClientConfig};
use adcast_net::codec::NetError;
use adcast_net::replication::{ReplicateError, ReplicationSink};
use adcast_net::TraceContext;
use bytes::Bytes;

/// Replication transport to one follower over TCP.
pub struct TcpSink {
    partition: u16,
    addr: String,
    config: ClientConfig,
    client: Option<Client>,
}

impl TcpSink {
    /// A sink dialing `addr` for `partition`. The connection is
    /// established lazily on the first shipment (the follower may start
    /// after the primary).
    #[must_use]
    pub fn new(partition: u16, addr: impl Into<String>, config: ClientConfig) -> TcpSink {
        TcpSink {
            partition,
            addr: addr.into(),
            config,
            client: None,
        }
    }

    /// The follower address this sink ships to.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn connected(&mut self) -> Result<&mut Client, ReplicateError> {
        if self.client.is_none() {
            match Client::connect(self.addr.clone(), &self.config) {
                Ok(c) => self.client = Some(c),
                Err(_) => return Err(ReplicateError::Unreachable),
            }
        }
        // Just populated above; the error path returned early.
        self.client.as_mut().ok_or(ReplicateError::Unreachable)
    }

    /// Run one RPC against the follower, redialing once on a dead
    /// connection (the reconnect itself retries with jittered backoff).
    fn with_retry<T>(
        &mut self,
        mut rpc: impl FnMut(&mut Client) -> Result<T, NetError>,
    ) -> Result<T, ReplicateError> {
        for attempt in 0..2 {
            let client = self.connected()?;
            match rpc(client) {
                Ok(v) => return Ok(v),
                Err(NetError::Disconnected) if attempt == 0 => {
                    // At-least-once is safe here: the follower's LSN
                    // check makes a replayed append idempotent-or-typed
                    // (a already-applied batch surfaces as LsnGap, which
                    // the caller resolves by consulting the ack LSN).
                    self.client = None;
                }
                Err(NetError::Remote(e)) => return Err(ReplicateError::from_wire(&e)),
                // Disconnects and timeouts degrade the primary.
                Err(_) => return Err(ReplicateError::Unreachable),
            }
        }
        Err(ReplicateError::Unreachable)
    }
}

impl ReplicationSink for TcpSink {
    fn replicate(
        &mut self,
        epoch: u64,
        trace: TraceContext,
        entries: &[(u64, Bytes)],
    ) -> Result<u64, ReplicateError> {
        let partition = self.partition;
        self.with_retry(|client| client.repl_append(partition, epoch, trace, entries.to_vec()))
    }

    fn install(&mut self, epoch: u64, snapshot: Bytes) -> Result<u64, ReplicateError> {
        let partition = self.partition;
        self.with_retry(|client| client.install_snapshot(partition, epoch, snapshot.clone()))
    }
}
