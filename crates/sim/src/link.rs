//! The in-process replication transport of a primary/follower pair: a
//! node's [`SimSink`] hands `ReplAppend` and `InstallSnapshot` to its
//! peer's [`Node::handle`] (or answers `Unreachable` while a fault has
//! the link down), as the TCP sink hands them to the peer's server.

use std::sync::{Arc, Mutex, MutexGuard, Weak};

use adcast_net::protocol::{Request, Response};
use adcast_net::replication::{ReplicateError, ReplicationSink};
use adcast_net::Node;
use adcast_obs::tracestore::TraceContext;
use adcast_stream::clock::now_ns;
use bytes::Bytes;

use crate::runner::SimCounters;

/// Lock a node or link; a panic while one was held voids the run.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a node or link panicked mid-request; the run is void")
}

/// One pair's replication link as both nodes' sinks see it. The runner
/// sets the faults; the sinks count what crossed.
#[derive(Default)]
pub(crate) struct Link {
    /// Both nodes of the pair, by slot; a killed node's slot is emptied,
    /// so shipments to it go unanswered.
    pub(crate) nodes: [Weak<Mutex<Node>>; 2],
    /// Ingest batches the link stays down for.
    pub(crate) isolated: u64,
    /// Shipments, drops, gap refusals and snapshot installs so far.
    pub(crate) c: SimCounters,
    /// A peer reply the protocol does not allow; fails the run.
    pub(crate) failure: Option<String>,
}

/// A node's sink: its shipments go to slot `peer` of `link`.
pub(crate) struct SimSink {
    pub(crate) link: Arc<Mutex<Link>>,
    pub(crate) partition: u16,
    pub(crate) peer: usize,
}

impl SimSink {
    /// Hand `req` to the peer unless the link is down and count what
    /// crossed: the peer's durable LSN, or the sink error its refusal
    /// means to the shipping node.
    fn ship(&self, req: Request) -> Result<u64, ReplicateError> {
        let peer = {
            let mut link = lock(&self.link);
            let down = link.isolated > 0;
            link.c.dropped_shipments += u64::from(down);
            link.nodes[self.peer].upgrade().filter(|_| !down)
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
                let partition = self.partition;
                link.failure = Some(format!("partition {partition}: peer answered {resp:?}"));
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
