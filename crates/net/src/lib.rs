//! # adcast-net — the serving layer
//!
//! A zero-dependency (std-only) TCP front end for the recommendation
//! engine: a length-prefixed binary [`mod@protocol`] sharing its framing
//! guards with the trace codec, the transport-free [`mod@node`] that
//! answers every request, a threaded [`mod@server`] fronting one node with
//! bounded-queue admission control and graceful drain-on-shutdown, a
//! blocking [`mod@client`] with retry/backoff, a closed-loop [`mod@loadgen`]
//! that replays the [`mod@synth`] workload over real sockets, and the
//! transport-free [`mod@replication`] core that `adcast-cluster` runs
//! over TCP for partitioned primary/backup serving.
//!
//! See `DESIGN.md` § "Serving layer" for the wire format and threading
//! diagram, § 14 for the cluster protocol, and experiment E13 for the
//! offered-load sweep this powers.
//!
//! Every public enum is `#[non_exhaustive]` unless its variants are a
//! closed set on purpose; each such enum carries an `#[expect]` saying
//! why.

#![warn(clippy::exhaustive_enums)]

pub mod client;
pub mod codec;
pub mod loadgen;
pub mod node;
pub mod protocol;
pub mod replication;
pub mod server;
pub mod synth;

pub use client::{Client, ClientConfig};
pub use codec::NetError;
pub use loadgen::{scrape_obs, LoadgenConfig, LoadgenReport, ObsScrape, STAGE_FAMILIES};
pub use node::{ClusterConfig, Node};
pub use protocol::{
    wal_record, write_reply, CampaignSpec, Logged, NodeRole, NodeStatus, Request, Response,
    ServerStats, TraceContext, WireError,
};
pub use replication::{
    install_snapshot_on, promote, replica_append, ClusterState, ReplObs, ReplicaError,
    ReplicaSetup, ReplicateError, ReplicationSink,
};
pub use server::{Server, ServerConfig};
