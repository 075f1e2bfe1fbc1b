//! adcast-cluster: partitioned multi-node serving.
//!
//! Four pieces turn single-node `adcast-net` servers into a cluster:
//!
//! - [`PartitionMap`] — the partitions' serving pairs; campaigns
//!   replicate everywhere (see `partition` module docs).
//! - [`route`] — the router's decisions with no transport: a user's
//!   partition, a request's legs, their envelope, the merge of their
//!   replies, and the failover epoch rule. The router and the simulator
//!   (`adcast_sim::run`) both execute it.
//! - [`Router`] — the TCP gateway: runs each request's legs concurrently
//!   on per-partition forwarders, serializes control broadcasts, and
//!   promotes followers when a primary dies.
//! - [`TcpSink`] — the primary→follower replication transport feeding
//!   `adcast-net`'s [`ReplicationSink`] ack ladder.
//!
//! [`ReplicationSink`]: adcast_net::ReplicationSink

// Every module here runs on the router's serving threads: no panics.
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

pub mod partition;
pub mod route;
pub mod router;
pub mod sink;

pub use partition::{PartitionMap, PartitionNodes};
pub use router::{Router, RouterConfig};
pub use sink::TcpSink;
