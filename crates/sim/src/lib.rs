//! # adcast-sim — deterministic simulation harness
//!
//! FoundationDB-style simulation testing for the adcast stack: the
//! production engine, durability, admission and replication logic run
//! unmodified against **virtual time** and a **simulated disk**, driven
//! by seeded scenario scripts with fault injection. Same seed ⇒
//! byte-identical transcript and summary, and every run — one standalone
//! node or N replicated partitions — passes the same oracles: recovered
//! and promoted state, and every live node's state at the end, is a
//! bit-identical twin of a clean replay of the acked log, each primary's
//! LSN is its acked log's length, and each follower's WAL holds its
//! primary's bytes.
//!
//! The pieces:
//!
//! * [`backend`] — [`MemBackend`], an in-memory
//!   [`adcast_durability::StorageBackend`] with per-file durability
//!   horizons, injectable fsync latency/stalls, and deterministic
//!   torn-write-on-crash,
//! * [`scenario`] — [`SimConfig`]: workload, node shape (partitions,
//!   followers), engine topology, durability knobs, maintenance and
//!   pacing cadences, and the [`Fault`] script,
//! * [`runner`] — [`run`]: executes the scenario single-threaded against
//!   production [`adcast_net::Node`]s, the request handler the live
//!   server's engine thread runs, replicating through an in-process
//!   link, and returns a [`SimOutcome`] (transcript, summary,
//!   [`SimCounters`]). Partitioned shapes are routed by the router's own
//!   code, [`adcast_cluster::route`]: its partition rule, request legs,
//!   envelopes, reply merges and failover epoch rule, with the legs run
//!   one after another instead of over sockets.
//!
//! What this buys over the loopback tests: no sockets, no real fsync, no
//! wall-clock sleeps — a simulated day at simulated-million scale runs in
//! CI minutes, and every failure is replayable from its seed.
//!
//! ```
//! use adcast_sim::{run, Fault, FaultAt, SimConfig};
//!
//! // A standalone node that loses power before batch 3.
//! let mut config = SimConfig::smoke(7);
//! config.faults.push(FaultAt { at_batch: 3, fault: Fault::Crash });
//! let outcome = run(config).unwrap();
//! assert_eq!(outcome.counters.crashes, 1);
//! // The recovered node, then the live node at the end of the run.
//! assert_eq!(outcome.counters.twin_checks, 2);
//!
//! // Two replicated partitions; partition 1's primary dies.
//! let mut config = SimConfig { partitions: 2, followers: true, ..SimConfig::smoke(7) };
//! config.faults.push(FaultAt { at_batch: 3, fault: Fault::KillPrimary { partition: 1 } });
//! let outcome = run(config).unwrap();
//! assert_eq!(outcome.counters.promotions, 1);
//! assert!(outcome.transcript.contains("twin partition=1"));
//! ```

pub mod backend;
mod link;
pub mod runner;
pub mod scenario;

pub use backend::{CrashReport, MemBackend};
pub use runner::{run, SimCounters, SimOutcome};
pub use scenario::{Fault, FaultAt, SimConfig};
