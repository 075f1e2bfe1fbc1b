//! # adcast-sim — deterministic simulation harness
//!
//! FoundationDB-style simulation testing for the adcast stack: the
//! production engine, durability, and admission logic run unmodified
//! against **virtual time** and a **simulated disk**, driven by seeded
//! scenario scripts with fault injection. Same seed ⇒ byte-identical
//! transcript and summary; a crash fault additionally proves the
//! recovered state is a bit-identical twin of a clean replay.
//!
//! The pieces:
//!
//! * [`backend`] — [`MemBackend`], an in-memory
//!   [`adcast_durability::StorageBackend`] with per-file durability
//!   horizons, injectable fsync latency/stalls, and deterministic
//!   torn-write-on-crash,
//! * [`scenario`] — [`SimConfig`]: workload shape, engine topology,
//!   durability knobs, maintenance cadence, and the [`Fault`] script,
//! * [`runner`] — [`run`]: executes the scenario single-threaded against
//!   a production [`adcast_net::Node`], the request handler the live
//!   server's engine thread runs, producing a [`SimOutcome`] (transcript
//!   + summary + counters),
//! * [`cluster`] — [`run_cluster`]: primary/follower pairs of the same
//!   `Node`s replicating through an in-process sink, under replication
//!   faults.
//!
//! What this buys over the loopback tests: no sockets, no real fsync, no
//! wall-clock sleeps — a simulated day at simulated-million scale runs in
//! CI minutes, and every failure is replayable from its seed.
//!
//! ```
//! use adcast_sim::{run, Fault, FaultAt, SimConfig};
//!
//! let mut config = SimConfig::smoke(7);
//! config.faults.push(FaultAt { at_batch: 3, fault: Fault::Crash });
//! let outcome = run(config).unwrap();
//! assert_eq!(outcome.counters.crashes, 1);
//! assert_eq!(outcome.counters.twin_checks, 1);
//! ```

pub mod backend;
pub mod cluster;
pub mod runner;
pub mod scenario;

pub use backend::{CrashReport, MemBackend};
pub use cluster::{
    run_cluster, ClusterCounters, ClusterFault, ClusterFaultAt, ClusterOutcome, ClusterSimConfig,
};
pub use runner::{run, SimCounters, SimOutcome};
pub use scenario::{Fault, FaultAt, SimConfig};
