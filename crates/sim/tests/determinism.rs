//! The simulation harness's headline guarantees:
//!
//! 1. same seed ⇒ byte-identical transcript and summary, fault script
//!    included,
//! 2. different seeds ⇒ different runs (the equality in (1) is not
//!    vacuous),
//! 3. crash faults recover to a bit-identical twin of a clean replay,
//!    and the node that served on holds one at the end (checked inside
//!    the runner; asserted on its counters here),
//! 4. a long run's simulated data directory stays bounded — snapshot
//!    pruning retires WAL segments, so disk does not grow with history.

use adcast_sim::{run, Fault, FaultAt, SimConfig};

/// A scenario exercising every fault type plus maintenance and pacing.
fn faulted(seed: u64) -> SimConfig {
    let mut config = SimConfig::smoke(seed);
    config.faults = vec![
        FaultAt {
            at_batch: 2,
            fault: Fault::FsyncStall { ms: 250 },
        },
        FaultAt {
            at_batch: 4,
            fault: Fault::ShedStorm {
                arrivals: 40,
                steps: 3,
            },
        },
        FaultAt {
            at_batch: 6,
            fault: Fault::Crash,
        },
        FaultAt {
            at_batch: 11,
            fault: Fault::Crash,
        },
    ];
    config
}

#[test]
fn same_seed_is_byte_identical() {
    let a = run(faulted(0xD5EED)).unwrap();
    let b = run(faulted(0xD5EED)).unwrap();
    assert_eq!(
        a.transcript, b.transcript,
        "transcripts must match byte-for-byte"
    );
    assert_eq!(a.summary, b.summary, "summaries must match byte-for-byte");
    assert_eq!(a.counters, b.counters);
    // The scenario actually did things worth replaying.
    assert!(a.counters.batches > 10);
    assert!(a.counters.impressions > 0);
    assert!(
        a.counters.maint_passes > 0,
        "virtual day crosses maintenance cadence"
    );
    assert!(a.counters.sheds > 0, "storm overflowed the admission queue");
}

#[test]
fn different_seeds_diverge() {
    let a = run(faulted(1)).unwrap();
    let b = run(faulted(2)).unwrap();
    assert_ne!(a.transcript, b.transcript, "seeds must shape the run");
}

#[test]
fn crashes_recover_to_bit_identical_twins() {
    let outcome = run(faulted(0xC4A5)).unwrap();
    assert_eq!(outcome.counters.crashes, 2);
    assert_eq!(
        outcome.counters.twin_checks, 3,
        "every crash and the end-of-run node must pass the replay-twin comparison"
    );
    assert_eq!(
        outcome.counters.lost_records, 2,
        "each crash loses its uncommitted batch"
    );
    assert!(outcome.transcript.contains("twin=ok"));
    // Recovery replayed the tail (or loaded a snapshot and replayed less).
    assert!(outcome.counters.replayed_records > 0 || outcome.transcript.contains("snapshot_lsn="));

    // A crash at batch 9 recovers from a snapshot cut after a recommend
    // wave. While snapshots carried the serving node's work counters,
    // which count reads a replay never sees, this node diverged from its
    // replay twin.
    let mut config = SimConfig::smoke(0xC4A5);
    config.faults = vec![FaultAt {
        at_batch: 9,
        fault: Fault::Crash,
    }];
    let outcome = run(config).unwrap();
    assert!(outcome.counters.recommends > 0, "a wave served first");
    assert!(!outcome.transcript.contains("snapshot_lsn=none"));
    assert_eq!(
        (outcome.counters.crashes, outcome.counters.twin_checks),
        (1, 2)
    );
}

#[test]
fn long_run_disk_stays_bounded() {
    // More history than the short scenarios: if WAL segments were never
    // retired, disk would scale with `messages`; with snapshot-bounded GC
    // it scales with (keep_snapshots × snapshot size + live segments).
    let mut config = SimConfig::smoke(0xB0B);
    config.synth.messages = 4_000;
    config.snapshot_every = 25;
    config.keep_snapshots = 2;
    config.wal.segment_bytes = 64 << 10;
    let outcome = run(config).unwrap();
    assert!(outcome.counters.batches > 40, "long run materialized");
    assert!(outcome.counters.snapshots_written > 10, "snapshots cycled");
    // Bounded: retained snapshots + a handful of live segments. Without
    // GC this workload leaves hundreds of files and tens of MB.
    assert!(
        outcome.counters.disk_files < 12,
        "data dir holds {} files, expected pruning to a handful",
        outcome.counters.disk_files
    );
    let wal_bytes_total: u64 = outcome.counters.wal_records * 64; // loose floor sanity
    assert!(wal_bytes_total > 0);
    assert!(
        outcome.counters.disk_bytes < 8 << 20,
        "data dir holds {} bytes, expected snapshot-bounded usage",
        outcome.counters.disk_bytes
    );
}
