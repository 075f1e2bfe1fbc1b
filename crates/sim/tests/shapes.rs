//! One runner for every node shape:
//!
//! 1. the shapes the runner cannot drive are refused up front, each with
//!    its reason,
//! 2. a replicated two-partition scenario carries the whole fault and
//!    lifecycle vocabulary at once — paced campaigns, maintenance, an
//!    fsync stall, a shed storm and a primary kill — passes every oracle,
//!    and byte-reproduces from its seed,
//! 3. routed partitions without followers crash and recover every
//!    primary in place into replay twins, reproducibly.

use adcast_sim::{run, Fault, FaultAt, SimConfig};

fn with(partitions: usize, followers: bool, fault: Fault) -> SimConfig {
    let mut config = SimConfig {
        partitions,
        followers,
        ..SimConfig::smoke(5)
    };
    config.faults.push(FaultAt { at_batch: 1, fault });
    config
}

#[test]
fn refused_shapes_name_their_reason() {
    let stall = Fault::FsyncStall { ms: 1 };
    let cases = [
        (
            with(1, true, Fault::Crash),
            "needs partitions without followers",
        ),
        (
            with(2, false, Fault::KillPrimary { partition: 0 }),
            "needs partitions with followers",
        ),
        (
            with(
                1,
                false,
                Fault::IsolateFollower {
                    partition: 0,
                    batches: 1,
                },
            ),
            "needs partitions with followers",
        ),
        (
            with(2, true, Fault::SplitPromote { partition: 2 }),
            "targets partition 2 of 2",
        ),
        (with(0, false, stall), "at least one partition"),
        (
            SimConfig {
                trace_sample: 4,
                ..with(1, false, stall)
            },
            "trace sampling needs routed partitions",
        ),
    ];
    for (config, reason) in cases {
        let shape = format!("{} partitions, {:?}", config.partitions, config.faults);
        match run(config) {
            Err(err) => assert!(err.contains(reason), "{shape}: {err:?} lacks {reason:?}"),
            Ok(_) => panic!("{shape} ran; expected a refusal naming {reason:?}"),
        }
    }
}

/// Two replicated partitions under every lifecycle and fault the
/// single-node and pair scenarios exercise separately.
fn everything(seed: u64) -> SimConfig {
    let mut config = SimConfig {
        partitions: 2,
        followers: true,
        trace_sample: 4,
        ..SimConfig::smoke(seed)
    };
    config.faults = vec![
        FaultAt {
            at_batch: 1,
            fault: Fault::FsyncStall { ms: 250 },
        },
        FaultAt {
            at_batch: 2,
            fault: Fault::ShedStorm {
                arrivals: 40,
                steps: 3,
            },
        },
        FaultAt {
            at_batch: 3,
            fault: Fault::KillPrimary { partition: 0 },
        },
    ];
    config
}

#[test]
fn replicated_partitions_take_every_fault_and_oracle() {
    let a = run(everything(0xA11)).unwrap();
    let b = run(everything(0xA11)).unwrap();
    assert_eq!(a.transcript, b.transcript, "transcripts must match");
    assert_eq!(a.summary, b.summary, "summaries must match");
    assert_eq!(a.counters, b.counters);

    let c = &a.counters;
    assert!(c.campaigns > 0 && c.acked_deltas > 0 && c.impressions > 0);
    assert!(c.maint_passes > 0, "maintenance cadence crossed");
    // Every pass scans every user slot on every partition, so the merged
    // count sums both partitions' replies.
    let users = u64::from(everything(0xA11).synth.num_users);
    assert_eq!(c.maint_scanned, c.partitions * users * c.maint_passes);
    assert!(c.maint_pruned > 0, "paced flights ended and were pruned");
    assert!(c.sheds > 0, "storm overflowed the admission queue");
    assert_eq!((c.kills, c.promotions), (1, 1));
    assert!(c.shipments > 0 && c.snapshots_written > 0 && c.fsyncs > 0);
    assert!(c.disk_bytes > 0 && c.disk_files > 0);
    let t = &a.transcript;
    assert!(t.contains("fault fsync_stall ms=250"), "{t}");
    assert!(t.contains("promoted partition=0 epoch=1"), "{t}");
    // The promotion passed LSN accounting and the replay twin; the
    // surviving pair's follower passed the end-of-run twin and its WAL
    // matched the primary's byte for byte.
    assert!(t.contains("twin partition=0 lsn="), "{t}");
    assert!(c.twin_checks >= 2, "promotion + end-of-run follower twins");
    assert!(t.contains("wal_identical partition=1 records="), "{t}");
    assert!(
        !t.contains("wal_identical partition=0"),
        "partition 0 lost its follower"
    );
    assert!(
        t.contains("ladder=replicate,follower_commit,follower_apply"),
        "{t}"
    );
}

#[test]
fn routed_partitions_without_followers_crash_into_twins() {
    let crashed = || {
        let mut config = SimConfig {
            partitions: 2,
            trace_sample: 4,
            ..SimConfig::smoke(0xC2)
        };
        config.faults = vec![
            FaultAt {
                at_batch: 2,
                fault: Fault::Crash,
            },
            FaultAt {
                at_batch: 4,
                fault: Fault::FsyncStall { ms: 50 },
            },
        ];
        run(config).unwrap()
    };
    let (a, b) = (crashed(), crashed());
    assert_eq!(a.transcript, b.transcript, "transcripts must match");
    assert_eq!(a.summary, b.summary, "summaries must match");

    let c = &a.counters;
    // One crash hits every primary, and each recovers into a replay twin
    // (the run errors on a divergence instead of counting it); both
    // primaries, having served reads since, twin again at the end.
    assert_eq!((c.crashes, c.twin_checks), (2, 4));
    assert_eq!((c.lost_records, c.lost_acked), (2, 0));
    assert!(c.snapshots_written > 0 && c.maint_passes > 0);
    let users = u64::from(SimConfig::smoke(0xC2).synth.num_users);
    assert_eq!(c.maint_scanned, c.partitions * users * c.maint_passes);
    let t = &a.transcript;
    for p in 0..2 {
        assert!(
            t.contains(&format!("crash partition={p} recovered_lsn=")),
            "{t}"
        );
    }
    assert!(t.contains("ladder=local_durable"), "{t}");
    assert!(!t.contains("wal_identical"), "no follower logs to compare");
}
