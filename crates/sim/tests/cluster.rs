//! The cluster harness's headline guarantees:
//!
//! 1. kill the primary of a loaded partition → the follower promotes
//!    under a bumped epoch with **zero acked-record loss**, and the
//!    promoted state is byte-identical to a clean replay of the acked
//!    log,
//! 2. an isolated follower degrades the primary (acks stay local-
//!    durable), then reconnects into a typed `LsnGap` refusal and a
//!    snapshot-transfer catch-up ending byte-identical,
//! 3. a split-brain promotion fences the deposed primary — its
//!    unreplicated write is refused and never acked — and the node
//!    rejoins as a follower by snapshot transfer,
//! 4. same config ⇒ byte-identical transcript and summary, faults
//!    included,
//! 5. a sampled write leaves the production ack ladder's spans — the
//!    simulator drives the same `Node` the TCP server does,
//! 6. primary and follower WALs hold the same record bytes at every LSN.

use adcast_obs::tracestore::{trace_id_for, tracestore, Span, SpanKind};
use adcast_sim::{run, Fault, FaultAt, SimConfig};

/// The smoke scenario on `partitions` primary/follower pairs, tracing
/// every 4th acked record.
fn smoke(seed: u64, partitions: usize) -> SimConfig {
    SimConfig {
        partitions,
        followers: true,
        trace_sample: 4,
        ..SimConfig::smoke(seed)
    }
}

#[test]
fn kill_primary_promotes_with_zero_acked_loss() {
    let mut config = smoke(7, 2);
    config.faults.push(FaultAt {
        at_batch: 3,
        fault: Fault::KillPrimary { partition: 0 },
    });
    let outcome = run(config).unwrap();
    assert_eq!(outcome.counters.kills, 1);
    assert_eq!(outcome.counters.promotions, 1);
    // The promotion twin check ran (zero acked loss + byte-identical
    // replay); the run errors instead of counting when either fails.
    assert!(outcome.counters.twin_checks >= 1);
    assert!(outcome.counters.acked_deltas > 0);
    assert!(outcome.transcript.contains("promoted partition=0 epoch=1"));
    assert!(outcome.transcript.contains("twin partition=0"));
}

#[test]
fn isolated_follower_catches_up_by_snapshot_transfer() {
    let mut config = smoke(11, 2);
    config.faults.push(FaultAt {
        at_batch: 1,
        fault: Fault::IsolateFollower {
            partition: 1,
            batches: 2,
        },
    });
    let outcome = run(config).unwrap();
    assert!(outcome.counters.dropped_shipments >= 2);
    assert_eq!(outcome.counters.lsn_gap_refusals, 1);
    assert_eq!(outcome.counters.catch_up_snapshots, 1);
    // Catch-up and end-of-run agreement both passed byte-identity.
    assert!(outcome.counters.twin_checks >= 2);
    assert!(outcome.transcript.contains("catch_up partition=1"));
    // The follower's /readyz flipped unready for the duration of the
    // snapshot install — both edges land in the transcript.
    assert!(outcome
        .transcript
        .contains("readyz partition=1 state=catching_up"));
    assert!(outcome
        .transcript
        .contains("readyz partition=1 state=ready"));
}

#[test]
fn replicated_wal_records_are_byte_identical_at_every_lsn() {
    // The follower logs the primary's shipped bytes verbatim, so at the
    // end of a replicated run both logs agree record for record; the
    // harness errors on the first differing LSN. Without snapshots
    // nothing is pruned, so the comparison covers every acked record.
    let config = SimConfig {
        snapshot_every: 0,
        ..smoke(19, 2)
    };
    let outcome = run(config).unwrap();
    let mut compared = 0;
    for p in 0..2 {
        let line = format!("wal_identical partition={p} records=");
        let records: u64 = outcome
            .transcript
            .lines()
            .find_map(|l| l.split_once(&line).map(|(_, n)| n.parse().unwrap()))
            .unwrap_or_else(|| panic!("no log comparison for partition {p}"));
        assert!(records > 0, "partition {p} compared no records");
        compared += records;
    }
    // No partition compares more than it acked, so the sum pins each.
    assert_eq!(compared, outcome.counters.acked_records);
    assert_eq!(
        outcome.transcript.matches("wal_identical").count(),
        2,
        "{}",
        outcome.transcript
    );
}

#[test]
fn sampled_traces_land_in_the_transcript() {
    // smoke() samples every 4th acked record; the trace lines are pure
    // functions of the config (id from the synth seed + ordinal, hop
    // list from the ladder actually run), so they byte-reproduce.
    let outcome = run(smoke(17, 2)).unwrap();
    assert!(outcome.transcript.contains("trace partition="));
    assert!(outcome
        .transcript
        .contains("ladder=replicate,follower_commit,follower_apply"));
}

#[test]
fn split_promotion_fences_the_stale_primary() {
    let mut config = smoke(13, 2);
    config.faults.push(FaultAt {
        at_batch: 2,
        fault: Fault::SplitPromote { partition: 0 },
    });
    let outcome = run(config).unwrap();
    assert_eq!(outcome.counters.promotions, 1);
    assert_eq!(outcome.counters.fenced_writes, 1);
    // The fenced ex-primary rejoined as a follower via snapshot.
    assert_eq!(outcome.counters.catch_up_snapshots, 1);
    assert!(outcome.transcript.contains("fenced partition=0"));
    assert!(outcome
        .transcript
        .contains("rejoined partition=0 as follower"));
    // After rejoin the pair keeps replicating and agrees at the end.
    assert!(outcome.counters.shipments > 0);
    // The deposed node's own replicate() met the promoted node's epoch
    // refusal: the write was answered StaleEpoch and the node reports
    // itself fenced.
    assert!(
        outcome.transcript.contains(
            "fenced partition=0 stale_epoch=0 current=1 reply=Error(StaleEpoch { current: 1 })"
        ),
        "{}",
        outcome.transcript
    );
    assert!(
        outcome
            .transcript
            .contains("cluster_status partition=0 node=0 role=Primary epoch=0 fenced=true"),
        "{}",
        outcome.transcript
    );
}

/// Follow one trace's parent chain from its root and return the span
/// kinds in order; panics unless the spans form one unbroken chain.
fn chain_kinds(spans: &[Span]) -> Vec<SpanKind> {
    let roots: Vec<&Span> = spans.iter().filter(|s| s.parent_span_id == 0).collect();
    assert_eq!(roots.len(), 1, "one root per trace: {spans:?}");
    let mut kinds = vec![roots[0].kind];
    let mut cur = roots[0].span_id;
    while kinds.len() < spans.len() {
        let next: Vec<&Span> = spans.iter().filter(|s| s.parent_span_id == cur).collect();
        assert_eq!(next.len(), 1, "span {cur:#x} needs one child: {spans:?}");
        kinds.push(next[0].kind);
        cur = next[0].span_id;
    }
    kinds
}

#[test]
fn sampled_write_leaves_the_production_span_chain() {
    // A seed no other test in this binary uses: the span ring is
    // process-wide, and trace ids derive from (seed, ordinal).
    const SEED: u64 = 0x5EED_C4A1;
    let mut config = smoke(SEED, 2);
    config.trace_sample = 1;
    let outcome = run(config).unwrap();
    // Every write was sampled; the last acked one is the freshest in the
    // ring.
    let id = trace_id_for(SEED, outcome.counters.acked_records - 1);
    assert_eq!(
        chain_kinds(&tracestore().trace(id)),
        [
            SpanKind::QueueWait,
            SpanKind::WalCommit,
            SpanKind::EngineApply,
            SpanKind::Replicate,
            SpanKind::QueueWait,
            SpanKind::FollowerCommit,
            SpanKind::FollowerApply,
        ],
        "trace {id:#x}"
    );
}

/// A scenario exercising every cluster fault type across 3 partitions.
fn faulted(seed: u64) -> SimConfig {
    let mut config = smoke(seed, 3);
    config.faults = vec![
        FaultAt {
            at_batch: 1,
            fault: Fault::IsolateFollower {
                partition: 2,
                batches: 1,
            },
        },
        FaultAt {
            at_batch: 2,
            fault: Fault::SplitPromote { partition: 1 },
        },
        FaultAt {
            at_batch: 4,
            fault: Fault::KillPrimary { partition: 0 },
        },
    ];
    config
}

#[test]
fn same_config_is_byte_identical() {
    let a = run(faulted(21)).unwrap();
    let b = run(faulted(21)).unwrap();
    assert_eq!(a.transcript, b.transcript);
    assert_eq!(a.summary, b.summary);
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.counters.kills, 1);
    assert_eq!(a.counters.promotions, 2);
    assert_eq!(a.counters.fenced_writes, 1);
}

#[test]
fn different_seeds_diverge() {
    let a = run(faulted(21)).unwrap();
    let b = run(faulted(22)).unwrap();
    assert_ne!(a.transcript, b.transcript);
}
