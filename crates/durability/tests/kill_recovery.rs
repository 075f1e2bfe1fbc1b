//! Kill-recovery equivalence: a server that dies abruptly (no shutdown
//! record, possibly a torn final WAL record) and recovers must be
//! **bit-identical** to an uninterrupted twin that applied the same
//! acked mutations — same recommendations, same budgets, same pacing
//! throttles, same CTR priors, same per-user engine state. Work counters
//! are process-lifetime, so the recovered engine counts exactly the
//! deltas of the WAL tail it replayed.
//!
//! The durable runs use `fsync = Always`, matching the guarantee the
//! serving layer advertises: an acked mutation survives `kill -9`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use adcast_ads::{AdId, AdStore, AdSubmission, Budget, Targeting};
use adcast_core::{EngineConfig, RelevanceSnapshot, ShardedDriver, UserStateSnapshot};
use adcast_durability::snapshot::{list_snapshots, snapshot_file_name};
use adcast_durability::wal::{FsyncPolicy, WalOptions, WalWriter};
use adcast_durability::{
    apply_record, recover, Durability, DurabilityOptions, EngineSetSnapshot, FsBackend,
    StorageBackend, WalRecord,
};
use adcast_feed::FeedDelta;
use adcast_graph::UserId;
use adcast_stream::clock::{Duration, Timestamp};
use adcast_stream::cursor::TraceError;
use adcast_stream::event::{LocationId, Message, MessageId};
use adcast_text::dictionary::TermId;
use adcast_text::SparseVector;
use bytes::Bytes;

const NUM_USERS: u32 = 8;
const NUM_SHARDS: usize = 2;

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "adcast-kill-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config() -> EngineConfig {
    EngineConfig {
        half_life: Some(Duration::from_secs(600)),
        ..Default::default()
    }
}

fn v(pairs: &[(u32, f32)]) -> SparseVector {
    SparseVector::from_pairs(pairs.iter().map(|&(t, w)| (TermId(t), w)))
}

fn delta(user: u32, term: u32, secs: u64) -> (UserId, FeedDelta) {
    (
        UserId(user),
        FeedDelta {
            entered: Some(Arc::new(Message {
                id: MessageId(secs * 100 + user as u64),
                author: UserId(user),
                ts: Timestamp::from_secs(secs),
                location: LocationId(0),
                vector: v(&[(term, 1.0), (term + 1, 0.5)]),
            })),
            evicted: vec![],
        },
    )
}

/// Users at or above this index read a vocabulary only three ads share,
/// so they stay in the engine's bounded regime; the others touch every
/// ad and move onto exact lanes.
const FIRST_SPARSE_USER: u32 = 6;

/// A deterministic mixed workload: submissions with budgets and pacing,
/// feed batches across both shards, campaign churn, charged impressions
/// (one exhausting its budget).
fn workload() -> Vec<WalRecord> {
    let mut records = Vec::new();
    for term in 0..5u32 {
        records.push(WalRecord::Submit(AdSubmission {
            vector: v(&[(term, 1.0), (term + 2, 0.4)]),
            bid: 1.0 + term as f32 * 0.25,
            targeting: Targeting::everywhere(),
            budget: if term == 4 {
                Budget::new(0.9)
            } else {
                Budget::new(50.0)
            },
            topic_hint: None,
        }));
    }
    // A catalogue dense in the first users' vocabulary, plus three ads on
    // the sparse users' own terms.
    for i in 0..153u32 {
        let (term, weight) = if i < 150 {
            (i % 6, 0.2 + 0.005 * i as f32)
        } else {
            (40 + i % 3, 0.6)
        };
        records.push(WalRecord::Submit(AdSubmission {
            vector: v(&[(term, weight), (term + 1, 0.1)]),
            bid: 1.0,
            targeting: Targeting::everywhere(),
            budget: Budget::unlimited(),
            topic_hint: None,
        }));
    }
    records.push(WalRecord::SetPacing {
        ad: AdId(1),
        start: Timestamp::from_secs(0),
        end: Timestamp::from_secs(10_000),
        budget: 50.0,
    });
    for step in 0..12u64 {
        let batch: Vec<_> = (0..NUM_USERS)
            .map(|u| {
                let base = if u < FIRST_SPARSE_USER { 0 } else { 40 };
                delta(u, base + (step % 5) as u32, step * 10 + 1)
            })
            .collect();
        records.push(WalRecord::IngestBatch(batch));
        if step == 3 {
            records.push(WalRecord::Pause(AdId(2)));
        }
        if step == 6 {
            records.push(WalRecord::SetPacing {
                ad: AdId(2),
                start: Timestamp::from_secs(step * 10),
                end: Timestamp::from_secs(5_000),
                budget: 20.0,
            });
        }
        if step == 8 {
            records.push(WalRecord::Pause(AdId(3)));
        }
        records.push(WalRecord::Impression {
            ad: AdId((step % 5) as u32),
            cost: 0.35,
            clicked: step % 3 == 0,
            now: Timestamp::from_secs(step * 10 + 2),
        });
    }
    records
}

fn fresh_pair() -> (AdStore, ShardedDriver) {
    (
        AdStore::new(),
        ShardedDriver::new(NUM_USERS, NUM_SHARDS, config()),
    )
}

/// Apply the records with no durability at all — the twin.
fn run_uninterrupted(records: &[WalRecord]) -> (AdStore, ShardedDriver) {
    let (mut store, mut driver) = fresh_pair();
    for record in records {
        apply_record(&mut store, &mut driver, record.clone()).unwrap();
    }
    (store, driver)
}

/// Log + commit + apply each record through a [`Durability`] handle, then
/// drop it abruptly (no shutdown marker, no final checkpoint).
fn run_durable(dir: &Path, records: &[WalRecord], snapshot_every: u64) {
    let wal_options = WalOptions {
        fsync: FsyncPolicy::Always,
        segment_bytes: 4 << 10, // force several rotations over the workload
    };
    let wal = WalWriter::create(dir, wal_options, 0).unwrap();
    let options = DurabilityOptions {
        wal: wal_options,
        snapshot_every,
        keep_snapshots: 2,
    };
    let mut durability = Durability::new(dir, wal, options, Default::default());
    let (mut store, mut driver) = fresh_pair();
    for record in records {
        durability.log(record).unwrap();
        durability.commit().unwrap();
        apply_record(&mut store, &mut driver, record.clone()).unwrap();
        durability.maybe_snapshot(&store, &driver);
    }
    // Abrupt death: no checkpoint, no clean shutdown. (Dropping joins the
    // persister so in-flight snapshot files finish, mirroring files that
    // already hit disk before the kill.)
}

/// The records recovery replayed on top of its snapshot (all of them
/// when it loaded none).
fn replayed_tail(records: &[WalRecord], snapshot_lsn: Option<u64>) -> &[WalRecord] {
    &records[snapshot_lsn.unwrap_or(0) as usize..]
}

/// Assert the recovered pair is bit-identical to the twin, that its
/// engine counted exactly the feed deltas of the replayed `tail`, and
/// that the twin holds users in both engine regimes, so both were
/// recovered.
fn assert_twins(
    recovered: &mut (AdStore, ShardedDriver),
    twin: &mut (AdStore, ShardedDriver),
    tail: &[WalRecord],
) {
    let users: Vec<_> = twin
        .1
        .export_snapshots()
        .into_iter()
        .flat_map(|e| e.users)
        .collect();
    let exact = |u: &&UserStateSnapshot| matches!(u.relevance, RelevanceSnapshot::Exact { .. });
    assert!(users.iter().any(|u| exact(&u)), "no exact-lane user");
    assert!(
        users.iter().any(|u| !exact(&u) && !u.context.is_empty()),
        "no bounded user with state"
    );
    // Engine counters first (recommend() below bumps them).
    let tail_deltas: usize = tail
        .iter()
        .map(|r| match r {
            WalRecord::IngestBatch(batch) => batch.len(),
            _ => 0,
        })
        .sum();
    assert_eq!(
        recovered.1.stats().deltas,
        tail_deltas as u64,
        "recovery counts the replayed tail's deltas, once"
    );
    // Full state: campaigns, budgets, pacing, CTR, per-user engine state.
    assert_eq!(
        recovered.0.export_snapshot(),
        twin.0.export_snapshot(),
        "store state"
    );
    assert_eq!(
        recovered.1.export_snapshots(),
        twin.1.export_snapshots(),
        "engine state"
    );
    // And the observable output: recommendations for every user.
    let now = Timestamp::from_secs(130);
    for u in 0..NUM_USERS {
        let a = recovered
            .1
            .recommend(&recovered.0, UserId(u), now, LocationId(0), 10);
        let b = twin.1.recommend(&twin.0, UserId(u), now, LocationId(0), 10);
        assert_eq!(a, b, "recommendations for user {u}");
    }
}

#[test]
fn kill_without_snapshot_replays_whole_log() {
    let dir = temp_dir("nosnap");
    let records = workload();
    run_durable(&dir, &records, 0);

    let state = recover(&dir, NUM_USERS, NUM_SHARDS, config(), WalOptions::default()).unwrap();
    assert_eq!(state.report.snapshot_lsn, None);
    assert_eq!(state.report.replayed_records, records.len() as u64);
    assert_eq!(state.report.truncated_bytes, 0);
    assert_eq!(state.wal.next_lsn(), records.len() as u64);

    let tail = replayed_tail(&records, state.report.snapshot_lsn);
    let mut recovered = (state.store, state.driver);
    let mut twin = run_uninterrupted(&records);
    assert_twins(&mut recovered, &mut twin, tail);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_with_snapshot_replays_only_the_tail() {
    let dir = temp_dir("snap");
    let records = workload();
    run_durable(&dir, &records, 7);

    let state = recover(&dir, NUM_USERS, NUM_SHARDS, config(), WalOptions::default()).unwrap();
    let snapshot_lsn = state.report.snapshot_lsn.expect("periodic snapshot fired");
    assert!(snapshot_lsn > 0 && snapshot_lsn <= records.len() as u64);
    assert_eq!(
        state.report.replayed_records,
        records.len() as u64 - snapshot_lsn,
        "only the tail replays"
    );

    let tail = replayed_tail(&records, state.report.snapshot_lsn);
    let mut recovered = (state.store, state.driver);
    let mut twin = run_uninterrupted(&records);
    assert_twins(&mut recovered, &mut twin, tail);
    std::fs::remove_dir_all(&dir).ok();
}

/// A flipped bit inside an exact lane of the newest snapshot leaves every
/// value finite, so the file parses; only its CRC, checked as the load
/// streams, refuses it, and recovery falls back to the older snapshot as
/// it does for a snapshot that does not read back.
#[test]
fn a_flipped_lane_byte_fails_the_crc_and_recovery_falls_back() {
    let dir = temp_dir("laneflip");
    let records = workload();
    run_durable(&dir, &records, 7);
    let snapshots = list_snapshots(&dir).unwrap();
    let [older, newest] = &snapshots[..] else {
        panic!("two snapshots retained: {snapshots:?}");
    };
    let mut raw = std::fs::read(&newest.path).unwrap();
    let image = EngineSetSnapshot::decode(Bytes::from(raw.clone())).unwrap();
    let lane = image
        .engines
        .iter()
        .flat_map(|e| &e.users)
        .find_map(|u| match &u.relevance {
            RelevanceSnapshot::Exact { lane, .. } => Some(lane),
            RelevanceSnapshot::Bounded { .. } => None,
        })
        .expect("an exact lane in the newest snapshot");
    let lane_bytes: Vec<u8> = lane.iter().flat_map(|v| v.to_le_bytes()).collect();
    let at = raw
        .windows(lane_bytes.len())
        .position(|w| w == lane_bytes)
        .expect("the lane's bytes in the image");
    // The lowest mantissa byte of a value in the middle of the lane.
    raw[at + lane_bytes.len() / 8 * 4] ^= 1;
    std::fs::write(&newest.path, &raw).unwrap();
    let file = FsBackend::new(&dir)
        .open(&snapshot_file_name(newest.next_lsn))
        .unwrap();
    assert_eq!(
        EngineSetSnapshot::read_from(file).err(),
        Some(TraceError::Corrupt("snapshot crc mismatch"))
    );

    let state = recover(&dir, NUM_USERS, NUM_SHARDS, config(), WalOptions::default()).unwrap();
    assert_eq!(state.report.snapshot_lsn, Some(older.next_lsn));
    assert_eq!(state.report.snapshots_skipped, 1);
    assert_eq!(
        state.report.replayed_records,
        records.len() as u64 - older.next_lsn
    );
    let tail = replayed_tail(&records, state.report.snapshot_lsn);
    let mut recovered = (state.store, state.driver);
    let mut twin = run_uninterrupted(&records);
    assert_twins(&mut recovered, &mut twin, tail);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_final_record_is_truncated_and_state_matches_acked_prefix() {
    let dir = temp_dir("torn");
    let records = workload();
    run_durable(&dir, &records, 5);

    // Simulate a record that was mid-write when the process died: a torn
    // frame at the tail of the newest segment. It was never acked, so the
    // twin does not apply it.
    let mut segments: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().is_some_and(|x| x == "log")).then_some(p)
        })
        .collect();
    segments.sort();
    let last = segments.last().unwrap().clone();
    let clean_len = std::fs::metadata(&last).unwrap().len();
    let mut tail = Vec::new();
    tail.extend_from_slice(&1000u32.to_le_bytes()); // len of a frame that never finished
    tail.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
    tail.extend_from_slice(&[0xAB; 37]);
    let mut bytes = std::fs::read(&last).unwrap();
    bytes.extend_from_slice(&tail);
    std::fs::write(&last, &bytes).unwrap();

    let state = recover(&dir, NUM_USERS, NUM_SHARDS, config(), WalOptions::default()).unwrap();
    assert_eq!(state.report.truncated_bytes, tail.len() as u64);
    assert_eq!(state.wal.next_lsn(), records.len() as u64);
    // The heal is physical: the segment shrank back to its valid prefix.
    assert_eq!(std::fs::metadata(&last).unwrap().len(), clean_len);

    let tail = replayed_tail(&records, state.report.snapshot_lsn);
    let mut recovered = (state.store, state.driver);
    let mut twin = run_uninterrupted(&records);
    assert_twins(&mut recovered, &mut twin, tail);

    // A second recovery (restart after the restart) sees a clean log.
    drop(recovered);
    let again = recover(&dir, NUM_USERS, NUM_SHARDS, config(), WalOptions::default()).unwrap();
    assert_eq!(again.report.truncated_bytes, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_then_more_traffic_then_recovery_again() {
    // Two generations: die, recover, serve more acked mutations, die
    // again, recover again — the final state must match a twin that saw
    // the full concatenated history.
    let dir = temp_dir("twogen");
    let records = workload();
    let split = records.len() / 2;
    run_durable(&dir, &records[..split], 4);

    let state = recover(
        &dir,
        NUM_USERS,
        NUM_SHARDS,
        config(),
        WalOptions {
            fsync: FsyncPolicy::Always,
            segment_bytes: 4 << 10,
        },
    )
    .unwrap();
    let mut store = state.store;
    let mut driver = state.driver;
    let mut durability = Durability::new(
        &dir,
        state.wal,
        DurabilityOptions {
            wal: WalOptions {
                fsync: FsyncPolicy::Always,
                segment_bytes: 4 << 10,
            },
            snapshot_every: 0,
            keep_snapshots: 2,
        },
        state.report,
    );
    for record in &records[split..] {
        durability.log(record).unwrap();
        durability.commit().unwrap();
        apply_record(&mut store, &mut driver, record.clone()).unwrap();
    }
    assert_eq!(durability.next_lsn(), records.len() as u64);
    drop(durability);

    let state = recover(&dir, NUM_USERS, NUM_SHARDS, config(), WalOptions::default()).unwrap();
    let tail = replayed_tail(&records, state.report.snapshot_lsn);
    let mut recovered = (state.store, state.driver);
    let mut twin = run_uninterrupted(&records);
    assert_twins(&mut recovered, &mut twin, tail);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn topology_mismatch_is_a_typed_error() {
    let dir = temp_dir("topo");
    run_durable(&dir, &workload(), 5);
    let err = match recover(
        &dir,
        NUM_USERS + 1,
        NUM_SHARDS,
        config(),
        WalOptions::default(),
    ) {
        Err(e) => e,
        Ok(_) => panic!("topology mismatch must fail recovery"),
    };
    assert!(err.to_string().contains("topology"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
