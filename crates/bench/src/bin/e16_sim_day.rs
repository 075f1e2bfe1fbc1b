//! E16: the simulated day — the whole stack under the deterministic
//! simulation harness at simulated-million scale.
//!
//! One `adcast-sim` scenario drives the production `log → commit → apply`
//! and recommend paths through virtual time: a day of feed traffic, paced
//! campaign flights that end mid-run, periodic WAL-logged maintenance
//! passes, snapshot cycling with segment GC, plus an fsync stall, a shed
//! storm, and a mid-day crash with the bit-identical twin check. Because
//! time and disk are simulated, the 24 virtual hours finish in CI
//! minutes, and the run is byte-reproducible from its seed.
//!
//! What the table should show: nonzero `decayed`/`pruned` (lifecycle
//! maintenance works at scale), a bounded `disk_mb` (snapshot-driven WAL
//! GC), `twin=ok` crash recovery, and a resident-memory delta that stays
//! flat relative to the workload's own footprint.
//!
//! Scale via `ADCAST_SCALE` (`quick` | `paper`): `paper` is the headline
//! 1M-user / 100k-campaign day. `ADCAST_E16_SMOKE=1` instead runs the
//! seconds-scale scenario twice and asserts the summaries are
//! byte-identical — the determinism gate `scripts/check.sh` uses.

use adcast_bench::{fmt, Report, Scale};
use adcast_sim::{run, Fault, FaultAt, SimConfig};
use adcast_stream::clock::Duration;

const VIRTUAL_HOURS: u64 = 24;

/// Resident set size in bytes (0 when /proc is unavailable).
fn rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// The simulated day: `messages` Poisson-posted across 24 virtual hours
/// (the rate is derived, so virtual span is fixed while message volume
/// scales), maintenance every 30 virtual minutes, paced flights ending at
/// 6 virtual hours, and a three-fault script.
fn day(num_users: u32, num_ads: usize, messages: u64, batch_size: usize) -> SimConfig {
    let mut config = SimConfig::smoke(0xE16);
    config.synth.num_users = num_users;
    config.synth.num_ads = num_ads;
    config.synth.messages = messages;
    config.synth.batch_size = batch_size;
    config.synth.msgs_per_sec = messages as f64 / (VIRTUAL_HOURS * 3600) as f64;
    config.num_shards = 4;
    // The node restarted by the batch-13 crash appends ~230 records
    // (500-delta batches, maintenance, impressions), so a 100-record
    // cadence snapshots and prunes after the crash too.
    config.snapshot_every = 100;
    config.keep_snapshots = 2;
    config.recommend_every = 8;
    config.wave_users = 16;
    config.paced_every = 10;
    config.flight_secs = 6 * 3600;
    config.flight_budget = 1.0;
    config.maintenance_every = Duration::from_secs(30 * 60);
    config.idle_for = Duration::from_secs(3600);
    config.faults = vec![
        FaultAt {
            at_batch: 5,
            fault: Fault::FsyncStall { ms: 300 },
        },
        FaultAt {
            at_batch: 9,
            fault: Fault::ShedStorm {
                arrivals: 50,
                steps: 4,
            },
        },
        FaultAt {
            at_batch: 13,
            fault: Fault::Crash,
        },
    ];
    config
}

fn smoke() -> ! {
    let mut config = SimConfig::smoke(0xE16);
    config.faults = vec![FaultAt {
        at_batch: 3,
        fault: Fault::Crash,
    }];
    let a = run(config.clone()).expect("smoke run a");
    let b = run(config).expect("smoke run b");
    assert_eq!(a.summary, b.summary, "same seed must be byte-identical");
    assert_eq!(a.transcript, b.transcript);
    assert_eq!(a.counters.crashes, 1);
    assert_eq!(
        a.counters.twin_checks, 2,
        "the crash and the node at the end must pass the twin check"
    );
    assert!(a.counters.maint_passes > 0, "maintenance cadence crossed");
    println!("(smoke run: seeded scenario is deterministic, twin=ok)");
    print!("{}", a.summary);
    std::process::exit(0);
}

fn main() {
    if std::env::var("ADCAST_E16_SMOKE").is_ok_and(|v| v == "1") {
        smoke();
    }
    let scale = Scale::from_env();
    // Per-delta ingest cost is dominated by screening + candidate scoring
    // and scales with ads-per-topic (~20× more exact dots per delta at
    // 100k ads than at 5k), so paper scale trims message volume to keep
    // the day inside CI minutes on one core; virtual span stays a full
    // 24 h regardless (the posting rate is derived from `messages`).
    let num_users = scale.pick(50_000u32, 1_000_000);
    let num_ads = scale.pick(5_000usize, 100_000);
    let messages = scale.pick(8_000u64, 2_500);
    let batch_size = 500;

    let mut report = Report::new(
        "E16",
        "simulated day: 24 virtual hours, faults, maintenance, bounded disk",
        vec![
            "users",
            "campaigns",
            "deltas",
            "maint_passes",
            "decayed",
            "pruned",
            "sheds",
            "crashes",
            "twins",
            "disk_mb",
            "rss_delta_mb",
            "wall_s",
        ],
    );

    let rss_before = rss_bytes();
    let started = std::time::Instant::now();
    let outcome = run(day(num_users, num_ads, messages, batch_size)).expect("scenario run");
    let wall = started.elapsed().as_secs_f64();
    let rss_delta = rss_bytes().saturating_sub(rss_before);

    let c = &outcome.counters;
    assert_eq!(
        c.crashes + 1,
        c.twin_checks,
        "every crash and the node at the end must twin-check"
    );
    assert!(c.maint_decayed > 0, "a day of churn must decay idle users");
    assert!(c.maint_pruned > 0, "ended flights must be pruned");
    report.row(vec![
        num_users.to_string(),
        c.campaigns.to_string(),
        c.acked_deltas.to_string(),
        c.maint_passes.to_string(),
        c.maint_decayed.to_string(),
        c.maint_pruned.to_string(),
        c.sheds.to_string(),
        c.crashes.to_string(),
        c.twin_checks.to_string(),
        fmt(c.disk_bytes as f64 / (1 << 20) as f64),
        fmt(rss_delta as f64 / (1 << 20) as f64),
        fmt(wall),
    ]);
    report.finish();
    print!("{}", outcome.summary);
}
