//! E6 (Figure/Table): memory footprint by component, vs #ads and #users.
//!
//! Paper shape: the incremental engine's extra state (buffers + bounds)
//! is a small constant per user — far below the feed windows themselves —
//! and the ad index grows linearly in total ad keywords.
//!
//! `lane_users` counts the users on an exact relevance lane: their score
//! cache turned dense, so they hold one `f32` of relevance per ad id
//! instead of a candidate buffer and a cache.

use adcast_bench::{fmt_u, Report, Scale};
use adcast_core::runner::EngineKind;
use adcast_core::{Simulation, SimulationConfig};
use adcast_metrics::memory::format_bytes;
use adcast_stream::generator::WorkloadConfig;

fn main() {
    let scale = Scale::from_env();
    let sweeps: &[(u32, usize)] = if scale == Scale::Paper {
        &[
            (2_000, 5_000),
            (10_000, 5_000),
            (50_000, 5_000),
            (10_000, 1_000),
            (10_000, 50_000),
        ]
    } else {
        &[
            (1_000, 2_000),
            (5_000, 2_000),
            (5_000, 500),
            (5_000, 10_000),
        ]
    };
    let messages = scale.pick(5_000, 20_000);

    let mut report = Report::new(
        "E6",
        "memory footprint by component",
        vec![
            "users",
            "ads",
            "cache_cap",
            "graph_B",
            "feeds_B",
            "ad_store_B",
            "engine_B",
            "engine_pretty",
            "lane_users",
        ],
    );
    let default_cache = adcast_core::EngineConfig::default().cache_capacity;
    let mut runs: Vec<(u32, usize, usize)> =
        sweeps.iter().map(|&(u, a)| (u, a, default_cache)).collect();
    // The space/time knob: cache capacity at the largest sweep point.
    if let Some(&(u, a)) = sweeps.last() {
        runs.push((u, a, 1024));
        runs.push((u, a, 0));
    }
    for (num_users, num_ads, cache_capacity) in runs {
        let mut sim = Simulation::build(SimulationConfig {
            workload: WorkloadConfig {
                num_users,
                ..WorkloadConfig::default()
            },
            num_ads,
            engine_kind: EngineKind::Incremental,
            engine: adcast_core::EngineConfig {
                cache_capacity,
                ..Default::default()
            },
            ..SimulationConfig::default()
        });
        sim.run(messages);
        let engine_bytes = sim.engine().memory_bytes();
        report.row(vec![
            num_users.to_string(),
            num_ads.to_string(),
            cache_capacity.to_string(),
            fmt_u(sim.graph().memory_bytes() as u64),
            fmt_u(sim.delivery().memory_bytes() as u64),
            fmt_u(sim.store().memory_bytes() as u64),
            fmt_u(engine_bytes as u64),
            format_bytes(engine_bytes),
            sim.engine().lane_users().to_string(),
        ]);
    }
    report.finish();
}
