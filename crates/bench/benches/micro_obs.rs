//! Criterion micro-benchmarks for the telemetry hot paths: what one
//! `Counter::inc`, `Hist::record`, and `FlightRecorder::record` cost the
//! serving threads that call them. `FlightRecorder::record` is one push
//! into the seq-claim ring that `TraceStore::record` shares, so it prices
//! span recording too. The obs layer's contract is that
//! instrumentation is invisible at engine speeds — DESIGN.md §11 budgets
//! each at under 100 ns; `perf_summary` re-measures `record()` into
//! `results/bench_summary.json` so drift shows up per PR.

use adcast_obs::flightrec::EventKind;
use adcast_obs::{registry, FlightRecorder};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_counter(c: &mut Criterion) {
    let counter = registry().counter("bench_obs_counter_total", "micro-bench counter");
    c.bench_function("obs_counter_inc", |b| {
        b.iter(|| counter.add(black_box(1)));
    });
}

fn bench_hist_record(c: &mut Criterion) {
    let hist = registry().hist("bench_obs_hist_ns", "micro-bench histogram");
    let mut group = c.benchmark_group("obs_hist_record");
    // Sweep bucket regimes: exact low buckets, mid log-buckets, top end.
    for value in [7u64, 48_000, u64::MAX / 2] {
        group.bench_with_input(BenchmarkId::from_parameter(value), &value, |b, &value| {
            b.iter(|| hist.record(black_box(value)));
        });
    }
    group.finish();
}

fn bench_flightrec_record(c: &mut Criterion) {
    let rec = FlightRecorder::new(4096);
    c.bench_function("obs_flightrec_record", |b| {
        b.iter(|| rec.record(EventKind::Admission, black_box(1), black_box(250), 0));
    });
}

fn bench_exposition(c: &mut Criterion) {
    // Expose the whole process-wide registry (the two bench families plus
    // whatever else this process registered) — the scrape-path cost.
    c.bench_function("obs_expose", |b| {
        b.iter(|| black_box(registry().expose()).len());
    });
}

criterion_group!(
    benches,
    bench_counter,
    bench_hist_record,
    bench_flightrec_record,
    bench_exposition
);
criterion_main!(benches);
