//! PERF: the DL tableau's hot paths — trail-based engine vs the classic
//! clone-per-branch baseline it replaced, plus the cached classification
//! sweep.
//!
//! Three scenario families (see `orm_bench::tableau_scenarios`): wide `⊔`
//! fan-out from exclusive supertypes, deep subtype chains, and
//! `≤`-merge-heavy frequency contradictions. The `trail/*` and
//! `classic/*` groups run identical queries, so the ratio per scenario is
//! the engine speedup. The `sweep/*` group replays one classification
//! battery with and without a `SatCache`, so its internal ratio is the
//! cache win. `experiments tableau` records the same comparisons in
//! `BENCH_tableau.json` for the perf trajectory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use orm_bench::tableau_scenarios::{
    all, classify_battery, classify_sweep, incremental_edit, BUDGET,
};
use orm_dl::ExecCx;
use std::hint::black_box;

fn bench_trail(c: &mut Criterion) {
    let mut group = c.benchmark_group("tableau_hotpath/trail");
    let cx = ExecCx::with_steps(BUDGET);
    for scenario in all() {
        group.bench_with_input(BenchmarkId::from_parameter(&scenario.name), &scenario, |b, s| {
            b.iter(|| black_box(orm_dl::satisfiable_cx(&s.tbox, &s.query, &cx)))
        });
    }
    group.finish();
}

fn bench_classic(c: &mut Criterion) {
    let mut group = c.benchmark_group("tableau_hotpath/classic");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(4));
    for scenario in all() {
        group.bench_with_input(BenchmarkId::from_parameter(&scenario.name), &scenario, |b, s| {
            b.iter(|| black_box(orm_dl::classic::satisfiable(&s.tbox, &s.query, BUDGET)))
        });
    }
    group.finish();
}

fn bench_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("tableau_hotpath/sweep");
    let s = classify_sweep(12, 8);
    let cx = ExecCx::with_steps(BUDGET);
    group.bench_function(BenchmarkId::from_parameter(format!("{}_uncached", s.name)), |b| {
        b.iter(|| {
            for _ in 0..s.passes {
                for q in &s.queries {
                    black_box(orm_dl::satisfiable_cx(&s.tbox, q, &cx));
                }
            }
        })
    });
    group.bench_function(BenchmarkId::from_parameter(format!("{}_cached", s.name)), |b| {
        b.iter(|| {
            let mut cache = orm_dl::SatCache::new();
            for _ in 0..s.passes {
                for q in &s.queries {
                    black_box(cache.satisfiable_cx(&s.tbox, q, &cx));
                }
            }
        })
    });
    group.finish();
}

fn bench_classify_par(c: &mut Criterion) {
    let mut group = c.benchmark_group("tableau_hotpath/classify_par");
    let battery = classify_battery(14, 6);
    let translation = orm_dl::translate(&battery.schema);
    let cx = ExecCx::with_steps(BUDGET);
    group.bench_function(BenchmarkId::from_parameter(format!("{}_seq", battery.name)), |b| {
        // A fresh clone per iteration: cold sharded cache, every pair
        // actually proved.
        b.iter(|| black_box(translation.clone().classify_cx(&battery.schema, &cx)))
    });
    for threads in [2usize, 4, 8] {
        group.bench_function(
            BenchmarkId::from_parameter(format!("{}_par{threads}", battery.name)),
            |b| {
                b.iter(|| {
                    black_box(translation.clone().classify_par_cx(&battery.schema, &cx, threads))
                })
            },
        );
    }
    group.finish();
}

fn bench_incremental_edit(c: &mut Criterion) {
    let mut group = c.benchmark_group("tableau_hotpath/incremental_edit");
    let inc = incremental_edit(10, 6);
    let cx = ExecCx::with_steps(BUDGET);
    // One battery population plus the post-edit rounds (the same shared
    // driver `experiments tableau` times, so the criterion numbers and
    // the JSON trajectory measure the identical workload); `wholesale`
    // clears the cache after every edit (the pre-delta-log behavior),
    // `delta` lets the retention rules keep it warm. The internal ratio
    // is the incremental-revalidation win.
    for (label, delta_aware) in [("wholesale", false), ("delta", true)] {
        group.bench_function(BenchmarkId::from_parameter(format!("{}_{label}", inc.name)), |b| {
            b.iter(|| {
                let mut run = inc.populate(&cx);
                black_box(run.edit_rounds(&inc, delta_aware, &cx))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_trail,
    bench_classic,
    bench_sweep,
    bench_classify_par,
    bench_incremental_edit
);
criterion_main!(benches);
