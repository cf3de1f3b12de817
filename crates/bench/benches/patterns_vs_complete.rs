//! PERF: the paper's §4 comparison — pattern detection vs complete
//! reasoning. Pattern cost stays flat in the microsecond range while both
//! complete procedures (DL tableau, bounded model finder) grow
//! exponentially with schema size; the crossover is at trivially small
//! inputs, which is why "the patterns can be used to quickly detect any
//! trivial inconsistencies before calling the more expensive (but
//! complete) procedure".

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use orm_core::Validator;
use orm_dl::{translate, ExecCx};
use orm_gen::{faults, generate_clean, GenConfig};
use orm_model::Schema;
use orm_reasoner::{strong_satisfiability, Bounds};
use std::hint::black_box;

fn schema_set() -> Vec<(String, Schema)> {
    let mut out = Vec::new();
    for size in [6usize, 9, 12] {
        let clean = generate_clean(&GenConfig::sized(5, size));
        let faulty = faults::inject(&clean, faults::FaultKind::P7, 0);
        out.push((format!("clean_{size}"), clean));
        out.push((format!("faulty_{size}"), faulty));
    }
    out
}

fn bench_patterns(c: &mut Criterion) {
    let mut group = c.benchmark_group("complete/patterns");
    for (name, schema) in schema_set() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &schema, |b, schema| {
            b.iter(|| {
                let validator = Validator::new();
                black_box(validator.validate(black_box(schema)))
            })
        });
    }
    group.finish();
}

fn bench_dl(c: &mut Criterion) {
    let mut group = c.benchmark_group("complete/dl_tableau");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(8));
    for (name, schema) in schema_set() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &schema, |b, schema| {
            let cx = ExecCx::with_steps(100_000);
            b.iter(|| {
                let translation = translate(schema);
                for (role, _) in schema.roles() {
                    black_box(translation.role_satisfiable_cx(role, &cx));
                }
            })
        });
    }
    group.finish();
}

fn bench_finder(c: &mut Criterion) {
    let mut group = c.benchmark_group("complete/model_finder");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(5));
    for (name, schema) in schema_set() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &schema, |b, schema| {
            b.iter(|| black_box(strong_satisfiability(black_box(schema), Bounds::small())))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_patterns, bench_dl, bench_finder);
criterion_main!(benches);
