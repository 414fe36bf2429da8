//! Criterion micro-benchmarks of the pipeline engine: a cold run that
//! computes every stage vs. a warm re-run that replays the whole DAG
//! from the content-addressed cache (the gap is the caching payoff).

use criterion::{criterion_group, criterion_main, Criterion};
use remedy_pipeline::{run, PipelineOptions, Plan};

const PLAN: &str = "\
dataset compas
rows 2000
seed 42
branch base technique=none model=dt
branch ps technique=ps model=dt
";

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    let plan = Plan::parse(PLAN).unwrap();
    let cache_dir = std::env::temp_dir().join("remedy_bench_pipeline");

    let cold = PipelineOptions {
        cache_dir: cache_dir.clone(),
        force: true, // recompute every stage, ignore stored artifacts
        ..PipelineOptions::default()
    };
    group.bench_function("cold_run", |b| {
        b.iter(|| run(std::hint::black_box(&plan), &cold).unwrap())
    });

    let warm = PipelineOptions {
        cache_dir: cache_dir.clone(),
        ..PipelineOptions::default()
    };
    run(&plan, &warm).unwrap(); // prime the cache
    group.bench_function("warm_run", |b| {
        b.iter(|| run(std::hint::black_box(&plan), &warm).unwrap())
    });

    group.finish();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
