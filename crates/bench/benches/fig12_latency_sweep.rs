//! Fig. 12 bench: one point of the preventive-action latency sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use lh_bench::experiment::latency_sweep::latency_sweep_point;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig12_latency_sweep");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(5));
    g.bench_function("point_100ns", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            latency_sweep_point(100, 8, seed)
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
