//! §12 bench: the quantitative defense-taxonomy study — a covert-channel
//! attempt against one defense of every trigger/visibility class.

use criterion::{criterion_group, criterion_main, Criterion};
use lh_bench::experiment::taxonomy::{taxonomy_bits, taxonomy_kinds, taxonomy_point};
use lh_bench::Scale;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("sec12_taxonomy");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(30));
    g.bench_function("study_quick", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            taxonomy_kinds()
                .into_iter()
                .map(|kind| taxonomy_point(kind, taxonomy_bits(kind, Scale::Quick), seed))
                .collect::<Vec<_>>()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
