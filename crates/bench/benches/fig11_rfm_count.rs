//! Fig. 11 bench: PRAC channel with a 2-RFM back-off.

use criterion::{criterion_group, criterion_main, Criterion};
use lh_bench::experiment::covert::ChannelKind;
use lh_bench::experiment::noise_sweep::sweep_point;
use lh_bench::Scale;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig11_rfm_count");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(10));
    g.bench_function("two_rfm_backoffs_quick_sweep", |b| {
        let mut seed = 0u64;
        let scale = Scale::Quick;
        b.iter(|| {
            seed += 1;
            scale
                .noise_points()
                .into_iter()
                .map(|intensity| {
                    sweep_point(
                        ChannelKind::Prac,
                        2,
                        false,
                        intensity,
                        scale.message_bits() / 4,
                        seed,
                    )
                })
                .collect::<Vec<_>>()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
