//! §11.4 bench: the countermeasure capacity-reduction study.

use criterion::{criterion_group, criterion_main, Criterion};
use lh_bench::experiment::countermeasures::{attack_capacity, mitigation_arms};
use lh_bench::Scale;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("sec114_mitigation");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(20));
    g.bench_function("study_quick", |b| {
        let mut seed = 0u64;
        let bits = Scale::Quick.message_bits() / 4;
        b.iter(|| {
            seed += 1;
            mitigation_arms()
                .iter()
                .map(|arm| attack_capacity(arm, bits, seed))
                .collect::<Vec<_>>()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
