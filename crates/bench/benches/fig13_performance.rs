//! Fig. 13 bench: one four-core mix under PRAC at NRH=1024.

use criterion::{criterion_group, criterion_main, Criterion};
use lh_bench::experiment::perf::{
    decode_mix_trace, merge_perf_mixes, run_perf_baseline_on, run_perf_cells_on,
};
use lh_bench::Scale;
use lh_defenses::DefenseKind;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig13_performance");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(10));
    g.bench_function("prac_nrh1024_quick", |b| {
        let scale = Scale::Quick;
        let seed = 3;
        b.iter(|| {
            let per_mix: Vec<_> = (0..scale.mixes())
                .map(|m| {
                    let sim_seed = seed ^ ((m as u64) << 16);
                    let trace = decode_mix_trace(m, seed, sim_seed, scale);
                    let baseline = run_perf_baseline_on(&trace, sim_seed, scale);
                    run_perf_cells_on(
                        &trace,
                        sim_seed,
                        &[(DefenseKind::Prac, 1024)],
                        &baseline,
                        scale,
                    )
                })
                .collect();
            merge_perf_mixes(&per_mix)
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
