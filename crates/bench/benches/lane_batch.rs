//! Lane-batch bench: an 8-lane fig13-shaped batch (one decoded trace,
//! one wake heap) against the same eight cells run the pre-lane way —
//! eight sequential single-lane systems, each re-decoding its own
//! trace.
//!
//! Both sides simulate the identical eight `(defense, NRH)` cells of
//! one quick-scale four-core mix on the controller's one scheduler, so
//! the printed `speedup` line is the honest per-sweep win of the lane
//! engine alone: shared trace decode and cache warmth. FR-FCFS scans
//! dominate both sides' wall clock; on a 2-vCPU VM the line reads
//! 0.9–1.3× from run to run.

use std::sync::Arc;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lh_defenses::{DefenseConfig, DefenseKind};
use lh_dram::{DramTiming, Span, Time};
use lh_memctrl::AddressMapping;
use lh_sim::{LaneBatch, SimConfig, SystemBuilder};
use lh_workloads::{four_core_mixes, AppProfile, SharedTrace, SyntheticApp, TraceReplay};

const SIM_SEED: u64 = 3;
const SPAN_US: u64 = 150; // quick-scale fig13 span

/// Eight fig13-shaped cells: every figure-13 defense, ladder of NRHs.
fn cells() -> [(DefenseKind, u32); 8] {
    [
        (DefenseKind::Prac, 1024),
        (DefenseKind::Prac, 256),
        (DefenseKind::Prfm, 512),
        (DefenseKind::Prfm, 128),
        (DefenseKind::PracRiac, 256),
        (DefenseKind::FrRfm, 512),
        (DefenseKind::FrRfm, 128),
        (DefenseKind::PracBank, 1024),
    ]
}

fn mix() -> Vec<AppProfile> {
    four_core_mixes(2, 1)[0].to_vec()
}

fn defense_cfg(defense: DefenseKind, nrh: u32) -> DefenseConfig {
    DefenseConfig::for_threshold(defense, nrh, &DramTiming::ddr5_4800())
}

/// One cell the pre-lane way: its own system, its own
/// [`SyntheticApp`] decode. Returns total instructions
/// (consumed via `black_box` so nothing is optimized away).
fn run_sequential_cell(mix: &[AppProfile], defense: DefenseKind, nrh: u32) -> u64 {
    let mut sys = SystemBuilder::new(defense_cfg(defense, nrh))
        .seed(SIM_SEED)
        .disturb_tracking(false)
        .build()
        .expect("valid configuration");
    let mapping: AddressMapping = *sys.mapping();
    let end = Time::ZERO + Span::from_us(SPAN_US);
    let mut pids = Vec::new();
    for (i, profile) in mix.iter().enumerate() {
        let app = SyntheticApp::new(profile.clone(), mapping, SIM_SEED ^ (i as u64 * 31), end);
        let mlp = app.mlp();
        pids.push(sys.add_process(Box::new(app), mlp, Time::ZERO));
    }
    sys.run_until(end + Span::from_us(5));
    pids.iter()
        .map(|&pid| {
            sys.process_as::<SyntheticApp>(pid)
                .expect("app present")
                .instructions()
        })
        .sum()
}

fn run_sequential(mix: &[AppProfile]) -> u64 {
    cells()
        .iter()
        .map(|&(d, n)| run_sequential_cell(mix, d, n))
        .sum()
}

/// All eight cells as one lane batch over one decoded trace.
fn run_lane_batch(mix: &[AppProfile]) -> u64 {
    let sim = SimConfig::paper_default(DefenseConfig::none());
    let mapping = AddressMapping::new(sim.mapping, sim.device.geometry);
    let seeds: Vec<u64> = (0..mix.len()).map(|i| SIM_SEED ^ (i as u64 * 31)).collect();
    let trace = SharedTrace::decode(mix.to_vec(), mapping, &seeds);
    let end = Time::ZERO + Span::from_us(SPAN_US);
    let horizon = end + Span::from_us(5);
    let mut batch = LaneBatch::new();
    let mut lane_pids = Vec::new();
    for (d, n) in cells() {
        let builder = SystemBuilder::new(defense_cfg(d, n))
            .seed(SIM_SEED)
            .disturb_tracking(false);
        let lane = batch
            .push_lane(builder, horizon)
            .expect("valid configuration");
        let pids: Vec<_> = (0..trace.cores())
            .map(|core| {
                let replay = TraceReplay::new(Arc::clone(&trace), core, end);
                let mlp = replay.mlp();
                batch
                    .lane_mut(lane)
                    .add_process(Box::new(replay), mlp, Time::ZERO)
            })
            .collect();
        lane_pids.push((lane, pids));
    }
    batch.run();
    lane_pids
        .iter()
        .map(|(lane, pids)| {
            pids.iter()
                .map(|&pid| {
                    batch
                        .lane(*lane)
                        .process_as::<TraceReplay>(pid)
                        .expect("replay present")
                        .instructions()
                })
                .sum::<u64>()
        })
        .sum()
}

fn bench(c: &mut Criterion) {
    let mix = mix();

    // The two sides must agree on what they simulated — the batch is an
    // engine, not an approximation.
    assert_eq!(run_sequential(&mix), run_lane_batch(&mix));

    let mut g = c.benchmark_group("lane_batch");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(15));
    g.bench_function("sequential_8x1_quick", |b| {
        b.iter(|| black_box(run_sequential(&mix)))
    });
    g.bench_function("lane_batch_8_quick", |b| {
        b.iter(|| black_box(run_lane_batch(&mix)))
    });
    g.finish();

    // Advisory speedup line (min-of-3 per side); ~1.5× on the
    // development container, see the module docs for why.
    let min_of = |f: &dyn Fn() -> u64| {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                black_box(f());
                t.elapsed()
            })
            .min()
            .expect("three samples")
    };
    let seq = min_of(&|| run_sequential(&mix));
    let lane = min_of(&|| run_lane_batch(&mix));
    println!(
        "lane_batch speedup: {:.2}x (sequential {seq:.3?} vs lane batch {lane:.3?})",
        seq.as_secs_f64() / lane.as_secs_f64()
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
