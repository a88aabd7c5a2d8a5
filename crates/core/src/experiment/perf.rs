//! The Fig. 13 performance study: weighted speedup of PRAC, PRFM,
//! PRAC-RIAC, FR-RFM and PRAC-Bank over RowHammer thresholds
//! 1024 → 64, normalized to a system with no mitigation.

use std::sync::Arc;

use lh_analysis::{mean, normalized_ws, weighted_speedup, AppPerf};
use lh_defenses::{DefenseConfig, DefenseKind};
use lh_dram::{Span, Time};
use lh_memctrl::AddressMapping;
use lh_sim::{LaneBatch, ProcId, SimConfig, SystemBuilder};
use lh_workloads::{four_core_mixes, SharedTrace, TraceReplay};

use crate::Scale;

/// The paper's swept RowHammer thresholds.
pub const NRH_SWEEP: [u32; 5] = [1024, 512, 256, 128, 64];

/// One (defense, NRH) cell of Fig. 13.
#[derive(Debug, Clone, Copy)]
pub struct PerfPoint {
    /// The defense.
    pub defense: DefenseKind,
    /// RowHammer threshold.
    pub nrh: u32,
    /// Mean normalized weighted speedup over the workload mixes
    /// (1.0 = no overhead).
    pub normalized_ws: f64,
}

/// Decodes the shared access trace of one four-core mix: profile `i`
/// replays on the stream seeded `sim_seed ^ (i * 31)` — the exact
/// per-app seed derivation every simulation of this mix uses, so one
/// decode serves the alone runs, the no-defense mix and every
/// `(defense, nrh)` cell.
///
/// The decode is [`SharedTrace::decode_uncounted`]: whether a unit
/// decodes the trace or gets it from the memo depends on scheduling,
/// so it must not tick a per-unit counter (the pinned envelope
/// snapshots carry no decode counter, and must stay byte-identical
/// across execution modes).
pub fn decode_mix_trace(
    mix_index: usize,
    mixes_seed: u64,
    sim_seed: u64,
    scale: Scale,
) -> Arc<SharedTrace> {
    let mixes = four_core_mixes(scale.mixes(), mixes_seed);
    let profiles = mixes[mix_index].to_vec();
    let cfg = SimConfig::paper_default(DefenseConfig::none());
    let mapping = AddressMapping::new(cfg.mapping, cfg.device.geometry);
    let seeds: Vec<u64> = (0..profiles.len())
        .map(|i| sim_seed ^ (i as u64 * 31))
        .collect();
    SharedTrace::decode_uncounted(profiles, mapping, &seeds)
}

/// A lane builder for one performance simulation. Performance runs do
/// not need disturb ground truth; skipping it speeds the sweep up
/// considerably.
fn perf_lane(defense: DefenseConfig, seed: u64) -> SystemBuilder {
    SystemBuilder::new(defense)
        .seed(seed)
        .disturb_tracking(false)
}

/// Adds replays of `cores` (trace core indices) to lane `lane`, each
/// halting at `end`; returns their pids.
fn add_replays(
    batch: &mut LaneBatch,
    lane: usize,
    trace: &Arc<SharedTrace>,
    cores: &[usize],
    end: Time,
) -> Vec<ProcId> {
    cores
        .iter()
        .map(|&core| {
            let replay = TraceReplay::new(Arc::clone(trace), core, end);
            let mlp = replay.mlp();
            batch
                .lane_mut(lane)
                .add_process(Box::new(replay), mlp, Time::ZERO)
        })
        .collect()
}

/// Runs the batch, re-emits each lane's captured counters into the
/// ambient obs scope (so a unit's counters are identical to having run
/// its lanes solo), and collects per-lane per-app performance.
fn run_and_collect(
    batch: &mut LaneBatch,
    lane_pids: &[Vec<ProcId>],
    span: Span,
) -> Vec<Vec<AppPerf>> {
    batch.run();
    for i in 0..batch.len() {
        lh_obs::emit(batch.metrics(i));
    }
    lane_pids
        .iter()
        .enumerate()
        .map(|(lane, pids)| {
            pids.iter()
                .map(|&pid| {
                    let replay = batch
                        .lane(lane)
                        .process_as::<TraceReplay>(pid)
                        .expect("replay present");
                    AppPerf {
                        instructions: replay.instructions(),
                        seconds: span.as_secs(),
                    }
                })
                .collect()
        })
        .collect()
}

/// One mix's defense-independent intermediates, shared by every
/// `(defense, nrh)` cell of that mix: the alone-run baselines and the
/// no-defense weighted speedup everything is normalized to.
#[derive(Debug, Clone)]
pub struct MixBaseline {
    /// Per-app alone (no defense, no co-runners) performance.
    pub alone: Vec<AppPerf>,
    /// Weighted speedup of the shared no-defense run.
    pub base_ws: f64,
}

/// Runs one mix's baseline simulations on a shared decoded `trace`:
/// each app alone (no defense, no co-runners) plus the mix under no
/// defense — five lanes of one [`LaneBatch`], advanced in a single pass.
pub fn run_perf_baseline_on(trace: &Arc<SharedTrace>, sim_seed: u64, scale: Scale) -> MixBaseline {
    let span = Span::from_us(scale.perf_span_us());
    let end = Time::ZERO + span;
    let horizon = end + Span::from_us(5);
    let mut batch = LaneBatch::new();
    let mut lane_pids = Vec::new();
    for core in 0..trace.cores() {
        let lane = batch
            .push_lane(perf_lane(DefenseConfig::none(), sim_seed), horizon)
            .expect("valid configuration");
        lane_pids.push(add_replays(&mut batch, lane, trace, &[core], end));
    }
    let all: Vec<usize> = (0..trace.cores()).collect();
    let lane = batch
        .push_lane(perf_lane(DefenseConfig::none(), sim_seed), horizon)
        .expect("valid configuration");
    lane_pids.push(add_replays(&mut batch, lane, trace, &all, end));
    let mut perf = run_and_collect(&mut batch, &lane_pids, span);
    let shared = perf.pop().expect("mix lane present");
    let alone: Vec<AppPerf> = perf.into_iter().map(|solo| solo[0]).collect();
    let base_ws = weighted_speedup(&shared, &alone);
    MixBaseline { alone, base_ws }
}

/// Runs a batch of `(defense, nrh)` cells of one mix on a shared
/// decoded `trace` — one lane per cell, one pass — against a
/// precomputed [`MixBaseline`]. `sim_seed` must equal the baseline's:
/// the alone and defended runs of a mix share one simulation seed.
pub fn run_perf_cells_on(
    trace: &Arc<SharedTrace>,
    sim_seed: u64,
    cells: &[(DefenseKind, u32)],
    baseline: &MixBaseline,
    scale: Scale,
) -> Vec<PerfPoint> {
    let span = Span::from_us(scale.perf_span_us());
    let end = Time::ZERO + span;
    let horizon = end + Span::from_us(5);
    let timing = lh_dram::DramTiming::ddr5_4800();
    let all: Vec<usize> = (0..trace.cores()).collect();
    let mut batch = LaneBatch::new();
    let mut lane_pids = Vec::new();
    for &(defense, nrh) in cells {
        let cfg = DefenseConfig::for_threshold(defense, nrh, &timing);
        let lane = batch
            .push_lane(perf_lane(cfg, sim_seed), horizon)
            .expect("valid configuration");
        lane_pids.push(add_replays(&mut batch, lane, trace, &all, end));
    }
    let perf = run_and_collect(&mut batch, &lane_pids, span);
    cells
        .iter()
        .zip(perf)
        .map(|(&(defense, nrh), shared)| {
            let ws = weighted_speedup(&shared, &baseline.alone);
            PerfPoint {
                defense,
                nrh,
                normalized_ws: normalized_ws(ws, baseline.base_ws),
            }
        })
        .collect()
}

/// Averages per-mix cell values (all with the same cell layout, as
/// [`run_perf_cells_on`] returns them) into the Fig. 13 cells: one
/// point per cell, its normalized weighted speedup the mean over mixes.
pub fn merge_perf_mixes(per_mix: &[Vec<PerfPoint>]) -> Vec<PerfPoint> {
    let cells = per_mix.first().map_or(0, Vec::len);
    (0..cells)
        .map(|c| {
            let values: Vec<f64> = per_mix.iter().map(|m| m[c].normalized_ws).collect();
            PerfPoint {
                normalized_ws: mean(&values),
                ..per_mix[0][c]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 13 cells over `defenses` × `nrh_values` at quick scale,
    /// through the chain the `fig13` registry job runs: per mix one
    /// decoded trace, its baseline and its cells; then the mean over
    /// mixes. Mix `m` simulates on `seed ^ (m << 16)`.
    fn quick_study(defenses: &[DefenseKind], nrh_values: &[u32], seed: u64) -> Vec<PerfPoint> {
        let scale = Scale::Quick;
        let cells: Vec<(DefenseKind, u32)> = defenses
            .iter()
            .flat_map(|&d| nrh_values.iter().map(move |&n| (d, n)))
            .collect();
        let per_mix: Vec<Vec<PerfPoint>> = (0..scale.mixes())
            .map(|m| {
                let sim_seed = seed ^ ((m as u64) << 16);
                let trace = decode_mix_trace(m, seed, sim_seed, scale);
                let baseline = run_perf_baseline_on(&trace, sim_seed, scale);
                run_perf_cells_on(&trace, sim_seed, &cells, &baseline, scale)
            })
            .collect();
        merge_perf_mixes(&per_mix)
    }

    /// The normalized WS of one cell.
    fn cell(points: &[PerfPoint], defense: DefenseKind, nrh: u32) -> Option<f64> {
        points
            .iter()
            .find(|p| p.defense == defense && p.nrh == nrh)
            .map(|p| p.normalized_ws)
    }

    #[test]
    fn defenses_cost_little_at_high_nrh_and_a_lot_at_low_nrh() {
        let study = quick_study(&[DefenseKind::Prac, DefenseKind::FrRfm], &[1024, 64], 3);
        let prac_high = cell(&study, DefenseKind::Prac, 1024).unwrap();
        let frrfm_high = cell(&study, DefenseKind::FrRfm, 1024).unwrap();
        let frrfm_low = cell(&study, DefenseKind::FrRfm, 64).unwrap();
        // At NRH=1024 both defenses are cheap (>80 % of baseline).
        assert!(prac_high > 0.8, "PRAC@1024 {prac_high}");
        assert!(frrfm_high > 0.75, "FR-RFM@1024 {frrfm_high}");
        // At NRH=64 FR-RFM collapses (paper: ~0.06× baseline).
        assert!(frrfm_low < 0.5, "FR-RFM@64 {frrfm_low}");
        assert!(frrfm_low < frrfm_high, "overhead must grow as NRH shrinks");
    }

    #[test]
    fn riac_beats_fr_rfm_at_very_low_nrh() {
        let study = quick_study(&[DefenseKind::PracRiac, DefenseKind::FrRfm], &[64], 5);
        let riac = cell(&study, DefenseKind::PracRiac, 64).unwrap();
        let frrfm = cell(&study, DefenseKind::FrRfm, 64).unwrap();
        assert!(
            riac > frrfm,
            "§11.4: RIAC ({riac}) must outperform FR-RFM ({frrfm}) at NRH=64"
        );
    }

    #[test]
    fn prac_bank_tracks_prac() {
        let study = quick_study(&[DefenseKind::Prac, DefenseKind::PracBank], &[256], 7);
        let prac = cell(&study, DefenseKind::Prac, 256).unwrap();
        let bank = cell(&study, DefenseKind::PracBank, 256).unwrap();
        // §11.4: PRAC-Bank performs within a few percent of PRAC.
        assert!(
            (prac - bank).abs() < 0.08,
            "PRAC {prac} vs PRAC-Bank {bank} must be close"
        );
    }
}
