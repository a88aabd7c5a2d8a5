//! Adapter for the Fig. 13 performance study, sharded at cell
//! granularity: one harness unit per four-core mix *baseline* (each
//! app alone plus the mix under no defense) and one unit per
//! `(mix, defense, NRH)` cell, with every cell depending on its mix's
//! baseline unit. Quick-scale parallelism is therefore
//! `mixes × defenses × NRH` workers instead of `mixes`, while the
//! expensive baseline simulations still run exactly once per mix —
//! warm from the cache on reruns. `finish` reassembles the per-mix
//! cell grids and averages them with `merge_perf_mixes`.

use lh_harness::{Job, JobContext, Json};

use std::sync::Arc;

use crate::experiment::perf::{
    decode_mix_trace, merge_perf_mixes, run_perf_baseline_on, run_perf_cells_on, MixBaseline,
    PerfPoint, NRH_SWEEP,
};
use crate::Scale;

use crate::registry::{num, scale_of, sim_fingerprint, text};
use crate::report;
use lh_workloads::SharedTrace;

use lh_analysis::AppPerf;
use lh_defenses::DefenseKind;
use lh_dram::Span;

/// Fig. 13: weighted speedup of defenses over NRH.
pub(crate) struct PerfJob;

/// Cells per mix: the full `figure13_set() × NRH_SWEEP` grid.
fn cells_per_mix() -> usize {
    DefenseKind::figure13_set().len() * NRH_SWEEP.len()
}

/// The memoized decoded trace of one mix — built at most once per
/// process, shared by the mix's baseline unit and every cell unit that
/// lands in the same process. The decode ticks no counter: whether a
/// unit got a memo hit or rebuilt depends on scheduling, and per-unit
/// counters (pinned in the envelope snapshots) must not.
fn mix_trace(ctx: &JobContext, mix: usize, sim_seed: u64, scale: Scale) -> Arc<SharedTrace> {
    let key = format!(
        "fig13:trace:{}:{}:{mix}:{sim_seed}",
        scale.mixes(),
        ctx.seed
    );
    ctx.memo
        .get_or_build(&key, || decode_mix_trace(mix, ctx.seed, sim_seed, scale))
}

impl PerfJob {
    /// Splits a unit index into its role: `Ok(mix)` for a baseline
    /// unit, `Err((mix, defense index, nrh index))` for a cell unit.
    fn decode(unit: usize, mixes: usize) -> Result<usize, (usize, usize, usize)> {
        if unit < mixes {
            return Ok(unit);
        }
        let cell = unit - mixes;
        let per_mix = cells_per_mix();
        let n = NRH_SWEEP.len();
        Err((cell / per_mix, (cell % per_mix) / n, cell % n))
    }
}

impl Job for PerfJob {
    fn id(&self) -> &'static str {
        "fig13"
    }

    fn description(&self) -> &'static str {
        "weighted speedup of defenses over NRH"
    }

    fn units(&self, ctx: &JobContext) -> Vec<String> {
        let mixes = scale_of(ctx).mixes();
        let defenses = DefenseKind::figure13_set();
        let mut units: Vec<String> = (0..mixes).map(|m| format!("baseline:mix:{m}")).collect();
        for m in 0..mixes {
            for d in &defenses {
                for nrh in &NRH_SWEEP {
                    units.push(format!("mix:{m}:{}:nrh:{nrh}", d.label()));
                }
            }
        }
        units
    }

    fn deps(&self, unit: usize, ctx: &JobContext) -> Vec<usize> {
        match Self::decode(unit, scale_of(ctx).mixes()) {
            Ok(_baseline) => Vec::new(),
            Err((mix, _, _)) => vec![mix],
        }
    }

    fn run_unit(&self, unit: usize, seed: u64, deps: &[Json], ctx: &JobContext) -> Json {
        let scale = scale_of(ctx);
        match Self::decode(unit, scale.mixes()) {
            Ok(mix) => {
                let trace = mix_trace(ctx, mix, seed, scale);
                let b = run_perf_baseline_on(&trace, seed, scale);
                // `sim_seed` rides along so cell units reuse the exact
                // simulation seed of their mix's baseline (alone and
                // defended runs of a mix share one seed); `seconds` is
                // recomputed from the scale, so only instruction counts
                // travel.
                Json::object()
                    .with("mix", mix)
                    .with("sim_seed", seed)
                    .with("base_ws", b.base_ws)
                    .with(
                        "alone_instructions",
                        Json::Array(b.alone.iter().map(|a| a.instructions.into()).collect()),
                    )
            }
            Err((mix, d, n)) => {
                let base = &deps[0];
                let seconds = Span::from_us(scale.perf_span_us()).as_secs();
                let baseline = MixBaseline {
                    alone: base["alone_instructions"]
                        .as_array()
                        .iter()
                        .map(|i| AppPerf {
                            instructions: i.as_u64().expect("baseline instruction count"),
                            seconds,
                        })
                        .collect(),
                    base_ws: base["base_ws"].as_f64().expect("baseline weighted speedup"),
                };
                let sim_seed = base["sim_seed"].as_u64().expect("baseline sim seed");
                let defense = DefenseKind::figure13_set()[d];
                let _ = seed; // cells inherit the baseline's sim seed
                let trace = mix_trace(ctx, mix, sim_seed, scale);
                let p = run_perf_cells_on(
                    &trace,
                    sim_seed,
                    &[(defense, NRH_SWEEP[n])],
                    &baseline,
                    scale,
                )
                .pop()
                .expect("one cell in, one point out");
                Json::object()
                    .with("mix", mix)
                    .with("defense", p.defense.label())
                    .with("nrh", p.nrh)
                    .with("normalized_ws", p.normalized_ws)
            }
        }
    }

    fn finish(&self, units: Vec<Json>, _ctx: &JobContext) -> Json {
        // Reassemble each mix's `figure13_set() × NRH_SWEEP` grid from
        // the cell units (baseline units carry no cells) and average the
        // grids over mixes.
        let defenses = DefenseKind::figure13_set();
        let per_mix_cells = cells_per_mix();
        let mixes = units.len() / (1 + per_mix_cells);
        let cells = &units[mixes..];
        let per_mix: Vec<Vec<PerfPoint>> = (0..mixes)
            .map(|m| {
                cells[m * per_mix_cells..(m + 1) * per_mix_cells]
                    .iter()
                    .enumerate()
                    .map(|(c, cell)| PerfPoint {
                        defense: defenses[c / NRH_SWEEP.len()],
                        nrh: NRH_SWEEP[c % NRH_SWEEP.len()],
                        normalized_ws: num(cell, "normalized_ws"),
                    })
                    .collect()
            })
            .collect();
        Json::object().with("mixes", mixes).with(
            "cells",
            Json::Array(
                merge_perf_mixes(&per_mix)
                    .iter()
                    .map(|p| {
                        Json::object()
                            .with("defense", p.defense.label())
                            .with("nrh", p.nrh)
                            .with("normalized_ws", p.normalized_ws)
                    })
                    .collect(),
            ),
        )
    }

    fn version(&self) -> u32 {
        // v2: per-(mix, defense, NRH) cell units with per-mix baseline
        // dependencies (was: one unit per mix).
        2
    }

    fn fingerprint(&self) -> String {
        sim_fingerprint()
    }

    fn render_text(&self, merged: &Json, _ctx: &JobContext) -> String {
        let cells = merged["cells"].as_array();
        // NRH columns, descending (NRH_SWEEP order); defense rows in
        // first-seen order.
        let mut defenses: Vec<String> = Vec::new();
        for c in cells {
            let d = text(c, "defense");
            if !defenses.contains(&d) {
                defenses.push(d);
            }
        }
        let mut headers: Vec<String> = vec!["defense".to_owned()];
        headers.extend(NRH_SWEEP.iter().map(|n| format!("NRH={n}")));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let rows: Vec<Vec<String>> = defenses
            .iter()
            .map(|d| {
                let mut row = vec![d.clone()];
                for &n in &NRH_SWEEP {
                    let cell = cells.iter().find(|c| {
                        c["defense"].as_str() == Some(d) && c["nrh"].as_u64() == Some(u64::from(n))
                    });
                    row.push(cell.map_or("-".to_owned(), |c| {
                        format!("{:.2}", num(c, "normalized_ws"))
                    }));
                }
                row
            })
            .collect();
        let mut s = report::table(&header_refs, &rows);
        s.push_str(&format!(
            "(normalized weighted speedup; {} mixes; 1.00 = no defense)\n",
            merged["mixes"].as_u64().unwrap_or(0)
        ));
        s
    }
}
