//! The simulator-stack probes, all driven from one fixed fig13 mix cell
//! (default-scale span, mix 0 of the default mix list, PRAC at NRH 256):
//! `sim` and `memctrl` per service wake on the legacy and batched
//! controller paths and in an 8-cell lane batch, `workloads` per
//! process step and per decoded access, `dram` by replaying the cell's
//! recorded commands into a fresh device, `defenses` and `mitigate` by
//! replaying its activations, and `link` on one chansweep-shaped cell.

use std::any::Any;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use lh_defenses::{build_defense, DefenseConfig, DefenseKind};
use lh_dram::{
    BankId, Command, DeviceConfig, DramDevice, DramTiming, Geometry, RfmScope, Span, Time,
};
use lh_link::{LinkConfig, Modulator, OnOffKeying};
use lh_memctrl::AddressMapping;
use lh_mitigate::{build_mitigated_defense, MitigationConfig, MitigationKind};
use lh_obs::FlightEvent;
use lh_sim::{LaneBatch, Process, ProcessStep, SimConfig, System, SystemBuilder};
use lh_workloads::{four_core_mixes, SharedTrace, TraceReplay};

use crate::trace::Span as TraceSpan;
use crate::{median, Metrics};

const SIM_SEED: u64 = 1;
/// fig13's default-scale per-core span and mix count.
const SPAN_US: u64 = 400;
const MIXES: usize = 8;
const NRH: u32 = 256;
/// Timed repetitions of each probe; the median is reported.
const REPS: usize = 3;

fn timing() -> DramTiming {
    DramTiming::ddr5_4800()
}

fn end() -> Time {
    Time::ZERO + Span::from_us(SPAN_US)
}

fn horizon() -> Time {
    end() + Span::from_us(5)
}

/// The cell's mix, decoded once: later replays read the shared buffer,
/// so decode cost stays out of the simulator timings.
fn decode_trace() -> Arc<SharedTrace> {
    let profiles = four_core_mixes(MIXES, 1)[0].to_vec();
    let sim = SimConfig::paper_default(DefenseConfig::none());
    let mapping = AddressMapping::new(sim.mapping, sim.device.geometry);
    let seeds: Vec<u64> = (0..profiles.len())
        .map(|i| SIM_SEED ^ (i as u64 * 31))
        .collect();
    SharedTrace::decode_uncounted(profiles, mapping, &seeds)
}

fn builder(defense: DefenseKind, nrh: u32) -> SystemBuilder {
    SystemBuilder::new(DefenseConfig::for_threshold(defense, nrh, &timing()))
        .seed(SIM_SEED)
        .disturb_tracking(false)
}

/// Time spent inside `Process::step`, shared by every shim of one system.
#[derive(Debug, Default)]
struct StepClock {
    ns: Cell<u128>,
    calls: Cell<u64>,
}

/// Forwards to the wrapped process and adds the time each `step` takes
/// to a shared clock.
struct TimedProcess {
    inner: TraceReplay,
    clock: Rc<StepClock>,
}

impl Process for TimedProcess {
    fn step(&mut self, now: Time) -> ProcessStep {
        let t = Instant::now();
        let step = self.inner.step(now);
        let c = &self.clock;
        c.ns.set(c.ns.get() + t.elapsed().as_nanos());
        c.calls.set(c.calls.get() + 1);
        step
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    fn as_any(&self) -> &dyn Any {
        &self.inner
    }
}

/// One run of the cell: run_until seconds, service wakes, DRAM commands,
/// and (when shimmed) the step clock.
struct CellRun {
    secs: f64,
    wakes: u64,
    cmds: u64,
    clock: Option<Rc<StepClock>>,
    sys: System,
}

fn run_cell(trace: &Arc<SharedTrace>, batched: bool, shim: bool) -> CellRun {
    let mut sys = builder(DefenseKind::Prac, NRH)
        .batched_service(batched)
        .build()
        .expect("valid cell configuration");
    let clock = shim.then(|| Rc::new(StepClock::default()));
    for core in 0..trace.cores() {
        let replay = TraceReplay::new(Arc::clone(trace), core, end());
        let mlp = replay.mlp();
        let proc: Box<dyn Process> = match &clock {
            Some(clock) => Box::new(TimedProcess {
                inner: replay,
                clock: Rc::clone(clock),
            }),
            None => Box::new(replay),
        };
        sys.add_process(proc, mlp, Time::ZERO);
    }
    let t = Instant::now();
    sys.run_until(horizon());
    let secs = t.elapsed().as_secs_f64();
    let s = sys.controller().stats();
    let cmds = s.activates + s.precharges + s.reads_served + s.writes_served + s.refreshes + s.rfms;
    CellRun {
        secs,
        wakes: s.service_calls,
        cmds,
        clock,
        sys,
    }
}

fn check_repeat(name: &str, values: &[u64]) -> Result<u64, String> {
    match values.windows(2).find(|w| w[0] != w[1]) {
        Some(w) => Err(format!(
            "{name} drifted between repetitions: {} vs {}",
            w[0], w[1]
        )),
        None => Ok(values[0]),
    }
}

/// The legacy and batched controller paths, plain and shimmed.
fn sim_probe(trace: &Arc<SharedTrace>, root: u64, out: &mut Metrics) -> Result<(), String> {
    // Warm-up: decodes the trace prefix the cell consumes.
    let warm = run_cell(trace, false, false);
    for (path, batched) in [("legacy", false), ("batched", true)] {
        let span = TraceSpan::enter("run_until", "sim", "fig13", path, root);
        let plain: Vec<CellRun> = (0..REPS).map(|_| run_cell(trace, batched, false)).collect();
        drop(span);
        let span = TraceSpan::enter("run_until.shimmed", "memctrl", "fig13", path, root);
        let shimmed: Vec<CellRun> = (0..REPS).map(|_| run_cell(trace, batched, true)).collect();
        drop(span);
        let wakes = check_repeat(
            &format!("sim.wakes.{path}"),
            &plain
                .iter()
                .chain(&shimmed)
                .map(|r| r.wakes)
                .collect::<Vec<_>>(),
        )?;
        let cmds = check_repeat(
            &format!("sim.cmds.{path}"),
            &plain
                .iter()
                .chain(&shimmed)
                .map(|r| r.cmds)
                .collect::<Vec<_>>(),
        )?;
        if cmds != warm.cmds {
            return Err(format!(
                "{path} path issued {cmds} commands, legacy {}",
                warm.cmds
            ));
        }
        let per_wake: Vec<f64> = plain.iter().map(|r| r.secs * 1e9 / wakes as f64).collect();
        out.set(&format!("sim.ns_per_wake.{path}"), median(&per_wake));
        let self_ns: Vec<f64> = shimmed
            .iter()
            .map(|r| {
                let steps = r.clock.as_ref().expect("shimmed").ns.get() as f64 / 1e9;
                (r.secs - steps) * 1e9 / wakes as f64
            })
            .collect();
        out.set(
            &format!("memctrl.self_ns_per_wake.{path}"),
            median(&self_ns),
        );
        if !batched {
            out.count("sim.wakes", wakes);
            out.count("sim.cmds", cmds);
            let step_ns: Vec<f64> = shimmed
                .iter()
                .map(|r| {
                    let c = r.clock.as_ref().expect("shimmed");
                    c.ns.get() as f64 / c.calls.get() as f64
                })
                .collect();
            out.set("workloads.step_ns", median(&step_ns));
            out.count(
                "workloads.steps",
                shimmed[0].clock.as_ref().expect("shimmed").calls.get(),
            );
        }
    }
    drop(warm.sys);
    Ok(())
}

/// Decode of the cell's mix: a fresh trace drained for as many accesses
/// per core as the cell consumes.
fn decode_probe(root: u64, accesses: u64, out: &mut Metrics) {
    let per_core = accesses / 4;
    let mut samples = Vec::new();
    for _ in 0..REPS {
        let span = TraceSpan::enter("decode", "workloads", "fig13", "mix0", root);
        let t = Instant::now();
        let trace = decode_trace();
        for core in 0..trace.cores() {
            let mut replay = TraceReplay::new(Arc::clone(&trace), core, Time::MAX);
            for _ in 0..per_core {
                std::hint::black_box(replay.step(Time::ZERO));
            }
        }
        samples.push(t.elapsed().as_secs_f64() * 1e9 / (per_core * 4) as f64);
        drop(span);
    }
    out.set("workloads.decode_ns_per_access", median(&samples));
}

/// The eight cells of `crates/bench/benches/lane_batch.rs`, at default
/// scale, as one lane batch.
fn lanes_probe(trace: &Arc<SharedTrace>, root: u64, out: &mut Metrics) -> Result<(), String> {
    let cells = [
        (DefenseKind::Prac, 1024),
        (DefenseKind::Prac, 256),
        (DefenseKind::Prfm, 512),
        (DefenseKind::Prfm, 128),
        (DefenseKind::PracRiac, 256),
        (DefenseKind::FrRfm, 512),
        (DefenseKind::FrRfm, 128),
        (DefenseKind::PracBank, 1024),
    ];
    let mut samples = Vec::new();
    let mut wake_counts = Vec::new();
    for _ in 0..REPS {
        let mut batch = LaneBatch::new();
        for (d, n) in cells {
            let lane = batch
                .push_lane(builder(d, n), horizon())
                .map_err(|e| format!("lane build failed: {e}"))?;
            for core in 0..trace.cores() {
                let replay = TraceReplay::new(Arc::clone(trace), core, end());
                let mlp = replay.mlp();
                batch
                    .lane_mut(lane)
                    .add_process(Box::new(replay), mlp, Time::ZERO);
            }
        }
        let span = TraceSpan::enter("lane_batch.run", "sim", "fig13", "8 cells", root);
        let t = Instant::now();
        batch.run();
        let secs = t.elapsed().as_secs_f64();
        drop(span);
        let wakes: u64 = (0..batch.len())
            .map(|i| batch.lane(i).controller().stats().service_calls)
            .sum();
        samples.push(secs * 1e9 / wakes as f64);
        wake_counts.push(wakes);
    }
    out.count(
        "sim.wakes.lanes",
        check_repeat("sim.wakes.lanes", &wake_counts)?,
    );
    out.set("sim.ns_per_wake.lanes", median(&samples));
    Ok(())
}

/// Runs the cell on the legacy path with the flight recorder on and
/// returns its DRAM command events and the device configuration.
fn capture_commands(trace: &Arc<SharedTrace>) -> (Vec<FlightEvent>, DeviceConfig) {
    let cap = lh_obs::flight::cap();
    lh_obs::flight::set_cap(usize::MAX / 2);
    lh_obs::flight::set_enabled(true);
    let (config, log) = lh_obs::flight::capture(|| {
        let (config, _) = lh_obs::record(|| {
            let mut run = run_cell(trace, false, false);
            run.sys.flush_obs();
            run.sys.controller().device().config().clone()
        });
        config
    });
    lh_obs::flight::set_enabled(false);
    lh_obs::flight::set_cap(cap);
    let cmds = log
        .entries()
        .filter(|(_, e)| e.kind() == "cmd")
        .map(|(_, e)| e.clone())
        .collect();
    (cmds, config)
}

fn to_command(event: &FlightEvent) -> Result<Command, String> {
    let FlightEvent::Cmd {
        cmd,
        rank,
        bank_group,
        bank,
        row,
        ..
    } = *event
    else {
        return Err(format!("not a command event: {event:?}"));
    };
    let id = BankId {
        channel: 0,
        rank,
        bank_group,
        bank,
    };
    Ok(match cmd {
        "act" => Command::Activate {
            bank: id,
            row: u32::try_from(row.ok_or("ACT without a row")?).map_err(|e| e.to_string())?,
        },
        "pre" => Command::Precharge { bank: id },
        "prea" => Command::PrechargeAll { channel: 0, rank },
        "rd" => Command::Read { bank: id, col: 0 },
        "wr" => Command::Write { bank: id, col: 0 },
        "ref" => Command::Refresh { channel: 0, rank },
        // PRAC back-off recovery issues all-bank RFMs only.
        "rfm" => Command::Rfm {
            channel: 0,
            rank,
            scope: RfmScope::AllBank,
        },
        other => return Err(format!("unknown command mnemonic {other}")),
    })
}

/// Replays the recorded commands into a fresh device. Flight events
/// carry whole nanoseconds (truncated), so a command is issued at the
/// later of its recorded nanosecond and `earliest_legal`, and the replay
/// fails when `earliest_legal` lies beyond the recorded nanosecond's
/// end: the simulator would then have issued an illegal command.
fn replay_dram(cmds: &[(Command, Time)], config: &DeviceConfig) -> Result<f64, String> {
    let mut dev = DramDevice::new(config.clone()).map_err(|e| format!("device: {e}"))?;
    let t = Instant::now();
    for (cmd, at) in cmds {
        let legal = dev.earliest_legal(cmd, *at);
        if legal >= *at + Span::from_ns(1) {
            return Err(format!(
                "recorded {cmd:?} at {} ns, but it is legal only from {} ps",
                at.as_ps() / 1_000,
                legal.as_ps()
            ));
        }
        dev.issue(cmd, legal)
            .map_err(|e| format!("replayed {cmd:?} at {} ps failed: {e}", legal.as_ps()))?;
    }
    Ok(t.elapsed().as_secs_f64())
}

/// Replays the cell's ACTs into a defense: `on_activate` then
/// `take_maintenance` for each.
fn replay_acts(defense: &mut dyn lh_defenses::Defense, acts: &[(BankId, u32, Time)]) -> f64 {
    let t = Instant::now();
    for &(bank, row, at) in acts {
        std::hint::black_box(defense.on_activate(bank, row, at));
        std::hint::black_box(defense.take_maintenance(bank.rank, at));
    }
    t.elapsed().as_secs_f64()
}

fn dram_defense_probe(
    trace: &Arc<SharedTrace>,
    root: u64,
    out: &mut Metrics,
) -> Result<(), String> {
    let span = TraceSpan::enter("capture", "dram", "fig13", "cmd events", root);
    let (events, config) = capture_commands(trace);
    drop(span);
    let cmds: Vec<(Command, Time)> = events
        .iter()
        .map(|e| Ok((to_command(e)?, Time::from_ns(e.t_ns()))))
        .collect::<Result<_, String>>()?;
    let span = TraceSpan::enter("replay", "dram", "fig13", "earliest_legal+issue", root);
    let mut per_cmd = Vec::new();
    for _ in 0..REPS {
        per_cmd.push(replay_dram(&cmds, &config)? * 1e9 / cmds.len() as f64);
    }
    drop(span);
    out.count("dram.cmds", cmds.len() as u64);
    out.set("dram.ns_per_cmd", median(&per_cmd));

    let acts: Vec<(BankId, u32, Time)> = cmds
        .iter()
        .filter_map(|(cmd, at)| match *cmd {
            Command::Activate { bank, row } => Some((bank, row, *at)),
            _ => None,
        })
        .collect();
    out.count("defenses.acts", acts.len() as u64);
    let geometry: Geometry = config.geometry;
    let t = timing();
    for (name, kind) in [
        ("prac", DefenseKind::Prac),
        ("prfm", DefenseKind::Prfm),
        ("frrfm", DefenseKind::FrRfm),
    ] {
        let span = TraceSpan::enter("replay", "defenses", "fig13", name, root);
        let samples: Vec<f64> = (0..REPS)
            .map(|_| {
                let cfg = DefenseConfig::for_threshold(kind, NRH, &t);
                let mut d = build_defense(&cfg, &geometry, SIM_SEED);
                replay_acts(d.as_mut(), &acts) * 1e9 / acts.len() as f64
            })
            .collect();
        drop(span);
        out.set(&format!("defenses.ns_per_act.{name}"), median(&samples));
    }
    // One mitsweep cell: PRFM provisioned at NRH 128 under maintenance jitter.
    let span = TraceSpan::enter("replay", "mitigate", "mitsweep", "PRFM+jitter", root);
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut d = build_mitigated_defense(
                &DefenseConfig::for_threshold(DefenseKind::Prfm, 128, &t),
                &[MitigationConfig::for_threshold(
                    MitigationKind::MaintenanceJitter,
                    128,
                    &t,
                )],
                &geometry,
                SIM_SEED,
                SIM_SEED,
            );
            replay_acts(d.as_mut(), &acts) * 1e9 / acts.len() as f64
        })
        .collect();
    drop(span);
    out.set("mitigate.ns_per_act", median(&samples));
    Ok(())
}

/// One chansweep-shaped cell: on-off keying of a Barker preamble and 64
/// payload bits against PRAC at NRH 128.
fn link_probe(root: u64, out: &mut Metrics) -> Result<(), String> {
    let cfg = LinkConfig::against(DefenseKind::Prac, 128, SIM_SEED);
    let modem = OnOffKeying;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let payload: Vec<u8> = (0..64)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 63) as u8
        })
        .collect();
    let mut symbols: Vec<u8> = cfg
        .sync
        .pattern
        .iter()
        .map(|&p| if p == 1 { modem.on_symbol() } else { 0 })
        .collect();
    symbols.extend(modem.modulate(&payload));
    let rx_windows = cfg.rx_lead_windows + symbols.len() + 1;
    let mut samples = Vec::new();
    let mut wakes = Vec::new();
    for _ in 0..REPS {
        let span = TraceSpan::enter(
            "transmit_windows",
            "link",
            "chansweep",
            "PRAC/128/ook",
            root,
        );
        let t = Instant::now();
        let (wire, metrics) = lh_obs::record(|| {
            lh_link::transmit_windows(
                &cfg,
                modem.intensity_table(cfg.tuning.think),
                symbols.clone(),
                rx_windows,
            )
        });
        let secs = t.elapsed().as_secs_f64();
        drop(span);
        std::hint::black_box(wire);
        let w = metrics.get("sim.service_wakes");
        samples.push(secs * 1e9 / w as f64);
        wakes.push(w);
    }
    out.count("link.wakes", check_repeat("link.wakes", &wakes)?);
    out.set("link.ns_per_wake", median(&samples));
    Ok(())
}

/// Runs every simulator-stack probe.
pub fn probe(root: u64, out: &mut Metrics) -> Result<(), String> {
    let trace = decode_trace();
    sim_probe(&trace, root, out)?;
    let steps = out.get_count("workloads.steps");
    decode_probe(root, steps, out);
    lanes_probe(&trace, root, out)?;
    dram_defense_probe(&trace, root, out)?;
    link_probe(root, out)
}
