//! The covert-channel experiment runner (case studies 1 and 2).
//!
//! [`run_covert`] wires a sender/receiver pair — plus optional noise
//! generator and SPEC-like co-runners — into a full system and measures
//! the channel: decoded bits, error probability and capacity (Eq. 1).

use lh_analysis::{ChannelResult, MessagePattern};
use lh_attacks::{
    ChannelLayout, CovertReceiver, CovertSender, LatencyClassifier, NoiseProcess, ReceiverConfig,
    SenderConfig,
};
use lh_defenses::{DefenseConfig, DefenseStats};
use lh_dram::{Span, Time};
use lh_memctrl::AddressMapping;
use lh_sim::{SimConfig, SystemBuilder};
use lh_workloads::{AppProfile, SyntheticApp};

/// Which LeakyHammer covert channel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelKind {
    /// PRAC back-off channel (§6.3): 25 µs windows, `NBO` = 128.
    Prac,
    /// PRFM RFM channel (§7.3): 20 µs windows, `TRFM` = 40, `Trecv` = 3.
    Rfm,
}

impl ChannelKind {
    /// The paper's window length for this channel.
    pub fn window(&self) -> Span {
        match self {
            ChannelKind::Prac => Span::from_us(25),
            ChannelKind::Rfm => Span::from_us(20),
        }
    }

    /// The paper's defense configuration for this channel.
    pub fn defense(&self) -> DefenseConfig {
        match self {
            ChannelKind::Prac => DefenseConfig::prac(128),
            ChannelKind::Rfm => DefenseConfig::prfm(40),
        }
    }

    /// The receiver's `Trecv` threshold.
    pub fn trecv(&self) -> u32 {
        match self {
            ChannelKind::Prac => 1,
            ChannelKind::Rfm => 3,
        }
    }

    /// Whether sender/receiver stop accessing after detecting the event.
    pub fn sleep_after_detect(&self) -> bool {
        matches!(self, ChannelKind::Prac)
    }

    /// The detection band `(lo, hi)` for this channel.
    pub fn detection_band(&self, cls: &LatencyClassifier) -> (Span, Span) {
        match self {
            ChannelKind::Prac => (cls.backoff_threshold(), Span::MAX),
            ChannelKind::Rfm => (cls.rfm_threshold(), cls.rfm_max),
        }
    }
}

/// Options for one covert transmission.
#[derive(Debug, Clone)]
pub struct CovertOptions {
    /// Which channel.
    pub kind: ChannelKind,
    /// The bits to transmit.
    pub bits: Vec<u8>,
    /// Full system configuration (override for countermeasure and
    /// sensitivity studies).
    pub sim: SimConfig,
    /// Transmission window (defaults to the channel's paper value).
    pub window: Span,
    /// Noise-generator intensity (1–100 %), if any (§6.3 noise study).
    pub noise_intensity: Option<f64>,
    /// SPEC-like co-runners on extra cores (Figs. 5 / 8).
    pub co_runners: Vec<AppProfile>,
    /// Receiver detection band override.
    pub detection_band: Option<(Span, Span)>,
    /// `Trecv` override.
    pub trecv: Option<u32>,
    /// Loop overhead of the attack processes.
    pub think: Span,
    /// Receiver loop-overhead override. Under a strictly closed row
    /// policy the receiver throttles itself (every probe is an activation
    /// that increments its own row's counter; an unthrottled receiver
    /// triggers spurious back-offs in 0-windows).
    pub receiver_think: Option<Span>,
    /// §10.1 cadence-based refresh filter for the receiver.
    pub refresh_filter: Option<lh_attacks::RefreshFilterConfig>,
    /// Seed of the SPEC-like co-runners' address streams: [`run_covert`]
    /// seeds co-runner `i` with `seed ^ (i + 7)` and uses it for nothing
    /// else. The system, and with it any defense randomness (PARA, MINT,
    /// RIAC), is seeded by `sim.seed` alone.
    pub seed: u64,
}

impl CovertOptions {
    /// Paper-default options for `kind` transmitting `bits`.
    pub fn new(kind: ChannelKind, bits: Vec<u8>) -> CovertOptions {
        CovertOptions {
            kind,
            bits,
            sim: SimConfig::paper_default(kind.defense()),
            window: kind.window(),
            noise_intensity: None,
            co_runners: Vec::new(),
            detection_band: None,
            trecv: None,
            think: Span::from_ns(30),
            receiver_think: None,
            refresh_filter: None,
            seed: 1,
        }
    }
}

/// Result of one covert transmission.
#[derive(Debug, Clone)]
pub struct CovertOutcome {
    /// Channel metrics (raw rate, error probability, capacity).
    pub result: ChannelResult,
    /// The decoded bit string.
    pub decoded: Vec<u8>,
    /// Events the receiver observed per window.
    pub per_window_events: Vec<u32>,
    /// Back-off recoveries the controller performed.
    pub backoffs: u64,
    /// RFM commands issued.
    pub rfms: u64,
    /// Defense counters, including the scheduling-pressure split of
    /// scheduled maintenance (taken exactly at the deadline vs deferred
    /// past it because the rank could not quiesce in time).
    pub defense_stats: DefenseStats,
}

/// Runs one covert transmission.
///
/// # Panics
///
/// Panics if the system cannot be constructed (invalid configuration).
pub fn run_covert(opts: &CovertOptions) -> CovertOutcome {
    let mut sys = SystemBuilder::from_config(opts.sim.clone())
        .build()
        .expect("valid system configuration");
    let cls = LatencyClassifier::from_timing(&opts.sim.device.timing, opts.think);
    let (detect, detect_max) = opts
        .detection_band
        .unwrap_or_else(|| opts.kind.detection_band(&cls));
    let trecv = opts.trecv.unwrap_or_else(|| opts.kind.trecv());
    let layout = ChannelLayout::default_bank(sys.mapping());
    let start = Time::ZERO;
    let end = start + opts.window * (opts.bits.len() as u64 + 1);

    let tx = CovertSender::new(SenderConfig::binary(
        layout.sender_rows,
        opts.window,
        start,
        opts.think,
        cls.backoff_threshold(),
        opts.kind.sleep_after_detect(),
        opts.bits.clone(),
    ));
    let rx = CovertReceiver::new(ReceiverConfig {
        row_addr: layout.receiver_row,
        window: opts.window,
        start,
        n_windows: opts.bits.len(),
        think: opts.receiver_think.unwrap_or(opts.think),
        detect,
        detect_max,
        sleep_after_detect: opts.kind.sleep_after_detect(),
        refresh_filter: opts.refresh_filter,
        calibrate: if opts.refresh_filter.is_some() {
            // Lock the refresh grid before the first bit (sec. 10.1).
            Span::from_us(20)
        } else {
            Span::ZERO
        },
    });
    sys.add_process(Box::new(tx), 1, start);
    let rx_id = sys.add_process(Box::new(rx), 1, start);

    if let Some(intensity) = opts.noise_intensity {
        let noise = NoiseProcess::from_intensity(layout.noise_rows.to_vec(), intensity, end);
        sys.add_process(Box::new(noise), 1, start);
    }
    let mapping: AddressMapping = *sys.mapping();
    for (i, profile) in opts.co_runners.iter().enumerate() {
        let app = SyntheticApp::new(profile.clone(), mapping, opts.seed ^ (i as u64 + 7), end);
        let mlp = app.mlp();
        sys.add_process(Box::new(app), mlp, start);
    }

    sys.run_until(end);

    // Reserve the flight segment before borrowing the receiver: the
    // symbol-window events below must land on this system's timeline.
    let flight_seg = lh_obs::flight::active().then(|| sys.flight_seg());
    let rx_proc = sys
        .process_as::<CovertReceiver>(rx_id)
        .expect("receiver present");
    let decoded = rx_proc.decode_binary(trecv);
    if let Some(seg) = flight_seg {
        let link_events = opts
            .bits
            .iter()
            .zip(rx_proc.observations())
            .enumerate()
            .map(|(i, (&bit, o))| {
                let t0 = start + opts.window * i as u64;
                lh_obs::FlightEvent::link_window(
                    t0.as_ps() / 1_000,
                    (t0 + opts.window).as_ps() / 1_000,
                    i as u64,
                    u64::from(bit),
                    u64::from(o.events),
                    u64::from(trecv),
                )
            })
            .collect();
        lh_obs::flight::emit_batch(seg, link_events, std::collections::BTreeMap::new());
    }
    let per_window_events = rx_proc.observations().iter().map(|o| o.events).collect();
    let seconds = (opts.window * opts.bits.len() as u64).as_secs();
    let result = ChannelResult::from_bits(&opts.bits, &decoded, seconds);
    CovertOutcome {
        result,
        decoded,
        per_window_events,
        backoffs: sys.controller().stats().backoffs,
        rfms: sys.controller().stats().rfms,
        defense_stats: sys.controller().defense_stats(),
    }
}

/// Runs one transmission per message pattern, in order, and merges the
/// channel results. `options(i, bits)` builds pattern `i`'s options for
/// its `bits_per_pattern` message bits; the caller's per-pattern seed
/// formula lives there, so each figure keeps its own seeds.
pub fn run_pattern_set(
    patterns: &[MessagePattern],
    bits_per_pattern: usize,
    options: impl Fn(usize, Vec<u8>) -> CovertOptions,
) -> ChannelResult {
    let results: Vec<ChannelResult> = patterns
        .iter()
        .enumerate()
        .map(|(i, pattern)| run_covert(&options(i, pattern.bits(bits_per_pattern))).result)
        .collect();
    ChannelResult::merge(results.iter())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lh_analysis::message::bits_of_str;

    #[test]
    fn prac_channel_fig3_micro() {
        let opts = CovertOptions::new(ChannelKind::Prac, bits_of_str("MICRO"));
        let out = run_covert(&opts);
        assert_eq!(out.decoded, opts.bits, "Fig. 3 transmission must be exact");
        assert_eq!(out.result.bit_errors, 0);
        // Raw bit rate: 1 bit / 25 µs = 40 Kbps (paper reports 39.0 after
        // sync overheads).
        assert!((out.result.raw_kbps() - 40.0).abs() < 1.0);
        assert!(
            out.backoffs >= 15,
            "one back-off per 1-bit, got {}",
            out.backoffs
        );
    }

    #[test]
    fn rfm_channel_fig6_micro() {
        let opts = CovertOptions::new(ChannelKind::Rfm, bits_of_str("MICRO"));
        let out = run_covert(&opts);
        assert_eq!(out.decoded, opts.bits, "Fig. 6 transmission must be exact");
        // 1 bit / 20 µs = 50 Kbps raw (paper: 48.7).
        assert!((out.result.raw_kbps() - 50.0).abs() < 1.5);
        assert!(out.rfms > 30);
    }

    #[test]
    fn noise_degrades_the_prac_channel_monotonically_at_extremes() {
        // Aggregate the four paper message patterns (the Fig. 4
        // methodology): a single short pattern under-samples the
        // noise-induced spurious back-offs, whose inter-arrival time spans
        // several transmission windows.
        let run_at = |intensity: f64| {
            run_pattern_set(&MessagePattern::paper_set(), 16, |i, bits| {
                let mut opts = CovertOptions::new(ChannelKind::Prac, bits);
                opts.noise_intensity = Some(intensity);
                opts.seed = 2 ^ ((i as u64) << 12) ^ (intensity as u64);
                opts
            })
            .error_probability()
        };
        let e_quiet = run_at(1.0);
        let e_loud = run_at(100.0);
        assert!(
            e_loud > e_quiet,
            "max noise must hurt more: quiet e={e_quiet}, loud e={e_loud}"
        );
        assert!(
            e_quiet < 0.15,
            "1% noise keeps the channel usable, e={e_quiet}"
        );
    }

    #[test]
    fn pattern_merge_aggregates_bits() {
        let out = run_pattern_set(&MessagePattern::paper_set(), 12, |i, bits| {
            let mut opts = CovertOptions::new(ChannelKind::Prac, bits);
            opts.seed = 3 ^ ((i as u64) << 8);
            opts
        });
        assert_eq!(out.bits, 48);
        assert!(out.error_probability() < 0.2);
    }
}
