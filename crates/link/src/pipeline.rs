//! The end-to-end link pipeline: calibrate, transmit, receive, decode.
//!
//! One pipeline runs every (defense × modulator × codec) combination:
//! the defense arrives as a plain [`DefenseConfig`] and is built into
//! the simulated system through the `Defense`-trait seam, so nothing
//! here knows which mechanism produces the observable maintenance
//! events — only [`LinkTuning`] does, and it is data.

use lh_analysis::ChannelResult;
use lh_attacks::{
    ChannelLayout, CovertReceiver, CovertSender, LatencyClassifier, NoiseProcess, ReceiverConfig,
    SenderConfig, WindowObservation,
};
use lh_defenses::{DefenseConfig, DefenseKind, DefenseStats};
use lh_dram::{DramTiming, Span, Time};
use lh_mitigate::MitigationConfig;
use lh_sim::{SimConfig, SystemBuilder};

use crate::codec::Codec;
use crate::modem::{Calibration, Modulator};
use crate::sync::{Alignment, PreambleSync};

/// Receiver/sender attack parameters an adaptive attacker picks per
/// defense: which latency band the preventive action lands in, how long
/// a window must be, and whether both sides should stop touching the
/// bank once the action fired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkTuning {
    /// Transmission-window length.
    pub window: Span,
    /// Lower edge of the receiver's detection band.
    pub detect: Span,
    /// Upper edge (exclusive) of the detection band.
    pub detect_max: Span,
    /// Default "on" threshold before calibration refines it.
    pub trecv: u32,
    /// Stop accessing for the rest of the window after an event
    /// (PRAC-family behaviour; counting channels keep probing).
    pub sleep_after_detect: bool,
    /// Attack-loop think time.
    pub think: Span,
}

impl LinkTuning {
    /// The tuning an adaptive attacker uses against `kind`, mirroring
    /// the §12 per-class analysis:
    ///
    /// * PRAC family — the multi-RFM back-off band, stop-on-detect (the
    ///   paper's §6.3 configuration);
    /// * PRFM — the RFM band with the paper's `Trecv` = 3;
    /// * victim-refresh trackers (Graphene/Hydra/CoMeT/PARA) — the
    ///   single-RFM band: an in-bank ACT+PRE pair per victim refresh
    ///   lands above a plain conflict and below a periodic refresh;
    /// * FR-RFM / MINT / no defense — the attacker's best guess is the
    ///   RFM band (there is nothing defense-triggered to see; with no
    ///   defense the band measures the bank-contention channel alone);
    /// * BlockHammer — the throttle *delay*, orders of magnitude above
    ///   any DRAM latency, with a window long enough that a stalled
    ///   probe still completes inside it.
    pub fn for_defense(kind: DefenseKind, timing: &DramTiming, think: Span) -> LinkTuning {
        let cls = LatencyClassifier::from_timing(timing, think);
        match kind {
            DefenseKind::Prac | DefenseKind::PracRiac | DefenseKind::PracBank => LinkTuning {
                window: Span::from_us(25),
                detect: cls.backoff_threshold(),
                detect_max: Span::MAX,
                trecv: 1,
                sleep_after_detect: true,
                think,
            },
            DefenseKind::Prfm => LinkTuning {
                window: Span::from_us(20),
                detect: cls.rfm_threshold(),
                detect_max: cls.rfm_max,
                trecv: 3,
                sleep_after_detect: false,
                think,
            },
            DefenseKind::Graphene | DefenseKind::Hydra | DefenseKind::Comet | DefenseKind::Para => {
                LinkTuning {
                    window: Span::from_us(25),
                    detect: cls.conflict_max,
                    detect_max: cls.rfm_max,
                    trecv: 1,
                    sleep_after_detect: false,
                    think,
                }
            }
            DefenseKind::None | DefenseKind::FrRfm | DefenseKind::Mint => LinkTuning {
                window: Span::from_us(25),
                detect: cls.conflict_max,
                detect_max: cls.rfm_max,
                trecv: 3,
                sleep_after_detect: false,
                think,
            },
            DefenseKind::BlockHammer => LinkTuning {
                window: Span::from_us(250),
                detect: Span::from_us(5),
                detect_max: Span::MAX,
                trecv: 1,
                sleep_after_detect: false,
                think,
            },
        }
    }
}

/// A fully specified link over one defense.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// The defense under attack.
    pub defense: DefenseConfig,
    /// Countermeasure wrappers deployed over the defense (innermost
    /// first; empty for the bare defense). The attacker calibrates and
    /// transmits against the *mitigated* system — an adaptive-adversary
    /// model.
    pub mitigations: Vec<MitigationConfig>,
    /// Per-defense attack parameters.
    pub tuning: LinkTuning,
    /// Synchronizer (preamble + search space).
    pub sync: PreambleSync,
    /// Noise-generator intensity (1–100 %), if any.
    pub noise_intensity: Option<f64>,
    /// Windows the receiver starts observing *before* the sender
    /// transmits — the misalignment the synchronizer must recover.
    pub rx_lead_windows: usize,
    /// Simulation seed.
    pub seed: u64,
}

impl LinkConfig {
    /// A link against `kind` provisioned for RowHammer threshold `nrh`,
    /// with the default Barker-7 synchronizer and a 2-window receiver
    /// lead.
    pub fn against(kind: DefenseKind, nrh: u32, seed: u64) -> LinkConfig {
        let timing = DramTiming::ddr5_4800();
        LinkConfig {
            defense: DefenseConfig::for_threshold(kind, nrh, &timing),
            mitigations: Vec::new(),
            tuning: LinkTuning::for_defense(kind, &timing, Span::from_ns(30)),
            sync: PreambleSync::barker7(4),
            noise_intensity: None,
            rx_lead_windows: 2,
            seed,
        }
    }
}

/// Everything one transmission produced.
#[derive(Debug, Clone)]
pub struct LinkOutcome {
    /// The message bits handed to the codec.
    pub sent: Vec<u8>,
    /// The message bits recovered after sync, demodulation and
    /// decoding (same length as `sent`).
    pub decoded: Vec<u8>,
    /// Channel metrics over the *message* bits, with the raw rate
    /// charged for every transmitted window — preamble and code
    /// redundancy included.
    pub result: ChannelResult,
    /// The alignment the synchronizer recovered.
    pub alignment: Alignment,
    /// Frames the codec delimited / rejected (CRC-framed codecs only).
    pub frames: usize,
    /// Frames whose integrity check failed.
    pub frame_errors: usize,
    /// Total windows transmitted (preamble + modulated payload).
    pub windows: usize,
    /// Back-off recoveries the controller performed.
    pub backoffs: u64,
    /// RFM commands issued.
    pub rfms: u64,
    /// Defense counters.
    pub defense_stats: DefenseStats,
}

/// What the wire produced for one raw symbol schedule.
#[derive(Debug, Clone)]
pub struct WireOutcome {
    /// The receiver's per-window observations (`rx_windows` of them,
    /// starting `rx_lead_windows` before the sender's first window).
    pub observations: Vec<WindowObservation>,
    /// Back-off recoveries the controller performed.
    pub backoffs: u64,
    /// RFM commands issued.
    pub rfms: u64,
    /// Defense counters.
    pub defense_stats: DefenseStats,
    /// Flight-recorder segment of the underlying system, when event
    /// recording was active — lets callers annotate the command stream
    /// (e.g. with symbol windows) under the same segment.
    pub flight_seg: Option<u64>,
}

/// Runs the sender/receiver pair over a raw per-window symbol schedule
/// and returns the receiver's observations plus controller counters.
///
/// This is the wire beneath [`transmit_message`]: symbol-domain
/// callers (e.g. the §6.3 ternary experiment, whose alphabet has no
/// whole number of bits) drive it directly and demodulate window by
/// window with [`crate::modem::MultiLevelAmplitude::symbol_of`].
///
/// # Panics
///
/// Panics if the defense configuration cannot be built into a system,
/// or a symbol has no entry in `intensity`.
pub fn transmit_windows(
    cfg: &LinkConfig,
    intensity: Vec<Option<Span>>,
    symbols: Vec<u8>,
    rx_windows: usize,
) -> WireOutcome {
    let window = cfg.tuning.window;
    let mut sim = SimConfig::paper_default(cfg.defense.clone());
    sim.mitigations = cfg.mitigations.clone();
    let mut sys = SystemBuilder::from_config(sim)
        .seed(cfg.seed)
        .build()
        .expect("valid link system configuration");
    let layout = ChannelLayout::default_bank(sys.mapping());
    let tx_start = Time::ZERO + window * cfg.rx_lead_windows as u64;
    let end = tx_start + window * (symbols.len() as u64 + 2);
    let tx = CovertSender::new(SenderConfig {
        rows: layout.sender_rows,
        window,
        start: tx_start,
        think: cfg.tuning.think,
        detect: cfg.tuning.detect,
        stop_after_detect: cfg.tuning.sleep_after_detect,
        symbols,
        intensity,
    });
    let rx = CovertReceiver::new(ReceiverConfig {
        row_addr: layout.receiver_row,
        window,
        start: Time::ZERO,
        n_windows: rx_windows,
        think: cfg.tuning.think,
        detect: cfg.tuning.detect,
        detect_max: cfg.tuning.detect_max,
        sleep_after_detect: cfg.tuning.sleep_after_detect,
        refresh_filter: None,
        calibrate: Span::ZERO,
    });
    sys.add_process(Box::new(tx), 1, Time::ZERO);
    let rx_id = sys.add_process(Box::new(rx), 1, Time::ZERO);
    if let Some(intensity) = cfg.noise_intensity {
        if intensity > 0.0 {
            let noise = NoiseProcess::from_intensity(layout.noise_rows.to_vec(), intensity, end);
            sys.add_process(Box::new(noise), 1, Time::ZERO);
        }
    }
    sys.run_until(end);
    let observations = sys
        .process_as::<CovertReceiver>(rx_id)
        .expect("receiver present")
        .observations()
        .to_vec();
    let stats = sys.controller().stats();
    let backoffs = stats.backoffs;
    let rfms = stats.rfms;
    let flight_seg = lh_obs::flight::active().then(|| sys.flight_seg());
    WireOutcome {
        observations,
        backoffs,
        rfms,
        defense_stats: sys.controller().defense_stats(),
        flight_seg,
    }
}

/// Calibrates the receiver's decision parameters against the link's
/// defense: an alternating on/idle transmission yields the `trecv`
/// threshold (midpoint of the on/idle event means), and — for
/// multi-level modulators — a level-cycling transmission yields the
/// amplitude bins, exactly as the §6.3 multibit calibration did.
///
/// This is the expensive per-defense step the harness runs once as a
/// baseline unit and feeds to every dependent sweep cell.
pub fn calibrate(cfg: &LinkConfig, modulator: &dyn Modulator, reps: usize) -> Calibration {
    // Threshold part: on/idle alternation with the modulator's hardest
    // symbol.
    let on = modulator.on_symbol();
    let mut symbols = Vec::with_capacity(reps * 2);
    for _ in 0..reps {
        symbols.push(on);
        symbols.push(0);
    }
    let n = symbols.len();
    let mut caldef = cfg.clone();
    caldef.rx_lead_windows = 0;
    caldef.seed = cfg.seed ^ 0xCA11;
    let obs = transmit_windows(
        &caldef,
        modulator.intensity_table(cfg.tuning.think),
        symbols.clone(),
        n,
    )
    .observations;
    let mean = |want_on: bool| {
        let events: Vec<f64> = symbols
            .iter()
            .zip(&obs)
            .filter(|(&s, _)| (s == on) == want_on)
            .map(|(_, o)| f64::from(o.events))
            .collect();
        events.iter().sum::<f64>() / events.len().max(1) as f64
    };
    let (on_events, off_events) = (mean(true), mean(false));
    let trecv = if on_events > off_events {
        (((on_events + off_events) / 2.0).ceil() as u32).max(1)
    } else {
        // Indistinguishable (the defense closes the channel): keep the
        // tuning default so decoding degenerates honestly instead of
        // thresholding at 0 and decoding all-ones.
        cfg.tuning.trecv
    };

    // Amplitude part: cycle the non-idle levels and learn the bin
    // boundaries between adjacent symbols' access counts.
    let levels = modulator.symbol_levels();
    let mut bins = Vec::new();
    if levels > 2 {
        let mut symbols = Vec::new();
        for _ in 0..reps {
            for s in 1..levels {
                symbols.push(s);
            }
        }
        let n = symbols.len();
        let mut calmla = cfg.clone();
        calmla.rx_lead_windows = 0;
        calmla.seed = cfg.seed ^ 0xB145;
        let obs = transmit_windows(
            &calmla,
            modulator.intensity_table(cfg.tuning.think),
            symbols.clone(),
            n,
        )
        .observations;
        let mut means = Vec::new();
        for s in 1..levels {
            let counts: Vec<f64> = symbols
                .iter()
                .zip(&obs)
                .filter(|(&sym, o)| sym == s && o.events > 0)
                .map(|(_, o)| f64::from(o.accesses_before_event))
                .collect();
            means.push(if counts.is_empty() {
                0.0
            } else {
                counts.iter().sum::<f64>() / counts.len() as f64
            });
        }
        for w in means.windows(2) {
            bins.push(((w[0] + w[1]) / 2.0).round() as u32);
        }
        bins.sort_unstable();
    }
    Calibration {
        trecv,
        bins,
        on_events,
        off_events,
    }
}

/// A synchronized symbol-domain transmission: the preamble+payload
/// schedule went over the wire, the preamble was searched for, and the
/// payload observations were extracted under the found alignment.
#[derive(Debug, Clone)]
pub struct PayloadOutcome {
    /// The aligned payload observations, one per payload window.
    pub observations: Vec<WindowObservation>,
    /// The alignment the synchronizer recovered.
    pub alignment: Alignment,
    /// Total windows transmitted (preamble + payload).
    pub windows: usize,
    /// Wall-clock seconds those windows occupied — the denominator
    /// every rate is charged against, preamble overhead included.
    pub seconds: f64,
    /// The raw wire outcome (full observation stream + counters).
    pub wire: WireOutcome,
}

/// Transmits `payload_symbols` behind the synchronizer's preamble
/// (pattern 1 → the modulator's hardest symbol, 0 → idle), recovers
/// the alignment, and extracts the payload observations.
///
/// [`transmit_message`] and symbol-domain callers (the ternary §6.3
/// row) share this path, so the schedule shape, receiver margin and
/// rate accounting cannot drift apart between them.
///
/// # Panics
///
/// Panics if the defense configuration cannot be built into a system.
pub fn transmit_payload(
    cfg: &LinkConfig,
    modulator: &dyn Modulator,
    cal: &Calibration,
    payload_symbols: &[u8],
) -> PayloadOutcome {
    let on = modulator.on_symbol();
    let mut symbols: Vec<u8> = cfg
        .sync
        .pattern
        .iter()
        .map(|&p| if p == 1 { on } else { 0 })
        .collect();
    symbols.extend(payload_symbols);
    let windows = symbols.len();
    let rx_windows = cfg.rx_lead_windows + windows + 1;
    let wire = transmit_windows(
        cfg,
        modulator.intensity_table(cfg.tuning.think),
        symbols,
        rx_windows,
    );
    let alignment = cfg.sync.align(&wire.observations, cal);
    let observations =
        cfg.sync
            .extract_payload(&wire.observations, &alignment, payload_symbols.len());
    // Annotate the flight log with one event per payload symbol window:
    // the sender's schedule (what was meant) against the receiver's
    // aligned observation (what the maintenance channel delivered),
    // classified with the calibrated threshold. Emitted under the wire
    // system's segment so the windows sort alongside its command and
    // maintenance events.
    if let Some(seg) = wire.flight_seg {
        let window = cfg.tuning.window;
        let preamble = cfg.sync.pattern.len();
        let link_events = payload_symbols
            .iter()
            .enumerate()
            .map(|(i, &symbol)| {
                let t0 = window * (cfg.rx_lead_windows + preamble + i) as u64;
                lh_obs::FlightEvent::link_window(
                    t0.as_ps() / 1_000,
                    (t0 + window).as_ps() / 1_000,
                    i as u64,
                    u64::from(symbol),
                    observations.get(i).map_or(0, |o| u64::from(o.events)),
                    u64::from(cal.trecv),
                )
            })
            .collect();
        lh_obs::flight::emit_batch(seg, link_events, std::collections::BTreeMap::new());
    }
    PayloadOutcome {
        observations,
        alignment,
        windows,
        // Charge every window on the wire: preamble and code redundancy
        // are link overhead, so low-rate configurations honestly show
        // lower raw (and thus peak) throughput.
        seconds: (cfg.tuning.window * windows as u64).as_secs(),
        wire,
    }
}

/// Transmits `message` through codec → modulator → simulated system →
/// synchronizer → demodulator → decoder and scores the round trip.
///
/// # Panics
///
/// Panics if the defense configuration cannot be built into a system.
pub fn transmit_message(
    cfg: &LinkConfig,
    modulator: &dyn Modulator,
    codec: &dyn Codec,
    cal: &Calibration,
    message: &[u8],
) -> LinkOutcome {
    let coded = codec.encode(message);
    let payload_symbols = modulator.modulate(&coded);
    let payload = transmit_payload(cfg, modulator, cal, &payload_symbols);

    let mut recovered = modulator.demodulate(&payload.observations, cal);
    recovered.truncate(coded.len());
    recovered.resize(coded.len(), 0);
    let decoded_full = codec.decode(&recovered);
    let mut decoded = decoded_full.bits;
    decoded.truncate(message.len());
    decoded.resize(message.len(), 0);

    let result = ChannelResult::from_bits(message, &decoded, payload.seconds);
    LinkOutcome {
        sent: message.to_vec(),
        decoded,
        result,
        alignment: payload.alignment,
        frames: decoded_full.frames,
        frame_errors: decoded_full.frame_errors,
        windows: payload.windows,
        backoffs: payload.wire.backoffs,
        rfms: payload.wire.rfms,
        defense_stats: payload.wire.defense_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{CrcFramed, Hamming74, Plain, Repetition};
    use crate::modem::{MultiLevelAmplitude, OnOffKeying, PulsePosition};
    use lh_analysis::message::bits_of_str;

    #[test]
    fn ook_plain_link_over_prac_recovers_the_message() {
        let cfg = LinkConfig::against(DefenseKind::Prac, 256, 1);
        let cal = calibrate(&cfg, &OnOffKeying, 6);
        assert!(cal.separable(), "PRAC calibration must separate on/off");
        let msg = bits_of_str("HI");
        let out = transmit_message(&cfg, &OnOffKeying, &Plain, &cal, &msg);
        assert!(out.alignment.locked(), "{:?}", out.alignment);
        assert_eq!(out.alignment.offset, cfg.rx_lead_windows);
        assert_eq!(out.decoded, msg, "OOK over PRAC must be error-free");
        assert_eq!(out.result.bit_errors, 0);
    }

    #[test]
    fn repetition_coding_survives_where_plain_does_not_necessarily() {
        let mut cfg = LinkConfig::against(DefenseKind::Prac, 256, 2);
        cfg.noise_intensity = Some(60.0);
        let cal = calibrate(&cfg, &OnOffKeying, 6);
        let msg = bits_of_str("OK");
        let rep = transmit_message(&cfg, &OnOffKeying, &Repetition::new(3), &cal, &msg);
        let plain = transmit_message(&cfg, &OnOffKeying, &Plain, &cal, &msg);
        assert!(
            rep.result.bit_errors <= plain.result.bit_errors,
            "repetition ({} errors) must not lose to plain ({} errors)",
            rep.result.bit_errors,
            plain.result.bit_errors
        );
        // The redundancy shows up as a lower raw rate.
        assert!(rep.result.raw_bit_rate < plain.result.raw_bit_rate);
    }

    #[test]
    fn ppm_and_hamming_compose_over_prfm() {
        let cfg = LinkConfig::against(DefenseKind::Prfm, 256, 3);
        let cal = calibrate(&cfg, &PulsePosition::new(4), 6);
        let msg = bits_of_str("Y");
        let out = transmit_message(&cfg, &PulsePosition::new(4), &Hamming74, &cal, &msg);
        assert!(out.alignment.locked());
        assert_eq!(out.decoded, msg, "PPM+Hamming over PRFM must round-trip");
    }

    #[test]
    fn mla_link_carries_two_bits_per_window() {
        // NBO 56 (NRH 128): every amplitude level reliably crosses the
        // back-off threshold within one window, so the levels separate.
        // At looser provisioning the weak levels straddle windows and
        // the symbol error rate climbs — that regime is what the
        // chansweep BER curves chart, not what this test pins.
        let cfg = LinkConfig::against(DefenseKind::Prac, 128, 4);
        let m = MultiLevelAmplitude::new(4);
        let cal = calibrate(&cfg, &m, 6);
        assert_eq!(cal.bins.len(), 2, "4 levels need 2 bins: {:?}", cal.bins);
        let msg = bits_of_str("Zq");
        let out = transmit_message(&cfg, &m, &Plain, &cal, &msg);
        let e = out.result.error_probability();
        assert!(e < 0.1, "MLA over tight PRAC must decode, e={e}");
        // Twice OOK's per-window rate at the same window length.
        assert!((m.bits_per_window() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn crc_framing_reports_packet_integrity() {
        let cfg = LinkConfig::against(DefenseKind::Prac, 256, 5);
        let cal = calibrate(&cfg, &OnOffKeying, 6);
        let msg = bits_of_str("AB");
        let out = transmit_message(&cfg, &OnOffKeying, &CrcFramed::new(8), &cal, &msg);
        assert_eq!(out.frames, 2);
        if out.result.bit_errors == 0 {
            assert_eq!(out.frame_errors, 0);
        } else {
            assert!(out.frame_errors > 0, "bit errors must fail a CRC");
        }
    }

    #[test]
    fn fr_rfm_closes_every_modulation() {
        let cfg = LinkConfig::against(DefenseKind::FrRfm, 256, 6);
        let cal = calibrate(&cfg, &OnOffKeying, 6);
        assert!(!cal.separable(), "FR-RFM must not separate on/off: {cal:?}");
        let msg = bits_of_str("SECRET")[..16].to_vec();
        let out = transmit_message(&cfg, &OnOffKeying, &Plain, &cal, &msg);
        // Half the bits wrong is zero information; allow a wide band
        // around it but require the capacity collapse.
        assert!(
            out.result.capacity() < 0.15 * out.result.raw_bit_rate,
            "FR-RFM capacity must collapse: e={} cap={}",
            out.result.error_probability(),
            out.result.capacity()
        );
    }

    #[test]
    fn tuning_covers_every_defense_kind() {
        let timing = DramTiming::ddr5_4800();
        for kind in DefenseKind::all() {
            let t = LinkTuning::for_defense(kind, &timing, Span::from_ns(30));
            assert!(t.window >= Span::from_us(20));
            assert!(t.detect < t.detect_max);
            assert!(t.trecv >= 1);
        }
    }
}
