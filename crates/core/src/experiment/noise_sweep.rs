//! Noise-intensity sweeps: Figs. 4, 7 and 11.

use lh_analysis::{ChannelResult, MessagePattern};
use lh_attacks::LatencyClassifier;
use lh_dram::Span;

use crate::experiment::covert::{run_pattern_set, ChannelKind, CovertOptions};

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct NoisePoint {
    /// Noise intensity in percent (Eq. 2).
    pub intensity: f64,
    /// Error probability at this intensity.
    pub error_probability: f64,
    /// Channel capacity in Kbps.
    pub capacity_kbps: f64,
}

impl NoisePoint {
    fn from_merged(intensity: f64, merged: &ChannelResult) -> NoisePoint {
        NoisePoint {
            intensity,
            error_probability: merged.error_probability(),
            capacity_kbps: merged.capacity_kbps(),
        }
    }
}

/// One point of the §10.1 *modified attack* for 1-RFM back-offs, whose
/// latency overlaps the periodic-refresh band: the receiver (1) doubles
/// the transmission window to capture multiple candidate events and (2)
/// — when `filtered` — removes periodic refreshes by their `tREFI`
/// cadence instead of their magnitude. With `filtered` off, the same low
/// detection threshold counts refreshes as events, which is what
/// collapses the naive 1-RFM channel.
///
/// The paper reports the filtered attack recovers 21.53 Kbps at the
/// lowest noise intensity.
pub fn overlap_1rfm_point(
    filtered: bool,
    intensity: f64,
    bits_per_pattern: usize,
    seed: u64,
) -> NoisePoint {
    let kind = ChannelKind::Prac;
    let merged = run_pattern_set(&MessagePattern::paper_set(), bits_per_pattern, |i, bits| {
        let mut opts = CovertOptions::new(kind, bits);
        opts.noise_intensity = Some(intensity);
        opts.seed = seed ^ ((i as u64) << 12) ^ (intensity as u64);
        opts.sim.ctrl.refresh_postpone = false;
        if let Some(prac) = opts.sim.defense.prac.as_mut() {
            prac.rfms_per_backoff = 1;
        }
        // Double window; detect anything above a conflict. Without
        // the cadence filter, periodic refreshes are miscounted as
        // events — the overlap problem the filter solves.
        opts.window = kind.window() * 2;
        let cls = LatencyClassifier::from_timing(&opts.sim.device.timing, opts.think);
        opts.detection_band = Some((cls.conflict_max + Span::from_ns(120), Span::MAX));
        opts.refresh_filter =
            filtered.then(|| lh_attacks::RefreshFilterConfig::from_timing(&opts.sim.device.timing));
        opts
    });
    NoisePoint::from_merged(intensity, &merged)
}

/// One noise-sweep point: the four paper message patterns at one
/// intensity, merged. Figs. 4 and 7 run `rfms_per_backoff` = 4 with
/// refresh postponing on; each Fig. 11 panel runs 2 or 1 RFMs with it
/// off (as §10.1 assumes). The per-pattern seeds depend only on the
/// arguments, so the harness can shard a sweep across cores.
pub fn sweep_point(
    kind: ChannelKind,
    rfms_per_backoff: u32,
    postpone_refresh: bool,
    intensity: f64,
    bits_per_pattern: usize,
    seed: u64,
) -> NoisePoint {
    let merged = run_pattern_set(&MessagePattern::paper_set(), bits_per_pattern, |i, bits| {
        let mut opts = CovertOptions::new(kind, bits);
        opts.noise_intensity = Some(intensity);
        opts.seed = seed ^ ((i as u64) << 12) ^ (intensity as u64);
        opts.sim.ctrl.refresh_postpone = postpone_refresh;
        if let Some(prac) = opts.sim.defense.prac.as_mut() {
            prac.rfms_per_backoff = rfms_per_backoff;
        }
        if rfms_per_backoff < 4 || !postpone_refresh {
            opts.detection_band = Some(short_backoff_band(postpone_refresh, opts.think, &opts.sim));
        }
        opts
    });
    NoisePoint::from_merged(intensity, &merged)
}

/// Detection band for shortened back-offs (§10.1): the threshold sits just
/// above the highest non-back-off event, which without refresh postponing
/// is a single REF (and with 1 RFM per back-off the two overlap — the
/// §10.1 observation that degrades the channel).
fn short_backoff_band(postpone: bool, think: Span, sim: &lh_sim::SimConfig) -> (Span, Span) {
    let t = &sim.device.timing;
    let cls = LatencyClassifier::from_timing(t, think);
    let refresh_span = if postpone { t.t_rfc * 2 } else { t.t_rfc };
    let floor = cls.conflict_max + refresh_span + Span::from_ns(120);
    (floor, Span::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    /// The quick-scale sweep of one configuration, point by point, as
    /// the fig4/fig7/fig11 registry jobs run it.
    fn quick_sweep(rfms_per_backoff: u32, postpone_refresh: bool, seed: u64) -> Vec<NoisePoint> {
        let scale = Scale::Quick;
        scale
            .noise_points()
            .into_iter()
            .map(|intensity| {
                sweep_point(
                    ChannelKind::Prac,
                    rfms_per_backoff,
                    postpone_refresh,
                    intensity,
                    scale.message_bits() / 4,
                    seed,
                )
            })
            .collect()
    }

    #[test]
    fn prac_sweep_has_low_error_at_low_noise_and_high_at_max() {
        let points = quick_sweep(4, true, 2);
        assert_eq!(points.len(), 3);
        let lo = &points[0];
        let hi = points.last().unwrap();
        assert!(
            lo.error_probability < 0.12,
            "e at 1% noise: {}",
            lo.error_probability
        );
        assert!(
            hi.error_probability > lo.error_probability,
            "error must grow with noise: {} -> {}",
            lo.error_probability,
            hi.error_probability
        );
        assert!(lo.capacity_kbps > 20.0);
    }

    #[test]
    fn fewer_rfms_per_backoff_hurt_reliability() {
        let four = quick_sweep(4, true, 5)[0].capacity_kbps;
        let one = quick_sweep(1, false, 5)[0].capacity_kbps;
        // §10.1: the 1-RFM back-off overlaps the refresh latency, so the
        // channel degrades relative to 4-RFM back-offs.
        assert!(
            one < four,
            "1-RFM capacity {one} must trail 4-RFM capacity {four}"
        );
    }

    #[test]
    fn refresh_filter_recovers_the_1rfm_channel() {
        // §10.1: with the detection threshold forced below the refresh
        // band (magnitude cannot split 1-RFM back-offs from refreshes),
        // the naive receiver miscounts refreshes and the channel
        // collapses; the cadence filter recovers usable capacity.
        let scale = Scale::Quick;
        let intensity = scale.noise_points()[0];
        let bits = scale.message_bits() / 8;
        let n0 = overlap_1rfm_point(false, intensity, bits, 9);
        let f0 = overlap_1rfm_point(true, intensity, bits, 9);
        assert!(
            f0.capacity_kbps > 2.0 * n0.capacity_kbps,
            "filtered {:.1} Kbps must far exceed naive {:.1} Kbps at low noise",
            f0.capacity_kbps,
            n0.capacity_kbps
        );
        assert!(
            f0.capacity_kbps > 5.0,
            "filtered capacity {:.1}",
            f0.capacity_kbps
        );
    }
}
