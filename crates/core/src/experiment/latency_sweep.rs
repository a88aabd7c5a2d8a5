//! Preventive-action latency sweep (Fig. 12, §10.2).
//!
//! Sweeps the back-off latency (modeled as a single RFM of configurable
//! `tRFM`) from near zero to 250 ns and measures the channel: the paper
//! finds the timing channel survives down to ~10 ns — far below the
//! 96–192 ns a refresh-based preventive action physically needs.

use lh_analysis::MessagePattern;
use lh_dram::Span;

use crate::experiment::covert::{run_pattern_set, ChannelKind, CovertOptions};

/// One sweep point of Fig. 12.
#[derive(Debug, Clone, Copy)]
pub struct LatencyPoint {
    /// The preventive-action (back-off) latency in ns.
    pub action_latency_ns: u64,
    /// Error probability.
    pub error_probability: f64,
    /// Capacity in Kbps.
    pub capacity_kbps: f64,
}

/// Minimum refresh-based preventive action latencies the paper marks
/// (blast radius 1 and 2): 96 ns and 192 ns.
pub const MIN_REFRESH_ACTION_NS: [u64; 2] = [96, 192];

/// One Fig. 12 sweep point; the harness shards the grid across cores.
pub fn latency_sweep_point(lat: u64, bits_per_pattern: usize, seed: u64) -> LatencyPoint {
    let merged = run_pattern_set(&MessagePattern::paper_set(), bits_per_pattern, |i, bits| {
        let mut opts = CovertOptions::new(ChannelKind::Prac, bits);
        opts.seed = seed ^ ((i as u64) << 9) ^ lat;
        // Single-RFM back-off with tRFM = the swept action latency.
        opts.sim.device.timing.t_rfm = Span::from_ns(lat.max(1));
        if let Some(prac) = opts.sim.defense.prac.as_mut() {
            prac.rfms_per_backoff = 1;
        }
        // Detection: anything above the contended-conflict ceiling
        // (the receiver may wait behind one sender request) and below
        // the doubled periodic-refresh latency counts as the
        // preventive action. The ceiling is wider than the paper's
        // ~10 ns resolution because our synthetic loop has queueing
        // variance; the shape (channel survives down to tens of ns)
        // is preserved.
        let t = &opts.sim.device.timing;
        let conflict_contended =
            opts.think + (t.read_latency() + t.t_rp + t.t_rcd) * 2 + Span::from_ns(40);
        let refresh_floor = opts.think + t.t_rfc * 2 - Span::from_ns(20);
        opts.detection_band = Some((conflict_contended, refresh_floor));
        opts
    });
    LatencyPoint {
        action_latency_ns: lat,
        error_probability: merged.error_probability(),
        capacity_kbps: merged.capacity_kbps(),
    }
}

/// The default sweep grid of Fig. 12 (0–250 ns).
pub fn paper_grid() -> Vec<u64> {
    vec![5, 10, 25, 50, 75, 100, 150, 200, 250]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_actions_keep_the_channel_and_tiny_ones_kill_it() {
        let tiny = latency_sweep_point(5, 10, 4);
        let long = latency_sweep_point(150, 10, 4);
        assert!(
            long.capacity_kbps > 15.0,
            "150 ns action must sustain the channel, got {} Kbps",
            long.capacity_kbps
        );
        assert!(
            tiny.capacity_kbps < long.capacity_kbps / 2.0,
            "5 ns action must collapse capacity: tiny {} vs long {}",
            tiny.capacity_kbps,
            long.capacity_kbps
        );
    }

    #[test]
    fn even_minimum_refresh_latency_leaks() {
        // Fig. 12's headline: the minimum refresh-based action (96 ns,
        // blast radius 1) still yields an exploitable channel.
        let point = latency_sweep_point(MIN_REFRESH_ACTION_NS[0], 10, 5);
        assert!(
            point.error_probability < 0.2,
            "96 ns action must be detectable, e={}",
            point.error_probability
        );
    }

    #[test]
    fn grid_covers_the_paper_range() {
        let g = paper_grid();
        assert!(*g.first().unwrap() <= 10);
        assert_eq!(*g.last().unwrap(), 250);
    }
}
