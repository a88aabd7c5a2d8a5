//! Countermeasure evaluation (§11.4): how much channel capacity each
//! countermeasure removes relative to plain PRAC.
//!
//! The paper reports FR-RFM eliminating the channel (100 % reduction)
//! and RIAC reducing it by ≈86 % on average. Since the `lh-mitigate`
//! wrappers landed, the study runs *arms* rather than bare defenses:
//! each arm deploys a defense plus a (possibly empty) countermeasure
//! wrapper stack, flowing through the same
//! [`SimConfig::mitigations`](lh_sim::SimConfig) plumbing the
//! `mitsweep` Pareto matrix uses — the figure path and the sweep share
//! one mitigation implementation.

use lh_analysis::MessagePattern;
use lh_defenses::DefenseConfig;
use lh_dram::DramTiming;
use lh_mitigate::{MitigationConfig, MitigationKind};

use crate::experiment::covert::{run_pattern_set, ChannelKind, CovertOptions};

/// One arm of the §11.4 study: a deployed defense plus the
/// countermeasure wrappers stacked over it (empty = the bare defense).
#[derive(Debug, Clone)]
pub struct MitigationArm {
    /// Report label (`"PRAC"`, `"PRAC+shaper"`, …).
    pub label: String,
    /// The underlying defense engine.
    pub defense: DefenseConfig,
    /// Wrapper stack deployed over it, innermost first.
    pub mitigations: Vec<MitigationConfig>,
}

impl MitigationArm {
    /// A bare-defense arm, labeled with the defense's paper name.
    pub fn bare(defense: DefenseConfig) -> MitigationArm {
        MitigationArm {
            label: defense.kind.label().to_owned(),
            defense,
            mitigations: Vec::new(),
        }
    }

    /// A wrapped arm: `defense` with a single wrapper provisioned for
    /// its `N_RH`, labeled `"{defense}+{wrapper}"`.
    pub fn wrapped(defense: DefenseConfig, kind: MitigationKind, nrh: u32) -> MitigationArm {
        let t = DramTiming::ddr5_4800();
        let cfg = MitigationConfig::for_threshold(kind, nrh, &t);
        MitigationArm {
            label: format!("{}+{}", defense.kind.label(), cfg.label()),
            defense,
            mitigations: vec![cfg],
        }
    }
}

/// Error probability and capacity of the PRAC-style attack against one
/// arm. The `mitigation` registry job runs one arm per unit and derives
/// the baseline-relative reductions from the per-arm capacities.
pub fn attack_capacity(arm: &MitigationArm, bits_per_pattern: usize, seed: u64) -> (f64, f64) {
    let merged = run_pattern_set(&MessagePattern::paper_set(), bits_per_pattern, |i, bits| {
        let mut opts = CovertOptions::new(ChannelKind::Prac, bits);
        opts.sim.defense = arm.defense.clone();
        opts.sim.mitigations = arm.mitigations.clone();
        opts.seed = seed ^ ((i as u64) << 3);
        opts
    });
    (merged.error_probability(), merged.capacity_kbps())
}

/// The §11.4 arms, in report order: the paper's three defense
/// configurations (PRAC baseline, FR-RFM, PRAC-RIAC) bare, then the
/// strongest wrapper arms over the PRAC baseline — the constant-rate
/// shaper and the isolation quota, the two mitigations the `mitsweep`
/// Pareto frontier keeps.
pub fn mitigation_arms() -> Vec<MitigationArm> {
    let t = DramTiming::ddr5_4800();
    vec![
        MitigationArm::bare(DefenseConfig::prac(128)),
        MitigationArm::bare(DefenseConfig::fr_rfm(64, t.t_rc)),
        MitigationArm::bare(DefenseConfig::riac(128)),
        MitigationArm::wrapped(
            DefenseConfig::prac(128),
            MitigationKind::ConstantRateShaper,
            128,
        ),
        MitigationArm::wrapped(
            DefenseConfig::prac(128),
            MitigationKind::IsolationQuota,
            128,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arms_share_the_sweep_mitigation_plumbing() {
        let arms = mitigation_arms();
        assert_eq!(arms[0].label, "PRAC");
        assert!(arms[0].mitigations.is_empty(), "the baseline is bare");
        let labels: Vec<&str> = arms.iter().map(|a| a.label.as_str()).collect();
        assert!(labels.contains(&"PRAC+shaper"));
        assert!(labels.contains(&"PRAC+quota"));
        for arm in &arms[3..] {
            assert_eq!(
                arm.mitigations.len(),
                1,
                "{} is a single wrapper",
                arm.label
            );
        }
    }
}
