//! Defense configurations and RowHammer-threshold scaling.

use lh_dram::{CounterInit, PracConfig, Span};

use crate::trackers::{BlockHammerConfig, CometConfig, GrapheneConfig, HydraConfig, MintConfig};

/// The RowHammer defenses studied by the paper.
///
/// The first seven are the paper's evaluated set (§6–§11); the last five
/// instantiate the §12 trigger-algorithm taxonomy so that the taxonomy's
/// qualitative predictions can be tested quantitatively (see
/// [`crate::trackers`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefenseKind {
    /// No RowHammer mitigation (the Fig. 13 normalization baseline).
    None,
    /// Per Row Activation Counting with alert back-off (§6).
    Prac,
    /// Periodic RFM: controller-side per-bank activation counters (§7).
    Prfm,
    /// Fixed-Rate RFM countermeasure: RFM on a fixed time period (§11.1).
    FrRfm,
    /// PRAC with Randomly Initialized Activation Counters (§11.2).
    PracRiac,
    /// Bank-Level PRAC: per-bank back-off scope (§11.3).
    PracBank,
    /// PARA: probabilistic adjacent-row activation (Kim et al., ISCA'14);
    /// included for the §12 qualitative analysis.
    Para,
    /// Graphene-style Misra-Gries frequent-item tracker (§12,
    /// approximate/observable).
    Graphene,
    /// Hydra-style hybrid group/row tracker (§12, approximate/observable).
    Hydra,
    /// CoMeT-style count-min-sketch tracker (§12, approximate/observable).
    Comet,
    /// MINT-style in-REF preventive refresh (§12, overlapped latency —
    /// nothing for a LeakyHammer receiver to observe).
    Mint,
    /// BlockHammer-style rate throttling (§12, approximate trigger whose
    /// preventive action is a *delay* rather than a refresh).
    BlockHammer,
}

impl DefenseKind {
    /// Every registered defense, including the no-defense control — the
    /// axis the link-layer channel sweep runs over.
    pub fn all() -> [DefenseKind; 12] {
        [
            DefenseKind::None,
            DefenseKind::Prac,
            DefenseKind::Prfm,
            DefenseKind::FrRfm,
            DefenseKind::PracRiac,
            DefenseKind::PracBank,
            DefenseKind::Para,
            DefenseKind::Graphene,
            DefenseKind::Hydra,
            DefenseKind::Comet,
            DefenseKind::Mint,
            DefenseKind::BlockHammer,
        ]
    }

    /// Position of `self` in [`DefenseKind::all`]. The exhaustive match
    /// ties the list to the enum: a new variant fails `cargo test`
    /// compilation here until it is given a slot, and the
    /// `all_is_exhaustive` test then forces the slot to agree with the
    /// array.
    #[cfg(test)]
    fn ordinal(self) -> usize {
        match self {
            DefenseKind::None => 0,
            DefenseKind::Prac => 1,
            DefenseKind::Prfm => 2,
            DefenseKind::FrRfm => 3,
            DefenseKind::PracRiac => 4,
            DefenseKind::PracBank => 5,
            DefenseKind::Para => 6,
            DefenseKind::Graphene => 7,
            DefenseKind::Hydra => 8,
            DefenseKind::Comet => 9,
            DefenseKind::Mint => 10,
            DefenseKind::BlockHammer => 11,
        }
    }

    /// All defenses evaluated in Fig. 13 (excludes `None` and `Para`).
    pub fn figure13_set() -> [DefenseKind; 5] {
        [
            DefenseKind::Prac,
            DefenseKind::Prfm,
            DefenseKind::PracRiac,
            DefenseKind::FrRfm,
            DefenseKind::PracBank,
        ]
    }

    /// All defenses exercised by the §12 taxonomy experiment: one exact
    /// tracker, the three approximate trackers, the random trigger, the
    /// time-based trigger and the overlapped-latency design.
    pub fn taxonomy_set() -> [DefenseKind; 8] {
        [
            DefenseKind::Prac,
            DefenseKind::Graphene,
            DefenseKind::Hydra,
            DefenseKind::Comet,
            DefenseKind::BlockHammer,
            DefenseKind::Para,
            DefenseKind::FrRfm,
            DefenseKind::Mint,
        ]
    }

    /// Display name used in reports (matches the paper's labels).
    pub fn label(&self) -> &'static str {
        match self {
            DefenseKind::None => "None",
            DefenseKind::Prac => "PRAC",
            DefenseKind::Prfm => "PRFM",
            DefenseKind::FrRfm => "FR-RFM",
            DefenseKind::PracRiac => "PRAC-RIAC",
            DefenseKind::PracBank => "PRAC-Bank",
            DefenseKind::Para => "PARA",
            DefenseKind::Graphene => "Graphene",
            DefenseKind::Hydra => "Hydra",
            DefenseKind::Comet => "CoMeT",
            DefenseKind::Mint => "MINT",
            DefenseKind::BlockHammer => "BlockHammer",
        }
    }
}

impl core::fmt::Display for DefenseKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Periodic-RFM (PRFM) parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrfmConfig {
    /// Bank activation threshold `TRFM`: an RFM is issued once a bank
    /// accumulates this many activations. The paper's case study uses 40.
    pub trfm: u32,
}

impl PrfmConfig {
    /// The paper's covert-channel configuration (`TRFM` = 40).
    pub fn paper_default() -> PrfmConfig {
        PrfmConfig { trfm: 40 }
    }
}

/// Fixed-Rate RFM (FR-RFM) parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrRfmConfig {
    /// Fixed period between RFM commands per rank:
    /// `T_FRRFM = TRFM × tRC`, the shortest time in which `TRFM`
    /// activations can target one bank (§11.1).
    pub period: Span,
}

impl FrRfmConfig {
    /// Derives the period from a `TRFM` threshold and `tRC`.
    ///
    /// The period is floored at `tRFM + 300 ns`: a fixed-rate RFM stream
    /// denser than the RFM latency itself is unschedulable. At very low
    /// `N_RH` this floor is what drives FR-RFM's extreme performance
    /// overheads (§11.4: 18.2× at `N_RH` = 64) — the schedule consumes
    /// nearly all DRAM time.
    pub fn from_trfm(trfm: u32, t_rc: Span) -> FrRfmConfig {
        let t_rfm = lh_dram::DramTiming::ddr5_4800().t_rfm;
        let period = (t_rc * trfm.max(1) as u64).max(t_rfm + Span::from_ns(300));
        FrRfmConfig { period }
    }
}

/// PARA parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParaConfig {
    /// Probability of refreshing a neighbor on each activation.
    pub probability: f64,
}

/// A fully parameterized defense configuration.
///
/// # Examples
///
/// ```
/// use lh_defenses::{DefenseConfig, DefenseKind};
/// use lh_dram::DramTiming;
///
/// let t = DramTiming::ddr5_4800();
/// let cfg = DefenseConfig::for_threshold(DefenseKind::FrRfm, 1024, &t);
/// assert_eq!(cfg.nrh, 1024);
/// assert!(cfg.fr_rfm.is_some());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DefenseConfig {
    /// Which defense this is.
    pub kind: DefenseKind,
    /// The RowHammer threshold the configuration is provisioned for.
    pub nrh: u32,
    /// Device-side PRAC configuration (PRAC / RIAC / PRAC-Bank).
    pub prac: Option<PracConfig>,
    /// Controller-side PRFM configuration.
    pub prfm: Option<PrfmConfig>,
    /// Controller-side FR-RFM configuration.
    pub fr_rfm: Option<FrRfmConfig>,
    /// PARA configuration.
    pub para: Option<ParaConfig>,
    /// Graphene tracker configuration (§12 taxonomy).
    pub graphene: Option<GrapheneConfig>,
    /// Hydra tracker configuration (§12 taxonomy).
    pub hydra: Option<HydraConfig>,
    /// CoMeT sketch configuration (§12 taxonomy).
    pub comet: Option<CometConfig>,
    /// MINT in-REF mitigation configuration (§12 taxonomy).
    pub mint: Option<MintConfig>,
    /// BlockHammer throttling configuration (§12 taxonomy).
    pub blockhammer: Option<BlockHammerConfig>,
}

impl DefenseConfig {
    /// A configuration with every mechanism disabled.
    fn base(kind: DefenseKind, nrh: u32) -> DefenseConfig {
        DefenseConfig {
            kind,
            nrh,
            prac: None,
            prfm: None,
            fr_rfm: None,
            para: None,
            graphene: None,
            hydra: None,
            comet: None,
            mint: None,
            blockhammer: None,
        }
    }

    /// No mitigation.
    pub fn none() -> DefenseConfig {
        DefenseConfig::base(DefenseKind::None, u32::MAX)
    }

    /// PRAC with an explicit back-off threshold (the paper's case studies
    /// use `nbo` = 128).
    pub fn prac(nbo: u32) -> DefenseConfig {
        DefenseConfig {
            prac: Some(PracConfig {
                nbo,
                ..PracConfig::paper_default()
            }),
            ..DefenseConfig::base(DefenseKind::Prac, nbo * 2)
        }
    }

    /// PRFM with an explicit bank activation threshold.
    pub fn prfm(trfm: u32) -> DefenseConfig {
        DefenseConfig {
            prfm: Some(PrfmConfig { trfm }),
            ..DefenseConfig::base(DefenseKind::Prfm, trfm * 16)
        }
    }

    /// FR-RFM derived from a `TRFM` threshold.
    pub fn fr_rfm(trfm: u32, t_rc: Span) -> DefenseConfig {
        DefenseConfig {
            fr_rfm: Some(FrRfmConfig::from_trfm(trfm, t_rc)),
            ..DefenseConfig::base(DefenseKind::FrRfm, trfm * 16)
        }
    }

    /// PRAC-RIAC with an explicit back-off threshold.
    pub fn riac(nbo: u32) -> DefenseConfig {
        DefenseConfig {
            prac: Some(PracConfig::riac(nbo)),
            ..DefenseConfig::base(DefenseKind::PracRiac, nbo * 2)
        }
    }

    /// Bank-Level PRAC with an explicit back-off threshold.
    pub fn prac_bank(nbo: u32) -> DefenseConfig {
        DefenseConfig {
            prac: Some(PracConfig::bank_level(nbo)),
            ..DefenseConfig::base(DefenseKind::PracBank, nbo * 2)
        }
    }

    /// PARA with refresh probability `p`.
    pub fn para(probability: f64) -> DefenseConfig {
        DefenseConfig {
            para: Some(ParaConfig { probability }),
            ..DefenseConfig::base(DefenseKind::Para, u32::MAX)
        }
    }

    /// Graphene-style tracker provisioned for `nrh` (§12 taxonomy).
    pub fn graphene(nrh: u32, timing: &lh_dram::DramTiming) -> DefenseConfig {
        DefenseConfig {
            graphene: Some(GrapheneConfig::for_threshold(
                nrh,
                timing.t_rc,
                timing.t_refw,
            )),
            ..DefenseConfig::base(DefenseKind::Graphene, nrh)
        }
    }

    /// Hydra-style tracker provisioned for `nrh` (§12 taxonomy).
    pub fn hydra(nrh: u32, timing: &lh_dram::DramTiming) -> DefenseConfig {
        DefenseConfig {
            hydra: Some(HydraConfig::for_threshold(nrh, timing.t_refw)),
            ..DefenseConfig::base(DefenseKind::Hydra, nrh)
        }
    }

    /// CoMeT-style sketch provisioned for `nrh` (§12 taxonomy).
    pub fn comet(nrh: u32, timing: &lh_dram::DramTiming, seed: u64) -> DefenseConfig {
        DefenseConfig {
            comet: Some(CometConfig::for_threshold(
                nrh,
                timing.t_rc,
                timing.t_refw,
                seed,
            )),
            ..DefenseConfig::base(DefenseKind::Comet, nrh)
        }
    }

    /// MINT-style in-REF mitigation (§12 taxonomy). Secure only for high
    /// `nrh` (its preventive capacity is one aggressor per `tREFI`); kept
    /// at face value here because the taxonomy experiment studies its
    /// *timing channel*, not its protection envelope.
    pub fn mint(seed: u64) -> DefenseConfig {
        DefenseConfig {
            mint: Some(MintConfig { seed }),
            ..DefenseConfig::base(DefenseKind::Mint, 4096)
        }
    }

    /// BlockHammer-style throttling provisioned for `nrh` (§12 taxonomy).
    pub fn blockhammer(nrh: u32, timing: &lh_dram::DramTiming, seed: u64) -> DefenseConfig {
        DefenseConfig {
            blockhammer: Some(BlockHammerConfig::for_threshold(
                nrh,
                timing.t_rc,
                timing.t_refw,
                seed,
            )),
            ..DefenseConfig::base(DefenseKind::BlockHammer, nrh)
        }
    }

    /// Provisions `kind` for RowHammer threshold `nrh`, using the scaling
    /// rules documented in DESIGN.md:
    ///
    /// * PRAC-family: `NBO = min(128, max(1, nrh / 2))` — 128 matches the
    ///   paper's fixed assumption for `nrh ≥ 256`, and halving leaves
    ///   slack for in-flight activations below that.
    /// * PRFM / FR-RFM: `TRFM = max(2, nrh / 16)`, which lands on the
    ///   standard's 32–80 range at `nrh` = 1024 and shrinks proportionally.
    /// * PARA: `p = min(1, 8 / nrh)`.
    pub fn for_threshold(
        kind: DefenseKind,
        nrh: u32,
        timing: &lh_dram::DramTiming,
    ) -> DefenseConfig {
        let nbo = scaled_nbo(nrh);
        let trfm = scaled_trfm(nrh);
        let mut cfg = match kind {
            DefenseKind::None => DefenseConfig::none(),
            DefenseKind::Prac => DefenseConfig::prac(nbo),
            DefenseKind::Prfm => DefenseConfig::prfm(trfm),
            DefenseKind::FrRfm => DefenseConfig::fr_rfm(trfm, timing.t_rc),
            DefenseKind::PracRiac => DefenseConfig::riac(nbo),
            DefenseKind::PracBank => DefenseConfig::prac_bank(nbo),
            DefenseKind::Para => DefenseConfig::para((8.0 / nrh as f64).min(1.0)),
            DefenseKind::Graphene => DefenseConfig::graphene(nrh, timing),
            DefenseKind::Hydra => DefenseConfig::hydra(nrh, timing),
            DefenseKind::Comet => DefenseConfig::comet(nrh, timing, 0xc0fe),
            DefenseKind::Mint => DefenseConfig::mint(0x317),
            DefenseKind::BlockHammer => DefenseConfig::blockhammer(nrh, timing, 0xb10c),
        };
        cfg.nrh = nrh;
        cfg
    }

    /// The device-side PRAC configuration to build the DRAM device with.
    pub fn device_prac(&self) -> Option<PracConfig> {
        self.prac
    }

    /// Whether this defense keeps per-row counters randomly initialized
    /// (the RIAC countermeasure).
    pub fn is_randomized(&self) -> bool {
        matches!(
            self.prac.map(|p| p.counter_init),
            Some(CounterInit::Uniform { .. })
        )
    }
}

impl Default for DefenseConfig {
    fn default() -> DefenseConfig {
        DefenseConfig::prac(128)
    }
}

/// `NBO` scaling rule for PRAC-family defenses.
///
/// Halving `nrh` covers double-sided hammering (a victim absorbs the
/// activations of both neighbors); the additional margin of 8 covers
/// activations that slip in during the `tABO_ACT` normal-traffic window
/// before the recovery refreshes the victims.
pub fn scaled_nbo(nrh: u32) -> u32 {
    (nrh / 2).saturating_sub(8).clamp(1, 128)
}

/// `TRFM` scaling rule for RFM-family defenses.
pub fn scaled_trfm(nrh: u32) -> u32 {
    (nrh / 16).max(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lh_dram::{AlertScope, DramTiming};

    #[test]
    fn scaling_rules_match_documentation() {
        assert_eq!(scaled_nbo(1024), 128);
        assert_eq!(scaled_nbo(256), 120);
        assert_eq!(scaled_nbo(128), 56);
        assert_eq!(scaled_nbo(64), 24);
        assert_eq!(scaled_trfm(1024), 64);
        assert_eq!(scaled_trfm(64), 4);
        assert_eq!(scaled_trfm(16), 2);
    }

    #[test]
    fn fr_rfm_period_is_trfm_times_trc() {
        let t = DramTiming::ddr5_4800();
        let cfg = DefenseConfig::for_threshold(DefenseKind::FrRfm, 1024, &t);
        let period = cfg.fr_rfm.unwrap().period;
        assert_eq!(period, t.t_rc * 64);
    }

    #[test]
    fn prac_bank_scopes_to_bank() {
        let t = DramTiming::ddr5_4800();
        let cfg = DefenseConfig::for_threshold(DefenseKind::PracBank, 512, &t);
        assert_eq!(cfg.prac.unwrap().scope, AlertScope::Bank);
    }

    #[test]
    fn riac_randomizes_counters() {
        let t = DramTiming::ddr5_4800();
        let cfg = DefenseConfig::for_threshold(DefenseKind::PracRiac, 256, &t);
        assert!(cfg.is_randomized());
        let plain = DefenseConfig::for_threshold(DefenseKind::Prac, 256, &t);
        assert!(!plain.is_randomized());
    }

    #[test]
    fn para_probability_scales_inversely() {
        let t = DramTiming::ddr5_4800();
        let cfg = DefenseConfig::for_threshold(DefenseKind::Para, 64, &t);
        let p = cfg.para.unwrap().probability;
        assert!((p - 0.125).abs() < 1e-12);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(DefenseKind::FrRfm.to_string(), "FR-RFM");
        assert_eq!(DefenseKind::PracRiac.to_string(), "PRAC-RIAC");
        assert_eq!(DefenseKind::figure13_set().len(), 5);
    }

    #[test]
    fn all_is_exhaustive() {
        // `ordinal`'s match is exhaustive over the enum, so a new
        // variant cannot compile without a slot; this pins every slot
        // to the matching array position, so the slot cannot point at
        // an existing entry (or past the end) either.
        let all = DefenseKind::all();
        for (i, kind) in all.iter().enumerate() {
            assert_eq!(kind.ordinal(), i, "{kind} sits at the wrong slot");
        }
        // Together: |variants| ≤ |ordinals| = |array| and no duplicates.
        assert_eq!(all.len(), 12);
    }
}
