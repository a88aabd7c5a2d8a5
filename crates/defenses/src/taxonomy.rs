//! Qualitative taxonomy of RowHammer defenses (§12 of the paper).
//!
//! A RowHammer-defense-based timing channel exists when an attacker can
//! both (i) *observe* a preventive action's latency and (ii) *trigger* one
//! intentionally. This module encodes the paper's classification of
//! preventive-action visibility and trigger algorithms, and derives the
//! resulting channel risk — the programmatic form of the paper's §12
//! discussion and the basis of the Table 3 capability matrix.

use crate::config::DefenseKind;

/// How a defense's trigger algorithm decides to act (§12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TriggerClass {
    /// Perfect per-resource tracking (PRAC, PRFM counters): an attacker
    /// can trigger preventive actions deterministically.
    Exact,
    /// Fewer trackers than resources (Graphene, Hydra, ...): shared
    /// trackers add noise but the channel remains.
    Approximate,
    /// Stateless random triggering (PARA): the attacker cannot reliably
    /// trigger or observe actions.
    Random,
    /// Actions happen on a fixed wall-clock schedule (FR-RFM): the trigger
    /// carries no information about traffic.
    TimeBased,
}

/// Whether a preventive action's latency is observable (§12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionVisibility {
    /// The action blocks DRAM and is visible as extra latency
    /// (preventive refresh, row migration, throttling).
    Observable,
    /// The action hides behind periodic refresh ("borrowed time" designs
    /// such as MINT/PrIDE); nothing extra to observe.
    Overlapped,
}

/// Resulting timing-channel exposure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ChannelRisk {
    /// No defense-induced timing channel.
    None,
    /// A noisy channel exists (reduced capacity).
    Degraded,
    /// A reliable, deterministic channel exists.
    Full,
}

/// The (visibility, trigger) profile of a defense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DefenseProfile {
    /// Trigger algorithm class.
    pub trigger: TriggerClass,
    /// Preventive-action visibility.
    pub visibility: ActionVisibility,
}

impl DefenseProfile {
    /// The timing-channel risk implied by this profile, per §12: a channel
    /// requires an observable action *and* a trigger the attacker can
    /// steer; randomness degrades rather than fully removes it only when
    /// paired with exact observability of individual actions.
    pub fn channel_risk(&self) -> ChannelRisk {
        match (self.visibility, self.trigger) {
            (ActionVisibility::Overlapped, _) => ChannelRisk::None,
            (_, TriggerClass::TimeBased) => ChannelRisk::None,
            (_, TriggerClass::Exact) => ChannelRisk::Full,
            (_, TriggerClass::Approximate) => ChannelRisk::Degraded,
            (_, TriggerClass::Random) => ChannelRisk::Degraded,
        }
    }
}

/// The profile of each defense modeled in this repository.
pub fn profile_of(kind: DefenseKind) -> Option<DefenseProfile> {
    match kind {
        DefenseKind::None => None,
        DefenseKind::Prac | DefenseKind::Prfm | DefenseKind::PracBank => Some(DefenseProfile {
            trigger: TriggerClass::Exact,
            visibility: ActionVisibility::Observable,
        }),
        // RIAC keeps exact counters but randomizes their phase, which the
        // paper classifies as capacity reduction, not elimination.
        DefenseKind::PracRiac => Some(DefenseProfile {
            trigger: TriggerClass::Random,
            visibility: ActionVisibility::Observable,
        }),
        DefenseKind::FrRfm => Some(DefenseProfile {
            trigger: TriggerClass::TimeBased,
            visibility: ActionVisibility::Observable,
        }),
        DefenseKind::Para => Some(DefenseProfile {
            trigger: TriggerClass::Random,
            visibility: ActionVisibility::Observable,
        }),
        // §12's approximate trigger algorithms: shared trackers add noise
        // (other processes advance or steal the attacker's tracker state)
        // but a channel remains. BlockHammer's preventive action is a
        // *delay*, still observable latency.
        DefenseKind::Graphene
        | DefenseKind::Hydra
        | DefenseKind::Comet
        | DefenseKind::BlockHammer => Some(DefenseProfile {
            trigger: TriggerClass::Approximate,
            visibility: ActionVisibility::Observable,
        }),
        // MINT refreshes inside the periodic REF window: random trigger
        // *and* overlapped latency — nothing to observe.
        DefenseKind::Mint => Some(DefenseProfile {
            trigger: TriggerClass::Random,
            visibility: ActionVisibility::Overlapped,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_observable_defenses_have_full_channels() {
        for kind in [DefenseKind::Prac, DefenseKind::Prfm, DefenseKind::PracBank] {
            let p = profile_of(kind).unwrap();
            assert_eq!(p.channel_risk(), ChannelRisk::Full, "{kind}");
        }
    }

    #[test]
    fn fr_rfm_eliminates_the_channel() {
        let p = profile_of(DefenseKind::FrRfm).unwrap();
        assert_eq!(p.channel_risk(), ChannelRisk::None);
    }

    #[test]
    fn riac_and_para_only_degrade() {
        for kind in [DefenseKind::PracRiac, DefenseKind::Para] {
            let p = profile_of(kind).unwrap();
            assert_eq!(p.channel_risk(), ChannelRisk::Degraded, "{kind}");
        }
    }

    #[test]
    fn overlapped_actions_have_no_channel_regardless_of_trigger() {
        for trigger in [
            TriggerClass::Exact,
            TriggerClass::Approximate,
            TriggerClass::Random,
            TriggerClass::TimeBased,
        ] {
            let p = DefenseProfile {
                trigger,
                visibility: ActionVisibility::Overlapped,
            };
            assert_eq!(p.channel_risk(), ChannelRisk::None);
        }
    }

    #[test]
    fn risk_ordering_is_none_lt_degraded_lt_full() {
        assert!(ChannelRisk::None < ChannelRisk::Degraded);
        assert!(ChannelRisk::Degraded < ChannelRisk::Full);
    }

    #[test]
    fn no_defense_no_profile() {
        assert!(profile_of(DefenseKind::None).is_none());
    }
}
