//! Experiment building blocks: single transmissions, sweep points and
//! per-defense measurements. The [`crate::registry()`] jobs run one of
//! these per unit and merge the results into each table/figure.
//!
//! | Module | Point functions for |
//! |---|---|
//! | [`latency_trace`] | Fig. 2 and the §6.2 / §7.2 latency observations |
//! | [`covert`] | Figs. 3 and 6 (the 40-bit "MICRO" transmissions) |
//! | [`noise_sweep`] | Figs. 4, 7 and 11 |
//! | [`app_noise`] | Figs. 5 and 8 |
//! | [`multibit`] | §6.3 ternary/quaternary channels |
//! | [`fingerprint`] | Figs. 9, 10 and Table 2 |
//! | [`counter_leak`] | §9.1 activation-counter leakage |
//! | [`capability`] | Table 3 and the §12 taxonomy |
//! | [`taxonomy`] | §12 made quantitative: realized capacity per defense class |
//! | [`latency_sweep`] | Fig. 12 |
//! | [`cache_sensitivity`] | §10.3 |
//! | [`countermeasures`] | §11.4 capacity reduction |
//! | [`perf`] | Fig. 13 |
//! | [`row_policy`] | §9: closed-row policy kills DRAMA, not LeakyHammer |

pub mod app_noise;
pub mod cache_sensitivity;
pub mod capability;
pub mod counter_leak;
pub mod countermeasures;
pub mod covert;
pub mod fingerprint;
pub mod latency_sweep;
pub mod latency_trace;
pub mod multibit;
pub mod noise_sweep;
pub mod perf;
pub mod row_policy;
pub mod taxonomy;
