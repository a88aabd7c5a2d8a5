//! # leakyhammer — covert and side channels from RowHammer defenses
//!
//! A full Rust reproduction of *"Understanding and Mitigating Covert
//! Channel and Side Channel Vulnerabilities Introduced by RowHammer
//! Defenses"* (MICRO 2025). This crate is the top of the stack: it wires
//! the substrate crates (DRAM device, memory controller, defenses,
//! system simulator, attacks, workloads, ML) into paper experiments and
//! formats results in the paper's units.
//!
//! The experiment catalog, [`registry()`], is the runner: it holds one
//! harness job per paper figure or table, which splits the experiment into units (sweep
//! points, mixes, defense classes), runs each unit through a point
//! function of [`experiment`], merges the unit results and renders the
//! report. `lh-experiments`, the coordinator fleet and the HTTP service
//! all run figures through it.
//!
//! * Covert channels over PRAC back-offs and PRFM RFM commands
//!   ([`experiment::covert`]), with noise and application-interference
//!   sweeps ([`experiment::noise_sweep`], [`experiment::app_noise`]);
//! * the website-fingerprinting side channel with eight from-scratch ML
//!   classifiers ([`experiment::fingerprint`]);
//! * the three countermeasures — FR-RFM, RIAC, Bank-Level PRAC — with
//!   capacity ([`experiment::countermeasures`]) and performance
//!   ([`experiment::perf`]) evaluations.
//!
//! ## Quickstart
//!
//! ```
//! use leakyhammer::experiment::covert::{run_covert, ChannelKind, CovertOptions};
//! use lh_analysis::message::bits_of_str;
//!
//! // Transmit "MICRO" over the PRAC back-off channel (Fig. 3).
//! let opts = CovertOptions::new(ChannelKind::Prac, bits_of_str("MI"));
//! let out = run_covert(&opts);
//! assert_eq!(out.decoded, opts.bits);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiment;
pub mod registry;
pub mod report;
mod scale;

pub use registry::registry;
pub use scale::Scale;

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use lh_analysis as analysis;
pub use lh_attacks as attacks;
pub use lh_defenses as defenses;
pub use lh_dram as dram;
pub use lh_memctrl as memctrl;
pub use lh_ml as ml;
pub use lh_sim as sim;
pub use lh_workloads as workloads;
