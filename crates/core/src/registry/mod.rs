//! Harness adapters: every paper experiment as an [`lh_harness::Job`].
//!
//! Each adapter decomposes its experiment into independently runnable
//! *units* (sweep points, fingerprint traces, workload mixes), runs a
//! unit from a derived seed through a point function of
//! [`crate::experiment`], and renders the merged JSON result as the
//! figure/table's plain-text report. [`registry`] returns the full
//! catalog in paper order; it is the only way to run and render a
//! figure — the `lh-experiments` binary, the coordinator fleet, the HTTP
//! service, the examples and the integration tests all go through it.
//!
//! Determinism contract: a unit's result depends only on
//! `(experiment id, unit index, scale, derived seed)` — never on
//! execution order — so `--jobs N` output is bit-identical to
//! `--jobs 1`, and the harness's content-addressed cache can replay any
//! unit safely.

mod channels;
mod fingerprint;
mod link;
mod mitigate;
mod perf;
mod sweeps;

use lh_harness::{JobContext, Json, Registry, ScaleLevel};

use crate::Scale;

/// The build-time per-crate source-hash manifest (see `build.rs`).
mod manifest {
    include!(concat!(env!("OUT_DIR"), "/code_manifest.rs"));
}

/// Folds the digests of the named crates into one cache fingerprint.
/// Panics on unknown crate names — that is a typo in an adapter, not a
/// runtime condition.
pub(crate) fn code_fingerprint(crates: &[&str]) -> String {
    let mut h = lh_harness::hash::Hasher::new();
    for name in crates {
        let digest = manifest::CODE_MANIFEST
            .iter()
            .find_map(|(n, d)| (n == name).then_some(*d))
            .unwrap_or_else(|| panic!("crate '{name}' missing from CODE_MANIFEST"));
        h.field(name).field(digest);
    }
    h.digest()
}

/// The crates every simulation-backed experiment's results flow
/// through — all of CODE_MANIFEST except `lh-ml` and `lh-link`. The
/// vendored `rand` stand-in is part of the stack: its RNG drives every
/// sampled value. `lh-obs` is too: the deterministic metrics it
/// collects ride every cached unit entry, so an edit there must
/// invalidate them. And `lh-mitigate` is: controller construction
/// routes every defense engine through its `apply_mitigations` (an
/// empty stack today, but an edit there still sits on the path).
/// (A test below asserts these lists cover the whole manifest, so a
/// crate added to `build.rs` cannot silently miss the cache keys.)
const SIM_CRATES: &[&str] = &[
    "leakyhammer",
    "lh-analysis",
    "lh-attacks",
    "lh-defenses",
    "lh-dram",
    "lh-harness",
    "lh-memctrl",
    "lh-mitigate",
    "lh-obs",
    "lh-sim",
    "lh-workloads",
    "rand",
];

/// Fingerprint for jobs whose results flow through the simulator stack
/// but not the ML crate (every experiment except fig10/table2).
pub(crate) fn sim_fingerprint() -> String {
    code_fingerprint(SIM_CRATES)
}

/// Fingerprint for jobs that additionally train classifiers
/// (fig10/table2): editing `lh-ml` invalidates these and only these.
pub(crate) fn ml_fingerprint() -> String {
    let mut crates: Vec<&str> = SIM_CRATES.to_vec();
    crates.push("lh-ml");
    crates.sort_unstable();
    code_fingerprint(&crates)
}

/// Fingerprint for jobs whose results flow through the `lh-link` link
/// layer (the channel sweep, the refactored §6.3 multibit rows and the
/// §12 taxonomy, whose attack tuning comes from `LinkTuning`): editing
/// `lh-link` invalidates these and only these.
pub(crate) fn link_fingerprint() -> String {
    let mut crates: Vec<&str> = SIM_CRATES.to_vec();
    crates.push("lh-link");
    crates.sort_unstable();
    code_fingerprint(&crates)
}

/// Converts the harness's scale mirror into the simulator's [`Scale`].
pub fn scale_of(ctx: &JobContext) -> Scale {
    match ctx.scale {
        ScaleLevel::Quick => Scale::Quick,
        ScaleLevel::Default => Scale::Default,
        ScaleLevel::Paper => Scale::Paper,
    }
}

/// The full experiment catalog, in paper order.
pub fn registry() -> Registry {
    let mut r = Registry::new();
    r.register(Box::new(channels::LatencyTraceJob));
    r.register(Box::new(channels::CovertJob::PRAC));
    r.register(Box::new(sweeps::NoiseSweepJob::PRAC));
    r.register(Box::new(sweeps::AppNoiseJob::PRAC));
    r.register(Box::new(channels::CovertJob::RFM));
    r.register(Box::new(sweeps::NoiseSweepJob::RFM));
    r.register(Box::new(sweeps::AppNoiseJob::RFM));
    r.register(Box::new(fingerprint::TraceGalleryJob));
    r.register(Box::new(fingerprint::ClassifierJob));
    r.register(Box::new(sweeps::RfmCountJob));
    r.register(Box::new(sweeps::LatencySweepJob));
    r.register(Box::new(perf::PerfJob));
    r.register(Box::new(fingerprint::Table2Job));
    r.register(Box::new(channels::Table3Job));
    r.register(Box::new(channels::MultibitJob));
    r.register(Box::new(channels::CounterLeakJob));
    r.register(Box::new(channels::CacheSensitivityJob));
    r.register(Box::new(channels::MitigationJob));
    r.register(Box::new(channels::RowPolicyJob));
    r.register(Box::new(channels::TaxonomyJob));
    r.register(Box::new(link::ChannelSweepJob));
    r.register(Box::new(mitigate::MitigationSweepJob));
    r
}

/// Reads a numeric field, tolerating ints and missing values (NaN).
pub(crate) fn num(j: &Json, key: &str) -> f64 {
    j[key].as_f64().unwrap_or(f64::NAN)
}

/// Reads a string field (empty when missing).
pub(crate) fn text(j: &Json, key: &str) -> String {
    j[key].as_str().unwrap_or_default().to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_the_paper() {
        let r = registry();
        assert_eq!(r.len(), 22);
        for id in [
            "fig2",
            "fig13",
            "table2",
            "table3",
            "taxonomy",
            "chansweep",
            "mitsweep",
        ] {
            assert!(r.get(id).is_some(), "missing {id}");
        }
        // Registration ids are unique and descriptions non-empty.
        for job in r.jobs() {
            assert!(
                !job.description().is_empty(),
                "{} lacks a description",
                job.id()
            );
        }
    }

    #[test]
    fn every_job_enumerates_units_at_quick_scale() {
        let ctx = JobContext::new(ScaleLevel::Quick, 1);
        for job in registry().jobs() {
            let units = job.units(&ctx);
            assert!(!units.is_empty(), "{} has no units", job.id());
            let mut sorted = units.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(
                sorted.len(),
                units.len(),
                "{} has duplicate unit labels",
                job.id()
            );
        }
    }

    #[test]
    fn every_job_has_a_fingerprint_and_a_valid_dag() {
        let ctx = JobContext::new(ScaleLevel::Quick, 1);
        for job in registry().jobs() {
            assert!(
                !job.fingerprint().is_empty(),
                "{} must fold the per-crate manifest into its cache keys",
                job.id()
            );
            let deps: Vec<Vec<usize>> = (0..job.units(&ctx).len())
                .map(|i| job.deps(i, &ctx))
                .collect();
            lh_harness::pool::validate_dag(&deps)
                .unwrap_or_else(|e| panic!("{} has an invalid unit DAG: {e}", job.id()));
        }
        // ML-backed jobs carry a different fingerprint, so editing
        // `lh-ml` cannot invalidate pure simulation experiments.
        assert_ne!(sim_fingerprint(), ml_fingerprint());
    }

    #[test]
    fn fingerprint_lists_cover_the_whole_manifest() {
        // Every crate build.rs hashes must reach some job's cache key:
        // a manifest entry missing from SIM_CRATES + lh-ml + lh-link
        // would mean edits to that crate silently replay stale cached
        // results.
        for (name, _) in manifest::CODE_MANIFEST {
            assert!(
                SIM_CRATES.contains(name) || *name == "lh-ml" || *name == "lh-link",
                "crate '{name}' is hashed by build.rs but absent from the fingerprint lists"
            );
        }
        // And the reverse: the lists only name crates the manifest has
        // (code_fingerprint panics otherwise — exercise it here).
        let _ = sim_fingerprint();
        let _ = ml_fingerprint();
        let _ = link_fingerprint();
    }

    #[test]
    fn editing_lh_link_invalidates_only_the_channel_jobs() {
        // Cache keys digest `Job::fingerprint`, and an `lh-link` edit
        // changes exactly one manifest digest — so the set of jobs it
        // can invalidate is precisely the set whose fingerprint folds
        // that digest in. Pin the partition: only the link-layer jobs
        // carry `link_fingerprint`, everything else carries a
        // fingerprint `lh-link` cannot reach.
        let link_jobs: Vec<&str> = registry()
            .jobs()
            .filter(|j| j.fingerprint() == link_fingerprint())
            .map(|j| j.id())
            .collect();
        assert_eq!(
            link_jobs,
            vec!["multibit", "taxonomy", "chansweep", "mitsweep"],
            "exactly the jobs that reach lh-link use link_fingerprint"
        );
        for job in registry().jobs() {
            let fp = job.fingerprint();
            assert!(
                [sim_fingerprint(), ml_fingerprint(), link_fingerprint()].contains(&fp),
                "{} has an unrecognized fingerprint — its invalidation surface is unknown",
                job.id()
            );
        }
        // The three fingerprints are pairwise distinct, so the
        // partitions cannot alias.
        assert_ne!(link_fingerprint(), sim_fingerprint());
        assert_ne!(link_fingerprint(), ml_fingerprint());
    }
}
