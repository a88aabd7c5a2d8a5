//! §12: does *your* RowHammer defense leak? The trigger-algorithm
//! taxonomy, tested experimentally.
//!
//! One covert-channel attempt runs against a representative of every
//! defense class — exact tracking (PRAC), approximate tracking (Graphene,
//! Hydra, CoMeT), rate throttling (BlockHammer), random triggering
//! (PARA), time-based triggering (FR-RFM) and overlapped-latency
//! mitigation (MINT) — and the realized capacity is compared with the
//! taxonomy's qualitative prediction.
//!
//! Run with: `cargo run --release --example defense_taxonomy`
//! (quick scale; well under a second once built)

use leakyhammer::experiment::taxonomy::TAXONOMY_NRH;
use lh_harness::{JobContext, Runner, RunnerOptions, ScaleLevel};

fn main() {
    println!(
        "LeakyHammer sec. 12: covert-channel capacity against every defense class\n\
         (all defenses provisioned for NRH = {TAXONOMY_NRH}; 'noisy' adds the sec. 6.3\n\
         noise microbenchmark at 40% intensity)\n"
    );

    let registry = leakyhammer::registry();
    let job = registry.get("taxonomy").expect("taxonomy registered");
    let ctx = JobContext::new(ScaleLevel::Quick, 1);
    let run = Runner::new(RunnerOptions::default())
        .run(job, &ctx)
        .expect("the taxonomy job runs");
    print!("{}", job.render_text(&run.merged, &ctx));

    println!();
    for p in run.merged["points"].as_array() {
        if p["agrees"].as_bool() == Some(false) {
            let defense = p["defense"].as_str().unwrap_or_default();
            println!(
                "NOTE: {defense} measured {:.1} Kbps, outside its predicted {} envelope.",
                p["quiet_kbps"].as_f64().unwrap_or(f64::NAN),
                p["predicted"].as_str().unwrap_or_default()
            );
            if defense == lh_defenses::DefenseKind::BlockHammer.label() {
                println!(
                    "      (BlockHammer's blacklist spans a 16 ms epoch: one decision\n\
                     \u{20}     shadows hundreds of windows, capping modulation at ~1\n\
                     \u{20}     bit/epoch - a measured temporal refinement of sec. 12.)"
                );
            }
        }
    }
    println!(
        "Exact observable triggers give the attacker a reliable channel; approximate\n\
         trackers only add noise; fixed-rate and in-REF (overlapped) preventive\n\
         actions give the receiver nothing that depends on the sender."
    );
}
