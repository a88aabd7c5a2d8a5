//! Acceptance for the flight recorder's determinism contract: the
//! `--events-out` log for a given `(experiment, scale, seed)` is
//! *byte-identical* across every execution mode — single-threaded,
//! `--jobs 8`, an `lh-coord` worker fleet, and a warm-cache replay that
//! never re-executes a unit — and switching recording on never changes
//! the experiment envelope.
//!
//! A second test checks the `link` events both covert-channel drivers
//! emit, one per symbol window, against the bits they carried.
//!
//! The flight switch is process-global and the harness runs test fns
//! concurrently on threads, so every test that flips it holds
//! [`flight_switch`] for its whole body.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use lh_analysis::message::bits_of_str;
use lh_coord::{Coordinator, CoordinatorOptions};
use lh_defenses::DefenseKind;
use lh_harness::json::parse;
use lh_harness::{sink, OutputFormat};
use lh_harness::{DiskCache, JobContext, Runner, RunnerOptions, ScaleLevel};
use lh_link::{calibrate, transmit_message, LinkConfig, OnOffKeying, Plain};
use lh_obs::FlightEvent;
use lh_serve::ThreadSpawner;

/// Serializes the tests that toggle the process-global flight switch.
fn flight_switch() -> MutexGuard<'static, ()> {
    static SWITCH: Mutex<()> = Mutex::new(());
    SWITCH
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn ctx() -> JobContext {
    JobContext::new(ScaleLevel::Quick, 1)
}

fn runner(jobs: usize, cache: Option<DiskCache>) -> Runner {
    Runner::new(RunnerOptions {
        jobs,
        cache,
        progress: false,
        observer: None,
    })
}

#[test]
fn event_log_is_byte_identical_across_execution_modes() {
    let _switch = flight_switch();
    let registry = leakyhammer::registry();
    let job = registry.get("fig2").expect("fig2 registered");

    // Recording off: no log rides the run, and the envelope is the
    // reference for the recording runs below.
    lh_obs::flight::set_enabled(false);
    let off = runner(1, None).run(job, &ctx()).expect("baseline run");
    assert!(
        off.events.is_none(),
        "recording off must not produce an event log"
    );
    let off_envelope = sink::render(job, &off, &ctx(), OutputFormat::Json);

    lh_obs::flight::set_enabled(true);

    // Mode 1: single worker thread — the reference bytes.
    let reference = runner(1, None)
        .run(job, &ctx())
        .expect("jobs=1 run")
        .events
        .expect("recording on produces a log");
    let first = reference.lines().next().expect("log has a header");
    assert!(
        first.starts_with("{\"kind\":\"experiment\",\"experiment\":\"fig2\""),
        "log opens with the experiment header: {first}"
    );
    assert!(
        reference.contains("\"kind\":\"unit\""),
        "per-unit headers present"
    );
    assert!(
        reference.contains("\"kind\":\"cmd\""),
        "DRAM command events present"
    );

    // Mode 2: eight worker threads, completion order scrambled.
    let threaded = runner(8, None)
        .run(job, &ctx())
        .expect("jobs=8 run")
        .events
        .expect("log present");
    assert_eq!(threaded, reference, "--jobs must not change the log bytes");

    // Mode 3: a two-worker coordinator fleet (protocol v4 carries the
    // flight switch per assignment and the rendered log per Done).
    let dir = std::env::temp_dir().join(format!(
        "lh-flight-integration-{}-events",
        std::process::id()
    ));
    let cache = DiskCache::new(&dir);
    cache.clear().expect("fresh cache dir");
    let mut coordinator = Coordinator::new(
        Box::new(ThreadSpawner::new(leakyhammer::registry)),
        CoordinatorOptions {
            workers: 2,
            cache: Some(cache.clone()),
            progress: false,
            observer: None,
            ..CoordinatorOptions::default()
        },
    );
    let distributed = coordinator.run(job, &ctx()).expect("workers=2 run");
    coordinator.shutdown();
    assert_eq!(
        distributed.events.as_deref(),
        Some(reference.as_str()),
        "--workers must not change the log bytes"
    );

    // Mode 4: warm-cache replay — every unit is a hit, the log is
    // reassembled from cache entries alone.
    let replayed = runner(8, Some(cache.clone()))
        .run(job, &ctx())
        .expect("replay run");
    assert_eq!(
        replayed.stats.units_cached, replayed.stats.units_total,
        "replay must be all cache hits"
    );
    assert_eq!(
        replayed.events.as_deref(),
        Some(reference.as_str()),
        "cache replay must not change the log bytes"
    );

    // Recording never leaks into results: envelopes match the off run.
    let on_envelope = sink::render(job, &replayed, &ctx(), OutputFormat::Json);
    lh_obs::flight::set_enabled(false);
    assert_eq!(
        on_envelope, off_envelope,
        "flight recording must not perturb the envelope"
    );

    // A cache written by a recording run still serves non-recording
    // runs correctly: the events-aware key side never shadows the
    // plain side, so this re-executes rather than mis-hitting.
    let off_again = runner(1, Some(cache.clone()))
        .run(job, &ctx())
        .expect("off-side run");
    assert!(off_again.events.is_none());
    assert_eq!(
        sink::render(job, &off_again, &ctx(), OutputFormat::Json),
        off_envelope
    );

    cache.clear().expect("cleanup");
}

/// Asserts the link-window verdicts of one exactly decoded transmission
/// of `bits`: a hit per 1-bit, an idle per 0-bit, no misses and no false
/// positives.
fn assert_exact_verdicts(what: &str, verdicts: &[String], bits: &[u8]) {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for v in verdicts {
        *counts.entry(v.as_str()).or_insert(0) += 1;
    }
    let count = |verdict: &str| counts.get(verdict).copied().unwrap_or(0);
    let ones = bits.iter().filter(|&&b| b != 0).count();
    assert_eq!(count("hit"), ones, "{what}: {counts:?}");
    assert_eq!(count("idle"), bits.len() - ones, "{what}: {counts:?}");
    assert_eq!(count("miss"), 0, "{what}: {counts:?}");
    assert_eq!(count("false-positive"), 0, "{what}: {counts:?}");
}

#[test]
fn link_window_events_match_the_sent_bits() {
    let _switch = flight_switch();
    lh_obs::flight::set_enabled(true);

    // fig3 through the harness: the experiment driver's windows.
    let registry = leakyhammer::registry();
    let job = registry.get("fig3").expect("fig3 registered");
    let run = runner(1, None).run(job, &ctx()).expect("fig3 run");
    assert_eq!(run.merged["decoded"].as_str(), Some("MICRO"));
    let log = run.events.expect("recording on produces a log");
    let fig3: Vec<String> = log
        .lines()
        .map(|line| parse(line).expect("NDJSON line"))
        .filter(|e| e["kind"].as_str() == Some("link"))
        .map(|e| e["verdict"].as_str().expect("verdict").to_owned())
        .collect();
    assert_exact_verdicts("fig3", &fig3, &bits_of_str("MICRO"));

    // One OOK/Plain transmission over PRAC: the lh-link driver's
    // windows.
    let cfg = LinkConfig::against(DefenseKind::Prac, 256, 1);
    let cal = calibrate(&cfg, &OnOffKeying, 6);
    let msg = bits_of_str("HI");
    let (out, log) =
        lh_obs::flight::capture(|| transmit_message(&cfg, &OnOffKeying, &Plain, &cal, &msg));
    lh_obs::flight::set_enabled(false);
    assert_eq!(out.decoded, msg, "OOK over PRAC must be error-free");
    let link: Vec<String> = log
        .entries()
        .filter_map(|(_, e)| match e {
            FlightEvent::Link { verdict, .. } => Some((*verdict).to_owned()),
            _ => None,
        })
        .collect();
    assert_exact_verdicts("lh-link OOK/Plain", &link, &msg);
}
