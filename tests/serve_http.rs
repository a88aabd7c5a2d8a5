//! End-to-end acceptance for the resident experiment service: a real
//! `lh-serve` server on a loopback socket, driven through the bundled
//! HTTP client. The load-bearing assertion is the determinism
//! boundary — an envelope fetched over HTTP is byte-identical to the
//! one `lh-experiments <id> --format json` prints for the same scale
//! and seed — plus the volatile side: `/metrics` exposes registry
//! totals, histogram families, and fleet telemetry, and the run stream
//! tails live NDJSON events stamped with wall-clock `ts_ms`.

use std::io::BufRead;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use lh_harness::json::parse;
use lh_harness::sink;
use lh_harness::{JobContext, OutputFormat, Runner, RunnerOptions, ScaleLevel};
use lh_serve::{client, ServeOptions, Server, ThreadSpawner};

/// Serializes the tests that execute runs. The flight-recorder switch
/// is process-global: each server's executor and thread workers set it
/// for the run at hand, which is exact with one server per process. The
/// tests start several servers in one process, so a plain run in one
/// test could switch recording off under another test's `"events":
/// true` run.
fn serial_runs() -> MutexGuard<'static, ()> {
    static RUNS: Mutex<()> = Mutex::new(());
    RUNS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Binds a service on an ephemeral loopback port with an in-process
/// thread fleet and returns its base URL.
fn start_server() -> String {
    let server = Server::bind(
        "127.0.0.1:0",
        Box::new(ThreadSpawner::new(leakyhammer::registry)),
        leakyhammer::registry,
        ServeOptions {
            workers: 2,
            cache: None,
        },
    )
    .expect("bind loopback");
    let addr = server.addr().expect("bound addr");
    std::thread::spawn(move || server.run());
    format!("http://{addr}")
}

/// Polls `GET /runs/<id>` until the run leaves the queued/running
/// phases, returning its final status document.
fn wait_done(base: &str, id: u64) -> lh_harness::json::Json {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let response = client::get(&format!("{base}/runs/{id}")).expect("poll status");
        assert_eq!(response.status, 200, "{}", response.text());
        let status = parse(&response.text()).expect("status is JSON");
        match status["status"].as_str() {
            Some("queued" | "running") => {
                assert!(Instant::now() < deadline, "run {id} never finished");
                std::thread::sleep(Duration::from_millis(50));
            }
            _ => return status,
        }
    }
}

#[test]
fn http_submitted_envelope_is_byte_identical_to_the_cli_path() {
    let _runs = serial_runs();
    let base = start_server();

    let response = client::post(
        &format!("{base}/runs"),
        br#"{"experiment": "fig2", "scale": "quick", "seed": 11}"#,
    )
    .expect("submit");
    assert_eq!(response.status, 202, "{}", response.text());
    let id = parse(&response.text()).expect("submit reply is JSON")["id"]
        .as_u64()
        .expect("submit reply carries the run id");

    // Too early for an envelope: the service answers 409, not garbage.
    let early = client::get(&format!("{base}/runs/{id}/envelope")).expect("early fetch");
    assert!(
        early.status == 409 || early.status == 200,
        "unfinished envelope must 409 (or 200 if the run already won the race): {}",
        early.status
    );

    let status = wait_done(&base, id);
    assert_eq!(status["status"].as_str(), Some("done"), "{status}");
    assert!(
        status["fleet"]["workers"].as_array().len() >= 2,
        "status carries a fleet snapshot: {status}"
    );

    let served = client::get(&format!("{base}/runs/{id}/envelope")).expect("fetch envelope");
    assert_eq!(served.status, 200);

    // The reference bytes: the exact CLI path (`--format json`).
    let registry = leakyhammer::registry();
    let job = registry.get("fig2").expect("fig2 registered");
    let ctx = JobContext::new(ScaleLevel::Quick, 11);
    let run = Runner::new(RunnerOptions::default())
        .run(job, &ctx)
        .expect("reference run");
    let reference = sink::render(job, &run, &ctx, OutputFormat::Json);
    assert_eq!(
        served.text(),
        reference,
        "HTTP-served envelope must be byte-identical to the CLI's --format json output"
    );

    // The deterministic envelope carries the histogram block.
    let envelope = parse(&served.text()).expect("envelope is JSON");
    assert!(
        envelope["metrics"]["histograms"]["sim.queue_wait"]["count"]
            .as_u64()
            .unwrap_or(0)
            > 0,
        "envelope metrics must include merged histograms"
    );
}

#[test]
fn metrics_page_exposes_totals_histograms_and_fleet_telemetry() {
    let _runs = serial_runs();
    let base = start_server();

    let response = client::post(
        &format!("{base}/runs"),
        br#"{"experiment": "fig2", "scale": "quick", "seed": 7}"#,
    )
    .expect("submit");
    assert_eq!(response.status, 202, "{}", response.text());
    let id = parse(&response.text()).expect("submit reply is JSON")["id"]
        .as_u64()
        .expect("run id");
    wait_done(&base, id);

    let page = client::get(&format!("{base}/metrics")).expect("scrape");
    assert_eq!(page.status, 200);
    let text = page.text();
    for needle in [
        "# TYPE lh_units_absorbed counter",
        "lh_sim_service_wakes",
        "# TYPE lh_sim_queue_wait histogram",
        "lh_sim_queue_wait_bucket{le=\"",
        "lh_sim_queue_wait_sum",
        "lh_sim_queue_wait_count",
        "# TYPE lh_fleet_workers_alive gauge",
        "lh_fleet_workers_spawned",
        "lh_fleet_worker_units_done{worker=\"0\"}",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

#[test]
fn stream_tails_ndjson_events_with_wall_clock_stamps() {
    let _runs = serial_runs();
    let base = start_server();

    let response = client::post(
        &format!("{base}/runs"),
        br#"{"experiment": "fig2", "scale": "quick", "seed": 3}"#,
    )
    .expect("submit");
    assert_eq!(response.status, 202, "{}", response.text());
    let id = parse(&response.text()).expect("submit reply is JSON")["id"]
        .as_u64()
        .expect("run id");

    // Attach immediately: the stream replays anything already recorded
    // and then follows live until the run finishes.
    let (status, reader) =
        client::get_stream(&format!("{base}/runs/{id}/stream")).expect("attach stream");
    assert_eq!(status, 200);
    let mut kinds = Vec::new();
    for line in reader.lines() {
        let line = line.expect("stream line");
        if line.is_empty() {
            continue;
        }
        let event = parse(&line).unwrap_or_else(|e| panic!("bad NDJSON {e}: {line}"));
        assert!(
            event["ts_ms"].as_u64().is_some(),
            "every stream line is wall-clock stamped: {line}"
        );
        kinds.push(event["event"].as_str().unwrap_or("?").to_owned());
    }
    assert_eq!(
        kinds.first().map(String::as_str),
        Some("started"),
        "{kinds:?}"
    );
    assert_eq!(
        kinds.last().map(String::as_str),
        Some("finished"),
        "{kinds:?}"
    );
    assert!(
        kinds.iter().filter(|k| *k == "unit").count() > 0,
        "stream carries unit completions: {kinds:?}"
    );
}

#[test]
fn submission_errors_are_structured() {
    let base = start_server();

    let missing = client::post(&format!("{base}/runs"), b"{}").expect("post");
    assert_eq!(missing.status, 400, "{}", missing.text());

    let unknown =
        client::post(&format!("{base}/runs"), br#"{"experiment": "fig99"}"#).expect("post");
    assert_eq!(unknown.status, 404, "{}", unknown.text());
    assert!(unknown.text().contains("unknown experiment"));

    let bad_scale = client::post(
        &format!("{base}/runs"),
        br#"{"experiment": "fig2", "scale": "enormous"}"#,
    )
    .expect("post");
    assert_eq!(bad_scale.status, 400, "{}", bad_scale.text());

    let gone = client::get(&format!("{base}/runs/999")).expect("get");
    assert_eq!(gone.status, 404, "{}", gone.text());

    let health = client::get(&format!("{base}/healthz")).expect("get");
    assert_eq!(health.status, 200);
    let health_doc = parse(&health.text()).expect("healthz is JSON");
    assert_eq!(health_doc["status"].as_str(), Some("ok"), "{health_doc}");
    assert!(
        health_doc["uptime_ms"].as_u64().is_some(),
        "healthz reports uptime: {health_doc}"
    );
    assert!(
        health_doc["workers_alive"].as_u64().is_some(),
        "healthz reports fleet liveness: {health_doc}"
    );
}

#[test]
fn deeply_nested_body_is_rejected_without_killing_the_server() {
    let base = start_server();

    // Each `[` is one parser recursion on the connection's thread; an
    // unbounded parser overflows that thread's stack and aborts the
    // whole process.
    let deep = "[".repeat(10_000);
    let rejected = client::post(&format!("{base}/runs"), deep.as_bytes()).expect("post");
    assert_eq!(rejected.status, 400, "{}", rejected.text());

    let health = client::get(&format!("{base}/healthz")).expect("server still up");
    assert_eq!(health.status, 200);
}

#[test]
fn version_reports_the_binary_fingerprint() {
    let base = start_server();
    let version = client::get(&format!("{base}/version")).expect("get");
    assert_eq!(version.status, 200);
    let doc = parse(&version.text()).expect("version is JSON");
    assert_eq!(doc["service"].as_str(), Some("lh-serve"), "{doc}");
    assert!(doc["version"].as_str().is_some(), "{doc}");
    assert!(doc["protocol"].as_u64().is_some(), "{doc}");
    let digest = doc["registry"].as_str().unwrap_or("");
    assert!(
        !digest.is_empty(),
        "version carries the registry digest: {doc}"
    );

    // The digest is a pure function of the registered jobs, so a second
    // service over the same registry reports the same identity.
    let other = start_server();
    let again = client::get(&format!("{other}/version")).expect("get");
    let again_doc = parse(&again.text()).expect("version is JSON");
    assert_eq!(again_doc["registry"].as_str(), Some(digest), "{again_doc}");
}

#[test]
fn flight_events_are_served_per_run_when_requested() {
    let _runs = serial_runs();
    let base = start_server();

    // A run submitted without events: the endpoint 404s rather than
    // serving an empty log.
    let plain = client::post(
        &format!("{base}/runs"),
        br#"{"experiment": "fig2", "scale": "quick", "seed": 5}"#,
    )
    .expect("submit");
    assert_eq!(plain.status, 202, "{}", plain.text());
    let plain_id = parse(&plain.text()).expect("submit reply")["id"]
        .as_u64()
        .expect("run id");
    let status = wait_done(&base, plain_id);
    assert_eq!(status["flight"].as_bool(), Some(false), "{status}");
    let none = client::get(&format!("{base}/runs/{plain_id}/events")).expect("get");
    assert_eq!(none.status, 404, "{}", none.text());

    // The same submission with "events": true serves the flight log.
    let recorded = client::post(
        &format!("{base}/runs"),
        br#"{"experiment": "fig2", "scale": "quick", "seed": 5, "events": true}"#,
    )
    .expect("submit");
    assert_eq!(recorded.status, 202, "{}", recorded.text());
    let id = parse(&recorded.text()).expect("submit reply")["id"]
        .as_u64()
        .expect("run id");
    let status = wait_done(&base, id);
    assert_eq!(status["status"].as_str(), Some("done"), "{status}");
    assert_eq!(status["flight"].as_bool(), Some(true), "{status}");

    let events = client::get(&format!("{base}/runs/{id}/events")).expect("get");
    assert_eq!(events.status, 200, "{}", events.text());
    let log = events.text();
    let first = log.lines().next().expect("log has a header");
    let header = parse(first).expect("header is JSON");
    assert_eq!(header["kind"].as_str(), Some("experiment"), "{first}");
    assert_eq!(header["experiment"].as_str(), Some("fig2"), "{first}");
    assert!(
        log.contains("\"kind\":\"unit\""),
        "per-unit headers present"
    );
    assert!(log.contains("\"kind\":\"cmd\""), "DRAM commands recorded");
    for line in log.lines() {
        parse(line).unwrap_or_else(|e| panic!("bad event NDJSON {e}: {line}"));
    }

    // The recording run's envelope stays byte-identical to a plain
    // run's: flight events ride beside results, never inside them.
    let with = client::get(&format!("{base}/runs/{id}/envelope")).expect("get");
    let without = client::get(&format!("{base}/runs/{plain_id}/envelope")).expect("get");
    assert_eq!(with.text(), without.text());
}

#[test]
fn envelope_is_served_the_moment_the_finished_line_is_read() {
    let _runs = serial_runs();
    let base = start_server();

    // Read each run's stream only up to its `finished` line and fetch
    // the envelope at once: the line must never be visible before the
    // envelope it announces. The race this pins shows up within about
    // a hundred submissions, hence the count.
    for seed in 0..300u64 {
        let body = format!(r#"{{"experiment": "fig2", "scale": "quick", "seed": {seed}}}"#);
        let response = client::post(&format!("{base}/runs"), body.as_bytes()).expect("submit");
        assert_eq!(response.status, 202, "{}", response.text());
        let id = parse(&response.text()).expect("submit reply is JSON")["id"]
            .as_u64()
            .expect("run id");
        let (status, reader) =
            client::get_stream(&format!("{base}/runs/{id}/stream")).expect("attach stream");
        assert_eq!(status, 200);
        let finished = reader
            .lines()
            .map(|line| line.expect("stream line"))
            .any(|line| {
                !line.is_empty()
                    && parse(&line).expect("NDJSON line")["event"].as_str() == Some("finished")
            });
        assert!(finished, "run {id} stream ended without a finished line");
        let envelope = client::get(&format!("{base}/runs/{id}/envelope")).expect("get");
        assert_eq!(
            envelope.status,
            200,
            "run {id}: envelope not served after finished: {}",
            envelope.text()
        );
    }
}
