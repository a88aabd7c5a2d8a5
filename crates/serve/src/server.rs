//! The resident experiment service: one process owning a warm
//! [`DiskCache`] and a resident worker fleet, accepting jobs over
//! HTTP and keeping every envelope byte-identical to the CLI paths.
//!
//! ## Architecture
//!
//! One **executor thread** owns the [`Coordinator`] (and through it the
//! worker fleet and the shared cache) and drains a FIFO run queue —
//! runs execute one at a time, exactly like consecutive
//! `lh-experiments` invocations against the same cache directory, which
//! is what keeps the determinism contract trivially intact. HTTP
//! handler threads never touch the coordinator; they share:
//!
//! * the run table (`Arc<RunEntry>` per submission) — status, the
//!   accumulated NDJSON event lines, and the finished envelope bytes,
//!   all behind a mutex+condvar so stream followers tail live;
//! * the coordinator's [`FleetTelemetry`] handle — snapshots feed
//!   `/metrics`, run-status responses, and periodic `fleet` stream
//!   events while the fleet works.
//!
//! ## Determinism boundary
//!
//! The envelope served by `GET /runs/<id>/envelope` is byte-identical
//! to `lh-experiments <id> --format json` at the same scale/seed — it
//! flows through the same [`lh_harness::sink::render`]. Everything
//! else the service exposes (`ts_ms` stamps, fleet snapshots,
//! `/metrics`) is volatile wall-clock telemetry and is never folded
//! into envelopes or cache entries.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use lh_coord::{Coordinator, CoordinatorOptions, FleetTelemetry, SpawnWorker};
use lh_harness::cache::DiskCache;
use lh_harness::job::Registry;
use lh_harness::json::{parse, Json};
use lh_harness::sink;
use lh_harness::{JobContext, OutputFormat, ScaleLevel, UnitEvent, UnitObserver};

use crate::http::{read_request, respond, ChunkedWriter, Request};
use crate::prom;

/// How often a live `/runs/<id>/stream` follower receives a `fleet`
/// telemetry event while waiting for unit completions.
const FLEET_PERIOD: Duration = Duration::from_millis(500);

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Resident worker count handed to the coordinator.
    pub workers: usize,
    /// Shared result cache; `None` disables caching.
    pub cache: Option<DiskCache>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            workers: 2,
            cache: None,
        }
    }
}

/// Where a submitted run is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
enum RunPhase {
    Queued,
    Running,
    Done,
    Failed(String),
}

impl RunPhase {
    fn as_str(&self) -> &'static str {
        match self {
            RunPhase::Queued => "queued",
            RunPhase::Running => "running",
            RunPhase::Done => "done",
            RunPhase::Failed(_) => "failed",
        }
    }
}

struct RunInner {
    phase: RunPhase,
    /// NDJSON event lines (`started`/`unit`/`finished`) in emission
    /// order; stream followers tail this.
    lines: Vec<String>,
    /// The finished envelope, pretty-printed plus trailing newline —
    /// the exact bytes `--format json` would print.
    envelope: Option<String>,
    /// The flight-event log, present once a run submitted with
    /// `"events": true` finishes — the exact bytes `--events-out`
    /// would write for the same experiment/scale/seed.
    events: Option<String>,
}

/// One submitted run: immutable identity plus mutexed progress state.
struct RunEntry {
    id: u64,
    experiment: String,
    scale: ScaleLevel,
    seed: u64,
    /// Whether the submission asked for flight-event recording.
    events: bool,
    inner: Mutex<RunInner>,
    cond: Condvar,
}

impl RunEntry {
    fn lock(&self) -> std::sync::MutexGuard<'_, RunInner> {
        self.inner.lock().expect("run entry poisoned")
    }

    fn push_line(&self, line: String) {
        self.lock().lines.push(line);
        self.cond.notify_all();
    }

    fn set_phase(&self, phase: RunPhase) {
        self.lock().phase = phase;
        self.cond.notify_all();
    }

    fn status_json(&self) -> Json {
        let inner = self.lock();
        let mut obj = Json::object()
            .with("id", self.id)
            .with("experiment", self.experiment.as_str())
            .with("scale", self.scale.as_str())
            .with("seed", self.seed)
            .with("status", inner.phase.as_str())
            .with("events", inner.lines.len())
            .with("flight", self.events);
        if let RunPhase::Failed(error) = &inner.phase {
            obj.set("error", error.as_str());
        }
        obj
    }
}

struct ServerState {
    runs: Mutex<Vec<Arc<RunEntry>>>,
    /// Hands queued entries to the executor thread. (`mpsc::Sender` is
    /// not `Sync`, hence the mutex.)
    queue: Mutex<mpsc::Sender<Arc<RunEntry>>>,
    telemetry: FleetTelemetry,
    /// `(id, description)` pairs for `/experiments` and submit-time
    /// validation.
    experiments: Vec<(String, String)>,
    /// When the service bound, for `/healthz` uptime.
    started: std::time::Instant,
    /// Combined digest of every registered job's id, version and code
    /// fingerprint — the `/version` identity of this binary's
    /// experiment surface (two services with equal digests produce
    /// byte-identical envelopes for equal submissions).
    registry_digest: String,
}

impl ServerState {
    fn run_by_id(&self, id: u64) -> Option<Arc<RunEntry>> {
        self.runs
            .lock()
            .expect("run table poisoned")
            .iter()
            .find(|r| r.id == id)
            .cloned()
    }
}

/// The resident experiment service, bound but not yet serving.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.listener.local_addr().ok())
            .finish()
    }
}

impl Server {
    /// Binds `addr` and starts the executor thread owning the resident
    /// coordinator. `make_registry` builds the executor's experiment
    /// registry (the same factory worker processes use, so job versions
    /// agree by construction).
    ///
    /// # Errors
    ///
    /// Socket binding failures and executor-thread spawn failures.
    pub fn bind(
        addr: impl ToSocketAddrs,
        spawner: Box<dyn SpawnWorker>,
        make_registry: impl Fn() -> Registry + Send + 'static,
        options: ServeOptions,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;

        // The coordinator is built here (so its telemetry handle can be
        // shared with HTTP threads) and moved into the executor thread,
        // which owns it for the lifetime of the service.
        let live: Arc<Mutex<Option<Arc<RunEntry>>>> = Arc::new(Mutex::new(None));
        let observer_live = Arc::clone(&live);
        let observer: UnitObserver = Arc::new(move |event: &UnitEvent| {
            if let Some(entry) = observer_live.lock().expect("live slot poisoned").as_ref() {
                entry.push_line(sink::stream_unit(event));
            }
        });
        let coordinator = Coordinator::new(
            spawner,
            CoordinatorOptions {
                workers: options.workers.max(1),
                cache: options.cache,
                progress: false,
                observer: Some(observer),
                ..CoordinatorOptions::default()
            },
        );
        let telemetry = coordinator.telemetry();

        let registry = make_registry();
        let experiments = registry
            .jobs()
            .map(|j| (j.id().to_owned(), j.description().to_owned()))
            .collect();
        let mut hasher = lh_harness::hash::Hasher::new();
        for job in registry.jobs() {
            hasher
                .field(job.id())
                .number(u64::from(job.version()))
                .field(&job.fingerprint());
        }
        let registry_digest = hasher.digest();

        let (queue_tx, queue_rx) = mpsc::channel::<Arc<RunEntry>>();
        std::thread::Builder::new()
            .name("lh-serve-executor".into())
            .spawn(move || executor(coordinator, registry, live, queue_rx))?;

        Ok(Server {
            listener,
            state: Arc::new(ServerState {
                runs: Mutex::new(Vec::new()),
                queue: Mutex::new(queue_tx),
                telemetry,
                experiments,
                started: std::time::Instant::now(),
                registry_digest,
            }),
        })
    }

    /// The bound socket address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Socket introspection failures.
    pub fn addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves forever: accepts connections and handles each on its own
    /// thread. Returns only if the listener itself fails.
    ///
    /// # Errors
    ///
    /// Accept-loop failures on the listening socket.
    pub fn run(self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            let stream = stream?;
            let state = Arc::clone(&self.state);
            let _ = std::thread::Builder::new()
                .name("lh-serve-conn".into())
                .spawn(move || {
                    // Peer faults (hangups, garbage) end this
                    // connection only; the acceptor never sees them.
                    let _ = handle_connection(stream, &state);
                });
        }
        Ok(())
    }
}

/// The executor loop: drains the run queue into the resident
/// coordinator, one run at a time, recording stream lines and the
/// finished envelope on each entry.
fn executor(
    mut coordinator: Coordinator,
    registry: Registry,
    live: Arc<Mutex<Option<Arc<RunEntry>>>>,
    queue: mpsc::Receiver<Arc<RunEntry>>,
) {
    while let Ok(entry) = queue.recv() {
        let ctx = JobContext::new(entry.scale, entry.seed);
        let Some(job) = registry.get(&entry.experiment) else {
            entry.set_phase(RunPhase::Failed(format!(
                "unknown experiment '{}'",
                entry.experiment
            )));
            continue;
        };
        entry.set_phase(RunPhase::Running);
        entry.push_line(sink::stream_started(job, job.units(&ctx).len(), &ctx));
        *live.lock().expect("live slot poisoned") = Some(Arc::clone(&entry));
        // The flight switch is per run: the executor is the only thread
        // driving the coordinator, so flipping the process-global
        // recorder here scopes it to exactly this run's assignments.
        lh_obs::flight::set_enabled(entry.events);
        let outcome = coordinator.run(job, &ctx);
        lh_obs::flight::set_enabled(false);
        *live.lock().expect("live slot poisoned") = None;
        match outcome {
            Ok(run) => {
                let finished = sink::stream_finished(job, &run, &ctx);
                let envelope = sink::render(job, &run, &ctx, OutputFormat::Json);
                // One critical section: a client that reads the
                // `finished` line must find the envelope already served.
                let mut inner = entry.lock();
                inner.lines.push(finished);
                inner.envelope = Some(envelope);
                inner.events = run.events;
                inner.phase = RunPhase::Done;
                drop(inner);
                entry.cond.notify_all();
            }
            Err(error) => entry.set_phase(RunPhase::Failed(error)),
        }
    }
    // Queue sender gone: the server was dropped. Retire the fleet.
    coordinator.shutdown();
}

fn json_response(stream: &mut TcpStream, status: u16, body: &Json) -> io::Result<()> {
    respond(
        stream,
        status,
        "application/json",
        (body.to_pretty() + "\n").as_bytes(),
    )
}

fn error_response(stream: &mut TcpStream, status: u16, message: &str) -> io::Result<()> {
    json_response(stream, status, &Json::object().with("error", message))
}

fn handle_connection(mut stream: TcpStream, state: &ServerState) -> io::Result<()> {
    let request = match read_request(&mut stream) {
        Ok(request) => request,
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            return error_response(&mut stream, 400, &e.to_string());
        }
        Err(e) => return Err(e),
    };

    let segments: Vec<&str> = request
        .path
        .split('?')
        .next()
        .unwrap_or("")
        .split('/')
        .filter(|s| !s.is_empty())
        .collect();

    match (request.method.as_str(), segments.as_slice()) {
        // Liveness first, depth nowhere: /healthz must answer 200 the
        // moment the socket is bound, even with the fleet mid-respawn —
        // it reports uptime and fleet health, it does not gate on them.
        ("GET", ["healthz"]) => {
            let snapshot = state.telemetry.snapshot();
            let alive = snapshot.workers.iter().filter(|w| w.alive).count();
            json_response(
                &mut stream,
                200,
                &Json::object()
                    .with("status", "ok")
                    .with("uptime_ms", state.started.elapsed().as_millis() as u64)
                    .with("workers_alive", alive),
            )
        }
        ("GET", ["version"]) => json_response(
            &mut stream,
            200,
            &Json::object()
                .with("service", "lh-serve")
                .with("version", env!("CARGO_PKG_VERSION"))
                .with("protocol", lh_coord::PROTOCOL_VERSION)
                .with("registry", state.registry_digest.as_str()),
        ),
        ("GET", ["metrics"]) => {
            let registry = lh_obs::Registry::global();
            let page = prom::render(
                &registry.totals(),
                registry.units_absorbed(),
                &state.telemetry.snapshot(),
            );
            respond(
                &mut stream,
                200,
                "text/plain; version=0.0.4",
                page.as_bytes(),
            )
        }
        ("GET", ["experiments"]) => {
            let list = state
                .experiments
                .iter()
                .map(|(id, description)| {
                    Json::object()
                        .with("id", id.as_str())
                        .with("description", description.as_str())
                })
                .collect();
            json_response(&mut stream, 200, &Json::Array(list))
        }
        ("POST", ["runs"]) => submit_run(&mut stream, state, &request),
        ("GET", ["runs"]) => {
            let list = state
                .runs
                .lock()
                .expect("run table poisoned")
                .iter()
                .map(|r| r.status_json())
                .collect();
            json_response(&mut stream, 200, &Json::Array(list))
        }
        ("GET", ["runs", id]) => match id.parse().ok().and_then(|id| state.run_by_id(id)) {
            Some(entry) => {
                let status = entry
                    .status_json()
                    .with("fleet", state.telemetry.snapshot().to_json());
                json_response(&mut stream, 200, &status)
            }
            None => error_response(&mut stream, 404, &format!("no run {id}")),
        },
        ("GET", ["runs", id, "envelope"]) => {
            match id.parse().ok().and_then(|id| state.run_by_id(id)) {
                Some(entry) => {
                    let inner = entry.lock();
                    match (&inner.phase, &inner.envelope) {
                        (_, Some(envelope)) => {
                            let bytes = envelope.clone().into_bytes();
                            drop(inner);
                            respond(&mut stream, 200, "application/json", &bytes)
                        }
                        (RunPhase::Failed(error), None) => {
                            let message = error.clone();
                            drop(inner);
                            error_response(&mut stream, 500, &message)
                        }
                        _ => {
                            drop(inner);
                            error_response(&mut stream, 409, "run not finished yet")
                        }
                    }
                }
                None => error_response(&mut stream, 404, &format!("no run {id}")),
            }
        }
        ("GET", ["runs", id, "events"]) => {
            match id.parse().ok().and_then(|id| state.run_by_id(id)) {
                Some(entry) if !entry.events => error_response(
                    &mut stream,
                    404,
                    "run was submitted without \"events\": true",
                ),
                Some(entry) => {
                    let inner = entry.lock();
                    match (&inner.phase, &inner.events) {
                        (_, Some(events)) => {
                            let bytes = events.clone().into_bytes();
                            drop(inner);
                            respond(&mut stream, 200, "application/x-ndjson", &bytes)
                        }
                        (RunPhase::Failed(error), None) => {
                            let message = error.clone();
                            drop(inner);
                            error_response(&mut stream, 500, &message)
                        }
                        _ => {
                            drop(inner);
                            error_response(&mut stream, 409, "run not finished yet")
                        }
                    }
                }
                None => error_response(&mut stream, 404, &format!("no run {id}")),
            }
        }
        ("GET", ["runs", id, "stream"]) => {
            match id.parse().ok().and_then(|id| state.run_by_id(id)) {
                Some(entry) => stream_run(stream, state, &entry),
                None => error_response(&mut stream, 404, &format!("no run {id}")),
            }
        }
        ("GET", _) => error_response(&mut stream, 404, &format!("no route {}", request.path)),
        _ => error_response(
            &mut stream,
            405,
            &format!("{} not supported on {}", request.method, request.path),
        ),
    }
}

/// `POST /runs`: validates and enqueues a submission, answering `202`
/// with the new run id.
fn submit_run(stream: &mut TcpStream, state: &ServerState, request: &Request) -> io::Result<()> {
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return error_response(stream, 400, "body must be UTF-8 JSON");
    };
    let Ok(doc) = parse(body.trim()) else {
        return error_response(stream, 400, "body must be a JSON object");
    };
    let Some(experiment) = doc["experiment"].as_str() else {
        return error_response(stream, 400, "missing field 'experiment'");
    };
    if !state.experiments.iter().any(|(id, _)| id == experiment) {
        return error_response(
            stream,
            404,
            &format!("unknown experiment '{experiment}' (see GET /experiments)"),
        );
    }
    let scale = match doc["scale"].as_str() {
        None => ScaleLevel::Default,
        Some(text) => match text.parse::<ScaleLevel>() {
            Ok(scale) => scale,
            Err(e) => return error_response(stream, 400, &e),
        },
    };
    let seed = match &doc["seed"] {
        Json::Null => 1,
        value => match value.as_u64() {
            Some(seed) => seed,
            None => return error_response(stream, 400, "field 'seed' must be an unsigned integer"),
        },
    };
    let events = match &doc["events"] {
        Json::Null => false,
        Json::Bool(events) => *events,
        _ => return error_response(stream, 400, "field 'events' must be a boolean"),
    };

    let entry = {
        let mut runs = state.runs.lock().expect("run table poisoned");
        let entry = Arc::new(RunEntry {
            id: runs.len() as u64 + 1,
            experiment: experiment.to_owned(),
            scale,
            seed,
            events,
            inner: Mutex::new(RunInner {
                phase: RunPhase::Queued,
                lines: Vec::new(),
                envelope: None,
                events: None,
            }),
            cond: Condvar::new(),
        });
        runs.push(Arc::clone(&entry));
        entry
    };
    state
        .queue
        .lock()
        .expect("queue sender poisoned")
        .send(Arc::clone(&entry))
        .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "executor is gone"))?;

    json_response(
        stream,
        202,
        &Json::object().with("id", entry.id).with("status", "queued"),
    )
}

/// `GET /runs/<id>/stream`: a chunked NDJSON tail of the run's event
/// lines — everything recorded so far, then live as units complete,
/// with periodic `fleet` telemetry events interleaved while the run is
/// in flight. The stream ends when the run does.
fn stream_run(stream: TcpStream, state: &ServerState, entry: &RunEntry) -> io::Result<()> {
    let mut writer = ChunkedWriter::start(stream, "application/x-ndjson")?;
    let mut sent = 0usize;
    loop {
        // Collect under the lock, write outside it: a slow follower
        // must not stall the executor's push_line.
        let (fresh, finished) = {
            let mut inner = entry.lock();
            while inner.lines.len() == sent
                && matches!(inner.phase, RunPhase::Queued | RunPhase::Running)
            {
                let (guard, timeout) = entry
                    .cond
                    .wait_timeout(inner, FLEET_PERIOD)
                    .expect("run entry poisoned");
                inner = guard;
                if timeout.timed_out() {
                    break;
                }
            }
            let fresh: Vec<String> = inner.lines[sent..].to_vec();
            sent = inner.lines.len();
            let finished = !matches!(inner.phase, RunPhase::Queued | RunPhase::Running);
            (fresh, finished)
        };
        for line in &fresh {
            writer.chunk(line.as_bytes())?;
        }
        if finished {
            return writer.finish();
        }
        if fresh.is_empty() {
            // Nothing completed this period: feed the follower a live
            // fleet snapshot instead of silence.
            writer.chunk(sink::stream_fleet(state.telemetry.snapshot().to_json()).as_bytes())?;
        }
    }
}
