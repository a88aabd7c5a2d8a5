//! Wall-clock spans recorded around the calls this tool makes into
//! each layer, exported in the Chrome `trace_event` shape that
//! `lh-experiments --trace-out` writes, plus the attribution the
//! program's own spans lack: every span carries its layer, experiment,
//! unit, its own id and its parent's id.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub layer: &'static str,
    pub experiment: String,
    pub unit: String,
    pub start: Instant,
    pub dur: Duration,
    pub tid: u64,
}

static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// An open span; records itself when dropped.
#[derive(Debug)]
#[must_use = "a span measures the scope it is bound to"]
pub struct Span {
    rec: Option<SpanRec>,
}

impl Span {
    /// Opens a span. `parent` is the id of the enclosing span (0 = root).
    pub fn enter(
        name: &'static str,
        layer: &'static str,
        experiment: &str,
        unit: &str,
        parent: u64,
    ) -> Span {
        epoch();
        Span {
            rec: Some(SpanRec {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                parent,
                name,
                layer,
                experiment: experiment.to_owned(),
                unit: unit.to_owned(),
                start: Instant::now(),
                dur: Duration::ZERO,
                tid: TID.with(|t| *t),
            }),
        }
    }

    /// This span's id, for its children.
    pub fn id(&self) -> u64 {
        self.rec.as_ref().map_or(0, |r| r.id)
    }

    /// Closes the span now and returns its duration.
    pub fn close(mut self) -> Duration {
        self.finish()
    }

    fn finish(&mut self) -> Duration {
        let Some(mut rec) = self.rec.take() else {
            return Duration::ZERO;
        };
        rec.dur = rec.start.elapsed();
        let dur = rec.dur;
        SPANS.lock().expect("span buffer poisoned").push(rec);
        dur
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Every span recorded so far, in completion order.
pub fn spans() -> Vec<SpanRec> {
    SPANS.lock().expect("span buffer poisoned").clone()
}

fn escape(s: &str) -> String {
    lh_harness::Json::from(s).to_compact()
}

/// Renders `spans` as Chrome `trace_event` JSON.
pub fn chrome_json(spans: &[SpanRec]) -> String {
    use std::fmt::Write as _;
    let pid = std::process::id();
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{},\
             \"args\":{{\"layer\":{},\"experiment\":{},\"unit\":{},\"id\":{},\"parent\":{}}}}}",
            escape(s.name),
            escape(s.layer),
            s.start.duration_since(epoch()).as_micros(),
            s.dur.as_micros(),
            s.tid,
            escape(s.layer),
            escape(&s.experiment),
            escape(&s.unit),
            s.id,
            s.parent
        );
    }
    out.push_str("\n]}\n");
    out
}
