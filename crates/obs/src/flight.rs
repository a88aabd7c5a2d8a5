//! The flight recorder: typed events on the *simulated* clock.
//!
//! This is the third observability channel, sitting between the
//! deterministic aggregates of [`crate::metrics`] and the wall-clock
//! spans of [`crate::trace`]: like metrics, every recorded event is a
//! pure function of the computation (simulated-ns timestamps, command
//! kinds, maintenance causes — never wall-clock or scheduling), so an
//! event log can ride cache entries and distributed-run envelopes byte
//! for byte. Like spans, it is an ordered per-event record rather than
//! a merged total, so a defense's maintenance timeline can be laid
//! against a covert sender's activity window by window.
//!
//! ## Capture model
//!
//! Recording is off by default and gated twice:
//!
//! * a process-global switch ([`enable`] / [`set_enabled`]), flipped by
//!   `--events-out` before any experiment runs, and
//! * a thread-local capture scope ([`capture`]), installed by the
//!   harness around each experiment unit — mirroring the metric-scope
//!   idiom, so events attribute to exactly one unit no matter how many
//!   worker threads run units concurrently.
//!
//! With either gate open-circuit, emission is a relaxed atomic load or
//! a thread-local check — cheap enough for permanently-instrumented
//! simulator paths. Producers that run hot loops (the memory
//! controller, mitigation wrappers) accumulate into a local
//! [`EventBuffer`] and are drained at obs-flush time by the simulator,
//! which tags the batch with its *segment* id.
//!
//! ## Segments
//!
//! One experiment unit may build several simulator instances, each
//! starting its own simulated clock at zero; a segment id (allocated
//! per instance via [`new_segment`], in construction order) keeps their
//! timelines apart. Rendering sorts stably by `(segment, t_ns)`, so the
//! byte output is invariant to how instance advances interleave.
//!
//! ## Bounds
//!
//! The capture scope is a ring: past [`cap`] events, the oldest event
//! is evicted and counted in a per-kind drop map that rides the
//! rendered log header — truncation is always visible, never silent.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Default capture-scope capacity (events per experiment unit).
pub const DEFAULT_CAP: usize = 65_536;

static ENABLED: AtomicBool = AtomicBool::new(false);
static CAP: AtomicUsize = AtomicUsize::new(DEFAULT_CAP);

/// One recorded event on the simulated-ns timebase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlightEvent {
    /// A DRAM command issued by the memory controller.
    Cmd {
        /// Issue time, simulated nanoseconds since the instance epoch.
        t_ns: u64,
        /// Command mnemonic (`act`, `pre`, `prea`, `rd`, `wr`, `ref`,
        /// `rfm`).
        cmd: &'static str,
        /// Rank index.
        rank: u32,
        /// Bank-group index.
        bank_group: u32,
        /// Bank index within the group.
        bank: u32,
        /// Row address, for row-addressed commands.
        row: Option<u64>,
    },
    /// A defense maintenance decision resolving (taken, deferred, or
    /// absorbed), with its cause.
    Maint {
        /// Resolution time, simulated nanoseconds.
        t_ns: u64,
        /// What was done (`rfm`, `para`, `refresh`).
        action: &'static str,
        /// Why (`scheduled`, `reactive`, `abo`, `deferred`).
        cause: &'static str,
        /// Rank index.
        rank: u32,
        /// Target bank for same-bank scoped maintenance.
        bank: Option<u32>,
        /// Lateness versus the published due time, simulated ns.
        slack_ns: u64,
    },
    /// A mitigation wrapper intervening in the maintenance timeline.
    Mitigation {
        /// Decision time, simulated nanoseconds.
        t_ns: u64,
        /// Wrapper name (`jitter`, `batch`, `shaper`, `quota`).
        wrapper: &'static str,
        /// What it did (`slip`, `defer`, `dummy-rfm`, `absorb`,
        /// `throttle`).
        action: &'static str,
        /// Rank index.
        rank: u32,
        /// Magnitude in simulated ns (slip amount, deferral), when the
        /// intervention has one.
        amount_ns: u64,
    },
    /// One link-layer symbol window with its decode verdict.
    Link {
        /// Window start, simulated nanoseconds.
        t_ns: u64,
        /// Window end, simulated nanoseconds.
        t_end_ns: u64,
        /// Window index within the transmission.
        window: u64,
        /// The symbol the sender modulated into this window.
        symbol: u64,
        /// Attacker-observable events counted in the window.
        events: u64,
        /// Per-window verdict (`hit`, `miss`, `false-positive`,
        /// `idle`).
        verdict: &'static str,
    },
}

impl FlightEvent {
    /// One link-layer symbol window `[t_ns, t_end_ns)`: the sender
    /// modulated `symbol` into it and the receiver counted `events`,
    /// reading the window as "on" at `events >= threshold`. The verdict
    /// sets that reading against the symbol: `hit`, `miss`,
    /// `false-positive` or `idle`.
    pub fn link_window(
        t_ns: u64,
        t_end_ns: u64,
        window: u64,
        symbol: u64,
        events: u64,
        threshold: u64,
    ) -> FlightEvent {
        let verdict = match (symbol != 0, events >= threshold) {
            (true, true) => "hit",
            (true, false) => "miss",
            (false, true) => "false-positive",
            (false, false) => "idle",
        };
        FlightEvent::Link {
            t_ns,
            t_end_ns,
            window,
            symbol,
            events,
            verdict,
        }
    }

    /// The event's simulated-ns timestamp (window start for links).
    pub fn t_ns(&self) -> u64 {
        match self {
            FlightEvent::Cmd { t_ns, .. }
            | FlightEvent::Maint { t_ns, .. }
            | FlightEvent::Mitigation { t_ns, .. }
            | FlightEvent::Link { t_ns, .. } => *t_ns,
        }
    }

    /// The event's kind tag as rendered in NDJSON (`cmd`, `maint`,
    /// `mitigation`, `link`).
    pub fn kind(&self) -> &'static str {
        match self {
            FlightEvent::Cmd { .. } => "cmd",
            FlightEvent::Maint { .. } => "maint",
            FlightEvent::Mitigation { .. } => "mitigation",
            FlightEvent::Link { .. } => "link",
        }
    }

    /// Renders the event as one NDJSON line body (no trailing newline)
    /// with a fixed key order, so identical events are identical bytes.
    fn render_into(&self, seg: u64, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            FlightEvent::Cmd {
                t_ns,
                cmd,
                rank,
                bank_group,
                bank,
                row,
            } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"cmd\",\"seg\":{seg},\"t_ns\":{t_ns},\"cmd\":\"{cmd}\",\
                     \"rank\":{rank},\"bg\":{bank_group},\"bank\":{bank}"
                );
                if let Some(row) = row {
                    let _ = write!(out, ",\"row\":{row}");
                }
                out.push('}');
            }
            FlightEvent::Maint {
                t_ns,
                action,
                cause,
                rank,
                bank,
                slack_ns,
            } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"maint\",\"seg\":{seg},\"t_ns\":{t_ns},\
                     \"action\":\"{action}\",\"cause\":\"{cause}\",\"rank\":{rank}"
                );
                if let Some(bank) = bank {
                    let _ = write!(out, ",\"bank\":{bank}");
                }
                let _ = write!(out, ",\"slack_ns\":{slack_ns}}}");
            }
            FlightEvent::Mitigation {
                t_ns,
                wrapper,
                action,
                rank,
                amount_ns,
            } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"mitigation\",\"seg\":{seg},\"t_ns\":{t_ns},\
                     \"wrapper\":\"{wrapper}\",\"action\":\"{action}\",\"rank\":{rank},\
                     \"amount_ns\":{amount_ns}}}"
                );
            }
            FlightEvent::Link {
                t_ns,
                t_end_ns,
                window,
                symbol,
                events,
                verdict,
            } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"link\",\"seg\":{seg},\"t_ns\":{t_ns},\"t_end_ns\":{t_end_ns},\
                     \"window\":{window},\"symbol\":{symbol},\"events\":{events},\
                     \"verdict\":\"{verdict}\"}}"
                );
            }
        }
    }
}

/// Turns flight recording on for the whole process.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Sets the process-global recording switch (the serve executor toggles
/// it per queued run).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether flight recording is enabled process-wide.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the capture-scope event capacity (`0` is treated as `1`).
pub fn set_cap(cap: usize) {
    CAP.store(cap.max(1), Ordering::Relaxed);
}

/// The capture-scope event capacity.
pub fn cap() -> usize {
    CAP.load(Ordering::Relaxed)
}

/// A bounded ring of events with per-kind drop accounting — the local
/// accumulator producers keep between obs flushes. Eviction is
/// keep-latest: the ring drops its *oldest* event and counts the drop,
/// so truncation is deterministic and visible.
#[derive(Debug, Clone, Default)]
pub struct EventBuffer {
    events: std::collections::VecDeque<FlightEvent>,
    dropped: BTreeMap<&'static str, u64>,
}

impl EventBuffer {
    /// An empty buffer (capacity is read from the global [`cap`] at
    /// each push, so buffers need no configuration).
    pub fn new() -> EventBuffer {
        EventBuffer::default()
    }

    /// Appends one event, evicting and counting the oldest past [`cap`].
    pub fn push(&mut self, event: FlightEvent) {
        if self.events.len() >= cap() {
            if let Some(old) = self.events.pop_front() {
                *self.dropped.entry(old.kind()).or_insert(0) += 1;
            }
        }
        self.events.push_back(event);
    }

    /// Whether the buffer holds no events and recorded no drops.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.dropped.is_empty()
    }

    /// Removes and returns the buffered events and drop counts.
    pub fn drain(&mut self) -> (Vec<FlightEvent>, BTreeMap<&'static str, u64>) {
        (
            std::mem::take(&mut self.events).into(),
            std::mem::take(&mut self.dropped),
        )
    }

    /// Drains `other` into this buffer, carrying its drop counts along
    /// — how a flush point gathers several producers' rings into one
    /// batch without losing truncation accounting.
    pub fn absorb(&mut self, other: &mut EventBuffer) {
        let (events, dropped) = other.drain();
        for event in events {
            self.push(event);
        }
        for (kind, n) in dropped {
            *self.dropped.entry(kind).or_insert(0) += n;
        }
    }
}

/// The events one capture scope collected, with segment tags and drop
/// accounting — what [`capture`] returns.
#[derive(Debug, Clone, Default)]
pub struct FlightLog {
    entries: Vec<(u64, FlightEvent)>,
    dropped: BTreeMap<&'static str, u64>,
    next_seg: u64,
}

impl FlightLog {
    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was recorded (and nothing dropped).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.dropped.is_empty()
    }

    /// Per-kind counts of events evicted by the ring bound.
    pub fn dropped(&self) -> &BTreeMap<&'static str, u64> {
        &self.dropped
    }

    /// Iterates the retained `(segment, event)` pairs in recorded
    /// order.
    pub fn entries(&self) -> impl Iterator<Item = (u64, &FlightEvent)> {
        self.entries.iter().map(|(seg, e)| (*seg, e))
    }

    fn push(&mut self, seg: u64, event: FlightEvent) {
        if self.entries.len() >= cap() {
            let (_, old) = self.entries.remove(0);
            *self.dropped.entry(old.kind()).or_insert(0) += 1;
        }
        self.entries.push((seg, event));
    }

    /// Renders the log as NDJSON: one `{"kind":"unit",...}` header line
    /// carrying the unit identity, retained-event count and drop map,
    /// then one line per event, stably sorted by `(segment, t_ns)` so
    /// the bytes do not depend on how producer flushes interleaved.
    pub fn render(&self, unit: &str, index: usize) -> String {
        use std::fmt::Write as _;
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_by_key(|&i| (self.entries[i].0, self.entries[i].1.t_ns()));
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"kind\":\"unit\",\"unit\":\"{}\",\"index\":{index},\"events\":{},\"dropped\":{{",
            escape(unit),
            self.entries.len()
        );
        for (i, (kind, n)) in self.dropped.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{kind}\":{n}");
        }
        out.push_str("}}\n");
        for i in order {
            let (seg, event) = &self.entries[i];
            event.render_into(*seg, &mut out);
            out.push('\n');
        }
        out
    }
}

/// The experiment-level header line an assembled event log starts with;
/// per-unit logs ([`FlightLog::render`]) follow in unit order.
pub fn experiment_header(experiment: &str, scale: &str, seed: u64, units: usize) -> String {
    format!(
        "{{\"kind\":\"experiment\",\"experiment\":\"{}\",\"scale\":\"{}\",\"seed\":{seed},\
         \"units\":{units}}}\n",
        escape(experiment),
        escape(scale)
    )
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

thread_local! {
    /// The capture scope installed on this thread, if any. Unlike
    /// metric scopes these do not nest: one scope per experiment unit.
    static SCOPE: std::cell::RefCell<Option<FlightLog>> =
        const { std::cell::RefCell::new(None) };
}

/// Whether events emitted on this thread right now would be retained:
/// recording is enabled *and* a capture scope is installed. Producers
/// check this before building events.
pub fn active() -> bool {
    enabled() && SCOPE.with(|s| s.borrow().is_some())
}

/// Allocates the next segment id in the current capture scope (zero
/// without one). Simulator instances call this once, in construction
/// order, so segment ids are stable across execution modes.
pub fn new_segment() -> u64 {
    SCOPE.with(|s| {
        let mut slot = s.borrow_mut();
        match slot.as_mut() {
            Some(log) => {
                let seg = log.next_seg;
                log.next_seg += 1;
                seg
            }
            None => 0,
        }
    })
}

/// Emits one event tagged with `seg` into the current capture scope; a
/// no-op without one.
pub fn emit(seg: u64, event: FlightEvent) {
    if !enabled() {
        return;
    }
    SCOPE.with(|s| {
        if let Some(log) = s.borrow_mut().as_mut() {
            log.push(seg, event);
        }
    });
}

/// Emits a drained producer batch tagged with `seg`, folding the
/// producer's drop counts into the scope's accounting.
pub fn emit_batch(seg: u64, events: Vec<FlightEvent>, dropped: BTreeMap<&'static str, u64>) {
    if !enabled() {
        return;
    }
    SCOPE.with(|s| {
        if let Some(log) = s.borrow_mut().as_mut() {
            for event in events {
                log.push(seg, event);
            }
            for (kind, n) in dropped {
                *log.dropped.entry(kind).or_insert(0) += n;
            }
        }
    });
}

/// Runs `f` under a fresh capture scope on this thread and returns its
/// result together with every event recorded while it ran. The scope is
/// removed even if `f` panics (its events are discarded with it).
///
/// With recording disabled the scope still installs — it is one
/// `Option` swap — but producers see [`active`] false and emit nothing,
/// so the returned log is empty.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, FlightLog) {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            SCOPE.with(|s| {
                s.borrow_mut().take();
            });
        }
    }

    SCOPE.with(|s| {
        *s.borrow_mut() = Some(FlightLog::default());
    });
    let guard = Guard;
    let value = f();
    let log = SCOPE.with(|s| s.borrow_mut().take().unwrap_or_default());
    drop(guard);
    (value, log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The enable switch and cap are process-global; serialize tests.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn cmd(t_ns: u64) -> FlightEvent {
        FlightEvent::Cmd {
            t_ns,
            cmd: "act",
            rank: 0,
            bank_group: 1,
            bank: 2,
            row: Some(41),
        }
    }

    #[test]
    fn link_window_verdict_sets_the_reading_against_the_symbol() {
        let verdict =
            |symbol, events| match FlightEvent::link_window(0, 25_000, 0, symbol, events, 2) {
                FlightEvent::Link { verdict, .. } => verdict,
                other => panic!("{other:?}"),
            };
        assert_eq!(verdict(1, 2), "hit");
        assert_eq!(verdict(1, 1), "miss");
        assert_eq!(verdict(0, 3), "false-positive");
        assert_eq!(verdict(0, 0), "idle");
    }

    #[test]
    fn disabled_or_unscoped_emission_is_dropped() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_enabled(false);
        assert!(!active());
        emit(0, cmd(5)); // no scope, disabled: silently dropped
        let ((), log) = capture(|| {
            assert!(!active(), "disabled: capture scope stays cold");
            emit(0, cmd(6));
        });
        assert!(log.is_empty(), "disabled emission must not record");
        set_enabled(true);
        emit(0, cmd(7)); // enabled but unscoped: dropped
        let ((), log) = capture(|| {});
        assert!(log.is_empty());
        set_enabled(false);
    }

    #[test]
    fn capture_records_segments_and_sorts_renderings() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        let ((), log) = capture(|| {
            assert!(active());
            let a = new_segment();
            let b = new_segment();
            assert_eq!((a, b), (0, 1));
            // Interleaved emission across segments, out of time order.
            emit(b, cmd(10));
            emit(a, cmd(20));
            emit(
                a,
                FlightEvent::Maint {
                    t_ns: 5,
                    action: "rfm",
                    cause: "scheduled",
                    rank: 0,
                    bank: None,
                    slack_ns: 3,
                },
            );
        });
        set_enabled(false);
        assert_eq!(log.len(), 3);
        let text = log.render("mitigated defense=prac", 4);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            "{\"kind\":\"unit\",\"unit\":\"mitigated defense=prac\",\"index\":4,\
             \"events\":3,\"dropped\":{}}"
        );
        // Sorted by (seg, t_ns): seg 0 @5, seg 0 @20, seg 1 @10.
        assert!(lines[1].contains("\"kind\":\"maint\"") && lines[1].contains("\"seg\":0"));
        assert!(lines[2].contains("\"t_ns\":20") && lines[2].contains("\"seg\":0"));
        assert!(lines[3].contains("\"t_ns\":10") && lines[3].contains("\"seg\":1"));
    }

    #[test]
    fn ring_bound_drops_oldest_with_accounting() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        let was = cap();
        set_cap(2);
        let ((), log) = capture(|| {
            for t in 0..5 {
                emit(0, cmd(t));
            }
        });
        set_cap(was);
        set_enabled(false);
        assert_eq!(log.len(), 2, "ring keeps the latest");
        assert_eq!(log.dropped().get("cmd"), Some(&3));
        let text = log.render("u", 0);
        assert!(text.contains("\"dropped\":{\"cmd\":3}"), "{text}");
        assert!(text.contains("\"t_ns\":4"), "latest retained: {text}");
        assert!(!text.contains("\"t_ns\":0"), "oldest evicted: {text}");
    }

    #[test]
    fn event_buffer_drains_events_and_drops() {
        let _guard = TEST_LOCK.lock().unwrap();
        let was = cap();
        set_cap(2);
        let mut buf = EventBuffer::new();
        assert!(buf.is_empty());
        for t in 0..3 {
            buf.push(cmd(t));
        }
        set_cap(was);
        let (events, dropped) = buf.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].t_ns(), 1);
        assert_eq!(dropped.get("cmd"), Some(&1));
        assert!(buf.is_empty(), "drain empties the buffer");
    }

    #[test]
    fn renders_are_stable_ndjson() {
        let link = FlightEvent::Link {
            t_ns: 100,
            t_end_ns: 200,
            window: 7,
            symbol: 1,
            events: 4,
            verdict: "hit",
        };
        let mut out = String::new();
        link.render_into(2, &mut out);
        assert_eq!(
            out,
            "{\"kind\":\"link\",\"seg\":2,\"t_ns\":100,\"t_end_ns\":200,\"window\":7,\
             \"symbol\":1,\"events\":4,\"verdict\":\"hit\"}"
        );
        let mitigation = FlightEvent::Mitigation {
            t_ns: 9,
            wrapper: "jitter",
            action: "slip",
            rank: 1,
            amount_ns: 55,
        };
        out.clear();
        mitigation.render_into(0, &mut out);
        assert_eq!(
            out,
            "{\"kind\":\"mitigation\",\"seg\":0,\"t_ns\":9,\"wrapper\":\"jitter\",\
             \"action\":\"slip\",\"rank\":1,\"amount_ns\":55}"
        );
        assert_eq!(
            experiment_header("fig2", "quick", 11, 3),
            "{\"kind\":\"experiment\",\"experiment\":\"fig2\",\"scale\":\"quick\",\
             \"seed\":11,\"units\":3}\n"
        );
    }

    #[test]
    fn panics_unwind_the_scope() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        let caught = std::panic::catch_unwind(|| {
            capture(|| -> () { panic!("boom") });
        });
        set_enabled(false);
        assert!(caught.is_err());
        assert!(
            SCOPE.with(|s| s.borrow().is_none()),
            "a panicking capture must still be popped"
        );
    }
}
