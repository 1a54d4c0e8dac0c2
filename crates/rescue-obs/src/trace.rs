//! The one timing primitive, [`span`], and the timeline it feeds: a
//! JSONL sink and an in-memory record buffer for Perfetto export.
//!
//! A span guard reads the clock once when it opens and once when it
//! closes, and hands that single elapsed value to every consumer:
//!
//! * the per-thread path tree of [`crate::profile`] (the `profile.*`
//!   report sections, the flame summary and the per-name [`SpanStat`]
//!   summary), when the aggregate is on;
//! * the timeline — one JSON object per line in the sink, and a
//!   [`TraceRecord`] when recording — when a sink is attached or
//!   recording is on;
//! * the caller, through [`SpanGuard::finish`], so engine phase
//!   timers (`AtpgTiming`, fault-sim busy time) are the same
//!   measurement the profile and the trace show.
//!
//! Whether a span records is decided when it opens. Timestamps are
//! nanoseconds since the tracer's creation (monotonic, from
//! [`Instant`]), so a trace is self-consistent even though it carries
//! no wall-clock times. Every record also carries a small per-thread
//! id so the Figure 9 thread fan-out renders as separate tracks, and a
//! nesting depth: the height of the thread's span stack.
//!
//! Besides spans there are point [`Tracer::event`]s and numeric
//! [`Tracer::counter`] samples; counters become counter tracks in the
//! Perfetto export ([`crate::perfetto`]).
//!
//! Deep engine code opens spans on the process-global tracer
//! ([`global`] / [`span`]) so experiment drivers don't have to thread a
//! handle through every API. With the aggregate off and no sink or
//! recording, a span costs two clock reads and two atomic loads.

use crate::json::JsonObj;
use std::cell::Cell;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

/// Flush the JSONL sink every this many lines, so a run that dies
/// mid-flight (panic, kill, OOM) still leaves a parseable trace file
/// missing at most the newest few records.
const FLUSH_EVERY_LINES: u64 = 32;

/// Sink buffer capacity. Large enough that `BufWriter` never fills up
/// between explicit line-boundary flushes, so a flush can never land
/// mid-line and every flushed prefix of the file is valid JSONL.
const SINK_BUF_BYTES: usize = 64 * 1024;

/// A JSONL sink: the buffered writer plus a line counter driving the
/// periodic line-aligned flush.
#[derive(Debug)]
struct Sink {
    w: BufWriter<File>,
    lines: u64,
}

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

/// Monotonically increasing thread ids, assigned on first trace use per
/// thread. Id 1 is whichever thread traces first (the main thread in
/// practice); 0 is never assigned.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn thread_id() -> u64 {
    TID.with(|t| {
        let v = t.get();
        if v != 0 {
            return v;
        }
        let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        t.set(v);
        v
    })
}

/// Aggregated statistics for one span name (see
/// [`crate::profile::summarize`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Span name.
    pub name: String,
    /// Times the span was entered.
    pub count: u64,
    /// Total nanoseconds across all entries.
    pub total_ns: u64,
    /// Longest single entry in nanoseconds.
    pub max_ns: u64,
}

/// One recorded trace entry, kept in memory when recording is enabled
/// (see [`Tracer::set_record`]). This is the input to the Perfetto
/// converter.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceRecord {
    /// A closed span.
    Span {
        /// Span name.
        name: String,
        /// Start, nanoseconds since the tracer epoch.
        ts_ns: u64,
        /// Duration in nanoseconds.
        dur_ns: u64,
        /// Nesting depth at open.
        depth: u64,
        /// Originating thread.
        tid: u64,
    },
    /// A point event.
    Event {
        /// Event name.
        name: String,
        /// Timestamp, nanoseconds since the tracer epoch.
        ts_ns: u64,
        /// Originating thread.
        tid: u64,
        /// Free-form string fields.
        fields: Vec<(String, String)>,
    },
    /// A numeric counter sample (one point on a counter track).
    Counter {
        /// Counter (track) name.
        name: String,
        /// Timestamp, nanoseconds since the tracer epoch.
        ts_ns: u64,
        /// Sampled value.
        value: f64,
        /// Originating thread.
        tid: u64,
    },
}

/// The timeline: a JSONL sink and/or an in-memory record buffer. See
/// the module docs.
#[derive(Debug)]
pub struct Tracer {
    /// Sink attached or recording on.
    timeline: AtomicBool,
    recording: AtomicBool,
    epoch: Instant,
    sink: Mutex<Option<Sink>>,
    records: Mutex<Vec<TraceRecord>>,
}

impl Drop for Tracer {
    fn drop(&mut self) {
        // Local tracers (tests, tools) flush their sink on the way out;
        // the process-global tracer is covered by the panic hook and
        // the periodic flush instead, since statics never drop.
        self.flush();
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A new tracer with no sink and recording off.
    pub fn new() -> Self {
        Tracer {
            timeline: AtomicBool::new(false),
            recording: AtomicBool::new(false),
            epoch: Instant::now(),
            sink: Mutex::new(None),
            records: Mutex::new(Vec::new()),
        }
    }

    /// Whether the timeline is on: a sink is attached or recording is
    /// on.
    pub fn enabled(&self) -> bool {
        self.timeline.load(Ordering::Relaxed)
    }

    /// Keep every span/event/counter in memory (for [`take_records`] /
    /// Perfetto export) in addition to any JSONL sink.
    ///
    /// [`take_records`]: Tracer::take_records
    pub fn set_record(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
        let sink = self.sink.lock().expect("tracer sink poisoned").is_some();
        self.timeline.store(on || sink, Ordering::Relaxed);
    }

    /// Whether in-memory recording is on.
    pub fn recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }

    /// Drain the in-memory record buffer.
    pub fn take_records(&self) -> Vec<TraceRecord> {
        std::mem::take(&mut *self.records.lock().expect("tracer records poisoned"))
    }

    /// Attach a JSONL sink at `path` (truncates).
    ///
    /// Attaching a sink to the process-global tracer also installs (a
    /// chained) panic hook that flushes it, so a panicking run still
    /// leaves a parseable trace file.
    pub fn set_sink_path(&self, path: &str) -> std::io::Result<()> {
        let f = File::create(path)?;
        *self.sink.lock().expect("tracer sink poisoned") = Some(Sink {
            w: BufWriter::with_capacity(SINK_BUF_BYTES, f),
            lines: 0,
        });
        self.timeline.store(true, Ordering::Relaxed);
        if std::ptr::eq(self, global()) {
            install_panic_flush();
        }
        Ok(())
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span nested under this thread's innermost open span.
    /// Close it by dropping the guard or with [`SpanGuard::finish`].
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.open(name, false)
    }

    /// Open a span pinned to the root of the profile tree, ignoring the
    /// spans the caller has open (the timeline still nests it). Bodies
    /// that may run on a spawned worker use this, so their profile
    /// paths are the same whether they ran inline or on a thread.
    pub fn span_root(&self, name: &'static str) -> SpanGuard<'_> {
        self.open(name, true)
    }

    fn open(&self, name: &'static str, pin_to_root: bool) -> SpanGuard<'_> {
        let aggregate = crate::profile::global().enabled();
        let timeline = self.enabled();
        let depth = if aggregate || timeline {
            crate::profile::enter(name, pin_to_root)
        } else {
            None
        };
        SpanGuard {
            tracer: self,
            name,
            start: Instant::now(),
            depth,
            aggregate,
            timeline,
            closed: false,
            _not_send: PhantomData,
        }
    }

    /// Emit a point event with optional string fields.
    pub fn event(&self, name: &str, fields: &[(&str, &str)]) {
        if !self.enabled() {
            return;
        }
        let ts_ns = self.now_ns();
        let tid = thread_id();
        let mut o = JsonObj::new();
        o.str("type", "event")
            .str("name", name)
            .u64("ts_ns", ts_ns)
            .u64("depth", crate::profile::depth())
            .u64("tid", tid);
        for (k, v) in fields {
            o.str(k, v);
        }
        self.write_line(&o.finish());
        if self.recording() {
            self.push_record(TraceRecord::Event {
                name: name.to_owned(),
                ts_ns,
                tid,
                fields: fields
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                    .collect(),
            });
        }
    }

    /// Sample a counter track: one (name, value) point at the current
    /// time. Cheap no-op (one atomic load) while the timeline is off,
    /// so engines may call it from inner loops.
    pub fn counter(&self, name: &str, value: f64) {
        if !self.enabled() {
            return;
        }
        let ts_ns = self.now_ns();
        let tid = thread_id();
        let mut o = JsonObj::new();
        o.str("type", "counter")
            .str("name", name)
            .u64("ts_ns", ts_ns)
            .f64("value", value)
            .u64("tid", tid);
        self.write_line(&o.finish());
        if self.recording() {
            self.push_record(TraceRecord::Counter {
                name: name.to_owned(),
                ts_ns,
                value,
                tid,
            });
        }
    }

    fn push_record(&self, r: TraceRecord) {
        self.records
            .lock()
            .expect("tracer records poisoned")
            .push(r);
    }

    fn write_span(&self, name: &str, ts_ns: u64, dur_ns: u64, depth: u64) {
        let tid = thread_id();
        let mut o = JsonObj::new();
        o.str("type", "span")
            .str("name", name)
            .u64("ts_ns", ts_ns)
            .u64("dur_ns", dur_ns)
            .u64("depth", depth)
            .u64("tid", tid);
        self.write_line(&o.finish());
        if self.recording() {
            self.push_record(TraceRecord::Span {
                name: name.to_owned(),
                ts_ns,
                dur_ns,
                depth,
                tid,
            });
        }
    }

    fn write_line(&self, line: &str) {
        let mut sink = self.sink.lock().expect("tracer sink poisoned");
        if let Some(s) = sink.as_mut() {
            let _ = writeln!(s.w, "{line}");
            s.lines += 1;
            if s.lines.is_multiple_of(FLUSH_EVERY_LINES) {
                let _ = s.w.flush();
            }
        }
    }

    /// Flush the sink (call before exiting).
    pub fn flush(&self) {
        // A poisoned mutex here means the panic hook is flushing after
        // a panic inside the sink critical section; recover the guard
        // rather than double-panic.
        let mut guard = match self.sink.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(s) = guard.as_mut() {
            let _ = s.w.flush();
        }
    }
}

/// RAII guard for an open span: closes when dropped, or through
/// [`SpanGuard::finish`], which also returns the elapsed time. Bound to
/// the thread that opened it (the profile stack is thread-local).
#[derive(Debug)]
#[must_use = "the span is timed until the guard drops"]
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    name: &'static str,
    start: Instant,
    /// Stack height at open; `None` when neither the aggregate nor the
    /// timeline was on (the guard then only times).
    depth: Option<u64>,
    aggregate: bool,
    timeline: bool,
    closed: bool,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard<'_> {
    /// Close the span and return its elapsed nanoseconds — the same
    /// value the profile tree and the timeline received.
    pub fn finish(mut self) -> u64 {
        self.close()
    }

    fn close(&mut self) -> u64 {
        self.closed = true;
        let dur_ns = self.start.elapsed().as_nanos() as u64;
        if let Some(depth) = self.depth {
            crate::profile::exit(dur_ns, self.aggregate);
            if self.timeline {
                let ts_ns = self.tracer.ns_at(self.start);
                self.tracer.write_span(self.name, ts_ns, dur_ns, depth);
            }
        }
        dur_ns
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.closed {
            self.close();
        }
    }
}

/// The process-global tracer (no sink, recording off).
pub fn global() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(Tracer::new)
}

/// Chain a panic hook (once) that flushes the global tracer's sink, so
/// partial runs still yield parseable JSONL.
fn install_panic_flush() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            global().flush();
            prev(info);
        }));
    });
}

/// Open a span on the global tracer.
///
/// ```
/// let s = rescue_obs::span("table3.atpg");
/// // ... phase work ...
/// let elapsed_ns = s.finish();
/// # let _ = elapsed_ns;
/// ```
pub fn span(name: &'static str) -> SpanGuard<'static> {
    global().span(name)
}

/// Open a span on the global tracer pinned to the profile root (see
/// [`Tracer::span_root`]).
pub fn span_root(name: &'static str) -> SpanGuard<'static> {
    global().span_root(name)
}

/// Sample a counter on the global tracer (no-op while the timeline is
/// off).
pub fn counter(name: &str, value: f64) {
    global().counter(name, value);
}
