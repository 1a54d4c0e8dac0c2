//! The one timing primitive, [`span`], and the timeline it feeds: a
//! trace sink streaming Chrome trace-event JSON to disk.
//!
//! A span guard reads the clock once when it opens and once when it
//! closes, and hands that single elapsed value to every consumer:
//!
//! * the per-thread path tree of [`crate::profile`] (the `profile.*`
//!   report sections, the flame summary and the per-name [`SpanStat`]
//!   summary), when the aggregate is on;
//! * the timeline — one complete (`"X"`) trace event in the sink — when
//!   a sink is open;
//! * the caller, through [`SpanGuard::finish`], so engine phase
//!   timers (`AtpgTiming`, fault-sim busy time) are the same
//!   measurement the profile and the trace show.
//!
//! Whether a span records is decided when it opens. Timestamps are
//! nanoseconds since the tracer's creation (monotonic, from
//! [`Instant`]), so a trace is self-consistent even though it carries
//! no wall-clock times. Every event also carries a small per-thread id
//! so the Figure 9 thread fan-out renders as separate tracks; a span
//! carries its nesting depth, the height of the thread's span stack.
//!
//! Besides spans there are point [`Tracer::event`]s and numeric
//! [`Tracer::counter`] samples, which Perfetto renders as instants and
//! counter tracks; the `perfetto` module encodes all three.
//!
//! The sink writes events as they happen, so a trace costs the sink's
//! 64 KiB buffer, not memory per event. The file is a JSON Array Format
//! document: `[`, the `process_name` metadata event, then one event per
//! line, each after the first led by its separating comma, and `]` when
//! the sink closes ([`Tracer::close_sink`]). Flushes are line-aligned
//! (every 32 events, from the panic hook, and on drop), so the file of
//! a run that dies is a prefix that parses as JSON once a torn last
//! line is dropped and `]` appended — the format makes the closing `]`
//! optional for exactly this case.
//!
//! Deep engine code opens spans on the process-global tracer
//! ([`global`] / [`span`]) so experiment drivers don't have to thread a
//! handle through every API. With the aggregate off and no sink open, a
//! span costs two clock reads and two atomic loads.

use std::cell::Cell;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, Once, OnceLock};
use std::time::Instant;

/// Flush the sink every this many events, so a run that dies
/// mid-flight (panic, kill, OOM) still leaves a parseable trace file
/// missing at most the newest few events.
const FLUSH_EVERY_EVENTS: u64 = 32;

/// Sink buffer capacity. Large enough that `BufWriter` never fills up
/// between explicit line-boundary flushes, so a flush can never land
/// mid-line and every flushed prefix of the file ends on a whole event.
const SINK_BUF_BYTES: usize = 64 * 1024;

/// An open trace file: the buffered writer, the events written (which
/// drive the periodic flush and the separating commas), and the first
/// I/O error, reported when the sink closes.
#[derive(Debug)]
struct Sink {
    w: BufWriter<File>,
    events: u64,
    error: Option<std::io::Error>,
}

impl Sink {
    fn write(&mut self, event: &str) {
        if self.error.is_some() {
            return;
        }
        let sep = if self.events == 0 { "" } else { "," };
        // One write per line: a buffer flush can never split an event.
        if let Err(e) = self.w.write_all(format!("{sep}{event}\n").as_bytes()) {
            self.error = Some(e);
        }
        self.events += 1;
        if self.events.is_multiple_of(FLUSH_EVERY_EVENTS) {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if let Err(e) = self.w.flush() {
            self.error.get_or_insert(e);
        }
    }
}

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

/// Monotonically increasing thread ids, assigned on first trace use per
/// thread. Id 1 is whichever thread traces first, which need not be the
/// main thread (in `fig9` a simulation worker is); 0 is never assigned.
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

/// The timeline: an optional trace sink. See the module docs.
#[derive(Debug)]
pub struct Tracer {
    /// Whether a sink is open.
    timeline: AtomicBool,
    epoch: Instant,
    sink: Mutex<Option<Sink>>,
}

impl Drop for Tracer {
    fn drop(&mut self) {
        // Local tracers (tests, tools) close their sink on the way out;
        // the process-global tracer is covered by the panic hook and
        // the periodic flush instead, since statics never drop.
        let _ = self.close_sink();
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A new tracer with no sink.
    pub fn new() -> Self {
        Tracer {
            timeline: AtomicBool::new(false),
            epoch: Instant::now(),
            sink: Mutex::new(None),
        }
    }

    /// Whether the timeline is on (a sink is open).
    pub fn enabled(&self) -> bool {
        self.timeline.load(Ordering::Relaxed)
    }

    /// Open a trace sink at `path` (truncates), replacing any open one,
    /// and write the `[` and the `process_name` metadata event naming
    /// the process `title` (flushed at once, so even a run killed
    /// before its first periodic flush leaves a parseable file).
    ///
    /// Only creating the file can fail here; a later write error is
    /// kept and returned by [`close_sink`](Tracer::close_sink).
    /// Opening a sink on the process-global tracer also installs (a
    /// chained) panic hook that flushes it, so a panicking run still
    /// leaves a parseable trace file.
    pub fn open_sink(&self, path: &str, title: &str) -> std::io::Result<()> {
        let mut sink = Sink {
            w: BufWriter::with_capacity(SINK_BUF_BYTES, File::create(path)?),
            events: 0,
            error: None,
        };
        if let Err(e) = sink.w.write_all(b"[\n") {
            sink.error = Some(e);
        }
        sink.write(&crate::perfetto::process_name(title));
        sink.flush();
        *self.lock_sink() = Some(sink);
        self.timeline.store(true, Ordering::Relaxed);
        if std::ptr::eq(self, global()) {
            install_panic_flush();
        }
        Ok(())
    }

    /// Close the sink: write the closing `]`, flush, and return the
    /// number of events written (metadata included), or the first I/O
    /// error the sink met. `Ok(0)` when no sink was open.
    pub fn close_sink(&self) -> std::io::Result<u64> {
        self.timeline.store(false, Ordering::Relaxed);
        let Some(mut s) = self.lock_sink().take() else {
            return Ok(0);
        };
        if s.error.is_none() {
            if let Err(e) = s.w.write_all(b"]\n") {
                s.error = Some(e);
            }
        }
        s.flush();
        match s.error {
            Some(e) => Err(e),
            None => Ok(s.events),
        }
    }

    /// The sink slot. Every update under the lock leaves the sink
    /// usable (at worst a torn last line, which readers drop), so a
    /// guard poisoned by a panicking thread is recovered rather than
    /// turned into a second panic in the panic hook or at exit.
    fn lock_sink(&self) -> MutexGuard<'_, Option<Sink>> {
        self.sink.lock().unwrap_or_else(|p| p.into_inner())
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
        if self.enabled() {
            self.write(&crate::perfetto::instant(
                name,
                self.now_ns(),
                thread_id(),
                fields,
            ));
        }
    }

    /// Sample a counter track: one (name, value) point at the current
    /// time. Cheap no-op (one atomic load) while the timeline is off,
    /// so engines may call it from inner loops.
    pub fn counter(&self, name: &str, value: f64) {
        if self.enabled() {
            self.write(&crate::perfetto::counter(
                name,
                self.now_ns(),
                value,
                thread_id(),
            ));
        }
    }

    fn write(&self, event: &str) {
        if let Some(s) = self.lock_sink().as_mut() {
            s.write(event);
        }
    }

    /// Flush the sink without closing it (other threads may still be
    /// writing when the panic hook calls this).
    fn flush(&self) {
        if let Some(s) = self.lock_sink().as_mut() {
            s.flush();
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
                let tid = thread_id();
                let event = crate::perfetto::span(self.name, ts_ns, dur_ns, depth, tid);
                self.tracer.write(&event);
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

/// The process-global tracer (no sink until one is opened).
pub fn global() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(Tracer::new)
}

/// Chain a panic hook (once) that flushes the global tracer's sink, so
/// partial runs still leave a parseable trace prefix.
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

/// Sample a counter on the global tracer (no-op while no sink is
/// open).
pub fn counter(name: &str, value: f64) {
    global().counter(name, value);
}
