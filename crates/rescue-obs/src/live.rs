//! Live progress counters: the engine-progress surface behind the
//! `--serve-metrics` HTTP endpoint ([`crate::server`]) and the
//! `--progress-every` progress frames in the trace.
//!
//! Long engine loops (PODEM over the collapsed fault list, sharded
//! fault simulation, pipeline simulation, fuzz campaigns) count their
//! progress on twelve ordinary [`Counter`]s of the global
//! [`crate::metrics::Registry`], named `live.<name>`. [`counters`]
//! registers all twelve together on first use, so `/metrics` lists
//! every `rescue_live_<name>_total` family from its first scrape. Engines
//! fetch the handles once, outside their loops; an update is one relaxed
//! `fetch_add`. Counters always count: there is no enable gate.
//!
//! `/metrics`, `/snapshot.json`, the `live` report section and the
//! [`ProgressMeter`]'s `live.<name>` counter tracks are all views over
//! the registry. A reader that wants a rate diffs two snapshots.

use crate::metrics::{Counter, RegistrySnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Registry-name prefix shared by every live counter.
const PREFIX: &str = "live.";

/// Handles to the twelve live counters in the global registry.
#[derive(Debug)]
pub struct EngineCounters {
    /// ATPG: collapsed faults classified, in any class.
    pub atpg_faults_classified: Arc<Counter>,
    /// ATPG: faults classified `Detected` by fault-simulation dropping.
    pub atpg_faults_detected: Arc<Counter>,
    /// ATPG: capture vectors committed (post-compaction, post-fill).
    pub atpg_vectors: Arc<Counter>,
    /// Fault simulation: gate re-evaluations (the unit of fsim work).
    pub fsim_gate_evals: Arc<Counter>,
    /// Fault simulation: difference-propagation runs.
    pub fsim_faults_simulated: Arc<Counter>,
    /// Fault simulation: events pushed onto the propagation queue.
    pub fsim_events_queued: Arc<Counter>,
    /// Fault simulation: pattern blocks loaded (good-machine passes).
    pub fsim_blocks_loaded: Arc<Counter>,
    /// Pipeline simulation: cycles stepped.
    pub pipesim_cycles: Arc<Counter>,
    /// Pipeline simulation: instructions committed.
    pub pipesim_committed: Arc<Counter>,
    /// Fuzzing: cases completed across all enabled oracles.
    pub fuzz_cases: Arc<Counter>,
    /// Fuzzing: confirmed cross-engine divergences.
    pub fuzz_divergences: Arc<Counter>,
    /// Lint: diagnostics found across linted designs.
    pub lint_findings: Arc<Counter>,
}

/// The live counters, all twelve registered in
/// [`crate::metrics::global`] on the first call.
pub fn counters() -> &'static EngineCounters {
    static LIVE: OnceLock<EngineCounters> = OnceLock::new();
    LIVE.get_or_init(|| {
        let c = |name: &str| crate::metrics::global().counter(name);
        EngineCounters {
            atpg_faults_classified: c("live.atpg.faults_classified"),
            atpg_faults_detected: c("live.atpg.faults_detected"),
            atpg_vectors: c("live.atpg.vectors"),
            fsim_gate_evals: c("live.fsim.gate_evals"),
            fsim_faults_simulated: c("live.fsim.faults_simulated"),
            fsim_events_queued: c("live.fsim.events_queued"),
            fsim_blocks_loaded: c("live.fsim.blocks_loaded"),
            pipesim_cycles: c("live.pipesim.cycles"),
            pipesim_committed: c("live.pipesim.committed"),
            fuzz_cases: c("live.fuzz.cases"),
            fuzz_divergences: c("live.fuzz.divergences"),
            lint_findings: c("live.lint.findings"),
        }
    })
}

/// Prometheus `# HELP` text for a live counter's registry name.
pub fn help(name: &str) -> Option<&'static str> {
    Some(match name.strip_prefix(PREFIX)? {
        "atpg.faults_classified" => "Collapsed faults classified by ATPG.",
        "atpg.faults_detected" => "Faults classified Detected by ATPG.",
        "atpg.vectors" => "Capture vectors committed by ATPG.",
        "fsim.gate_evals" => "Gate re-evaluations in fault simulation.",
        "fsim.faults_simulated" => "Difference-propagation runs in fault simulation.",
        "fsim.events_queued" => "Events pushed onto the fault-sim propagation queue.",
        "fsim.blocks_loaded" => "Pattern blocks loaded (good-machine passes).",
        "pipesim.cycles" => "Pipeline-simulation cycles stepped.",
        "pipesim.committed" => "Pipeline-simulation instructions committed.",
        "fuzz.cases" => "Fuzz cases completed.",
        "fuzz.divergences" => "Confirmed cross-engine fuzz divergences.",
        "lint.findings" => "Lint diagnostics found.",
        _ => return None,
    })
}

/// The live counters of a registry snapshot as `(name, total)`, with
/// the `live.` prefix stripped (`atpg.faults_classified`), name-sorted.
pub fn totals(reg: &RegistrySnapshot) -> impl Iterator<Item = (&str, u64)> {
    reg.counters
        .iter()
        .filter_map(|(name, v)| Some((name.strip_prefix(PREFIX)?, *v)))
}

/// The `--progress-every` period in ticked units (0 = frames off).
static PROGRESS_EVERY: AtomicU64 = AtomicU64::new(0);

/// Set the `--progress-every` period that arms [`ProgressMeter::new`].
pub fn set_progress_every(every: u64) {
    PROGRESS_EVERY.store(every, Ordering::Relaxed);
}

/// Periodic progress-frame emitter for one engine loop.
///
/// Created with a label and armed by the global `--progress-every`
/// period; every `period` ticked units it emits one `progress` instant
/// to the trace sink (a progress frame carrying the label and the
/// cumulative unit count) plus `progress.<label>` / `live.<counter>`
/// counter samples, which Perfetto renders as counter tracks. While the
/// period is 0 a tick is a single integer add.
///
/// Call [`ProgressMeter::finish`] (or just drop the meter) when the
/// loop ends: a final completion frame is emitted so the last partial
/// window — ticks since the last period boundary — is never silently
/// dropped and scrapers always see the 100% state.
#[derive(Debug)]
pub struct ProgressMeter {
    label: &'static str,
    every: u64,
    pending: u64,
    done: u64,
    frames: u64,
    finished: bool,
}

impl ProgressMeter {
    /// A meter for the loop named `label`, armed by the global period.
    pub fn new(label: &'static str) -> Self {
        ProgressMeter::with_period(label, PROGRESS_EVERY.load(Ordering::Relaxed))
    }

    /// A meter with an explicit period (0 = frames disabled), bypassing
    /// the global `--progress-every` setting.
    pub fn with_period(label: &'static str, every: u64) -> Self {
        ProgressMeter {
            label,
            every,
            pending: 0,
            done: 0,
            frames: 0,
            finished: false,
        }
    }

    /// Advance the loop by `units`, emitting a progress frame whenever
    /// the period boundary is crossed.
    #[inline]
    pub fn tick(&mut self, units: u64) {
        self.done += units;
        if self.every == 0 {
            return;
        }
        self.pending += units;
        if self.pending >= self.every {
            self.pending %= self.every;
            self.emit(false);
        }
    }

    /// Units ticked so far.
    pub fn done(&self) -> u64 {
        self.done
    }

    /// Progress frames emitted so far (including the final one).
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Mark the loop complete: emits one final progress frame (marked
    /// `"final": "true"`) flushing the last partial window and the
    /// current live totals. Idempotent; also invoked on drop, so early
    /// returns still publish the completion state. No-op while frames
    /// are disabled (period 0).
    pub fn finish(&mut self) {
        if self.finished || self.every == 0 {
            return;
        }
        self.finished = true;
        self.pending = 0;
        self.emit(true);
    }

    fn emit(&mut self, final_frame: bool) {
        self.frames += 1;
        let tracer = crate::trace::global();
        let done = self.done.to_string();
        let mut fields = vec![("label", self.label), ("done", done.as_str())];
        if final_frame {
            fields.push(("final", "true"));
        }
        tracer.event("progress", &fields);
        tracer.counter(&format!("progress.{}", self.label), self.done as f64);
        for (name, total) in totals(&crate::metrics::global().snapshot()) {
            if total > 0 {
                tracer.counter(&format!("{PREFIX}{name}"), total as f64);
            }
        }
    }
}

impl Drop for ProgressMeter {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_strip_the_prefix_and_skip_other_counters() {
        let reg = crate::metrics::Registry::new();
        reg.counter("live.fuzz.cases").add(3);
        reg.counter("serve.jobs").add(9);
        let snap = reg.snapshot();
        let got: Vec<(&str, u64)> = totals(&snap).collect();
        assert_eq!(got, vec![("fuzz.cases", 3)]);
        assert_eq!(help("live.fuzz.cases"), Some("Fuzz cases completed."));
        assert_eq!(help("serve.jobs"), None);
    }

    #[test]
    fn meter_with_zero_period_never_emits() {
        // Global period defaults to 0 → ticks are pure counting.
        let mut m = ProgressMeter::new("test");
        for _ in 0..1000 {
            m.tick(3);
        }
        assert_eq!(m.done(), 3000);
        m.finish();
        assert_eq!(m.frames(), 0, "period 0 stays silent even at finish");
    }

    #[test]
    fn meter_finish_flushes_partial_window_once() {
        // Period 10, 25 ticks → frames at 10 and 20, plus exactly one
        // final frame for the trailing 5 units. finish() is idempotent
        // and drop must not emit a second final frame.
        let mut m = ProgressMeter::with_period("test_finish", 10);
        for _ in 0..25 {
            m.tick(1);
        }
        assert_eq!(m.frames(), 2);
        m.finish();
        assert_eq!(m.frames(), 3);
        m.finish();
        assert_eq!(m.frames(), 3);
        drop(m);
    }

    #[test]
    fn meter_finish_emits_even_before_first_boundary() {
        let mut m = ProgressMeter::with_period("test_early", 1000);
        m.tick(7);
        assert_eq!(m.frames(), 0);
        m.finish();
        assert_eq!(m.frames(), 1, "early phase end still publishes 100%");
    }
}
