//! The top-level ATPG flow and the scan-test statistics of Table 3.

use crate::error::AtpgError;
use crate::parallel::{resolve_threads, FsimParallel, LaneShards};
use crate::podem::{Podem, PodemConfig, PodemResult, TestCube};
use rescue_netlist::V3;
use rescue_netlist::{Driver, Fault, FaultSite, Levelized, PatternBlock, ScanNetlist};
use rescue_obs::coverage::{CoverageRecorder, LabelId};
use rescue_obs::metrics::HistogramSnapshot;
use rescue_obs::SpanGuard;
use rescue_obs::{CoverageCurve, SplitMix64};
use std::collections::HashMap;

/// Attribution label for faults on primary inputs (tester-side, no ICI
/// component).
const IO_LABEL: &str = "(primary-input)";

/// Classification of each collapsed fault after a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Detected by a generated vector.
    Detected,
    /// On the scan path (scan mux, `scan_in` / `scan_enable` pins):
    /// exercised by the chain-integrity test that precedes capture
    /// vectors, not by capture vectors themselves.
    ChainTested,
    /// Proven untestable under the capture-mode pin constraints.
    Untestable,
    /// PODEM hit its backtrack limit.
    Aborted,
    /// Not yet processed (only seen mid-run).
    Undetected,
}

/// Configuration for an ATPG run.
#[derive(Clone, Debug)]
pub struct AtpgConfig {
    /// PODEM limits.
    pub podem: PodemConfig,
    /// Seed for random fill of don't-care bits.
    pub fill_seed: u64,
    /// Static vector compaction: merge compatible test cubes before
    /// random fill. This is where ICI pays off in vector count — cubes of
    /// independent components rarely conflict, so more faults share one
    /// vector (the paper's Table 3 observation 2).
    pub merge_cubes: bool,
    /// How many of the most recent pending cubes a new cube may merge
    /// into. Real compactors bound this search for runtime; the bound
    /// also controls how aggressive compaction is.
    pub merge_window: usize,
    /// Fault-simulation worker threads. `0` (the default) resolves via
    /// the `RESCUE_THREADS` environment variable, then the machine's
    /// available parallelism. Every result — fault classes, vectors,
    /// coverage curve, all counters — is bit-identical for any value;
    /// only wall-clock changes (see [`crate::parallel`]).
    pub threads: usize,
    /// Fault-simulation lane width in 64-pattern words: 1 (the
    /// default), 4 or 8, i.e. 64, 256 or 512 patterns per pass of the
    /// PPSFP kernel ([`crate::parallel::LaneShards`]). Like `threads`,
    /// this is a datapath knob, not a semantic one: lanes are numbered
    /// `word * 64 + bit` in vector order and the flush cadence stays
    /// at 64 cubes, so fault classes, vectors, the coverage curve and
    /// the deterministic counters are bit-identical for any supported
    /// value. (The multi-block throughput of the wide passes is
    /// measured by the `fsim_kernel` bench width sweep, which feeds
    /// them full 4/8-block groups.)
    pub lane_words: usize,
    /// Static redundancy pre-pass: before the PODEM loop, build the
    /// implication engine ([`rescue_lint::ImplicationEngine`]) under
    /// the capture constraints and prove what faults it can untestable
    /// (FIRE-style fault-independent redundancy identification).
    /// Proven faults skip their PODEM call and are classified
    /// `Untestable` at the same point in the loop where PODEM would
    /// have run, so the generated vectors, the detected-fault set, and
    /// the scan statistics are bit-identical with the pre-pass on or
    /// off. Classifications are bit-identical too whenever PODEM's
    /// backtrack budget suffices to decide every proven fault (the
    /// `static_prepass_is_a_pure_shortcut` test pins this); when the
    /// budget is tighter, the only possible difference is the sound
    /// refinement `Aborted` → `Untestable` on proven faults — the
    /// pre-pass knows the true class where budgeted search gave up
    /// (the `prepass_contract` model-scale test pins that nothing
    /// else moves). The engine is conservative (a proof is sound, a
    /// non-proof says nothing), and the fuzz `redundancy` oracle
    /// cross-checks every proof against a 10,000-backtrack PODEM run.
    /// Off by default.
    pub static_prepass: bool,
    /// n-detect fault dropping: when `Some(n)` with `n > 1`, faults
    /// stay on a watch list after their first detection and keep being
    /// simulated against subsequent pattern groups until they have been
    /// detected by at least `n` distinct patterns, then retire. The
    /// watch list is separate from PODEM targeting, so classifications,
    /// vectors, and coverage provenance are bit-identical whether this
    /// is enabled or not; only the `ndetect_*` counters (and the fault
    /// simulator's workload) change. `None` (the default), `Some(0)`
    /// and `Some(1)` are all no-ops: the loop already stops targeting a
    /// fault at its first detection.
    pub drop_after: Option<u32>,
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig {
            podem: PodemConfig::default(),
            fill_seed: 0x5eed_cafe_f00d_0001,
            merge_cubes: true,
            merge_window: 6,
            threads: 0,
            lane_words: 1,
            static_prepass: false,
            drop_after: None,
        }
    }
}

/// The Table 3 scan-chain statistics for one design.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScanTestStats {
    /// Collapsed stuck-at faults targeted.
    pub faults: usize,
    /// Scan cells (chain length).
    pub cells: usize,
    /// Number of scan chains (always 1 here, as in the paper).
    pub chains: usize,
    /// Capture vectors generated.
    pub vectors: usize,
    /// Total tester cycles to apply all vectors (overlapped schedule),
    /// including one chain-integrity shift pass.
    pub cycles: u64,
}

/// Result of a full ATPG run.
#[derive(Clone, Debug)]
pub struct AtpgRun {
    /// The generated capture vectors (inputs + scanned state per vector).
    pub vectors: Vec<PatternVector>,
    /// Classification of every collapsed fault.
    pub classes: HashMap<Fault, FaultClass>,
    /// Table 3 statistics.
    pub stats: ScanTestStats,
    /// Engine counters and phase timing for the run.
    pub metrics: AtpgMetrics,
}

/// Deterministic engine counters for one ATPG run. Two runs with the
/// same design, config, and seed produce byte-identical counts, so the
/// struct is `Eq`-comparable for determinism guards.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AtpgCounts {
    /// Collapsed faults in the universe.
    pub faults_total: u64,
    /// Faults on the scan path, covered by the chain-integrity test.
    pub chain_tested: u64,
    /// Faults detected (by their own vector or dropped by simulation).
    pub detected: u64,
    /// Faults proven untestable under capture constraints.
    pub untestable: u64,
    /// Faults abandoned at the PODEM backtrack limit.
    pub aborted: u64,
    /// PODEM decision-stack pushes across all targets.
    pub podem_decisions: u64,
    /// PODEM backtracks across all targets.
    pub podem_backtracks: u64,
    /// Distribution of backtracks per targeted fault.
    pub backtracks_per_fault: HistogramSnapshot,
    /// Capture vectors generated after compaction and fill.
    pub vectors: u64,
    /// Test cubes that entered the static-compaction merge search.
    pub merges_attempted: u64,
    /// Cubes absorbed into an earlier pending cube (vectors saved).
    pub merges_merged: u64,
    /// 64-wide pattern blocks run through fault simulation.
    pub blocks_flushed: u64,
    /// Patterns simulated (vectors occupying bit lanes of those blocks).
    pub patterns_simulated: u64,
    /// Faults dropped by fault simulation rather than targeted by PODEM.
    pub faults_dropped_by_sim: u64,
    /// Distribution of faults dropped per simulated lane-block group
    /// (per 64-pattern block at the default `lane_words = 1`).
    pub drops_per_block: HistogramSnapshot,
    /// Gate re-evaluations inside the fault simulator, including any
    /// n-detect watch passes.
    pub fsim_gate_evals: u64,
    /// The configured `drop_after` n-detect target (0 when disabled).
    pub ndetect_target: u64,
    /// Cumulative distinct-pattern detections counted for watched
    /// faults (n-detect bookkeeping; 0 when disabled).
    pub ndetect_detections: u64,
    /// Watched faults retired after reaching the n-detect target.
    pub ndetect_retired: u64,
    /// Watched faults still below the n-detect target at end of run.
    pub ndetect_residual: u64,
    /// Faults the static pre-pass proved untestable (0 when
    /// [`AtpgConfig::static_prepass`] is off).
    pub prepass_proven: u64,
    /// PODEM calls skipped because the pre-pass had already proved the
    /// fault at the front of the queue. Equals `prepass_proven` minus
    /// any proven faults fault simulation dropped first (which cannot
    /// happen for sound proofs — pinned by the fuzz oracle).
    pub prepass_podem_calls_saved: u64,
}

impl AtpgCounts {
    /// Fraction of bit lanes used across all simulated blocks (1.0 means
    /// every block carried 64 live patterns).
    pub fn word_utilization(&self) -> f64 {
        if self.blocks_flushed == 0 {
            0.0
        } else {
            self.patterns_simulated as f64 / (self.blocks_flushed * 64) as f64
        }
    }
}

/// Wall-clock nanoseconds per ATPG phase. Excluded from determinism
/// comparisons (timing varies run to run; counts do not).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AtpgTiming {
    /// Time building the implication engine and proving faults in the
    /// static pre-pass (0 when disabled).
    pub prepass_ns: u64,
    /// Time inside PODEM test generation.
    pub generate_ns: u64,
    /// Time inside static cube compaction (merge search).
    pub compact_ns: u64,
    /// Time random-filling don't-care bits.
    pub fill_ns: u64,
    /// Time inside fault simulation (good-machine loads + drops).
    pub fsim_ns: u64,
    /// End-to-end run time.
    pub total_ns: u64,
}

/// Counters plus timing for one ATPG run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AtpgMetrics {
    /// Deterministic engine counters.
    pub counts: AtpgCounts,
    /// Wall-clock phase breakdown.
    pub timing: AtpgTiming,
    /// Fault-simulation worker utilization. Like [`AtpgTiming`],
    /// wall-clock data excluded from determinism comparisons.
    pub parallel: FsimParallel,
    /// Per-vector coverage curve with per-component attribution. Like
    /// [`AtpgCounts`], deterministic for a fixed design/config/seed; its
    /// final point agrees exactly with [`AtpgRun::coverage`].
    pub coverage: CoverageCurve,
}

/// One fully-specified capture vector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PatternVector {
    /// Value per primary input.
    pub inputs: Vec<bool>,
    /// Value per scan cell (state scanned in before capture).
    pub state: Vec<bool>,
}

impl AtpgRun {
    /// Fraction of non-chain, non-untestable faults detected.
    pub fn coverage(&self) -> f64 {
        let mut detected = 0usize;
        let mut targetable = 0usize;
        for class in self.classes.values() {
            match class {
                FaultClass::Detected => {
                    detected += 1;
                    targetable += 1;
                }
                FaultClass::Aborted | FaultClass::Undetected => targetable += 1,
                FaultClass::ChainTested | FaultClass::Untestable => {}
            }
        }
        if targetable == 0 {
            1.0
        } else {
            detected as f64 / targetable as f64
        }
    }

    /// Number of faults in a class.
    pub fn count(&self, class: FaultClass) -> usize {
        self.classes.values().filter(|&&c| c == class).count()
    }

    /// Convert the vector list into 64-wide pattern blocks for replay.
    pub fn blocks(&self, scanned: &ScanNetlist) -> Vec<PatternBlock> {
        vectors_to_blocks(&self.vectors, scanned)
    }
}

/// Pack fully-specified vectors into 64-wide [`PatternBlock`]s.
pub(crate) fn vectors_to_blocks(
    vectors: &[PatternVector],
    scanned: &ScanNetlist,
) -> Vec<PatternBlock> {
    let n_in = scanned.netlist.inputs().len();
    let n_ff = scanned.netlist.num_dffs();
    vectors
        .chunks(64)
        .map(|chunk| {
            let mut inputs = vec![0u64; n_in];
            let mut state = vec![0u64; n_ff];
            for (bit, v) in chunk.iter().enumerate() {
                for (i, &b) in v.inputs.iter().enumerate() {
                    if b {
                        inputs[i] |= 1 << bit;
                    }
                }
                for (i, &b) in v.state.iter().enumerate() {
                    if b {
                        state[i] |= 1 << bit;
                    }
                }
            }
            PatternBlock { inputs, state }
        })
        .collect()
}

/// The ATPG engine: binds a scanned design and a configuration.
#[derive(Debug)]
pub struct Atpg<'a> {
    scanned: &'a ScanNetlist,
    config: AtpgConfig,
}

impl<'a> Atpg<'a> {
    /// Create an engine for a scanned design.
    ///
    /// # Errors
    ///
    /// Returns [`AtpgError::MalformedChain`] when the chain description
    /// does not match the netlist — e.g. a non-scan netlist dressed up
    /// as a [`ScanNetlist`], or chain pins that are not real primary
    /// inputs/outputs.
    pub fn new(scanned: &'a ScanNetlist, config: AtpgConfig) -> Result<Self, AtpgError> {
        crate::chain::validate_chain(scanned)?;
        Ok(Atpg { scanned, config })
    }

    /// Capture-mode pin constraints: `scan_enable` = 0 (functional capture),
    /// `scan_in` free (it only feeds the first cell's scan leg, which the
    /// disabled mux ignores).
    pub fn capture_constraints(&self) -> Vec<Option<bool>> {
        let n = &self.scanned.netlist;
        n.inputs()
            .iter()
            .map(|&net| {
                if net == self.scanned.chain.scan_enable {
                    Some(false)
                } else {
                    None
                }
            })
            .collect()
    }

    /// Whether a fault lies on the scan path (covered by the chain test).
    ///
    /// This includes stuck-ats on scan-cell *outputs* (flip-flop Q nets):
    /// any fault there breaks the shift register itself, so the chain
    /// flush test catches it — which is why the paper counts scan-cell
    /// area as chipkill rather than attributing it to a component.
    pub fn is_chain_fault(&self, fault: Fault) -> bool {
        let n = &self.scanned.netlist;
        match fault.site {
            FaultSite::GateInput(g, _) => n.gate(g).is_scan_path(),
            FaultSite::Net(net) => {
                if net == self.scanned.chain.scan_in || net == self.scanned.chain.scan_enable {
                    return true;
                }
                match n.net_driver(net) {
                    Driver::Gate(g) => n.gate(g).is_scan_path(),
                    Driver::Dff(_) => true,
                    Driver::Input(_) => false,
                }
            }
        }
    }

    /// Run the full flow; see the crate docs for the phases.
    ///
    /// # Errors
    ///
    /// Returns [`AtpgError::UnsupportedLaneWidth`] if
    /// [`AtpgConfig::lane_words`] is not 1, 4 or 8, and
    /// [`AtpgError::LaneCountMismatch`] if the parallel
    /// fault-simulation reduction ever returns a lane count that does
    /// not match the fault list it was given (a broken invariant that
    /// would otherwise misclassify faults silently).
    pub fn run(&self) -> Result<AtpgRun, AtpgError> {
        // Open the span before levelizing so the prep phases
        // attribute under `atpg.run/`.
        let span = rescue_obs::span("atpg.run");
        let n = &self.scanned.netlist;
        let lev = Levelized::new(n);
        let faults = n.collapse_faults();
        finish_run(span, self.run_inner(&lev, &faults))
    }

    /// Run the full flow against a pre-built levelized view and
    /// collapsed fault list — the entry point for callers that cache
    /// these per netlist (the `rescue-serve` design cache): both are
    /// deterministic functions of the netlist, so reusing them
    /// produces a bit-identical [`AtpgRun`] to [`Atpg::run`].
    ///
    /// `lev` must be `Levelized::new` of this ATPG's scanned netlist
    /// and `faults` its `collapse_faults()` output; anything else
    /// misclassifies faults or worse.
    ///
    /// # Errors
    ///
    /// Same contract as [`Atpg::run`].
    pub fn run_prepared(&self, lev: &Levelized, faults: &[Fault]) -> Result<AtpgRun, AtpgError> {
        let span = rescue_obs::span("atpg.run");
        finish_run(span, self.run_inner(lev, faults))
    }

    /// Shared body of [`Atpg::run`] / [`Atpg::run_prepared`]; callers
    /// hold the `atpg.run` span open and fill `timing.total_ns` from it.
    fn run_inner(&self, lev: &Levelized, faults: &[Fault]) -> Result<AtpgRun, AtpgError> {
        let mut counts = AtpgCounts::default();
        let mut timing = AtpgTiming::default();
        let n = &self.scanned.netlist;
        let constraints = self.capture_constraints();

        let mut classes: HashMap<Fault, FaultClass> = faults
            .iter()
            .map(|&f| (f, FaultClass::Undetected))
            .collect();
        let mut remaining: Vec<Fault> = Vec::new();
        for &f in faults {
            if self.is_chain_fault(f) {
                classes.insert(f, FaultClass::ChainTested);
            } else {
                remaining.push(f);
            }
        }

        // Static redundancy pre-pass: prove untestable faults without
        // search. Proven faults stay in `remaining` and are classified
        // at their natural turn in the loop below — removing them here
        // would reorder `swap_remove` and change the vector stream.
        let mut prepass_proven: std::collections::HashSet<Fault> = Default::default();
        if self.config.static_prepass {
            // Not `prepass`: that name is the `prepass_report` span around
            // whole prepass-on/off ATPG runs.
            let phase = rescue_obs::span("static_prepass");
            let mut engine = rescue_lint::ImplicationEngine::from_levelized(lev, &constraints);
            for &f in &remaining {
                if engine.prove_fault_levelized(lev, f) {
                    prepass_proven.insert(f);
                }
            }
            timing.prepass_ns = phase.finish();
            counts.prepass_proven = prepass_proven.len() as u64;
        }

        let podem = Podem::new(n, lev, constraints, self.config.podem);

        let lane_words = self.config.lane_words;
        let mut shards = LaneShards::new(lev, resolve_threads(self.config.threads), lane_words)
            .ok_or(AtpgError::UnsupportedLaneWidth { lane_words })?;
        counts.ndetect_target = u64::from(self.config.drop_after.unwrap_or(0));
        // n ≤ 1 is a no-op: the main loop already drops on first detect.
        let ndetect = self.config.drop_after.filter(|&n| n > 1);
        // Detected faults still owed detections before retiring, with
        // their cumulative distinct-pattern detection count.
        let mut watch: Vec<(Fault, u32)> = Vec::new();
        let mut vectors: Vec<PatternVector> = Vec::new();
        let mut pending: Vec<TestCube> = Vec::new();
        let mut rng = SplitMix64::new(self.config.fill_seed);
        let mut recorder = CoverageRecorder::new();
        // PODEM detections attributed to a still-pending cube: resolved
        // to a global vector index when the pending batch flushes.
        let mut pending_events: Vec<(usize, LabelId)> = Vec::new();
        // Coverage-so-far counter denominator: faults the capture
        // vectors initially target (untestables are discovered later).
        let targetable_initial = remaining.len() as u64;

        let label_of = |rec: &mut CoverageRecorder, f: Fault| match n.fault_component(f) {
            Some(c) => rec.label(n.component_name(c)),
            None => rec.label(IO_LABEL),
        };

        let flush = |pending: &mut Vec<TestCube>,
                     vectors: &mut Vec<PatternVector>,
                     remaining: &mut Vec<Fault>,
                     classes: &mut HashMap<Fault, FaultClass>,
                     rng: &mut SplitMix64,
                     shards: &mut LaneShards,
                     watch: &mut Vec<(Fault, u32)>,
                     counts: &mut AtpgCounts,
                     timing: &mut AtpgTiming,
                     recorder: &mut CoverageRecorder,
                     pending_events: &mut Vec<(usize, LabelId)>|
         -> Result<(), AtpgError> {
            if pending.is_empty() {
                return Ok(());
            }
            let base = vectors.len() as u64;
            for (slot, label) in pending_events.drain(..) {
                recorder.detect(base + slot as u64, label);
            }
            let phase = rescue_obs::span("fill");
            let mut filled: Vec<PatternVector> =
                pending.drain(..).map(|c| self.fill(&c, rng)).collect();
            timing.fill_ns += phase.finish();
            counts.patterns_simulated += filled.len() as u64;
            let blocks = vectors_to_blocks(&filled, self.scanned);
            let phase = rescue_obs::span("fsim");
            for (group_idx, group) in blocks.chunks(lane_words).enumerate() {
                // Lanes are numbered word * 64 + bit within a group, so
                // a detection's global vector index is width-invariant.
                let group_base = base + (group_idx * lane_words * 64) as u64;
                let before = remaining.len();
                // One lane per remaining fault, computed by the worker
                // pool in canonical fault order; applying them in that
                // same order reproduces the sequential drop sequence
                // exactly.
                let lanes = shards.detect_lanes_group(group, remaining);
                apply_detect_lanes(&lanes, remaining, |f, lane| {
                    classes.insert(f, FaultClass::Detected);
                    let label = label_of(recorder, f);
                    recorder.detect(group_base + u64::from(lane), label);
                    if ndetect.is_some() {
                        watch.push((f, 0));
                    }
                })?;
                let dropped = (before - remaining.len()) as u64;
                counts.blocks_flushed += group.len() as u64;
                counts.faults_dropped_by_sim += dropped;
                counts.drops_per_block.record(dropped);
                if let Some(n) = ndetect {
                    if !watch.is_empty() {
                        // Count distinct detecting patterns for watched
                        // faults against this same group (so the group
                        // that first detected a fault contributes ≥ 1),
                        // then retire the ones that reached the target.
                        let wf: Vec<Fault> = watch.iter().map(|&(f, _)| f).collect();
                        let detections = shards.detect_counts_group(group, &wf);
                        for ((_, c), add) in watch.iter_mut().zip(&detections) {
                            *c += *add;
                            counts.ndetect_detections += u64::from(*add);
                        }
                        watch.retain(|&(_, c)| {
                            if c >= n {
                                counts.ndetect_retired += 1;
                                false
                            } else {
                                true
                            }
                        });
                    }
                }
                let hub = rescue_obs::live::global();
                hub.record(rescue_obs::LiveCounter::AtpgFaultsClassified, dropped);
                hub.record(rescue_obs::LiveCounter::AtpgFaultsDetected, dropped);
                rescue_obs::counter("atpg.detected", recorder.detected_so_far() as f64);
                rescue_obs::counter(
                    "atpg.coverage_so_far",
                    if targetable_initial == 0 {
                        1.0
                    } else {
                        recorder.detected_so_far() as f64 / targetable_initial as f64
                    },
                );
            }
            timing.fsim_ns += phase.finish();
            rescue_obs::live::global()
                .record(rescue_obs::LiveCounter::AtpgVectors, filled.len() as u64);
            vectors.append(&mut filled);
            rescue_obs::counter("atpg.vectors", vectors.len() as f64);
            Ok(())
        };

        // Deterministic phase: PODEM per remaining fault, batched fault
        // simulation for dropping. Every iteration consumes the front
        // fault one way or another; flushing may shrink the list further.
        let mut meter = rescue_obs::ProgressMeter::new("atpg");
        while let Some(&fault) = remaining.first() {
            meter.tick(1);
            let cursor = 0usize;
            // A fault already covered by a pending-but-unsimulated vector
            // still gets a PODEM call; real tools accept the same waste
            // between fill boundaries.
            let generated = if prepass_proven.contains(&fault) {
                // The implication engine already proved this fault
                // untestable; PODEM would reach the same verdict the
                // hard way.
                counts.prepass_podem_calls_saved += 1;
                PodemResult::Untestable
            } else {
                let phase = rescue_obs::span("podem");
                let g = podem.generate(fault);
                timing.generate_ns += phase.finish();
                g
            };
            match generated {
                PodemResult::Test(cube) => {
                    let mut placed_slot = None;
                    if self.config.merge_cubes {
                        counts.merges_attempted += 1;
                        let phase = rescue_obs::span("compact");
                        let start = pending.len().saturating_sub(self.config.merge_window);
                        for (off, existing) in pending[start..].iter_mut().enumerate() {
                            if let Some(merged) = merge_cubes(existing, &cube) {
                                *existing = merged;
                                placed_slot = Some(start + off);
                                counts.merges_merged += 1;
                                break;
                            }
                        }
                        timing.compact_ns += phase.finish();
                    }
                    let slot = placed_slot.unwrap_or_else(|| {
                        pending.push(cube);
                        pending.len() - 1
                    });
                    let label = label_of(&mut recorder, fault);
                    pending_events.push((slot, label));
                    classes.insert(fault, FaultClass::Detected);
                    remaining.swap_remove(cursor);
                    if pending.len() == 64 {
                        flush(
                            &mut pending,
                            &mut vectors,
                            &mut remaining,
                            &mut classes,
                            &mut rng,
                            &mut shards,
                            &mut watch,
                            &mut counts,
                            &mut timing,
                            &mut recorder,
                            &mut pending_events,
                        )?;
                    }
                }
                PodemResult::Untestable => {
                    classes.insert(fault, FaultClass::Untestable);
                    remaining.swap_remove(cursor);
                    rescue_obs::live::global()
                        .record(rescue_obs::LiveCounter::AtpgFaultsClassified, 1);
                }
                PodemResult::Aborted => {
                    classes.insert(fault, FaultClass::Aborted);
                    remaining.swap_remove(cursor);
                    rescue_obs::live::global()
                        .record(rescue_obs::LiveCounter::AtpgFaultsClassified, 1);
                }
            }
        }
        flush(
            &mut pending,
            &mut vectors,
            &mut remaining,
            &mut classes,
            &mut rng,
            &mut shards,
            &mut watch,
            &mut counts,
            &mut timing,
            &mut recorder,
            &mut pending_events,
        )?;
        meter.finish();
        counts.ndetect_residual = watch.len() as u64;

        let cells = self.scanned.chain.len();
        // Chain-integrity test: shift a 00110011… flush pattern through the
        // whole chain once (cells + margin cycles).
        let chain_test_cycles = cells as u64 + 4;
        let cycles = self.scanned.chain.test_cycles(vectors.len()) + chain_test_cycles;
        let stats = ScanTestStats {
            faults: faults.len(),
            cells,
            chains: 1,
            vectors: vectors.len(),
            cycles,
        };

        counts.faults_total = faults.len() as u64;
        counts.vectors = vectors.len() as u64;
        for class in classes.values() {
            match class {
                FaultClass::ChainTested => counts.chain_tested += 1,
                FaultClass::Detected => counts.detected += 1,
                FaultClass::Untestable => counts.untestable += 1,
                FaultClass::Aborted => counts.aborted += 1,
                FaultClass::Undetected => {}
            }
        }
        let ps = podem.stats();
        counts.podem_decisions = ps.decisions.get();
        counts.podem_backtracks = ps.backtracks.get();
        counts.backtracks_per_fault = ps.backtracks_per_fault.snapshot();
        counts.fsim_gate_evals = shards.gate_evals();

        // Coverage denominator = the targetable population, exactly as
        // AtpgRun::coverage counts it (detected + aborted + undetected).
        let targetable = counts.detected + counts.aborted;
        let coverage = recorder.finish(targetable, counts.vectors);
        debug_assert_eq!(coverage.detected_total(), counts.detected);

        Ok(AtpgRun {
            vectors,
            classes,
            stats,
            metrics: AtpgMetrics {
                counts,
                timing,
                parallel: shards.parallel_stats(),
                coverage,
            },
        })
    }

    /// Random-fill a cube's don't-cares into a full vector.
    fn fill(&self, cube: &TestCube, rng: &mut SplitMix64) -> PatternVector {
        let inputs = cube
            .inputs
            .iter()
            .map(|v| match v {
                V3::One => true,
                V3::Zero => false,
                V3::X => rng.next_bool(),
            })
            .collect();
        let state = cube
            .state
            .iter()
            .map(|v| match v {
                V3::One => true,
                V3::Zero => false,
                V3::X => rng.next_bool(),
            })
            .collect();
        PatternVector { inputs, state }
    }
}

/// Close the `atpg.run` span around a finished run and record its
/// elapsed time as the run's `total_ns`.
fn finish_run(span: SpanGuard<'_>, run: Result<AtpgRun, AtpgError>) -> Result<AtpgRun, AtpgError> {
    let mut run = run?;
    run.metrics.timing.total_ns = span.finish();
    Ok(run)
}

/// Apply one block's per-fault detection lanes to the remaining-fault
/// list in canonical order: detected faults are passed to `on_detect`
/// and removed, the rest stay in `remaining` (original order).
///
/// The worker pool promises one lane per fault; a count mismatch is a
/// corrupted reduction and is surfaced as
/// [`AtpgError::LaneCountMismatch`] (with `remaining` untouched) rather
/// than letting faults be silently misclassified.
fn apply_detect_lanes(
    lanes: &[Option<u32>],
    remaining: &mut Vec<Fault>,
    mut on_detect: impl FnMut(Fault, u32),
) -> Result<(), AtpgError> {
    if lanes.len() != remaining.len() {
        return Err(AtpgError::LaneCountMismatch {
            faults: remaining.len(),
            lanes: lanes.len(),
        });
    }
    let old = std::mem::take(remaining);
    for (f, &lane) in old.into_iter().zip(lanes) {
        match lane {
            Some(l) => on_detect(f, l),
            None => remaining.push(f),
        }
    }
    Ok(())
}

/// Merge two test cubes when they agree on every specified bit; `X`
/// positions adopt the other cube's requirement. Returns `None` on any
/// 0/1 conflict.
pub fn merge_cubes(a: &TestCube, b: &TestCube) -> Option<TestCube> {
    fn merge_lane(a: &[V3], b: &[V3]) -> Option<Vec<V3>> {
        let mut out = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            out.push(match (x, y) {
                (V3::X, v) => v,
                (v, V3::X) => v,
                (v, w) if v == w => v,
                _ => return None,
            });
        }
        Some(out)
    }
    Some(TestCube {
        inputs: merge_lane(&a.inputs, &b.inputs)?,
        state: merge_lane(&a.state, &b.state)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsim::FaultSim;
    use rescue_netlist::{scan::insert_scan, NetlistBuilder};

    fn small_design() -> ScanNetlist {
        let mut b = NetlistBuilder::new();
        b.enter_component("alu");
        let a = b.input_bus("a", 4);
        let c = b.input_bus("b", 4);
        let mut carry = b.const0();
        let mut sums = Vec::new();
        for i in 0..4 {
            let x = b.xor2(a[i], c[i]);
            let s = b.xor2(x, carry);
            let g1 = b.and2(a[i], c[i]);
            let g2 = b.and2(x, carry);
            carry = b.or2(g1, g2);
            sums.push(s);
        }
        let q = b.dff_bus(&sums, "acc");
        b.output(q[3], "msb");
        b.enter_component("flag");
        let z = b.or(&q.clone());
        let zq = b.dff(z, "zflag");
        b.output(zq, "zero");
        insert_scan(&b.finish().unwrap()).unwrap()
    }

    #[test]
    fn full_run_reaches_high_coverage() {
        let s = small_design();
        let run = Atpg::new(&s, AtpgConfig::default()).unwrap().run().unwrap();
        assert!(
            run.coverage() > 0.98,
            "coverage {} too low; aborted={}",
            run.coverage(),
            run.count(FaultClass::Aborted)
        );
        assert!(run.stats.vectors > 0);
        assert_eq!(run.stats.cells, 5);
        assert_eq!(run.stats.chains, 1);
        assert!(run.stats.cycles > run.stats.vectors as u64);
    }

    #[test]
    fn chain_faults_are_classified_not_targeted() {
        let s = small_design();
        let atpg = Atpg::new(&s, AtpgConfig::default()).unwrap();
        let run = atpg.run().unwrap();
        let chain = run.count(FaultClass::ChainTested);
        assert!(chain > 0, "scan muxes must contribute chain faults");
        for (f, c) in &run.classes {
            if atpg.is_chain_fault(*f) {
                assert_eq!(*c, FaultClass::ChainTested);
            }
        }
    }

    #[test]
    fn coverage_curve_agrees_with_run_outcome() {
        let s = small_design();
        let run = Atpg::new(&s, AtpgConfig::default()).unwrap().run().unwrap();
        let c = &run.metrics.coverage;
        // The curve's endpoint IS the run's coverage, bit for bit.
        assert_eq!(c.final_coverage(), run.coverage());
        assert_eq!(c.detected_total(), run.metrics.counts.detected);
        assert_eq!(c.vectors, run.stats.vectors as u64);
        // Attribution partitions the detected faults.
        let sum: u64 = c.attribution.iter().map(|(_, n)| n).sum();
        assert_eq!(sum, run.metrics.counts.detected);
        // Both design components must appear as labels.
        let labels: Vec<&str> = c.attribution.iter().map(|(l, _)| l.as_str()).collect();
        assert!(labels.contains(&"alu"), "{labels:?}");
        assert!(labels.contains(&"flag"), "{labels:?}");
        // Monotone, in-range vector indices.
        let mut prev_cum = 0;
        let mut prev_vec = None;
        for p in &c.points {
            assert!(p.vector < c.vectors);
            assert!(Some(p.vector) > prev_vec);
            assert_eq!(p.cumulative_detected, prev_cum + p.new_detected);
            prev_cum = p.cumulative_detected;
            prev_vec = Some(p.vector);
        }
    }

    #[test]
    fn coverage_curve_is_deterministic() {
        let s = small_design();
        let a = Atpg::new(&s, AtpgConfig::default()).unwrap().run().unwrap();
        let b = Atpg::new(&s, AtpgConfig::default()).unwrap().run().unwrap();
        assert_eq!(a.metrics.coverage, b.metrics.coverage);
    }

    #[test]
    fn lane_count_mismatch_is_an_error_and_preserves_faults() {
        let s = small_design();
        let faults = s.netlist.collapse_faults();
        let mut remaining = faults[..4.min(faults.len())].to_vec();
        let before = remaining.clone();
        // Three lanes for four faults: corrupted reduction.
        let lanes = vec![None, Some(1), None];
        let err = apply_detect_lanes(&lanes, &mut remaining, |_, _| {
            panic!("no fault may be classified on a mismatch");
        })
        .unwrap_err();
        assert_eq!(
            err,
            AtpgError::LaneCountMismatch {
                faults: before.len(),
                lanes: 3
            }
        );
        assert_eq!(remaining, before, "fault list must be untouched");
    }

    #[test]
    fn apply_detect_lanes_partitions_in_order() {
        let s = small_design();
        let faults = s.netlist.collapse_faults();
        let mut remaining = faults[..3].to_vec();
        let lanes = vec![Some(7), None, Some(0)];
        let mut detected = Vec::new();
        apply_detect_lanes(&lanes, &mut remaining, |f, lane| detected.push((f, lane))).unwrap();
        assert_eq!(detected, vec![(faults[0], 7), (faults[2], 0)]);
        assert_eq!(remaining, vec![faults[1]]);
    }

    #[test]
    fn atpg_on_malformed_chain_is_an_error() {
        let s = small_design();
        let mut fake = s.clone();
        fake.chain.order.clear();
        assert!(matches!(
            Atpg::new(&fake, AtpgConfig::default()).unwrap_err(),
            AtpgError::MalformedChain(_)
        ));
        // scan_enable pointing at a non-input net is malformed too.
        let mut fake2 = s.clone();
        fake2.chain.scan_enable = s.netlist.dffs()[0].q();
        assert!(matches!(
            Atpg::new(&fake2, AtpgConfig::default()).unwrap_err(),
            AtpgError::MalformedChain(_)
        ));
    }

    #[test]
    fn lane_width_is_a_pure_datapath_knob() {
        let s = small_design();
        let base = Atpg::new(&s, AtpgConfig::default()).unwrap().run().unwrap();
        for lane_words in [4usize, 8] {
            let cfg = AtpgConfig {
                lane_words,
                ..AtpgConfig::default()
            };
            let wide = Atpg::new(&s, cfg).unwrap().run().unwrap();
            assert_eq!(wide.vectors, base.vectors, "lane_words={lane_words}");
            assert_eq!(wide.classes, base.classes, "lane_words={lane_words}");
            assert_eq!(
                wide.metrics.coverage, base.metrics.coverage,
                "lane_words={lane_words}"
            );
            // Single-block groups replicate into padding, so even the
            // event-driven eval count is width-invariant here.
            assert_eq!(
                wide.metrics.counts.fsim_gate_evals, base.metrics.counts.fsim_gate_evals,
                "lane_words={lane_words}"
            );
        }
    }

    /// `small_design` plus a seeded redundancy: `a0 AND ¬a0` ORed into
    /// the zero flag contributes nothing but statically provable
    /// untestable faults.
    fn redundant_design() -> ScanNetlist {
        let mut b = NetlistBuilder::new();
        b.enter_component("alu");
        let a = b.input_bus("a", 4);
        let c = b.input_bus("b", 4);
        let mut carry = b.const0();
        let mut sums = Vec::new();
        for i in 0..4 {
            let x = b.xor2(a[i], c[i]);
            let s = b.xor2(x, carry);
            let g1 = b.and2(a[i], c[i]);
            let g2 = b.and2(x, carry);
            carry = b.or2(g1, g2);
            sums.push(s);
        }
        let q = b.dff_bus(&sums, "acc");
        b.output(q[3], "msb");
        b.enter_component("flag");
        let na = b.not(a[0]);
        let dead = b.and2(a[0], na); // constant 0, invisible to 3-valued sim
        let z0 = b.or(&q.clone());
        let z = b.or2(z0, dead);
        let zq = b.dff(z, "zflag");
        b.output(zq, "zero");
        insert_scan(&b.finish().unwrap()).unwrap()
    }

    #[test]
    fn static_prepass_is_a_pure_shortcut() {
        for s in [small_design(), redundant_design()] {
            let base = Atpg::new(&s, AtpgConfig::default()).unwrap().run().unwrap();
            let cfg = AtpgConfig {
                static_prepass: true,
                ..AtpgConfig::default()
            };
            let pre = Atpg::new(&s, cfg).unwrap().run().unwrap();
            // The fully-decided regime: PODEM's budget settles every
            // fault, so even the classifications agree exactly. (At
            // model scale, where PODEM aborts inside redundant cones,
            // the `prepass_contract` test pins the one sanctioned
            // difference: Aborted → Untestable on proven faults.)
            assert_eq!(base.metrics.counts.aborted, 0);
            // The externally visible result is byte-identical.
            assert_eq!(pre.vectors, base.vectors);
            assert_eq!(pre.classes, base.classes);
            assert_eq!(pre.stats, base.stats);
            assert_eq!(pre.metrics.coverage, base.metrics.coverage);
            // The baseline run never pays for the pre-pass.
            assert_eq!(base.metrics.counts.prepass_proven, 0);
            assert_eq!(base.metrics.counts.prepass_podem_calls_saved, 0);
            assert_eq!(base.metrics.timing.prepass_ns, 0);
            // Every proof translated into a skipped PODEM call.
            assert_eq!(
                pre.metrics.counts.prepass_podem_calls_saved,
                pre.metrics.counts.prepass_proven
            );
        }
    }

    #[test]
    fn static_prepass_saves_podem_calls_on_seeded_redundancy() {
        let s = redundant_design();
        let cfg = AtpgConfig {
            static_prepass: true,
            ..AtpgConfig::default()
        };
        let run = Atpg::new(&s, cfg).unwrap().run().unwrap();
        let saved = run.metrics.counts.prepass_podem_calls_saved;
        assert!(saved > 0, "seeded redundancy must be proven statically");
        // Whatever was proven ended up Untestable, never Detected.
        assert!(run.metrics.counts.untestable >= saved);
    }

    #[test]
    fn unsupported_lane_width_is_an_error() {
        let s = small_design();
        for lane_words in [0usize, 2, 3, 16] {
            let cfg = AtpgConfig {
                lane_words,
                ..AtpgConfig::default()
            };
            assert_eq!(
                Atpg::new(&s, cfg).unwrap().run().unwrap_err(),
                AtpgError::UnsupportedLaneWidth { lane_words }
            );
        }
    }

    #[test]
    fn ndetect_dropping_changes_counters_but_not_results() {
        let s = small_design();
        let base = Atpg::new(&s, AtpgConfig::default()).unwrap().run().unwrap();
        assert_eq!(base.metrics.counts.ndetect_target, 0);
        assert_eq!(base.metrics.counts.ndetect_detections, 0);
        assert_eq!(base.metrics.counts.ndetect_retired, 0);
        assert_eq!(base.metrics.counts.ndetect_residual, 0);
        for (n, lane_words) in [(2u32, 1usize), (4, 1), (4, 8)] {
            let cfg = AtpgConfig {
                drop_after: Some(n),
                lane_words,
                ..AtpgConfig::default()
            };
            let run = Atpg::new(&s, cfg).unwrap().run().unwrap();
            // Classifications, vectors and provenance are untouched by
            // the watch list — only the bookkeeping counters move.
            assert_eq!(run.vectors, base.vectors, "n={n} w={lane_words}");
            assert_eq!(run.classes, base.classes, "n={n} w={lane_words}");
            assert_eq!(run.metrics.coverage, base.metrics.coverage);
            let c = &run.metrics.counts;
            assert_eq!(c.ndetect_target, u64::from(n));
            assert!(
                c.ndetect_detections >= c.ndetect_retired * u64::from(n),
                "retired faults need ≥ n detections each: {c:?}"
            );
            assert_eq!(
                c.ndetect_retired + c.ndetect_residual,
                c.faults_dropped_by_sim,
                "every sim-dropped fault is watched until retired"
            );
            // The watch passes do extra simulation work.
            assert!(c.fsim_gate_evals >= base.metrics.counts.fsim_gate_evals);
        }
        // n ≤ 1 is an explicit no-op: no watch list at all.
        for n in [0u32, 1] {
            let cfg = AtpgConfig {
                drop_after: Some(n),
                ..AtpgConfig::default()
            };
            let run = Atpg::new(&s, cfg).unwrap().run().unwrap();
            assert_eq!(run.vectors, base.vectors);
            assert_eq!(run.metrics.counts.ndetect_detections, 0);
            assert_eq!(run.metrics.counts.ndetect_residual, 0);
            assert_eq!(
                run.metrics.counts.fsim_gate_evals,
                base.metrics.counts.fsim_gate_evals
            );
        }
    }

    #[test]
    fn detected_faults_really_fail_some_vector() {
        let s = small_design();
        let run = Atpg::new(&s, AtpgConfig::default()).unwrap().run().unwrap();
        let mut sim = FaultSim::new(&s.netlist);
        let blocks = run.blocks(&s);
        for (&f, &class) in &run.classes {
            if class != FaultClass::Detected {
                continue;
            }
            let mut seen = false;
            for b in &blocks {
                sim.load_block(b);
                if sim.detect_mask(f) != 0 {
                    seen = true;
                    break;
                }
            }
            assert!(seen, "fault {f} marked detected but no vector fails");
        }
    }
}
