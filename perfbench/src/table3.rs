//! `table3_atpg`: paper Table 3 on both pipeline variants of the quick
//! (`ModelParams::tiny`) model — `build_pipeline` → `insert_scan` →
//! `Atpg::run` with the library's default configuration at one worker
//! thread per core.
//!
//! The ATPG inputs are the library defaults, so a default flip shows up
//! as users would see it; the seed picks the faults the §6.1 isolation
//! replay injects.

use crate::report::{self, median, secs, Checks, Metrics};
use crate::trace::{self, Tracer};
use crate::Args;
use rescue_core::atpg::{Atpg, AtpgConfig, AtpgRun, FaultClass, FaultSim, Isolator, Observation};
use rescue_core::model::{build_pipeline, ModelParams, PipelineModel, Stage, Variant};
use rescue_core::netlist::scan::{insert_scan, ScanNetlist};
use rescue_core::netlist::{DffId, Fault, Levelized};
use std::collections::BTreeSet;
use std::time::Instant;

const VARIANTS: [Variant; 2] = [Variant::Baseline, Variant::Rescue];
/// Set-ups timed before each pass; one takes milliseconds.
const SETUP_REPS: usize = 31;
/// Detected faults injected per §6.1 stage by the isolation replay.
const ISOLATE_PER_STAGE: usize = 8;
const STAGES: [Stage; 6] = [
    Stage::Fetch,
    Stage::Decode,
    Stage::Rename,
    Stage::Issue,
    Stage::Execute,
    Stage::Memory,
];

/// One design under test: the generated model and its scan view.
pub struct Design {
    pub model: PipelineModel,
    pub scanned: ScanNetlist,
}

fn build(variant: Variant) -> Design {
    let model = build_pipeline(&ModelParams::tiny(), variant);
    let scanned = insert_scan(&model.netlist).expect("the model has state");
    Design { model, scanned }
}

fn config() -> AtpgConfig {
    AtpgConfig {
        threads: report::nproc(),
        ..AtpgConfig::default()
    }
}

fn atpg(d: &Design) -> AtpgRun {
    Atpg::new(&d.scanned, config())
        .expect("the scan design is well-formed")
        .run()
        .expect("ATPG runs")
}

pub fn run(args: &Args, checks: &mut Checks, m: &mut Metrics) {
    if args.trace {
        return traced(args, &VARIANTS.map(build), checks, m);
    }
    let timed = report::timed_run(
        args.seconds,
        SETUP_REPS,
        || VARIANTS.map(build),
        |designs| designs.iter().map(atpg).collect::<Vec<_>>(),
    );
    let rss = report::peak_rss_mb();
    let passes = &timed.passes;
    let walls: Vec<f64> = passes.iter().map(|(d, _)| *d).collect();
    m.set("setup_s", timed.setup_s);
    m.set("wall_s", median(&walls));
    m.set(
        "jobs_per_s",
        (VARIANTS.len() * passes.len()) as f64 / walls.iter().sum::<f64>(),
    );
    m.set("peak_rss_mb", rss);

    let designs = VARIANTS.map(build);
    let first = &passes[0].1;
    verify(args.seed, &designs, first, checks, None);
    for (_, runs) in &passes[1..] {
        for (a, b) in first.iter().zip(runs) {
            checks.check("ATPG determinism across passes", same_run(a, b));
        }
    }
}

fn same_run(a: &AtpgRun, b: &AtpgRun) -> Result<(), String> {
    if a.vectors == b.vectors && a.classes == b.classes && a.metrics.counts == b.metrics.counts {
        Ok(())
    } else {
        Err("a repeated run produced different vectors, classes or counts".to_owned())
    }
}

/// Re-grade every design's vectors and replay §6.1 isolation on the
/// Rescue vectors; returns the isolated-fault count.
fn verify(
    seed: u64,
    designs: &[Design],
    runs: &[AtpgRun],
    checks: &mut Checks,
    tracer: Option<&Tracer>,
) -> usize {
    for (d, r) in designs.iter().zip(runs) {
        let result = trace::maybe(tracer, "atpg.regrade", || regrade(&d.scanned, r));
        checks.check("independent re-grade of the ATPG vectors", result);
    }
    let result = trace::maybe(tracer, "atpg.isolate", || {
        isolate(seed, &designs[1], &runs[1])
    });
    let isolated = *result.as_ref().unwrap_or(&0);
    checks.check("§6.1 isolation on the Rescue vectors", result.map(|_| ()));
    isolated
}

/// Fault-simulate `run`'s vectors over every collapsed fault: each
/// `Detected` fault must be detected and no `Untestable` fault may be.
pub fn regrade(scanned: &ScanNetlist, run: &AtpgRun) -> Result<(), String> {
    let faults = scanned.netlist.collapse_faults();
    if run.classes.len() != faults.len() {
        return Err(format!(
            "{} classes for {} collapsed faults",
            run.classes.len(),
            faults.len()
        ));
    }
    let mut sim = FaultSim::new(&scanned.netlist);
    let mut detected = vec![false; faults.len()];
    for (i, block) in run.blocks(scanned).iter().enumerate() {
        // Lanes past the last vector hold padding, not test patterns.
        let live = run.vectors.len() - i * 64;
        let lanes = if live >= 64 { !0 } else { (1u64 << live) - 1 };
        sim.load_block(block);
        for (hit, &f) in detected.iter_mut().zip(&faults) {
            if !*hit && sim.detect_mask(f) & lanes != 0 {
                *hit = true;
            }
        }
    }
    let (mut missed, mut unsound) = (0, 0);
    for (f, hit) in faults.iter().zip(detected) {
        match run.classes.get(f) {
            Some(FaultClass::Detected) if !hit => missed += 1,
            Some(FaultClass::Untestable) if hit => unsound += 1,
            None => return Err(format!("fault {f:?} has no class")),
            _ => {}
        }
    }
    if missed + unsound == 0 {
        Ok(())
    } else {
        Err(format!(
            "{missed} Detected faults escape the vectors, {unsound} Untestable faults are detected"
        ))
    }
}

/// Inject seeded detected faults into each §6.1 stage and require that
/// every failing scan bit maps to the injected fault's map-out group.
fn isolate(seed: u64, d: &Design, run: &AtpgRun) -> Result<usize, String> {
    let m = &d.model;
    let iso = Isolator::new(&d.scanned, &run.vectors);
    let mut pools: Vec<Vec<Fault>> = vec![Vec::new(); STAGES.len()];
    // Detected faults are never on the scan path, so they name gates the
    // pre-scan model netlist has too.
    for (&fault, _) in run
        .classes
        .iter()
        .filter(|(_, &c)| c == FaultClass::Detected)
    {
        let stage = m
            .netlist
            .fault_component(fault)
            .and_then(|c| m.stage_of.get(&c));
        if let Some(i) = stage.and_then(|st| STAGES.iter().position(|s| s == st)) {
            pools[i].push(fault);
        }
    }
    let mut rng = report::rng(seed, 3);
    let mut sample = Vec::new();
    for pool in &mut pools {
        pool.sort();
        sample.extend(rng.choose_multiple(pool, ISOLATE_PER_STAGE));
    }
    let outcomes = iso.isolate_many(&sample, report::nproc());
    let mut ambiguous = 0;
    for (&fault, outcome) in sample.iter().zip(&outcomes) {
        let comp = m
            .netlist
            .fault_component(fault)
            .expect("pooled faults have components");
        let want = m.group_of(comp);
        let mut groups_per_bit = Vec::new();
        for obs in &outcome.failing_bits {
            let comps = match obs {
                Observation::ScanCell(dff) => {
                    let pos = d
                        .scanned
                        .chain
                        .position(DffId::from_index(*dff))
                        .ok_or("failing cell is not on the chain")?;
                    iso.labels()[pos].clone()
                }
                Observation::PrimaryOutput(o) => {
                    let net = d.scanned.netlist.outputs()[*o].1;
                    d.scanned.netlist.cone_components(net)
                }
            };
            let groups: BTreeSet<usize> = comps.iter().map(|&c| m.group_of(c)).collect();
            if !groups.is_empty() {
                groups_per_bit.push(groups);
            }
        }
        let unique = !groups_per_bit.is_empty()
            && groups_per_bit
                .iter()
                .all(|g| g.len() == 1 && g.contains(&want));
        if !unique {
            ambiguous += 1;
        }
    }
    if sample.is_empty() || ambiguous > 0 {
        return Err(format!(
            "{ambiguous} of {} injected faults not isolated to their group",
            sample.len()
        ));
    }
    Ok(sample.len())
}

/// The traced run: one untraced pass for the overhead baseline, then the
/// same work through the individual layer calls, each inside a span.
fn traced(args: &Args, designs: &[Design], checks: &mut Checks, m: &mut Metrics) {
    let t = Instant::now();
    let untraced: Vec<AtpgRun> = designs.iter().map(atpg).collect();
    let untraced_s = secs(t);

    let tr = Tracer::default();
    let mut traced_s = 0.0;
    let mut built = Vec::new();
    let mut runs = Vec::new();
    for variant in VARIANTS {
        tr.span("table3.design", None, |root| {
            let model = tr.span("model.build", Some(root), |_| {
                build_pipeline(&ModelParams::tiny(), variant)
            });
            let scanned = tr.span("netlist.scan", Some(root), |_| {
                insert_scan(&model.netlist).expect("the model has state")
            });
            let t = Instant::now();
            let lev = tr.span("netlist.levelize", Some(root), |_| {
                Levelized::new(&scanned.netlist)
            });
            let faults = tr.span("netlist.collapse", Some(root), |_| {
                scanned.netlist.collapse_faults()
            });
            let run = tr.span("atpg.run", Some(root), |_| {
                Atpg::new(&scanned, config())
                    .expect("the scan design is well-formed")
                    .run_prepared(&lev, &faults)
                    .expect("ATPG runs")
            });
            traced_s += secs(t);
            built.push(Design { model, scanned });
            runs.push(run);
        });
    }
    let isolated = verify(args.seed, &built, &runs, checks, Some(&tr));
    for (a, b) in runs.iter().zip(&untraced) {
        checks.check("traced replay matches Atpg::run", same_run(a, b));
    }

    m.set("model.build_ms", tr.total_ms("model.build"));
    m.set("netlist.scan_ms", tr.total_ms("netlist.scan"));
    m.set("netlist.levelize_ms", tr.total_ms("netlist.levelize"));
    m.set("netlist.collapse_ms", tr.total_ms("netlist.collapse"));
    set_atpg_metrics(
        m,
        &runs,
        tr.total_ms("atpg.run"),
        config().podem.max_backtracks,
    );
    m.set("atpg.isolate_ms", tr.total_ms("atpg.isolate"));
    m.set("atpg.isolate.isolated", isolated as f64);
    m.set("coverage_pct.baseline", 100.0 * runs[0].coverage());
    m.set("coverage_pct.rescue", 100.0 * runs[1].coverage());
    m.set("test_cycles.baseline", runs[0].stats.cycles as f64);
    m.set("test_cycles.rescue", runs[1].stats.cycles as f64);
    m.set(
        "obs.trace_overhead_pct",
        100.0 * (traced_s - untraced_s) / untraced_s,
    );
    if let Err(e) = tr.write(&args.trace_path()) {
        eprintln!("perfbench: could not write the trace: {e}");
    }
}

/// The `atpg.*` per-layer metrics of `runs`, which took `run_ms` of
/// `Atpg::run_prepared` time in all, from the counters and phase
/// timings each run returns.
pub fn set_atpg_metrics(m: &mut Metrics, runs: &[AtpgRun], run_ms: f64, max_backtracks: usize) {
    let sum = |f: &dyn Fn(&AtpgRun) -> f64| runs.iter().map(f).sum::<f64>();
    let ms = |ns: u64| ns as f64 / 1e6;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let podem_ms = sum(&|r| ms(r.metrics.timing.generate_ns));
    let decisions = sum(&|r| r.metrics.counts.podem_decisions as f64);
    let backtracks = sum(&|r| r.metrics.counts.podem_backtracks as f64);
    let aborted = sum(&|r| r.metrics.counts.aborted as f64);
    // An aborted fault spent exactly the budget plus the one backtrack
    // that exceeded it.
    let per_abort = (max_backtracks + 1) as f64;
    m.set("atpg.run_ms", run_ms);
    m.set(
        "atpg.faults_per_s",
        sum(&|r| r.metrics.counts.faults_total as f64) / (run_ms / 1e3),
    );
    m.set("atpg.podem_ms", podem_ms);
    m.set("atpg.prepass_ms", sum(&|r| ms(r.metrics.timing.prepass_ns)));
    m.set("atpg.compact_ms", sum(&|r| ms(r.metrics.timing.compact_ns)));
    m.set("atpg.fill_ms", sum(&|r| ms(r.metrics.timing.fill_ns)));
    m.set("atpg.fsim_ms", sum(&|r| ms(r.metrics.timing.fsim_ns)));
    m.set(
        "atpg.podem.calls",
        sum(&|r| r.metrics.counts.backtracks_per_fault.count as f64),
    );
    m.set("atpg.podem.decisions", decisions);
    m.set("atpg.podem.backtracks", backtracks);
    m.set("atpg.podem.aborted", aborted);
    m.set(
        "atpg.podem.decisions_per_s",
        ratio(decisions, podem_ms / 1e3),
    );
    m.set(
        "atpg.podem.abort_backtrack_share",
        ratio(aborted * per_abort, backtracks),
    );
    m.set(
        "atpg.prepass.proven",
        sum(&|r| r.metrics.counts.prepass_proven as f64),
    );
    m.set(
        "atpg.prepass.calls_saved",
        sum(&|r| r.metrics.counts.prepass_podem_calls_saved as f64),
    );
    m.set(
        "atpg.compact.merge_ratio",
        ratio(
            sum(&|r| r.metrics.counts.merges_merged as f64),
            sum(&|r| r.metrics.counts.merges_attempted as f64),
        ),
    );
    m.set(
        "atpg.fsim.gate_evals",
        sum(&|r| r.metrics.counts.fsim_gate_evals as f64),
    );
    m.set(
        "atpg.fsim.word_utilization",
        ratio(
            sum(&|r| r.metrics.counts.patterns_simulated as f64),
            sum(&|r| (r.metrics.counts.blocks_flushed * 64) as f64),
        ),
    );
    m.set(
        "atpg.fsim.sim_drop_share",
        ratio(
            sum(&|r| r.metrics.counts.faults_dropped_by_sim as f64),
            sum(&|r| r.metrics.counts.detected as f64),
        ),
    );
    m.set(
        "atpg.fsim.worker_utilization",
        ratio(
            sum(&|r| r.metrics.parallel.worker_busy_ns.iter().sum::<u64>() as f64),
            sum(&|r| (r.metrics.parallel.wall_ns * r.metrics.parallel.threads) as f64),
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_core::netlist::text;

    /// A small sequential circuit: two flops around an AND/XOR/OR cone.
    /// Signals: inputs 0–2, flop outputs 3–4, gates 5–8.
    const NETLIST: &str = "component c\ninput a\ninput b\ninput c\ndff q c 6\ndff r c 5\n\
gate and c 0 1\ngate xor c 5 2\ngate or c 3 4\ngate and c 7 2\noutput o 8\n";

    #[test]
    fn regrade_accepts_real_vectors_and_catches_one_flipped_bit() {
        let base = text::parse(NETLIST).expect("fixture parses");
        let scanned = insert_scan(&base).expect("fixture has state");
        let run = Atpg::new(&scanned, AtpgConfig::default())
            .unwrap()
            .run()
            .unwrap();
        assert!(run.count(FaultClass::Detected) > 0);
        regrade(&scanned, &run).expect("the library's own vectors re-grade clean");

        // Some single-bit flip must make a Detected fault escape.
        let mut caught = false;
        'search: for v in 0..run.vectors.len() {
            for bit in 0..run.vectors[v].inputs.len() + run.vectors[v].state.len() {
                let mut bad = run.clone();
                let vector = &mut bad.vectors[v];
                let n_in = vector.inputs.len();
                let b = if bit < n_in {
                    &mut vector.inputs[bit]
                } else {
                    &mut vector.state[bit - n_in]
                };
                *b = !*b;
                if regrade(&scanned, &bad).is_err() {
                    caught = true;
                    break 'search;
                }
            }
        }
        assert!(caught, "no single flipped vector bit was caught");

        let mut checks = Checks::default();
        let mut bad = run.clone();
        bad.vectors.clear();
        checks.check("regrade", regrade(&scanned, &bad));
        assert!(checks.failed_frac() > 0.0);
    }
}
