//! One driver per paper table/figure.

use rescue_atpg::{Atpg, AtpgConfig, AtpgRun, FaultClass, Isolator, PodemMemo};
use rescue_model::{build_pipeline, ModelParams, PipelineModel, Stage, Variant};
use rescue_netlist::scan::{insert_scan, ScanNetlist};
use rescue_netlist::{Fault, Levelized};
use rescue_obs::SplitMix64;
use rescue_pipesim::{simulate, CoreConfig, Policy, SimConfig, SimResult, TraceSummary};
use rescue_workloads::{spec2000_profiles, BenchmarkProfile, TraceGenerator, TraceInstr};
use rescue_yield::{
    relative_yat, relative_yat_self_healing, AreaModel, ClassCounts, RescueAreas, Scenario,
    TechNode, YatInputs, YatPoint,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

// ------------------------------------------------------------- Table 1

/// One row of Table 1 (system parameters).
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Parameter name.
    pub name: &'static str,
    /// Value, formatted.
    pub value: String,
}

/// Regenerate Table 1 from the simulator configuration.
pub fn table1() -> Vec<Table1Row> {
    let _s = rescue_obs::span("table1");
    let c = SimConfig::paper(Policy::Baseline);
    vec![
        Table1Row {
            name: "issue width",
            value: format!("{}", c.backend_ways),
        },
        Table1Row {
            name: "frontend width",
            value: format!("{}", c.frontend_width),
        },
        Table1Row {
            name: "int issue queue",
            value: format!(
                "{} entries (2 x {})",
                c.int_iq_entries,
                c.int_iq_entries / 2
            ),
        },
        Table1Row {
            name: "fp issue queue",
            value: format!("{} entries (2 x {})", c.fp_iq_entries, c.fp_iq_entries / 2),
        },
        Table1Row {
            name: "reorder buffer",
            value: format!("{} entries", c.rob_entries),
        },
        Table1Row {
            name: "load/store queue",
            value: format!("{} entries (2 x {})", c.lsq_entries, c.lsq_entries / 2),
        },
        Table1Row {
            name: "branch mispredict penalty",
            value: format!(
                "{} cycles (+2 for Rescue shift stages)",
                c.mispredict_penalty
            ),
        },
        Table1Row {
            name: "L1 D-cache",
            value: format!("64KB, 2-way, 32B blocks, {}-cycle, 2-port", c.l1_latency),
        },
        Table1Row {
            name: "L2 cache",
            value: format!("2MB, 8-way, 64B blocks, {}-cycle", c.l2_latency),
        },
        Table1Row {
            name: "memory latency",
            value: format!("{} cycles", c.mem_latency),
        },
    ]
}

// ------------------------------------------------------------- Table 2

/// Regenerate Table 2: total areas plus relative component areas.
pub fn table2() -> (f64, RescueAreas) {
    let _s = rescue_obs::span("table2");
    let base = AreaModel::baseline();
    (base.total_mm2(), base.rescue())
}

// ------------------------------------------------------------- Table 3

/// One Table 3 design and its ATPG answer, computed once: the model, its
/// scan view, the levelized view and collapsed faults ATPG runs on, the
/// default-config run, and the PODEM memo that run filled.
///
/// Every experiment that needs the Table 3 test set reads
/// [`AtpgDesign::run`] instead of searching again, and every other
/// configuration runs through [`AtpgDesign::rerun`], which replays the
/// PODEM outcomes the default run already decided.
#[derive(Debug)]
pub struct AtpgDesign {
    /// Which design this is.
    pub variant: Variant,
    /// The pipeline model (component → stage and map-out group maps).
    pub model: PipelineModel,
    /// The scan-inserted netlist.
    pub scanned: ScanNetlist,
    /// Levelized view of the scanned netlist.
    pub lev: Levelized,
    /// Collapsed fault list of the scanned netlist.
    pub faults: Vec<Fault>,
    /// PODEM outcomes of every run on this design so far.
    pub memo: PodemMemo,
    /// The default-config ATPG run: Table 3's vectors and classes.
    pub run: AtpgRun,
}

impl AtpgDesign {
    /// Build `variant`, insert scan, and run default-config ATPG on it
    /// with `threads` fault-simulation workers (`0` = resolve via
    /// `RESCUE_THREADS`, then available parallelism; every statistic is
    /// bit-identical for any value). The work is spanned
    /// `table3.<variant>`.
    pub fn build(params: &ModelParams, variant: Variant, threads: usize) -> AtpgDesign {
        let _s = rescue_obs::span(match variant {
            Variant::Baseline => "table3.baseline",
            Variant::Rescue => "table3.rescue",
        });
        let model = build_pipeline(params, variant);
        let scanned = insert_scan(&model.netlist).expect("model has state");
        let lev = Levelized::new(&scanned.netlist);
        let faults = scanned.netlist.collapse_faults();
        let memo = PodemMemo::default();
        let config = AtpgConfig {
            threads,
            ..AtpgConfig::default()
        };
        let run = run_atpg(&scanned, &lev, &faults, &memo, config);
        AtpgDesign {
            variant,
            model,
            scanned,
            lev,
            faults,
            memo,
            run,
        }
    }

    /// Run ATPG under `config` on this design through its memo: a PODEM
    /// call the memo can answer at `config`'s budget is replayed, with
    /// counts, so the run is bit-identical to a fresh one.
    pub fn rerun(&self, config: AtpgConfig) -> AtpgRun {
        run_atpg(&self.scanned, &self.lev, &self.faults, &self.memo, config)
    }

    /// Lower-case design name (`baseline`, `rescue`) for report keys.
    pub fn tag(&self) -> &'static str {
        match self.variant {
            Variant::Baseline => "baseline",
            Variant::Rescue => "rescue",
        }
    }

    /// The run's detected-fault attribution rolled up from ICI
    /// components to pipeline stages (stage name, faults). Components
    /// outside any stage (and primary-input faults) land in `"other"`.
    pub fn stage_coverage(&self) -> Vec<(String, u64)> {
        let m = &self.model;
        let by_name: HashMap<&str, Stage> = m
            .stage_of
            .iter()
            .map(|(&comp, &stage)| (m.netlist.component_name(comp), stage))
            .collect();
        self.run.metrics.coverage.rollup(|label| {
            by_name
                .get(label)
                .map_or_else(|| "other".to_owned(), |s| format!("{s:?}"))
        })
    }
}

fn run_atpg(
    scanned: &ScanNetlist,
    lev: &Levelized,
    faults: &[Fault],
    memo: &PodemMemo,
    config: AtpgConfig,
) -> AtpgRun {
    Atpg::new(scanned, config)
        .expect("scan design is well-formed")
        .run_memoized(lev, faults, memo)
        .expect("atpg run")
}

/// Table 3: scan-chain data for both designs, each with its ATPG answer.
#[derive(Debug)]
pub struct Table3 {
    /// Conventional design.
    pub baseline: AtpgDesign,
    /// Rescue design.
    pub rescue: AtpgDesign,
}

impl Table3 {
    /// Both designs, baseline first.
    pub fn designs(&self) -> [&AtpgDesign; 2] {
        [&self.baseline, &self.rescue]
    }
}

/// Build both designs and run full ATPG on each (paper Table 3), under
/// one `table3` span.
///
/// This is the heavyweight experiment (minutes in release mode at the
/// paper size); pass [`ModelParams::tiny`] for a fast smoke run.
/// `threads` is as in [`AtpgDesign::build`].
pub fn table3(params: &ModelParams, threads: usize) -> Table3 {
    let _s = rescue_obs::span("table3");
    Table3 {
        baseline: AtpgDesign::build(params, Variant::Baseline, threads),
        rescue: AtpgDesign::build(params, Variant::Rescue, threads),
    }
}

// ----------------------------------------------- §6.1 isolation experiment

/// Result of the fault-isolation experiment for one pipeline stage.
#[derive(Clone, Debug)]
pub struct StageIsolation {
    /// Stage faults were injected into.
    pub stage: Stage,
    /// Faults injected.
    pub injected: usize,
    /// Faults whose failing scan bits resolved to exactly the injected
    /// fault's map-out group.
    pub isolated: usize,
    /// Faults that were detected but ambiguous (candidates spanned
    /// multiple map-out groups) — zero under ICI.
    pub ambiguous: usize,
}

/// The full §6.1 experiment report.
#[derive(Clone, Debug)]
pub struct IsolationExperiment {
    /// Which design was tested.
    pub variant: Variant,
    /// Per-stage outcomes.
    pub stages: Vec<StageIsolation>,
}

impl IsolationExperiment {
    /// Total injected faults.
    pub fn total_injected(&self) -> usize {
        self.stages.iter().map(|s| s.injected).sum()
    }

    /// Total correctly isolated.
    pub fn total_isolated(&self) -> usize {
        self.stages.iter().map(|s| s.isolated).sum()
    }
}

/// Inject `per_stage` random detected faults into each of the six §6.1
/// stages of `design` and check that replaying its Table 3 vectors
/// isolates each to its map-out group from scan-out alone. `threads`
/// selects the replay worker count (`0` = resolve via `RESCUE_THREADS`,
/// then available parallelism); the outcome is bit-identical for any
/// value.
pub fn isolation(
    design: &AtpgDesign,
    per_stage: usize,
    seed: u64,
    threads: usize,
) -> IsolationExperiment {
    let _s = rescue_obs::span("isolation");
    let (m, scanned, run) = (&design.model, &design.scanned, &design.run);
    let iso = Isolator::with_levelized(scanned, &design.lev, &run.vectors);
    let stages_wanted = [
        Stage::Fetch,
        Stage::Decode,
        Stage::Rename,
        Stage::Issue,
        Stage::Execute,
        Stage::Memory,
    ];
    let mut rng = SplitMix64::new(seed);

    // Candidate pool: detected faults with a known component per stage.
    let mut pool: HashMap<Stage, Vec<Fault>> = HashMap::new();
    for (&fault, &class) in &run.classes {
        if class != FaultClass::Detected {
            continue;
        }
        let Some(comp) = m.netlist.fault_component(fault) else {
            continue;
        };
        let Some(&stage) = m.stage_of.get(&comp) else {
            continue;
        };
        pool.entry(stage).or_default().push(fault);
    }
    for faults in pool.values_mut() {
        faults.sort();
    }

    let mut stages = Vec::new();
    for stage in stages_wanted {
        let empty = Vec::new();
        let candidates = pool.get(&stage).unwrap_or(&empty);
        let sample: Vec<Fault> = rng.choose_multiple(candidates, per_stage);
        let mut isolated = 0;
        let mut ambiguous = 0;
        // Replay the whole stage sample sharded across workers; outcomes
        // come back in sample order, identical to per-fault `isolate`.
        let outcomes = iso.isolate_many(&sample, threads);
        for (fault, outcome) in sample.iter().zip(&outcomes) {
            let comp = m
                .netlist
                .fault_component(*fault)
                .expect("pooled faults have components");
            let want_group = m.group_of(comp);
            // Map every failing scan bit to the *map-out groups* its
            // capture cone spans (the paper's isolation granularity).
            // Under ICI each bit names exactly one group; the fault is
            // isolated when that group is the injected fault's group for
            // all failing bits.
            let mut bit_groups: Vec<std::collections::BTreeSet<usize>> = Vec::new();
            for obs in &outcome.failing_bits {
                let comps: Vec<_> = match obs {
                    rescue_atpg::Observation::ScanCell(d) => {
                        let pos = scanned
                            .chain
                            .position(rescue_netlist::DffId::from_index(*d))
                            .expect("cell on chain");
                        iso.labels()[pos].clone()
                    }
                    rescue_atpg::Observation::PrimaryOutput(o) => {
                        let net = scanned.netlist.outputs()[*o].1;
                        scanned.netlist.cone_components(net)
                    }
                };
                let gs: std::collections::BTreeSet<usize> =
                    comps.iter().map(|&c| m.group_of(c)).collect();
                if !gs.is_empty() {
                    bit_groups.push(gs);
                }
            }
            let unique = !bit_groups.is_empty()
                && bit_groups
                    .iter()
                    .all(|gs| gs.len() == 1 && gs.contains(&want_group));
            if unique {
                isolated += 1;
            } else {
                ambiguous += 1;
            }
        }
        stages.push(StageIsolation {
            stage,
            injected: sample.len(),
            isolated,
            ambiguous,
        });
    }
    IsolationExperiment {
        variant: design.variant,
        stages,
    }
}

/// Result of the multi-fault isolation experiment (§3.1 corollary).
#[derive(Clone, Debug)]
pub struct MultiFaultTrial {
    /// Number of simultaneous faults injected (one per distinct group).
    pub injected: usize,
    /// Groups correctly implicated by the failing scan bits.
    pub implicated: usize,
    /// Groups implicated that were *not* faulty (false accusations —
    /// zero under ICI).
    pub false_positives: usize,
}

/// The §3.1 corollary, experimentally: inject one fault into each of
/// `k` distinct redundant map-out groups of `design` (the Rescue design,
/// for the paper's claim) **simultaneously** and check that one replay
/// of its Table 3 vectors implicates exactly the faulty groups.
pub fn multi_fault_isolation(
    design: &AtpgDesign,
    k: usize,
    trials: usize,
    seed: u64,
) -> Vec<MultiFaultTrial> {
    let _s = rescue_obs::span("isolation.multi_fault");
    let (m, scanned, run) = (&design.model, &design.scanned, &design.run);
    let iso = Isolator::with_levelized(scanned, &design.lev, &run.vectors);
    let mut rng = SplitMix64::new(seed);

    // Detected faults per redundant (non-chipkill) group.
    let mut by_group: HashMap<usize, Vec<Fault>> = HashMap::new();
    for (&fault, &class) in &run.classes {
        if class != FaultClass::Detected {
            continue;
        }
        let Some(comp) = m.netlist.fault_component(fault) else {
            continue;
        };
        let g = m.group_of(comp);
        if matches!(m.groups[g].kind, rescue_model::GroupKind::Chipkill) {
            continue;
        }
        by_group.entry(g).or_default().push(fault);
    }
    for v in by_group.values_mut() {
        v.sort();
    }
    let group_ids: Vec<usize> = {
        let mut v: Vec<usize> = by_group.keys().copied().collect();
        v.sort();
        v
    };

    let mut out = Vec::with_capacity(trials);
    for _ in 0..trials {
        let chosen: Vec<usize> = rng.choose_multiple(&group_ids, k);
        let faults: Vec<Fault> = chosen
            .iter()
            .map(|g| *rng.choose(&by_group[g]).expect("group has faults"))
            .collect();
        let outcome = iso.isolate_multi(&faults);
        let implicated_groups: std::collections::BTreeSet<usize> =
            outcome.candidates.iter().map(|&c| m.group_of(c)).collect();
        let want: std::collections::BTreeSet<usize> = chosen.iter().copied().collect();
        out.push(MultiFaultTrial {
            injected: faults.len(),
            implicated: want.intersection(&implicated_groups).count(),
            false_positives: implicated_groups.difference(&want).count(),
        });
    }
    out
}

// ------------------------------------------------------------- Figure 8

/// Parameters for the Figure 8 sweep.
#[derive(Clone, Debug)]
pub struct Fig8Params {
    /// Instructions simulated per benchmark.
    pub n_instr: u64,
    /// Trace seed.
    pub seed: u64,
    /// Restrict to these benchmarks (`None` = all 23).
    pub benchmarks: Option<Vec<String>>,
    /// Worker threads for the per-benchmark pool (`0` = resolve via
    /// `RESCUE_THREADS`, then available parallelism). Results are
    /// bit-identical for any value.
    pub threads: usize,
}

impl Default for Fig8Params {
    fn default() -> Self {
        Fig8Params {
            n_instr: 100_000,
            seed: 7,
            benchmarks: None,
            threads: 0,
        }
    }
}

/// One bar pair of Figure 8.
#[derive(Clone, Debug)]
pub struct Fig8Row {
    /// Benchmark name.
    pub name: String,
    /// Baseline IPC.
    pub baseline_ipc: f64,
    /// Rescue IPC (fault-free, transformed pipeline).
    pub rescue_ipc: f64,
    /// Full baseline simulation counters (stalls, squashes, occupancy).
    pub baseline_result: SimResult,
    /// Full Rescue simulation counters.
    pub rescue_result: SimResult,
}

impl Fig8Row {
    /// Percent IPC degradation.
    pub fn degradation_pct(&self) -> f64 {
        100.0 * (1.0 - self.rescue_ipc / self.baseline_ipc)
    }
}

/// Regenerate Figure 8: per-benchmark IPC for baseline vs Rescue.
/// Benchmarks are pulled one at a time by the worker pool; each row
/// depends only on its own profile and lands at its profile's index, so
/// the row list is the sequential one for any thread count.
pub fn fig8(p: &Fig8Params) -> Vec<Fig8Row> {
    let _s = rescue_obs::span("fig8");
    let profiles = selected_profiles(&p.benchmarks);
    let row = |prof: &BenchmarkProfile| {
        let _s = rescue_obs::span_root("fig8.benchmark");
        let base = simulate(
            &SimConfig::paper(Policy::Baseline),
            &CoreConfig::healthy(),
            TraceGenerator::new(prof, p.seed),
            p.n_instr,
        );
        let resc = simulate(
            &SimConfig::paper(Policy::Rescue),
            &CoreConfig::healthy(),
            TraceGenerator::new(prof, p.seed),
            p.n_instr,
        );
        Fig8Row {
            name: prof.name.to_owned(),
            baseline_ipc: base.ipc(),
            rescue_ipc: resc.ipc(),
            baseline_result: base,
            rescue_result: resc,
        }
    };
    pool(p.threads, profiles.len(), || (), |(), i| row(&profiles[i]))
}

/// Run `work(state, i)` for every `i < n` on up to
/// `resolve_threads(threads)` scoped workers and return the results in
/// index order.
///
/// Each worker owns one `init()` state and claims the next unclaimed
/// index until none is left, so a slow item never idles the other
/// workers. Every result is written at its own index, so the output is
/// the sequential one for any thread count as long as `work` depends
/// only on `i` (the state is a cache, never an input).
fn pool<S, R: Send + Sync>(
    threads: usize,
    n: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize) -> R + Sync,
) -> Vec<R> {
    let workers = rescue_atpg::resolve_threads(threads).min(n).max(1);
    if workers == 1 {
        let mut state = init();
        return (0..n).map(|i| work(&mut state, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<R>> = (0..n).map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    // The counter publishes no data: results reach the
                    // caller through the slots and the scope's join.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // Each index is claimed exactly once.
                    let _ = slots[i].set(work(&mut state, i));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every index is claimed"))
        .collect()
}

fn selected_profiles(filter: &Option<Vec<String>>) -> Vec<BenchmarkProfile> {
    let all = spec2000_profiles();
    match filter {
        None => all,
        Some(names) => all
            .into_iter()
            .filter(|p| names.iter().any(|n| n == p.name))
            .collect(),
    }
}

// ------------------------------------------------------------- Figure 9

/// Parameters for the Figure 9 sweep.
#[derive(Clone, Debug)]
pub struct Fig9Params {
    /// Instructions per simulation point.
    pub n_instr: u64,
    /// Trace seed.
    pub seed: u64,
    /// Core-growth rates per area halving.
    pub growths: Vec<f64>,
    /// Technology nodes to sweep.
    pub nodes: Vec<TechNode>,
    /// Restrict benchmarks (`None` = all 23).
    pub benchmarks: Option<Vec<String>>,
    /// Also compute the §7 self-healing-array extension series.
    pub include_self_healing: bool,
    /// Worker threads for the simulation pool (`0` = resolve via
    /// `RESCUE_THREADS`, then available parallelism). Results are
    /// bit-identical for any value.
    pub threads: usize,
}

impl Default for Fig9Params {
    fn default() -> Self {
        Fig9Params {
            n_instr: 30_000,
            seed: 7,
            growths: vec![1.2, 1.3, 1.4, 1.5],
            nodes: TechNode::figure9_nodes().to_vec(),
            benchmarks: None,
            include_self_healing: false,
            threads: 0,
        }
    }
}

/// One bar group of Figure 9: a (node, growth) point averaged over the
/// benchmarks.
#[derive(Clone, Debug)]
pub struct Fig9Point {
    /// Feature size in nm.
    pub node_nm: f64,
    /// Core growth per halving.
    pub growth: f64,
    /// Averaged relative YAT values and the core count.
    pub yat: YatPoint,
    /// Rescue + self-healing arrays (§7 extension), when requested.
    pub rescue_self_healing: Option<f64>,
}

/// The IPCs one Figure 9 panel is computed from, for any PWP scenario:
/// per node (in [`Fig9Params::nodes`] order), per benchmark (in profile
/// order), the baseline IPC and the Rescue IPC of every degraded
/// configuration.
#[derive(Clone, Debug)]
pub struct Fig9Ipcs {
    per_node: Vec<Vec<(f64, HashMap<ClassCounts, f64>)>>,
    requested: usize,
    simulated: usize,
}

impl Fig9Ipcs {
    /// The (benchmark, node, configuration) points the table holds an
    /// IPC for.
    pub fn requested(&self) -> usize {
        self.requested
    }

    /// The simulations run to fill them: one per distinct machine.
    pub fn simulated(&self) -> usize {
        self.simulated
    }
}

/// Find the IPC of every (benchmark, node, configuration) point Figure 9
/// needs: the healthy baseline core and the 64 degraded Rescue cores.
///
/// Each distinct machine is simulated once. A benchmark's trace is
/// summarized first ([`TraceSummary`]), and each degraded core is
/// replaced by its [`CoreConfig::canonical_for`] that summary, so on a
/// trace without FP instructions every FP-degraded core reads the IPC of
/// its FP-healthy twin, which simulates identically.
///
/// The distinct simulations are one pool of items, ordered
/// benchmark-major. Each worker keeps one trace buffer and regenerates it
/// only when the item it claims belongs to another benchmark, so a
/// benchmark's trace is generated about once per worker instead of once
/// per simulation. No trace or IPC is kept past the call.
pub fn fig9_ipcs(p: &Fig9Params) -> Fig9Ipcs {
    let _s = rescue_obs::span("fig9.simulate");
    let profiles = selected_profiles(&p.benchmarks);
    let degraded = CoreConfig::all_degraded();
    let configs: Vec<[SimConfig; 2]> = p
        .nodes
        .iter()
        .map(|node| {
            let halvings = node.halvings().round() as u32;
            [Policy::Baseline, Policy::Rescue]
                .map(|policy| SimConfig::paper(policy).scaled_to_halvings(halvings))
        })
        .collect();
    // A simulation stops in the step that commits its n-th instruction.
    // Before that step at most n-1 instructions have committed, the ROB
    // holds at most `rob_entries` and the fetch queue at most 32; the
    // step fetches at most one fetch group (4) more. So n + ROB + 64
    // instructions always suffice, and a shorter trace panics below
    // rather than ending the simulation early. The summaries cover the
    // same prefix, so they describe every instruction a simulation reads.
    let rob = configs.iter().flatten().map(|c| c.rob_entries).max();
    let trace_len = p.n_instr as usize + rob.unwrap_or(0) + 64;
    // Every point's distinct item, benchmark-major like the points:
    // `None` is the healthy baseline core, `Some` a canonical Rescue core.
    let sims_per_node = 1 + degraded.len();
    let mut items: Vec<(usize, usize, Option<CoreConfig>)> = Vec::new();
    let mut item_of = Vec::with_capacity(profiles.len() * p.nodes.len() * sims_per_node);
    for (b, prof) in profiles.iter().enumerate() {
        let summary = TraceSummary::of(TraceGenerator::new(prof, p.seed).take(trace_len));
        for n in 0..p.nodes.len() {
            item_of.push(items.len());
            items.push((b, n, None));
            let mut seen = HashMap::new();
            for core in &degraded {
                let canonical = core.canonical_for(&summary);
                item_of.push(*seen.entry(canonical).or_insert_with(|| {
                    items.push((b, n, Some(canonical)));
                    items.len() - 1
                }));
            }
        }
    }
    let ipcs = pool(
        p.threads,
        items.len(),
        || (usize::MAX, Vec::with_capacity(trace_len)),
        |(bench, trace), i| {
            let (b, n, core) = items[i];
            if *bench != b {
                *bench = b;
                trace.clear();
                trace.extend(TraceGenerator::new(&profiles[b], p.seed).take(trace_len));
            }
            let [base_cfg, resc_cfg] = &configs[n];
            let (cfg, core) = match core {
                None => (base_cfg, CoreConfig::healthy()),
                Some(core) => (resc_cfg, core),
            };
            let ran_out = || -> Option<TraceInstr> {
                panic!("fig9 trace of {trace_len} instructions ran out")
            };
            let instrs = trace.iter().copied().chain(std::iter::from_fn(ran_out));
            simulate(cfg, &core, instrs, p.n_instr).ipc()
        },
    );
    rescue_obs::global().event(
        "fig9.sims",
        &[
            ("requested", &item_of.len().to_string()),
            ("simulated", &items.len().to_string()),
        ],
    );
    let per_node = (0..p.nodes.len())
        .map(|n| {
            (0..profiles.len())
                .map(|b| {
                    let at = (b * p.nodes.len() + n) * sims_per_node;
                    let map = degraded
                        .iter()
                        .zip(&item_of[at + 1..at + sims_per_node])
                        .map(|(core, &item)| (class_counts_of(core), ipcs[item]))
                        .collect();
                    (ipcs[item_of[at]], map)
                })
                .collect()
        })
        .collect();
    Fig9Ipcs {
        per_node,
        requested: item_of.len(),
        simulated: items.len(),
    }
}

/// Compute one panel of Figure 9 under `scenario` from the simulated
/// IPCs: the relative YAT of every (node, growth) point, averaged across
/// benchmarks (the paper's reporting). `ipcs` must come from
/// [`fig9_ipcs`] with the same `p`.
pub fn fig9_panel(scenario: &Scenario, ipcs: &Fig9Ipcs, p: &Fig9Params) -> Vec<Fig9Point> {
    assert_eq!(
        ipcs.per_node.len(),
        p.nodes.len(),
        "fig9_panel needs the IPCs of these parameters' nodes"
    );
    let mut out = Vec::new();
    for (&node, per_bench) in p.nodes.iter().zip(&ipcs.per_node) {
        let _s = rescue_obs::span("fig9.node");
        for &growth in &p.growths {
            // Average the relative YAT across benchmarks.
            let mut acc: Option<YatPoint> = None;
            let mut acc_heal = 0.0;
            for (base_ipc, map) in per_bench {
                let f = |c: ClassCounts| -> f64 { map[&c] };
                let inputs = YatInputs {
                    ipc_baseline: *base_ipc,
                    ipc_rescue: &f,
                };
                let pt = relative_yat(scenario, node, growth, &inputs);
                if p.include_self_healing {
                    acc_heal += relative_yat_self_healing(scenario, node, growth, &inputs).rescue;
                }
                acc = Some(match acc {
                    None => pt,
                    Some(a) => YatPoint {
                        cores: pt.cores,
                        none: a.none + pt.none,
                        core_sparing: a.core_sparing + pt.core_sparing,
                        rescue: a.rescue + pt.rescue,
                    },
                });
            }
            let n = per_bench.len() as f64;
            let a = acc.expect("at least one benchmark");
            out.push(Fig9Point {
                node_nm: node.0,
                growth,
                yat: YatPoint {
                    cores: a.cores,
                    none: a.none / n,
                    core_sparing: a.core_sparing / n,
                    rescue: a.rescue / n,
                },
                rescue_self_healing: p.include_self_healing.then_some(acc_heal / n),
            });
        }
    }
    out
}

/// Regenerate one panel of Figure 9 under `scenario`: [`fig9_ipcs`],
/// then [`fig9_panel`]. To draw both panels, call those two directly and
/// simulate once.
pub fn fig9(scenario: &Scenario, p: &Fig9Params) -> Vec<Fig9Point> {
    let _s = rescue_obs::span("fig9");
    fig9_panel(scenario, &fig9_ipcs(p), p)
}

// ------------------------------------------------------------ Ablations

/// One row of the ablation study: a Rescue design choice turned off (or
/// varied) and the resulting average IPC over the 23 benchmarks.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Which variant was simulated.
    pub label: String,
    /// Average IPC across the benchmark set.
    pub mean_ipc: f64,
    /// Average IPC degradation vs the conventional baseline (%).
    pub mean_degradation_pct: f64,
}

/// Ablate the Rescue design choices DESIGN.md calls out: the two extra
/// misprediction cycles (shift stages), the extra issue-queue hold/squash
/// cycle, the overcommit replay policy, and the compaction-buffer size.
///
/// Shows where Figure 8's ≈4% IPC tax actually comes from.
pub fn ablation(n_instr: u64, seed: u64) -> Vec<AblationRow> {
    use rescue_pipesim::ReplayPolicy;
    let _s = rescue_obs::span("ablation");
    let profiles = spec2000_profiles();
    let base_cfg = SimConfig::paper(Policy::Baseline);
    let base_ipcs: Vec<f64> = profiles
        .iter()
        .map(|p| {
            simulate(
                &base_cfg,
                &CoreConfig::healthy(),
                TraceGenerator::new(p, seed),
                n_instr,
            )
            .ipc()
        })
        .collect();

    let mut variants: Vec<(String, SimConfig)> = Vec::new();
    variants.push(("rescue (paper)".into(), SimConfig::paper(Policy::Rescue)));
    {
        let mut c = SimConfig::paper(Policy::Rescue);
        c.mispredict_penalty = base_cfg.mispredict_penalty;
        variants.push(("rescue, free shift stages (mispredict +0)".into(), c));
    }
    {
        let mut c = SimConfig::paper(Policy::Rescue);
        c.hold_extra = 1;
        c.squash_window = 1;
        variants.push(("rescue, no extra hold/squash".into(), c));
    }
    for (name, rp) in [
        ("replay new half", ReplayPolicy::NewHalf),
        ("replay larger half", ReplayPolicy::LargerHalf),
    ] {
        let mut c = SimConfig::paper(Policy::Rescue);
        c.replay_policy = rp;
        variants.push((format!("rescue, {name}"), c));
    }
    for buf in [1usize, 2, 8] {
        let mut c = SimConfig::paper(Policy::Rescue);
        c.compaction_buffer = buf;
        variants.push((format!("rescue, {buf}-entry compaction buffer"), c));
    }

    variants
        .into_iter()
        .map(|(label, cfg)| {
            let mut sum_ipc = 0.0;
            let mut sum_deg = 0.0;
            for (p, &b) in profiles.iter().zip(&base_ipcs) {
                let ipc = simulate(
                    &cfg,
                    &CoreConfig::healthy(),
                    TraceGenerator::new(p, seed),
                    n_instr,
                )
                .ipc();
                sum_ipc += ipc;
                sum_deg += 100.0 * (1.0 - ipc / b);
            }
            let n = profiles.len() as f64;
            AblationRow {
                label,
                mean_ipc: sum_ipc / n,
                mean_degradation_pct: sum_deg / n,
            }
        })
        .collect()
}

/// Map a pipesim [`CoreConfig`] onto the yield model's class-count key.
pub fn class_counts_of(c: &CoreConfig) -> ClassCounts {
    [
        c.frontend_groups,
        c.int_iq_halves,
        c.fp_iq_halves,
        c.lsq_halves,
        c.int_be_groups,
        c.fp_be_groups,
    ]
}
