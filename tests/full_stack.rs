//! Workspace-level integration tests spanning every crate: netlist →
//! ICI → model → scan → ATPG → isolation on one side, workloads →
//! pipesim → yield → YAT on the other, meeting in the paper's claims.

use rescue_core::atpg::{Atpg, AtpgConfig, Isolator};
use rescue_core::experiments::{class_counts_of, AtpgDesign};
use rescue_core::model::{build_pipeline, extract_lc_graph, ModelParams, Variant};
use rescue_core::pipesim::{simulate, CoreConfig, Policy, SimConfig};
use rescue_core::workloads::{BenchmarkProfile, TraceGenerator};
use rescue_core::yield_model::{relative_yat, Scenario, TechNode, YatInputs};
use std::sync::OnceLock;

/// The quick Rescue design and its Table 3 run, built and searched once
/// for every test in this binary that reads them.
fn quick_rescue() -> &'static AtpgDesign {
    static D: OnceLock<AtpgDesign> = OnceLock::new();
    D.get_or_init(|| AtpgDesign::build(&ModelParams::tiny(), Variant::Rescue, 0))
}

/// The paper's central structural claim, end to end: the Rescue pipeline
/// passes the ICI check, and a fault injected into the issue queue is
/// isolated to the right half by conventional scan test alone.
#[test]
fn end_to_end_issue_queue_fault_isolation() {
    let AtpgDesign {
        model,
        scanned,
        run,
        ..
    } = quick_rescue();
    assert!(model.check_ici().is_empty());
    assert!(run.coverage() > 0.95, "coverage {}", run.coverage());

    // Pick a detected fault inside the old issue-queue half.
    let old_group = model
        .groups
        .iter()
        .position(|g| g.name == "issue.old")
        .expect("group exists");
    let fault = run
        .classes
        .iter()
        .find(|(f, c)| {
            **c == rescue_core::atpg::FaultClass::Detected
                && model
                    .netlist
                    .fault_component(**f)
                    .is_some_and(|comp| model.group_of(comp) == old_group)
        })
        .map(|(f, _)| *f)
        .expect("some detected fault in the old half");

    let iso = Isolator::new(scanned, &run.vectors);
    let outcome = iso.isolate(fault);
    assert!(outcome.detected());
    for &c in &outcome.candidates {
        assert_eq!(model.group_of(c), old_group);
    }
}

/// The LC graph extracted from the generated netlist agrees with the
/// hand-built issue-stage analysis: baseline merges the queue halves,
/// Rescue separates them.
#[test]
fn lc_graph_extraction_matches_design_intent() {
    let base = build_pipeline(&ModelParams::tiny(), Variant::Baseline);
    let resc = build_pipeline(&ModelParams::tiny(), Variant::Rescue);
    let gb = extract_lc_graph(&base.netlist).graph;
    let gr = extract_lc_graph(&resc.netlist).graph;

    let rb = gb.isolation_report();
    let rr = gr.isolation_report();
    let find = |g: &rescue_core::ici::LcGraph, n: &str| g.find(n).expect("component");

    // Baseline: iq.old and iq.new share a super-component.
    assert!(!rb.separable(find(&gb, "iq.old"), find(&gb, "iq.new")));
    // Rescue: they are separable.
    assert!(rr.separable(find(&gr, "iq.old"), find(&gr, "iq.new")));
}

/// IPC and YAT plumb together: feeding simulated IPCs into the yield
/// model reproduces the Rescue-beats-CS crossover under scaling.
#[test]
fn simulated_ipcs_drive_yat_crossover() {
    let prof = BenchmarkProfile::by_name("vortex").unwrap();
    let n = 6_000;
    let base_ipc = simulate(
        &SimConfig::paper(Policy::Baseline),
        &CoreConfig::healthy(),
        TraceGenerator::new(&prof, 9),
        n,
    )
    .ipc();

    let mut cache = std::collections::HashMap::new();
    for cfg in CoreConfig::all_degraded() {
        let ipc = simulate(
            &SimConfig::paper(Policy::Rescue),
            &cfg,
            TraceGenerator::new(&prof, 9),
            n,
        )
        .ipc();
        cache.insert(class_counts_of(&cfg), ipc);
    }
    let f = |c: rescue_core::yield_model::ClassCounts| cache[&c];
    let sc = Scenario::pwp_stagnates_at_90nm();

    let at = |node| {
        let inputs = YatInputs {
            ipc_baseline: base_ipc,
            ipc_rescue: &f,
        };
        relative_yat(&sc, node, 1.3, &inputs)
    };
    let p90 = at(TechNode::NM90);
    let p18 = at(TechNode::NM18);

    // At 90nm the 4% IPC tax makes Rescue's advantage small (possibly
    // negative); by 18nm it must be clearly ahead of core sparing.
    assert!(p18.rescue / p18.core_sparing > 1.05);
    assert!(p18.rescue / p18.core_sparing > p90.rescue / p90.core_sparing);
    // And everything beats no-redundancy at 18nm.
    assert!(p18.none < p18.core_sparing);
}

/// Determinism across the whole stack: same seeds, same numbers. This
/// is the golden test for the observability counters too — every ATPG
/// count (decisions, backtracks, drops per block, gate evaluations)
/// must be bit-identical across runs; only wall-clock timings may vary.
#[test]
fn full_stack_determinism() {
    let t1 = rescue_core::experiments::table3(&ModelParams::tiny(), 0);
    let t2 = rescue_core::experiments::table3(&ModelParams::tiny(), 0);
    for (a, b) in t1.designs().into_iter().zip(t2.designs()) {
        assert_eq!(a.run.stats, b.run.stats);
        assert_eq!(a.run.metrics.counts, b.run.metrics.counts);
        // The coverage curve is part of the golden state: identical
        // across runs, and internally consistent with the engine
        // counters — its endpoint is the detected count the Table 3
        // coverage is computed from (bit-for-bit, not tolerance).
        assert_eq!(a.run.metrics.coverage, b.run.metrics.coverage);
    }
    for m in [&t1.baseline.run.metrics, &t1.rescue.run.metrics] {
        assert_eq!(m.coverage.detected_total(), m.counts.detected);
        assert_eq!(m.coverage.targetable, m.counts.detected + m.counts.aborted);
        let attributed: u64 = m.coverage.attribution.iter().map(|(_, n)| n).sum();
        assert_eq!(attributed, m.counts.detected);
    }
    // The counters must describe real work, not zeros.
    let c = &t1.rescue.run.metrics.counts;
    assert!(c.podem_decisions > 0);
    assert!(c.blocks_flushed > 0);
    assert!(c.fsim_gate_evals > 0);
    assert!(c.word_utilization() > 0.0 && c.word_utilization() <= 1.0);
}

/// The §3.1 corollary: multiple simultaneous faults — one per map-out
/// group — are all implicated by a single replay of the standard vector
/// set, with no false accusations.
#[test]
fn multi_fault_isolation_implicates_all_faulty_groups() {
    let trials = rescue_core::experiments::multi_fault_isolation(quick_rescue(), 3, 8, 17);
    assert_eq!(trials.len(), 8);
    for t in &trials {
        assert_eq!(t.false_positives, 0, "no healthy group may be accused");
        // Fault masking between simultaneous faults can hide one
        // occasionally, but most trials must implicate every group.
        assert!(t.implicated >= t.injected - 1);
    }
    let full: usize = trials.iter().filter(|t| t.implicated == t.injected).count();
    assert!(full >= 6, "most trials isolate all faults: {trials:#?}");
}

/// Chain-classification soundness at gate level: shifting the flush
/// pattern through the real scan muxes, every fault on the *shift path*
/// (cell outputs, scan-mux select and chain-input pins, scan_enable,
/// scan_in) fails the chain-integrity test.
#[test]
fn chain_faults_fail_the_flush_test() {
    use rescue_core::atpg::chain_flush_test;
    use rescue_core::netlist::{Driver, FaultSite};

    let scanned = &quick_rescue().scanned;
    let atpg = Atpg::new(scanned, AtpgConfig::default()).unwrap();

    let mut shift_path_checked = 0;
    let mut functional_pin_checked = 0;
    for (i, fault) in scanned.netlist.collapse_faults().into_iter().enumerate() {
        if !atpg.is_chain_fault(fault) {
            continue;
        }
        // Keep runtime bounded: sample the chain-fault population.
        if i % 97 != 0 {
            continue;
        }
        // Flush-detectable = breaks shifting. Two chain-fault families are
        // *not* flush-detectable and are instead caught when capture
        // vectors return garbage: the functional-D pin of a scan mux
        // (pin 1), and scan-enable stuck at its flush-mode value (1).
        let enable_sa1 = fault.stuck_at == rescue_core::netlist::StuckAt::One
            && match fault.site {
                FaultSite::Net(n) => n == scanned.chain.scan_enable,
                FaultSite::GateInput(g, pin) => scanned.netlist.gate(g).is_scan_path() && pin == 0,
            };
        let on_shift_path = !enable_sa1
            && match fault.site {
                FaultSite::Net(n) => !matches!(
                    scanned.netlist.net_driver(n),
                    Driver::Gate(g) if !scanned.netlist.gate(g).is_scan_path()
                ),
                FaultSite::GateInput(g, pin) => scanned.netlist.gate(g).is_scan_path() && pin != 1,
            };
        let r = chain_flush_test(scanned, Some(fault)).unwrap();
        if on_shift_path {
            assert!(
                !r.passed(),
                "shift-path fault {fault} must fail the flush test"
            );
            shift_path_checked += 1;
        } else {
            // Functional-D pin of a scan mux: shifting is unaffected; the
            // conservative ChainTested classification is checked only for
            // not breaking the flush test logic.
            functional_pin_checked += 1;
        }
    }
    assert!(
        shift_path_checked > 10,
        "sample must cover shift-path faults"
    );
    assert!(functional_pin_checked > 0);
}
