//! End-to-end experiment driver tests (reduced scale for CI speed).

use rescue_core::experiments::{self, class_counts_of, Fig8Params, Fig9Params, Table3};
use rescue_core::render;
use rescue_model::ModelParams;
use rescue_pipesim::{simulate, CoreConfig, Policy, SimConfig, TraceSummary};
use rescue_workloads::{spec2000_profiles, TraceGenerator, TraceInstr};
use rescue_yield::{Scenario, TechNode};
use std::collections::HashMap;
use std::sync::OnceLock;

#[test]
fn table1_renders() {
    let rows = experiments::table1();
    assert!(rows.len() >= 8);
    let text = render::table1_text(&rows);
    assert!(text.contains("issue width"));
    assert!(text.contains("250 cycles"));
}

#[test]
fn table2_matches_paper_shape() {
    let (base_total, rescue) = experiments::table2();
    assert!((base_total - 96.0).abs() < 0.2);
    assert!(rescue.total_mm2 > base_total);
    let text = render::table2_text(base_total, &rescue);
    assert!(text.contains("chipkill"));
}

/// The quick Table 3 designs, built and searched once for every test
/// in this binary that reads them.
fn quick_table3() -> &'static Table3 {
    static T: OnceLock<Table3> = OnceLock::new();
    T.get_or_init(|| experiments::table3(&ModelParams::tiny(), 0))
}

#[test]
fn table3_tiny_shape() {
    let t = quick_table3();
    let (b, r) = (&t.baseline.run.stats, &t.rescue.run.stats);
    // Structural relations from the paper: Rescue has more cells, one
    // chain each, non-trivial vectors and cycles.
    assert!(r.cells > b.cells);
    assert_eq!(b.chains, 1);
    assert_eq!(r.chains, 1);
    assert!(b.vectors > 0 && r.vectors > 0);
    assert!(r.cycles > r.vectors as u64);
    let text = render::table3_text(t);
    assert!(text.contains("vectors"));
}

#[test]
fn isolation_tiny_rescue_is_unambiguous() {
    let e = experiments::isolation(&quick_table3().rescue, 25, 3, 0);
    assert_eq!(e.total_injected(), e.total_isolated(), "{:#?}", e);
    for st in &e.stages {
        assert_eq!(st.ambiguous, 0, "stage {:?} ambiguous", st.stage);
    }
    let text = render::isolation_text(&e);
    assert!(text.contains("isolated"));
}

#[test]
fn isolation_tiny_baseline_is_ambiguous_somewhere() {
    let e = experiments::isolation(&quick_table3().baseline, 25, 3, 0);
    let total_ambiguous: usize = e.stages.iter().map(|s| s.ambiguous).sum();
    assert!(
        total_ambiguous > 0,
        "the baseline design must show isolation ambiguity: {e:#?}"
    );
}

#[test]
fn fig8_reduced_run() {
    let rows = experiments::fig8(&Fig8Params {
        n_instr: 8_000,
        seed: 5,
        benchmarks: Some(vec!["gzip".into(), "swim".into()]),
        ..Default::default()
    });
    assert_eq!(rows.len(), 2);
    for r in &rows {
        assert!(r.degradation_pct() > -2.0 && r.degradation_pct() < 15.0);
    }
}

#[test]
fn fig9_reduced_run_shows_rescue_advantage_growth() {
    let p = Fig9Params {
        n_instr: 4_000,
        seed: 5,
        growths: vec![1.3],
        nodes: vec![TechNode::NM90, TechNode::NM18],
        benchmarks: Some(vec!["gcc".into(), "mgrid".into()]),
        include_self_healing: true,
        ..Default::default()
    };
    let pts = fig9_points(&p);
    assert_eq!(pts.len(), 2);
    let adv = |p: &rescue_core::experiments::Fig9Point| p.yat.rescue / p.yat.core_sparing;
    // Rescue's advantage over CS grows with scaling.
    assert!(adv(&pts[1]) > adv(&pts[0]));
    // And the no-redundancy series collapses.
    assert!(pts[1].yat.none < pts[0].yat.none * 0.5);
}

fn fig9_points(p: &Fig9Params) -> Vec<rescue_core::experiments::Fig9Point> {
    experiments::fig9(&Scenario::pwp_stagnates_at_90nm(), p)
}

/// Differential check of [`CoreConfig::canonical_for`], the rule fig9
/// simulates each distinct machine by. On the trace prefix fig9 feeds a
/// Rescue simulation of every `n_instr`, at every node: each FP-free
/// profile's 48 FP-degraded cores give the full `SimResult` of their
/// canonical twin, and on every FP-emitting profile the rule is the
/// identity. One thread per profile.
fn check_canonical_cores(n_instrs: &[u64], nodes: &[TechNode]) {
    let degraded = CoreConfig::all_degraded();
    std::thread::scope(|scope| {
        for prof in spec2000_profiles() {
            let degraded = &degraded;
            scope.spawn(move || {
                for &n_instr in n_instrs {
                    // fig9's bound: n + ROB + 64 instructions suffice.
                    let len = n_instr as usize + SimConfig::paper(Policy::Rescue).rob_entries + 64;
                    let trace: Vec<TraceInstr> = TraceGenerator::new(&prof, 7).take(len).collect();
                    let summary = TraceSummary::of(trace.iter().copied());
                    let name = prof.name;
                    assert_eq!(summary.has_fp(), prof.f_fp_of_compute > 0.0, "{name}");
                    if summary.has_fp() {
                        for core in degraded {
                            assert_eq!(core.canonical_for(&summary), *core, "{name}");
                        }
                        continue;
                    }
                    for &node in nodes {
                        let cfg = SimConfig::paper(Policy::Rescue)
                            .scaled_to_halvings(node.halvings().round() as u32);
                        let sim = |core: &CoreConfig| {
                            let r = simulate(&cfg, core, trace.iter().copied(), n_instr);
                            assert!(r.committed >= n_instr, "{name}: the prefix ran out");
                            r
                        };
                        let mut twins = HashMap::new();
                        let mut fp_degraded = 0;
                        for core in degraded {
                            let canonical = core.canonical_for(&summary);
                            if canonical == *core {
                                continue;
                            }
                            fp_degraded += 1;
                            let want = twins.entry(canonical).or_insert_with(|| sim(&canonical));
                            assert_eq!(
                                &sim(core),
                                want,
                                "{name}, {core:?}, {}nm, {n_instr} instructions",
                                node.0
                            );
                        }
                        assert_eq!(fp_degraded, 48, "{name}");
                    }
                }
            });
        }
    });
}

#[test]
fn fig9_canonical_cores_simulate_like_their_twins() {
    check_canonical_cores(&[500], &[TechNode::NM90, TechNode::NM18]);
}

/// The same check at the fig_sweep, quick and paper sizes over all four
/// Figure 9 nodes (release only:
/// `cargo test --release -p rescue-core -- --ignored fig9_canonical`).
#[test]
#[ignore = "release-mode differential at full Figure 9 sizes"]
fn fig9_canonical_cores_at_figure9_sizes() {
    check_canonical_cores(&[2_000, 5_000, 30_000], &TechNode::figure9_nodes());
}

#[test]
fn class_counts_mapping_roundtrip() {
    for cfg in CoreConfig::all_degraded() {
        let c = class_counts_of(&cfg);
        assert_eq!(c[0], cfg.frontend_groups);
        assert_eq!(c[4], cfg.int_be_groups);
    }
}

#[test]
fn csv_renderers_are_well_formed() {
    let rows = experiments::fig8(&Fig8Params {
        n_instr: 3_000,
        seed: 2,
        benchmarks: Some(vec!["gzip".into()]),
        ..Default::default()
    });
    let csv = render::fig8_csv(&rows);
    let mut lines = csv.lines();
    assert_eq!(
        lines.next().unwrap(),
        "benchmark,baseline_ipc,rescue_ipc,degradation_pct"
    );
    let data = lines.next().unwrap();
    assert!(data.starts_with("gzip,"));
    assert_eq!(data.split(',').count(), 4);
}
