//! Serial-equivalence determinism suite: the sharded fault simulator
//! and the Figure 8/9 simulation pool must produce results bit-identical
//! to the 1-thread run for any worker count. These tests pin the
//! guarantee the bench-diff CI matrix (`--threads 1` vs `--threads 4`
//! against one baseline) relies on.

use rescue_core::experiments::{
    self, class_counts_of, AtpgDesign, Fig8Params, Fig9Params, Fig9Point,
};
use rescue_model::{ModelParams, Variant};
use rescue_pipesim::{simulate, CoreConfig, Policy, SimConfig};
use rescue_workloads::{BenchmarkProfile, TraceGenerator};
use rescue_yield::{relative_yat, ClassCounts, Scenario, TechNode, YatInputs};
use std::collections::HashMap;

/// Thread settings the pool is checked at; `0` resolves through
/// `RESCUE_THREADS`, which the CI matrix pins to 1, 2 and 8.
const POOL_THREADS: [usize; 4] = [1, 2, 3, 0];

/// Full Table 3 flow at 1, 2, and 8 fault-simulation threads, each an
/// independent build and search: scan statistics, every ATPG counter,
/// the per-vector coverage curve, and the stage attribution must all be
/// byte-identical.
#[test]
fn table3_is_thread_count_invariant() {
    let p = ModelParams::tiny();
    let base = experiments::table3(&p, 1);
    for threads in [2, 8] {
        let t = experiments::table3(&p, threads);
        for (a, b) in base.designs().into_iter().zip(t.designs()) {
            let tag = a.tag();
            assert_eq!(a.run.stats, b.run.stats, "{tag} at {threads} threads");
            assert_eq!(
                a.run.metrics.counts, b.run.metrics.counts,
                "{tag} at {threads} threads"
            );
            assert_eq!(
                a.run.metrics.coverage.to_csv(tag),
                b.run.metrics.coverage.to_csv(tag),
                "{tag} at {threads} threads"
            );
            assert_eq!(a.stage_coverage(), b.stage_coverage(), "{tag}");
        }
    }
}

/// Full §6.1 isolation flow at 1, 2, and 8 threads, each on an
/// independently built and searched design: the per-stage isolation
/// dictionary and the provenance coverage curve must match the serial
/// run exactly. (Rescue only — the Baseline design drives the identical
/// sharding code path; the per-fault dictionary itself is additionally
/// pinned by `isolate_many_matches_sequential_isolation` in
/// rescue-atpg's kernel_tests.)
#[test]
fn isolation_is_thread_count_invariant() {
    let p = ModelParams::tiny();
    let variant = Variant::Rescue;
    let run = |threads| {
        let design = AtpgDesign::build(&p, variant, threads);
        let e = experiments::isolation(&design, 10, 7, threads);
        (
            format!("{:?}", e.stages),
            design.run.metrics.coverage.to_csv("d"),
        )
    };
    let base = run(1);
    for threads in [2, 8] {
        assert_eq!(base, run(threads), "{variant:?} at {threads} threads");
    }
}

/// Every fig8 row at 1, 2 and 3 threads (and the environment's count)
/// equals the 1-thread rows, counter for counter.
#[test]
fn fig8_rows_are_thread_count_invariant() {
    let run = |threads| {
        experiments::fig8(&Fig8Params {
            n_instr: 1_500,
            seed: 3,
            benchmarks: Some(vec!["gzip".into(), "mcf".into(), "swim".into()]),
            threads,
        })
    };
    let base = run(1);
    assert_eq!(base.len(), 3);
    for threads in POOL_THREADS {
        let rows = run(threads);
        assert_eq!(rows.len(), base.len());
        for (a, b) in base.iter().zip(&rows) {
            assert_eq!(a.name, b.name, "{threads} threads");
            assert_eq!(a.baseline_result, b.baseline_result, "{threads} threads");
            assert_eq!(a.rescue_result, b.rescue_result, "{threads} threads");
        }
    }
}

fn fig9_params(threads: usize) -> Fig9Params {
    Fig9Params {
        n_instr: 500,
        seed: 4,
        growths: vec![1.2, 1.5],
        nodes: vec![TechNode::NM90, TechNode::NM18],
        benchmarks: Some(vec!["mcf".into(), "art".into()]),
        include_self_healing: false,
        threads,
    }
}

fn point_bits(points: &[Fig9Point]) -> Vec<[u64; 6]> {
    points
        .iter()
        .map(|p| {
            [
                p.node_nm.to_bits(),
                p.growth.to_bits(),
                p.yat.cores as u64,
                p.yat.none.to_bits(),
                p.yat.core_sparing.to_bits(),
                p.yat.rescue.to_bits(),
            ]
        })
        .collect()
}

/// Figure 9 the way it was first written: a fresh `TraceGenerator` for
/// every simulation, one node at a time, averaged in profile order.
fn fig9_reference(scenario: &Scenario, p: &Fig9Params) -> Vec<Fig9Point> {
    let names = p.benchmarks.as_ref().expect("benchmarks selected");
    let profiles: Vec<BenchmarkProfile> = rescue_workloads::spec2000_profiles()
        .into_iter()
        .filter(|b| names.iter().any(|n| n == b.name))
        .collect();
    let mut out = Vec::new();
    for &node in &p.nodes {
        let halvings = node.halvings().round() as u32;
        let sim = |policy, core: &CoreConfig, prof| {
            let cfg = SimConfig::paper(policy).scaled_to_halvings(halvings);
            simulate(&cfg, core, TraceGenerator::new(prof, p.seed), p.n_instr).ipc()
        };
        let per_bench: Vec<(f64, HashMap<ClassCounts, f64>)> = profiles
            .iter()
            .map(|prof| {
                let map = CoreConfig::all_degraded()
                    .iter()
                    .map(|c| (class_counts_of(c), sim(Policy::Rescue, c, prof)))
                    .collect();
                (sim(Policy::Baseline, &CoreConfig::healthy(), prof), map)
            })
            .collect();
        for &growth in &p.growths {
            let mut sum = [0.0; 3];
            let mut cores = 0;
            for (base_ipc, map) in &per_bench {
                let f = |c: ClassCounts| map[&c];
                let inputs = YatInputs {
                    ipc_baseline: *base_ipc,
                    ipc_rescue: &f,
                };
                let pt = relative_yat(scenario, node, growth, &inputs);
                cores = pt.cores;
                sum = [
                    sum[0] + pt.none,
                    sum[1] + pt.core_sparing,
                    sum[2] + pt.rescue,
                ];
            }
            let n = per_bench.len() as f64;
            out.push(Fig9Point {
                node_nm: node.0,
                growth,
                yat: rescue_yield::YatPoint {
                    cores,
                    none: sum[0] / n,
                    core_sparing: sum[1] / n,
                    rescue: sum[2] / n,
                },
                rescue_self_healing: None,
            });
        }
    }
    out
}

/// fig9's pooled simulations with per-worker trace buffers give the
/// per-simulation reference's points to the bit, at every thread count,
/// and both panels drawn from one IPC table equal two separate calls.
#[test]
fn fig9_pool_matches_the_per_simulation_reference() {
    let scenarios = [
        Scenario::pwp_stagnates_at_90nm(),
        Scenario::pwp_stagnates_at_65nm(),
    ];
    let want: Vec<_> = scenarios
        .iter()
        .map(|sc| point_bits(&fig9_reference(sc, &fig9_params(1))))
        .collect();
    for threads in POOL_THREADS {
        let p = fig9_params(threads);
        let ipcs = experiments::fig9_ipcs(&p);
        // mcf emits no FP instruction: each node simulates its baseline
        // core and 16 canonical Rescue cores instead of 64.
        assert_eq!((ipcs.requested(), ipcs.simulated()), (260, 130 + 2 * 17));
        for (sc, want) in scenarios.iter().zip(&want) {
            assert_eq!(
                &point_bits(&experiments::fig9(sc, &p)),
                want,
                "{threads} threads"
            );
            let panel = experiments::fig9_panel(sc, &ipcs, &p);
            assert_eq!(&point_bits(&panel), want, "{threads} threads, shared table");
        }
    }
}
