//! `fig_sweep`: `experiments::fig8`, then `experiments::fig9` for both
//! PWP scenarios (panels a and b), scaled down from `--quick` through
//! `Fig8Params`/`Fig9Params`.
//!
//! No netlist or ATPG work: trace generation, the pipeline simulator,
//! the yield model and the experiment fan-out do it all. Panel b
//! re-simulates every configuration panel a ran (the IPCs depend on the
//! node, not the scenario), so IPC memoisation shows only here. The seed
//! picks the trace seed from a pool whose outputs the benchmark has on
//! record, and the fig9 simulations the commit-budget check replays.

use crate::report::{self, median, secs, Checks, Metrics};
use crate::trace::Tracer;
use crate::Args;
use rescue_core::experiments::{
    class_counts_of, fig8, fig9, Fig8Params, Fig8Row, Fig9Params, Fig9Point,
};
use rescue_core::netlist::Fnv64;
use rescue_core::pipesim::{simulate, CoreConfig, Policy, SimConfig, SimResult};
use rescue_core::workloads::{spec2000_profiles, BenchmarkProfile, TraceGenerator, TraceInstr};
use rescue_core::yield_model::{
    relative_yat, ClassCounts, Scenario, TechNode, YatInputs, YatPoint,
};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Benchmarks simulated: integer and floating point, high and low IPC,
/// and at least one per worker thread on a two-core machine.
const BENCHES: [&str; 4] = ["gzip", "mcf", "swim", "art"];
const FIG8_INSTR: u64 = 20_000;
const FIG9_INSTR: u64 = 2_000;
const NODES: [TechNode; 2] = [TechNode::NM90, TechNode::NM18];
/// Timed set-up samples before each pass.
const SETUP_REPS: usize = 11;
/// Set-ups per timed sample: one takes microseconds, so a sample times
/// a batch and `setup_s` is the per-set-up mean of the fastest sample.
const SETUP_BATCH: usize = 1000;
/// fig9 simulations the commit-budget check replays per run.
const COMMIT_SAMPLES: usize = 16;

/// The trace seeds a workload seed picks from, each with the digest of
/// the sweep's outputs (every fig8 counter, every fig9 point). The seeds
/// are the 16 of 1..=64 whose sweeps simulate the cycle counts closest to
/// the median, so every workload seed asks for nearly the same work. A
/// change that only makes the sweep faster leaves the digests
/// byte-identical; regenerate the table with
/// `cargo test --release --manifest-path perfbench/Cargo.toml -- --ignored --nocapture reference_table`
/// only when a change is meant to move simulated statistics.
const REFERENCE: [(u64, u64); 16] = [
    (1, 0x209f_fd65_9adc_fd1b),
    (3, 0xf97d_c4b2_c4f2_b8af),
    (7, 0x1de7_0aa0_43df_25a1),
    (14, 0x4823_59f6_d121_9542),
    (17, 0x1bc1_2efc_12e6_9d47),
    (20, 0x5ef8_db46_d652_149d),
    (21, 0x4fae_b4ea_8c9e_a5d1),
    (22, 0x0041_8a0f_ee21_fb92),
    (29, 0x6081_be83_cf92_f8d4),
    (31, 0x9bc0_f203_7e83_2a40),
    (43, 0x9d16_e309_d68f_4b64),
    (46, 0xe9d5_4416_7577_0431),
    (47, 0x90f4_7026_9856_285a),
    (59, 0xc345_be48_c9f0_8abb),
    (60, 0x2176_826f_6396_a2f6),
    (61, 0x4365_e3c7_cf8f_446d),
];

fn trace_seed(seed: u64) -> u64 {
    REFERENCE[report::rng(seed, 5).below(REFERENCE.len())].0
}

fn fig8_params(trace_seed: u64) -> Fig8Params {
    Fig8Params {
        n_instr: FIG8_INSTR,
        seed: trace_seed,
        benchmarks: Some(BENCHES.iter().map(|b| (*b).to_owned()).collect()),
        threads: report::nproc(),
    }
}

fn fig9_params(trace_seed: u64) -> Fig9Params {
    Fig9Params {
        n_instr: FIG9_INSTR,
        seed: trace_seed,
        nodes: NODES.to_vec(),
        benchmarks: Some(BENCHES.iter().map(|b| (*b).to_owned()).collect()),
        threads: report::nproc(),
        ..Fig9Params::default()
    }
}

fn scenarios() -> [Scenario; 2] {
    [
        Scenario::pwp_stagnates_at_90nm(),
        Scenario::pwp_stagnates_at_65nm(),
    ]
}

/// The selected profiles, in `spec2000_profiles` order as fig8/fig9 use.
fn profiles() -> Vec<BenchmarkProfile> {
    spec2000_profiles()
        .into_iter()
        .filter(|p| BENCHES.contains(&p.name))
        .collect()
}

/// What a sweep needs before it runs: the selected profiles (for the
/// checks and the traced replay), both parameter sets and the scenarios.
struct Setup {
    profs: Vec<BenchmarkProfile>,
    p8: Fig8Params,
    p9: Fig9Params,
    scenarios: [Scenario; 2],
}

fn setup(trace_seed: u64) -> Setup {
    Setup {
        profs: profiles(),
        p8: fig8_params(trace_seed),
        p9: fig9_params(trace_seed),
        scenarios: scenarios(),
    }
}

/// One sweep's outputs.
pub struct Sweep {
    rows: Vec<Fig8Row>,
    panels: Vec<Vec<Fig9Point>>,
}

fn sweep(s: &Setup) -> Sweep {
    Sweep {
        rows: fig8(&s.p8),
        panels: s.scenarios.iter().map(|sc| fig9(sc, &s.p9)).collect(),
    }
}

/// Simulations one sweep asks for.
fn sims_per_sweep() -> usize {
    let configs = 1 + CoreConfig::all_degraded().len();
    2 * BENCHES.len() + scenarios().len() * NODES.len() * BENCHES.len() * configs
}

fn hash_result(h: &mut Fnv64, r: &SimResult) {
    for v in [
        r.cycles,
        r.committed,
        r.mispredicts,
        r.l1_misses,
        r.overcommit_replays,
        r.miss_squashes,
        r.dispatch_stall_cycles,
        r.stall_rob_full,
        r.stall_lsq_full,
        r.stall_iq_full,
        r.fetch_stall_cycles,
        r.issued_total,
        r.sum_iq_occupancy,
        r.sum_fpq_occupancy,
        r.sum_rob_occupancy,
        r.ipc_windows.count,
        r.ipc_windows.sum,
        r.ipc_windows.min,
        r.ipc_windows.max,
    ] {
        h.write_u64(v);
    }
    for &b in &r.ipc_windows.buckets {
        h.write_u64(b);
    }
}

/// Digest of every simulated statistic the sweep returns.
pub fn digest(s: &Sweep) -> u64 {
    let mut h = Fnv64::new();
    for row in &s.rows {
        h.write_str(&row.name);
        hash_result(&mut h, &row.baseline_result);
        hash_result(&mut h, &row.rescue_result);
    }
    for panel in &s.panels {
        for p in panel {
            for v in [
                p.node_nm,
                p.growth,
                p.yat.none,
                p.yat.core_sparing,
                p.yat.rescue,
            ] {
                h.write_u64(v.to_bits());
            }
            h.write_u64(p.yat.cores as u64);
            h.write_u64(p.rescue_self_healing.map_or(u64::MAX, f64::to_bits));
        }
    }
    h.finish()
}

/// A simulation commits its budget: it stops in the cycle that reaches
/// it, so it overshoots by less than one commit group.
fn check_commits(r: &SimResult, n_instr: u64, cfg: &SimConfig) -> Result<(), String> {
    if r.committed >= n_instr && r.committed < n_instr + cfg.commit_width as u64 {
        Ok(())
    } else {
        Err(format!(
            "committed {} for a budget of {n_instr}",
            r.committed
        ))
    }
}

fn check_digest(trace_seed: u64, got: u64) -> Result<(), String> {
    let want = REFERENCE
        .iter()
        .find(|(s, _)| *s == trace_seed)
        .map_or(0, |&(_, d)| d);
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "sweep digest {got:016x} for trace seed {trace_seed}, reference {want:016x}"
        ))
    }
}

pub fn run(args: &Args, checks: &mut Checks, m: &mut Metrics) {
    let trace_seed = trace_seed(args.seed);
    if args.trace {
        return traced(args, trace_seed, &setup(trace_seed), checks, m);
    }
    let timed = report::timed_run(
        args.seconds,
        SETUP_REPS,
        || {
            (1..SETUP_BATCH).for_each(|_| drop(std::hint::black_box(setup(trace_seed))));
            setup(trace_seed)
        },
        |set| sweep(&set),
    );
    let rss = report::peak_rss_mb();
    let passes = &timed.passes;
    let walls: Vec<f64> = passes.iter().map(|(d, _)| *d).collect();
    m.set("setup_s", timed.setup_s / SETUP_BATCH as f64);
    m.set("wall_s", median(&walls));
    m.set(
        "jobs_per_s",
        (sims_per_sweep() * passes.len()) as f64 / walls.iter().sum::<f64>(),
    );
    m.set("peak_rss_mb", rss);

    let first = &passes[0].1;
    verify_rows(first, checks);
    for (_, s) in passes {
        checks.check(
            "sweep matches the reference digest",
            check_digest(trace_seed, digest(s)),
        );
    }
    // fig9 returns only averages, so replay a seeded sample of its
    // simulations to check their commit budget.
    let set = setup(trace_seed);
    let mut rng = report::rng(args.seed, 6);
    let degraded = CoreConfig::all_degraded();
    for _ in 0..COMMIT_SAMPLES {
        let prof = rng.choose(&set.profs).expect("profiles selected");
        let node = *rng.choose(&NODES).expect("nodes selected");
        let core = *rng.choose(&degraded).expect("degraded configurations");
        let cfg =
            SimConfig::paper(Policy::Rescue).scaled_to_halvings(node.halvings().round() as u32);
        let r = simulate(
            &cfg,
            &core,
            TraceGenerator::new(prof, trace_seed),
            FIG9_INSTR,
        );
        checks.check(
            "fig9 simulation commits its budget",
            check_commits(&r, FIG9_INSTR, &cfg),
        );
    }
}

fn verify_rows(s: &Sweep, checks: &mut Checks) {
    for row in &s.rows {
        for (r, policy) in [
            (&row.baseline_result, Policy::Baseline),
            (&row.rescue_result, Policy::Rescue),
        ] {
            checks.check(
                "fig8 simulation commits its budget",
                check_commits(r, FIG8_INSTR, &SimConfig::paper(policy)),
            );
        }
    }
}

/// Everything one replayed simulation call leaves behind.
struct Call {
    key: String,
    result: SimResult,
    budget: Result<(), String>,
    ms: f64,
}

/// Replay one `simulate` call inside spans: drain the trace the call
/// would consume, then simulate over it.
fn call(
    tr: &Tracer,
    parent: u64,
    prof: &BenchmarkProfile,
    cfg: &SimConfig,
    core: &CoreConfig,
    trace_seed: u64,
    n_instr: u64,
) -> Call {
    let t = Instant::now();
    let result = tr.span("pipesim.call", Some(parent), |id| {
        // In flight at the last commit: at most a ROB and a fetch queue.
        let len = (n_instr as usize) + cfg.rob_entries + 64;
        let trace: Vec<TraceInstr> = tr.span("workloads.trace", Some(id), |_| {
            TraceGenerator::new(prof, trace_seed).take(len).collect()
        });
        tr.span("pipesim.simulate", Some(id), |_| {
            simulate(cfg, core, trace, n_instr)
        })
    });
    Call {
        key: format!("{}/{trace_seed}/{n_instr}/{cfg:?}/{core:?}", prof.name),
        budget: check_commits(&result, n_instr, cfg),
        result,
        ms: secs(t) * 1e3,
    }
}

/// Shard length of the fig8/fig9 fan-out over `items` benchmarks.
fn shard_len(items: usize) -> usize {
    items.div_ceil(report::nproc().min(items).max(1))
}

/// Shard `items` the way fig8/fig9 do and run `work` on each shard's
/// items in a worker thread; results come back in item order.
fn fan_out<T: Sync, R: Send>(items: &[T], work: impl Fn(&T) -> R + Sync) -> Vec<R> {
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(shard_len(items.len()))
            .map(|shard| s.spawn(|| shard.iter().map(&work).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("replay worker panicked"))
            .collect()
    })
}

/// Slowest shard over mean shard for per-item times under the fig8/fig9
/// chunking; returned as (slowest, mean) so fan-outs can be pooled.
fn shard_times(item_ms: &[f64]) -> (f64, f64) {
    let shards: Vec<f64> = item_ms
        .chunks(shard_len(item_ms.len()))
        .map(|c| c.iter().sum())
        .collect();
    let slowest = shards.iter().copied().fold(0.0, f64::max);
    (slowest, shards.iter().sum::<f64>() / shards.len() as f64)
}

/// The traced run: one untraced sweep for the overhead baseline, then
/// the sweep replayed as its individual `TraceGenerator`, `simulate` and
/// `relative_yat` calls, in the same fan-out, inside spans.
fn traced(args: &Args, trace_seed: u64, set: &Setup, checks: &mut Checks, m: &mut Metrics) {
    let profs = &set.profs[..];
    let t = Instant::now();
    let reference = sweep(set);
    let untraced_s = secs(t);
    checks.check(
        "sweep matches the reference digest",
        check_digest(trace_seed, digest(&reference)),
    );

    let tr = Tracer::default();
    let healthy = CoreConfig::healthy();
    let degraded = CoreConfig::all_degraded();
    let mut calls: Vec<Call> = Vec::new();
    let mut shards = (0.0, 0.0);
    let mut add_shards = |item_ms: &[f64]| {
        let (slow, mean) = shard_times(item_ms);
        shards = (shards.0 + slow, shards.1 + mean);
    };
    let t = Instant::now();
    let replayed = tr.span("fig_sweep", None, |root| {
        let per_bench = tr.span("fig8", Some(root), |id| {
            fan_out(profs, |p| {
                [Policy::Baseline, Policy::Rescue].map(|pol| {
                    call(
                        &tr,
                        id,
                        p,
                        &SimConfig::paper(pol),
                        &healthy,
                        trace_seed,
                        FIG8_INSTR,
                    )
                })
            })
        });
        add_shards(
            &per_bench
                .iter()
                .map(|c| c[0].ms + c[1].ms)
                .collect::<Vec<_>>(),
        );
        let rows = profs
            .iter()
            .zip(&per_bench)
            .map(|(p, [b, r])| Fig8Row {
                name: p.name.to_owned(),
                baseline_ipc: b.result.ipc(),
                rescue_ipc: r.result.ipc(),
                baseline_result: b.result.clone(),
                rescue_result: r.result.clone(),
            })
            .collect();
        calls.extend(per_bench.into_iter().flatten());

        let growths = Fig9Params::default().growths;
        let mut panels = Vec::new();
        for scenario in scenarios() {
            let mut points = Vec::new();
            tr.span("fig9", Some(root), |id| {
                for node in NODES {
                    let halvings = node.halvings().round() as u32;
                    let base_cfg = SimConfig::paper(Policy::Baseline).scaled_to_halvings(halvings);
                    let resc_cfg = SimConfig::paper(Policy::Rescue).scaled_to_halvings(halvings);
                    let per_bench: Vec<Vec<Call>> =
                        fan_out(profs, |p| {
                            std::iter::once(call(
                                &tr, id, p, &base_cfg, &healthy, trace_seed, FIG9_INSTR,
                            ))
                            .chain(degraded.iter().map(|core| {
                                call(&tr, id, p, &resc_cfg, core, trace_seed, FIG9_INSTR)
                            }))
                            .collect()
                        });
                    add_shards(
                        &per_bench
                            .iter()
                            .map(|c| c.iter().map(|c| c.ms).sum())
                            .collect::<Vec<_>>(),
                    );
                    let ipcs: Vec<(f64, HashMap<ClassCounts, f64>)> = per_bench
                        .iter()
                        .map(|c| {
                            let map = degraded
                                .iter()
                                .zip(&c[1..])
                                .map(|(core, c)| (class_counts_of(core), c.result.ipc()))
                                .collect();
                            (c[0].result.ipc(), map)
                        })
                        .collect();
                    // Average the relative YAT across benchmarks exactly
                    // as fig9 does, so the replay reproduces its bytes.
                    for &growth in &growths {
                        let mut acc: Option<YatPoint> = None;
                        for (base_ipc, map) in &ipcs {
                            let f = |c: ClassCounts| -> f64 { map[&c] };
                            let inputs = YatInputs {
                                ipc_baseline: *base_ipc,
                                ipc_rescue: &f,
                            };
                            let pt = tr.span("yield.yat", Some(id), |_| {
                                relative_yat(&scenario, node, growth, &inputs)
                            });
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
                        let n = ipcs.len() as f64;
                        let a = acc.expect("at least one benchmark");
                        points.push(Fig9Point {
                            node_nm: node.0,
                            growth,
                            yat: YatPoint {
                                cores: a.cores,
                                none: a.none / n,
                                core_sparing: a.core_sparing / n,
                                rescue: a.rescue / n,
                            },
                            rescue_self_healing: None,
                        });
                    }
                    calls.extend(per_bench.into_iter().flatten());
                }
            });
            panels.push(points);
        }
        Sweep { rows, panels }
    });
    let traced_s = secs(t);

    checks.check(
        "traced replay reproduces experiments::fig8/fig9",
        if digest(&replayed) == digest(&reference) {
            Ok(())
        } else {
            Err("replayed simulate/relative_yat calls disagree with fig8/fig9".to_owned())
        },
    );
    for c in &calls {
        checks.check("simulation commits its budget", c.budget.clone());
    }

    let simulate_ms = tr.total_ms("pipesim.simulate");
    let committed: u64 = calls.iter().map(|c| c.result.committed).sum();
    let distinct: HashSet<&str> = calls.iter().map(|c| c.key.as_str()).collect();
    m.set("workloads.trace_ms", tr.total_ms("workloads.trace"));
    m.set("pipesim.simulate_ms", simulate_ms);
    m.set("pipesim.calls", calls.len() as f64);
    m.set("pipesim.ns_per_instr", simulate_ms * 1e6 / committed as f64);
    m.set(
        "pipesim.sim_cycles",
        calls.iter().map(|c| c.result.cycles as f64).sum(),
    );
    m.set(
        "pipesim.distinct_call_share",
        distinct.len() as f64 / calls.len() as f64,
    );
    m.set("yield.yat_ms", tr.total_ms("yield.yat"));
    m.set("yield.yat_calls", tr.durations_ms("yield.yat").len() as f64);
    m.set("core.fanout_imbalance", shards.0 / shards.1);
    m.set(
        "obs.trace_overhead_pct",
        100.0 * (traced_s - untraced_s) / untraced_s,
    );
    if let Err(e) = tr.write(&args.trace_path()) {
        eprintln!("perfbench: could not write the trace: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validators_fire_on_tampered_outputs() {
        let cfg = SimConfig::paper(Policy::Rescue);
        let prof = &profiles()[0];
        let r = simulate(
            &cfg,
            &CoreConfig::healthy(),
            TraceGenerator::new(prof, 1),
            500,
        );
        check_commits(&r, 500, &cfg).expect("a real simulation commits its budget");
        let mut short = r.clone();
        short.committed = 499;
        assert!(check_commits(&short, 500, &cfg).is_err());

        let mut checks = Checks::default();
        let (seed, want) = REFERENCE[0];
        checks.check("digest", check_digest(seed, want ^ 1));
        assert!(checks.failed_frac() > 0.0);
    }

    #[test]
    fn every_trace_seed_has_a_reference() {
        for seed in 0..1000 {
            check_digest(trace_seed(seed), 1).expect_err("only the recorded digest passes");
        }
        assert!(REFERENCE.iter().all(|&(s, d)| s != 0 && d != 0));
    }

    /// Simulated cycles of every call one sweep makes.
    fn sweep_cycles(trace_seed: u64) -> u64 {
        let mut cycles = 0;
        for p in &profiles() {
            for policy in [Policy::Baseline, Policy::Rescue] {
                let cfg = SimConfig::paper(policy);
                let gen = TraceGenerator::new(p, trace_seed);
                cycles += simulate(&cfg, &CoreConfig::healthy(), gen, FIG8_INSTR).cycles;
            }
            for node in NODES {
                let h = node.halvings().round() as u32;
                let base = SimConfig::paper(Policy::Baseline).scaled_to_halvings(h);
                let resc = SimConfig::paper(Policy::Rescue).scaled_to_halvings(h);
                let gen = TraceGenerator::new(p, trace_seed);
                let mut c = simulate(&base, &CoreConfig::healthy(), gen, FIG9_INSTR).cycles;
                for core in CoreConfig::all_degraded() {
                    let gen = TraceGenerator::new(p, trace_seed);
                    c += simulate(&resc, &core, gen, FIG9_INSTR).cycles;
                }
                cycles += c * scenarios().len() as u64;
            }
        }
        cycles
    }

    /// Prints the `REFERENCE` table (slow; run in release mode).
    #[test]
    #[ignore]
    fn reference_table() {
        let candidates: Vec<u64> = (1..=64).collect();
        let cycles = fan_out(&candidates, |&s| sweep_cycles(s));
        let mut sorted = cycles.clone();
        sorted.sort_unstable();
        let mid = sorted[sorted.len() / 2] as i64;
        let mut by_distance: Vec<(i64, u64)> = candidates
            .iter()
            .zip(&cycles)
            .map(|(&s, &c)| ((c as i64 - mid).abs(), s))
            .collect();
        by_distance.sort_unstable();
        let mut seeds: Vec<u64> = by_distance[..REFERENCE.len()].iter().map(|x| x.1).collect();
        seeds.sort_unstable();
        println!("median sweep cycles {mid}");
        println!("const REFERENCE: [(u64, u64); 16] = [");
        for s in seeds {
            let c = cycles[(s - 1) as usize];
            println!(
                "    ({s}, 0x{:016x}), // {c} cycles",
                digest(&sweep(&setup(s)))
            );
        }
        println!("];");
    }
}
