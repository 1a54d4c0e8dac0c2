//! Edge-case behaviour of the timing simulator.

use rescue_pipesim::{simulate, CoreConfig, Policy, ReplayPolicy, SimConfig};
use rescue_workloads::{BenchmarkProfile, InstrKind, TraceGenerator, TraceInstr};

#[test]
fn empty_trace_finishes_immediately() {
    let cfg = SimConfig::paper(Policy::Rescue);
    let r = simulate(
        &cfg,
        &CoreConfig::healthy(),
        Vec::<TraceInstr>::new(),
        1_000,
    );
    assert_eq!(r.committed, 0);
    assert!(r.cycles < 10);
}

#[test]
fn short_trace_drains_completely() {
    let cfg = SimConfig::paper(Policy::Rescue);
    let trace = vec![TraceInstr::simple_alu(); 37];
    let r = simulate(&cfg, &CoreConfig::healthy(), trace, 10_000);
    assert_eq!(r.committed, 37, "every instruction must retire");
}

#[test]
fn fp_only_stream_uses_fp_backend() {
    let cfg = SimConfig::paper(Policy::Rescue);
    let trace: Vec<TraceInstr> = (0..10_000)
        .map(|_| TraceInstr {
            kind: InstrKind::FpAdd,
            src_deps: [None, None],
            mispredict: false,
            l1_miss: false,
            l2_miss: false,
        })
        .collect();
    let full = simulate(&cfg, &CoreConfig::healthy(), trace.clone(), 10_000);
    let half_fp = simulate(
        &cfg,
        &CoreConfig {
            fp_be_groups: 1,
            ..CoreConfig::healthy()
        },
        trace.clone(),
        10_000,
    );
    // Full machine: 2 fp adders; degraded: 1 -> roughly half throughput.
    assert!(full.ipc() > 1.5 * half_fp.ipc());
    // Integer backend loss does not hurt an FP-only stream much.
    let half_int = simulate(
        &cfg,
        &CoreConfig {
            int_be_groups: 1,
            ..CoreConfig::healthy()
        },
        trace,
        10_000,
    );
    assert!(half_int.ipc() > 0.85 * full.ipc());
}

#[test]
fn store_heavy_stream_respects_lsq_capacity() {
    let cfg = SimConfig::paper(Policy::Baseline);
    let trace: Vec<TraceInstr> = (0..20_000)
        .map(|_| TraceInstr {
            kind: InstrKind::Store,
            src_deps: [None, None],
            mispredict: false,
            l1_miss: false,
            l2_miss: false,
        })
        .collect();
    let full = simulate(&cfg, &CoreConfig::healthy(), trace.clone(), 20_000);
    let half = simulate(
        &cfg,
        &CoreConfig {
            lsq_halves: 1,
            ..CoreConfig::healthy()
        },
        trace,
        20_000,
    );
    // Stores bottleneck on memory ports either way, but the halved LSQ
    // must not be faster.
    assert!(half.ipc() <= full.ipc() + 1e-9);
    assert!(full.committed == 20_000 && half.committed == 20_000);
}

#[test]
fn replay_policies_order_sensibly() {
    // On a high-ILP workload the paper's smaller-half replay wastes the
    // fewest issue slots.
    let prof = BenchmarkProfile::by_name("vortex").unwrap();
    let ipc_with = |rp: ReplayPolicy| {
        let mut cfg = SimConfig::paper(Policy::Rescue);
        cfg.replay_policy = rp;
        simulate(
            &cfg,
            &CoreConfig::healthy(),
            TraceGenerator::new(&prof, 3),
            40_000,
        )
        .ipc()
    };
    let smaller = ipc_with(ReplayPolicy::SmallerHalf);
    let larger = ipc_with(ReplayPolicy::LargerHalf);
    assert!(
        smaller > larger,
        "paper's heuristic must beat the anti-heuristic: {smaller} vs {larger}"
    );
}

#[test]
fn node_scaled_configs_are_slower() {
    let prof = BenchmarkProfile::by_name("mcf").unwrap();
    let base = SimConfig::paper(Policy::Rescue);
    let scaled = base.scaled_to_halvings(5);
    let a = simulate(
        &base,
        &CoreConfig::healthy(),
        TraceGenerator::new(&prof, 3),
        20_000,
    );
    let b = simulate(
        &scaled,
        &CoreConfig::healthy(),
        TraceGenerator::new(&prof, 3),
        20_000,
    );
    assert!(
        b.ipc() < a.ipc() * 0.8,
        "memory-bound code must suffer at scaled nodes: {} vs {}",
        b.ipc(),
        a.ipc()
    );
}

#[test]
fn stats_counters_are_consistent() {
    let prof = BenchmarkProfile::by_name("twolf").unwrap();
    let cfg = SimConfig::paper(Policy::Rescue);
    let r = simulate(
        &cfg,
        &CoreConfig::healthy(),
        TraceGenerator::new(&prof, 5),
        30_000,
    );
    // The final cycle may retire up to commit_width instructions, so the
    // count can slightly overshoot the target.
    assert!(r.committed >= 30_000 && r.committed < 30_000 + cfg.commit_width as u64);
    assert!(r.cycles > 0);
    assert!(r.ipc() > 0.0);
    assert!(r.mispredicts > 0, "twolf is branchy");
    assert!(r.l1_misses > 0);
}

#[test]
fn utilization_counters_move() {
    let prof = BenchmarkProfile::by_name("gcc").unwrap();
    let cfg = SimConfig::paper(Policy::Rescue);
    let r = simulate(
        &cfg,
        &CoreConfig::healthy(),
        TraceGenerator::new(&prof, 5),
        20_000,
    );
    assert!(
        r.avg_iq_occupancy() > 1.0,
        "iq occupancy {}",
        r.avg_iq_occupancy()
    );
    assert!(r.avg_iq_occupancy() <= cfg.int_iq_entries as f64 + 1e-9);
    assert!(r.avg_rob_occupancy() > 5.0);
    assert!(r.avg_rob_occupancy() <= cfg.rob_entries as f64);
    assert!(r.issued_total >= r.committed);
    assert!(r.wasted_issue_fraction() < 0.5);
}

#[test]
fn fp_starved_core_trips_the_watchdog_at_the_stepped_cycle() {
    // One backend way with one FP group leaves an FP issue width of 0,
    // so swim's first FP instruction can never issue. The watchdog must
    // fire at the cycle a one-cycle-at-a-time engine reaches, a million
    // cycles after the last commit, even though idle cycles are skipped.
    let prof = BenchmarkProfile::by_name("swim").unwrap();
    let core = CoreConfig {
        fp_be_groups: 1,
        ..CoreConfig::healthy()
    };
    for (policy, want) in [
        (
            Policy::Baseline,
            "simulator deadlock at cycle 1000008 (committed 2)",
        ),
        (
            Policy::Rescue,
            "simulator deadlock at cycle 1000009 (committed 2)",
        ),
    ] {
        let cfg = SimConfig {
            backend_ways: 1,
            ..SimConfig::paper(policy)
        };
        assert_eq!(core.resources(&cfg).fp_width, 0);
        let err = std::panic::catch_unwind(|| {
            simulate(&cfg, &core, TraceGenerator::new(&prof, 1), 10_000)
        })
        .expect_err("an FP-starved core must deadlock");
        assert_eq!(err.downcast_ref::<String>().map(String::as_str), Some(want));
    }
}
