//! The `pipesim.stages.*` counters hold exact totals once a simulation
//! returns, the last partial IPC window included. This is the only test
//! in its binary, so no other simulation moves the global counters.

use rescue_pipesim::{simulate, stage_totals, CoreConfig, Policy, SimConfig};
use rescue_workloads::{BenchmarkProfile, TraceGenerator};

#[test]
fn stage_counters_total_a_drained_run_exactly() {
    let prof = BenchmarkProfile::by_name("mcf").unwrap();
    for policy in [Policy::Baseline, Policy::Rescue] {
        for n in [300, 3_000] {
            let before = stage_totals();
            let cfg = SimConfig::paper(policy);
            // A finite trace drains: every instruction commits.
            let trace = TraceGenerator::new(&prof, 5).take(n);
            let r = simulate(&cfg, &CoreConfig::healthy(), trace, u64::MAX);
            assert_eq!(r.committed, n as u64);
            let after = stage_totals();
            let count = |name: &str| {
                let at = |t: &[(&str, u64)]| t.iter().find(|(k, _)| *k == name).unwrap().1;
                at(&after) - at(&before)
            };
            // Each committed instruction left its queue slot once.
            assert_eq!(count("released"), r.committed, "{policy:?} {n}");
            // Each issue was preceded by a wakeup and examined by select;
            // a committed instruction's last issue queued a shadow end,
            // popped before it retired.
            assert!(count("woken") >= r.issued_total, "{policy:?} {n}");
            assert!(count("select_scanned") >= r.issued_total, "{policy:?} {n}");
            assert!(count("events") >= r.committed, "{policy:?} {n}");
            // An entry moves at most twice: new half to buffer to old
            // half, or new half to old half on the baseline.
            let moves = count("compaction_moves");
            assert!(moves > 0 && moves <= 2 * r.committed, "{policy:?} {n}");
        }
    }
}
