//! The `obs.overhead` self-benchmark must not count its synthetic
//! sweeps as engine work. Its own test binary, and so its own process:
//! nothing else here touches the process-global `live.*` counters, so
//! after the report `live.fsim.gate_evals` must still read 0.

use rescue_core::model::{build_pipeline, ModelParams, Variant};
use rescue_core::netlist::{scan::insert_scan, Levelized};
use rescue_obs::Report;

#[test]
fn obs_overhead_leaves_the_engine_counters_alone() {
    let model = build_pipeline(&ModelParams::tiny(), Variant::Rescue);
    let scanned = insert_scan(&model.netlist).expect("model has state");
    let lev = Levelized::new(&scanned.netlist);
    let faults = scanned.netlist.collapse_faults();

    let mut report = Report::new("obs_overhead");
    rescue_bench::obs_overhead_report(&mut report, &lev, &faults);
    assert!(
        report.to_json().contains("\"obs.overhead\""),
        "no obs.overhead section"
    );

    rescue_obs::live::counters();
    let snap = rescue_obs::metrics::global().snapshot();
    let gate_evals = rescue_obs::live::totals(&snap)
        .find(|&(name, _)| name == "fsim.gate_evals")
        .map(|(_, total)| total);
    assert_eq!(
        gate_evals,
        Some(0),
        "the self-benchmark added its sweeps to live.fsim.gate_evals"
    );
}
