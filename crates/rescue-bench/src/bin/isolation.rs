//! The §6.1 experiment: inject random detected faults into each pipeline
//! stage of the Rescue design and verify every one isolates to its
//! map-out group through conventional scan alone. Also runs the baseline
//! design to show the ambiguity Rescue eliminates.
//!
//! Flags: --quick (tiny model), --faults-per-stage N (default 1000, the
//! paper's count), --threads N (fault-simulation workers; results are
//! bit-identical for any value), --metrics, --trace-perfetto <path>,
//! --coverage-csv / --coverage-json <path> (coverage curves of the
//! underlying ATPG runs, tagged by design), --serve-metrics ADDR (live
//! /metrics endpoint during the run), and --progress-every N (progress
//! frames in the trace).

use rescue_core::model::ModelParams;
use rescue_obs::Report;

fn main() {
    let obs = rescue_bench::obs_init(&["--quick", "--faults-per-stage", "--threads"]);
    let (params, per_stage) = if rescue_bench::quick_mode() {
        (
            ModelParams::tiny(),
            rescue_bench::arg_usize("--faults-per-stage", 50),
        )
    } else {
        (
            ModelParams::paper(),
            rescue_bench::arg_usize("--faults-per-stage", 1000),
        )
    };
    let threads = rescue_bench::threads_arg();
    let mut report = Report::new("isolation");
    let t = rescue_core::experiments::table3(&params, threads);
    let mut curves = Vec::new();
    for design in [&t.rescue, &t.baseline] {
        let e = rescue_core::experiments::isolation(design, per_stage, 42, threads);
        print!("{}", rescue_core::render::isolation_text(&e));
        println!();
        let tag = design.tag();
        report
            .section(tag)
            .u64("injected", e.total_injected() as u64)
            .u64("isolated", e.total_isolated() as u64);
        let coverage = &design.run.metrics.coverage;
        rescue_bench::coverage_report(&mut report, tag, coverage);
        curves.push((tag, coverage));
    }
    rescue_bench::coverage_outputs(&obs, &curves);
    rescue_bench::obs_finish(&obs, &mut report);
}
