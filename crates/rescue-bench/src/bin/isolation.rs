//! The §6.1 experiment: inject random detected faults into each pipeline
//! stage of the Rescue design and verify every one isolates to its
//! map-out group through conventional scan alone. Also runs the baseline
//! design to show the ambiguity Rescue eliminates.
//!
//! Flags: --quick (tiny model), --faults-per-stage N (default 1000, the
//! paper's count), --threads N (fault-simulation workers; results are
//! bit-identical for any value), --metrics, --trace-json <path>,
//! --trace-perfetto <path>, --coverage-csv / --coverage-json <path>
//! (coverage curves of the underlying ATPG runs, tagged by design),
//! --serve-metrics ADDR (live /metrics endpoint during the run), and
//! --progress-every N (JSONL progress frames in the trace sink).

use rescue_core::model::{ModelParams, Variant};
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
    let mut curves = Vec::new();
    for variant in [Variant::Rescue, Variant::Baseline] {
        let e = rescue_core::experiments::isolation_with_threads(
            &params, variant, per_stage, 42, threads,
        );
        print!("{}", rescue_core::render::isolation_text(&e));
        println!();
        let tag = format!("{variant:?}").to_lowercase();
        report
            .section(&tag)
            .u64("injected", e.total_injected() as u64)
            .u64("isolated", e.total_isolated() as u64);
        rescue_bench::coverage_report(&mut report, &tag, &e.coverage);
        curves.push((tag, e.coverage));
    }
    let tagged: Vec<(&str, &rescue_obs::CoverageCurve)> =
        curves.iter().map(|(t, c)| (t.as_str(), c)).collect();
    rescue_bench::coverage_outputs(&obs, &tagged);
    rescue_bench::obs_finish(&obs, &mut report);
}
