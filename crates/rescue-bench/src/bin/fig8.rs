//! Regenerate Figure 8: per-benchmark IPC for the baseline and Rescue
//! designs across the 23 SPEC2000 workload profiles.

use rescue_core::experiments::{fig8, Fig8Params};
use rescue_obs::Report;

fn main() {
    let obs = rescue_bench::obs_init(&["--quick", "--threads", "--csv"]);
    let p = Fig8Params {
        n_instr: if rescue_bench::quick_mode() {
            10_000
        } else {
            100_000
        },
        threads: rescue_bench::threads_arg(),
        ..Default::default()
    };
    let rows = fig8(&p);
    if rescue_bench::arg_flag("--csv") {
        print!("{}", rescue_core::render::fig8_csv(&rows));
    } else {
        print!("{}", rescue_core::render::fig8_text(&rows));
    }
    let mut report = Report::new("fig8");
    for row in &rows {
        rescue_bench::sim_report(
            &mut report,
            &format!("{}.baseline", row.name),
            &row.baseline_result,
        );
        rescue_bench::sim_report(
            &mut report,
            &format!("{}.rescue", row.name),
            &row.rescue_result,
        );
    }
    rescue_bench::obs_finish(&obs, &mut report);
}
