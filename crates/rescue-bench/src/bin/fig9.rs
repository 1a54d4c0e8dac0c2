//! Regenerate Figure 9 (both panels): relative yield-adjusted throughput
//! for no-redundancy, core sparing, and Rescue, across technology nodes
//! and core-growth rates.

use rescue_core::experiments::{fig9_ipcs, fig9_panel, Fig9Params};
use rescue_core::yield_model::Scenario;
use rescue_obs::Report;

fn main() {
    let obs = rescue_bench::obs_init(&["--quick", "--threads", "--csv"]);
    let n_instr = if rescue_bench::quick_mode() {
        5_000
    } else {
        30_000
    };
    let p = Fig9Params {
        n_instr,
        threads: rescue_bench::threads_arg(),
        ..Default::default()
    };
    let csv = rescue_bench::arg_flag("--csv");
    let mut report = Report::new("fig9");
    // Both panels come from one simulated IPC table.
    let fig9_span = rescue_obs::span("fig9");
    let ipcs = fig9_ipcs(&p);
    rescue_bench::fig9_sims_report(&mut report, &ipcs);
    for (i, (section, title, scenario)) in [
        (
            "panel_a",
            "a: PWP stagnates at 90nm",
            Scenario::pwp_stagnates_at_90nm(),
        ),
        (
            "panel_b",
            "b: PWP stagnates at 65nm",
            Scenario::pwp_stagnates_at_65nm(),
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let points = fig9_panel(&scenario, &ipcs, &p);
        if csv {
            print!("{}", rescue_core::render::fig9_csv(&points));
        } else {
            if i > 0 {
                println!();
            }
            print!("{}", rescue_core::render::fig9_text(title, &points));
        }
        rescue_bench::fig9_report(&mut report, section, &points);
    }
    drop(fig9_span);
    rescue_bench::obs_finish(&obs, &mut report);
}
