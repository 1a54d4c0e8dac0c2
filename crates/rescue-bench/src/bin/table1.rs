//! Regenerate Table 1 (system parameters).

use rescue_obs::Report;

fn main() {
    let obs = rescue_bench::obs_init(&["--quick"]);
    let rows = rescue_core::experiments::table1();
    print!("{}", rescue_core::render::table1_text(&rows));
    let mut report = Report::new("table1");
    report.section("table1").u64("rows", rows.len() as u64);
    rescue_bench::obs_finish(&obs, &mut report);
}
