//! Regenerate Table 2 (total areas and component relative areas).

use rescue_obs::Report;

fn main() {
    let obs = rescue_bench::obs_init(&["--quick"]);
    let (base_total, rescue) = rescue_core::experiments::table2();
    print!("{}", rescue_core::render::table2_text(base_total, &rescue));
    let mut report = Report::new("table2");
    report
        .section("table2")
        .f64("baseline_total_mm2", base_total);
    rescue_bench::obs_finish(&obs, &mut report);
}
