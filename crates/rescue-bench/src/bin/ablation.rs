//! Ablation study: turn the Rescue design choices off one at a time and
//! measure which ones carry the ≈4% IPC tax of Figure 8.

use rescue_obs::Report;

fn main() {
    let obs = rescue_bench::obs_init(&["--quick"]);
    let n = if rescue_bench::quick_mode() {
        10_000
    } else {
        60_000
    };
    let rows = rescue_core::experiments::ablation(n, 7);
    print!("{}", rescue_core::render::ablation_text(&rows));
    let mut report = Report::new("ablation");
    report
        .section("ablation")
        .u64("variants", rows.len() as u64);
    rescue_bench::obs_finish(&obs, &mut report);
}
