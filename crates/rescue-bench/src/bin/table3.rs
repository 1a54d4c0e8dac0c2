//! Regenerate Table 3 (scan chain data): build both pipeline variants,
//! insert scan, run full ATPG, and report faults / cells / vectors /
//! cycles / coverage. Takes tens of seconds at paper size; pass --quick
//! for the tiny configuration. --metrics adds the per-phase ATPG engine
//! report (PODEM backtracks/aborts, fault-sim drop statistics, coverage
//! attribution) plus the phase-attribution flame summary on stderr;
//! --coverage-csv / --coverage-json write the per-vector coverage
//! curves; --threads N picks the fault-simulation worker count
//! (0/absent = RESCUE_THREADS, then available parallelism) without
//! changing a single statistic. --repeat N runs the table N times and
//! folds varying metrics into median/MAD/min/IQR statistics;
//! --metrics-json PATH writes the machine-readable report. An unknown
//! flag (say --quik) exits 2. --serve-metrics ADDR exposes live
//! ATPG/fault-sim progress at http://ADDR/metrics during the run;
//! --progress-every N mirrors it as JSONL frames in the trace sink.

use rescue_core::model::ModelParams;

fn main() {
    let obs = rescue_bench::obs_init(&["--quick", "--threads"]);
    let params = if rescue_bench::quick_mode() {
        ModelParams::tiny()
    } else {
        ModelParams::paper()
    };
    let threads = rescue_bench::threads_arg();

    let mut report = rescue_bench::run_repeated("table3", &obs, |report, first| {
        let t = rescue_core::experiments::table3(&params, threads);
        if first {
            print!("{}", rescue_core::render::table3_text(&t));
        }
        rescue_bench::table3_report(report, "", &t);
        if first {
            let curves = t.designs().map(|d| (d.tag(), &d.run.metrics.coverage));
            rescue_bench::coverage_outputs(&obs, &curves);
        }
    });

    rescue_bench::obs_finish(&obs, &mut report);
    rescue_bench::write_metrics_json(&obs, &report, None);
}
