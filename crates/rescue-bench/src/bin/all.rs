//! Regenerate every table and figure in sequence (EXPERIMENTS.md source).
//!
//! Always writes the combined machine-readable report to
//! `BENCH_metrics.json` in the current directory (`--metrics-json PATH`
//! overrides the destination); `--metrics` also renders it — plus the
//! phase-attribution flame summary — to stderr and `--trace-perfetto
//! <path>` streams the spans. `--threads N` picks the fault-simulation
//! worker count (results are bit-identical for any value); the report
//! ends with the informational `fsim_kernel` lane-width sweep and the
//! `obs.overhead` self-benchmark (instrumented vs uninstrumented kernel
//! throughput). `--repeat N` runs the whole suite N times and folds
//! varying metrics into median/MAD/min/IQR statistics; `bench-diff`
//! fails any exactly gated value that varied, so a repeated run doubles
//! as a run-to-run determinism check. `--serve-metrics ADDR` exposes live progress
//! at `http://ADDR/metrics` while the run is in flight, and
//! `--progress-every N` mirrors the same counters as progress
//! frames into the trace.

use rescue_core::experiments::{self, Fig8Params, Fig9Params};
use rescue_core::model::ModelParams;
use rescue_core::render;
use rescue_core::yield_model::Scenario;

fn main() {
    let obs = rescue_bench::obs_init(&["--quick", "--threads"]);
    let quick = rescue_bench::quick_mode();
    let threads = rescue_bench::threads_arg();
    let params = if quick {
        ModelParams::tiny()
    } else {
        ModelParams::paper()
    };

    let mut report = rescue_bench::run_repeated("all", &obs, |report, first| {
        let t1 = experiments::table1();
        if first {
            print!("{}", render::table1_text(&t1));
            println!();
        }
        report.section("table1").u64("rows", t1.len() as u64);

        let (bt, ra) = experiments::table2();
        if first {
            print!("{}", render::table2_text(bt, &ra));
            println!();
        }
        report.section("table2").f64("baseline_total_mm2", bt);

        // Both Table 3 designs are built and searched once per pass;
        // isolation, the pre-pass report and fsim_kernel read their
        // answers, and every rerun replays their PODEM memos. The memos
        // die with the pass, so a `--repeat` pass searches afresh and
        // stays a determinism check.
        let t3 = experiments::table3(&params, threads);
        if first {
            print!("{}", render::table3_text(&t3));
            println!();
        }
        rescue_bench::table3_report(report, "table3.", &t3);
        if first {
            let curves = t3.designs().map(|d| (d.tag(), &d.run.metrics.coverage));
            rescue_bench::coverage_outputs(&obs, &curves);
        }

        let per_stage = if quick { 50 } else { 1000 };
        for design in [&t3.rescue, &t3.baseline] {
            let e = experiments::isolation(design, per_stage, 42, threads);
            if first {
                print!("{}", render::isolation_text(&e));
                println!();
            }
            report
                .section(&format!("isolation.{}", design.tag()))
                .u64("injected", e.total_injected() as u64)
                .u64("isolated", e.total_isolated() as u64);
        }

        let stages_before = rescue_core::pipesim::stage_totals();
        let f8 = experiments::fig8(&Fig8Params {
            n_instr: if quick { 10_000 } else { 100_000 },
            threads,
            ..Default::default()
        });
        if first {
            print!("{}", render::fig8_text(&f8));
            println!();
        }
        for row in &f8 {
            rescue_bench::sim_report(
                report,
                &format!("fig8.{}.baseline", row.name),
                &row.baseline_result,
            );
            rescue_bench::sim_report(
                report,
                &format!("fig8.{}.rescue", row.name),
                &row.rescue_result,
            );
        }

        let p9 = Fig9Params {
            n_instr: if quick { 5_000 } else { 30_000 },
            threads,
            ..Default::default()
        };
        // Both panels come from one simulated IPC table.
        let fig9_span = rescue_obs::span("fig9");
        let ipcs = experiments::fig9_ipcs(&p9);
        rescue_bench::fig9_sims_report(report, &ipcs);
        for (section, title, scenario) in [
            (
                "fig9.panel_a",
                "a: PWP stagnates at 90nm",
                Scenario::pwp_stagnates_at_90nm(),
            ),
            (
                "fig9.panel_b",
                "b: PWP stagnates at 65nm",
                Scenario::pwp_stagnates_at_65nm(),
            ),
        ] {
            let points = experiments::fig9_panel(&scenario, &ipcs, &p9);
            if first {
                print!("{}", render::fig9_text(title, &points));
                println!();
            }
            rescue_bench::fig9_report(report, section, &points);
        }
        drop(fig9_span);
        rescue_bench::pipesim_stages_report(report, &stages_before);

        // Static DFT lint over both variants (pre- and post-scan): the
        // diagnostic counts gate exactly in bench-diff, the SCOAP
        // aggregates ride along as informational testability telemetry.
        let lint_designs = rescue_bench::lint_report(report, &params);
        if first {
            for (label, lr) in &lint_designs {
                println!(
                    "lint {label}: {} errors, {} warnings, {} infos",
                    lr.count(rescue_lint::Severity::Error),
                    lr.count(rescue_lint::Severity::Warning),
                    lr.count(rescue_lint::Severity::Info),
                );
            }
            println!();
        }

        // Static-implication ATPG pre-pass: proven-redundant counts and
        // PODEM calls saved gate exactly; the `identical` row pins the
        // byte-identity contract (pre-pass on vs off) in bench-diff.
        rescue_bench::prepass_report(report, &t3.designs());

        // Fault-sim lane-width sweep and n-detect dropping rows: the
        // counters gate exactly, the timings are informational.
        rescue_bench::fsim_kernel_report(report, &t3.rescue, threads);

        // How much does live telemetry + the phase profiler cost? Sweep
        // the same faults with both on and off; the ratio lands in
        // BENCH_metrics.json as informational `obs.overhead.*` rows.
        rescue_bench::obs_overhead_report(report, &t3.rescue.lev, &t3.rescue.faults);

        // Last, once every rerun on the designs has replayed its memo.
        rescue_bench::memo_report(report, &t3.designs());
    });

    rescue_bench::obs_finish(&obs, &mut report);
    rescue_bench::write_metrics_json(&obs, &report, Some("BENCH_metrics.json"));
}
