//! Static DFT lint gate over the model netlists (`crates/rescue-lint`).
//!
//! ```text
//! lint [--quick] [--json PATH] [--fail-on SEV] [--threads N]
//! ```
//!
//! Lints the baseline and Rescue pipeline netlists, pre-scan and
//! post-scan (four designs total), prints a per-design summary, and
//! writes the `lint.*` counters to `BENCH_metrics.json`.
//!
//! * `--quick` lints the reduced-size model (CI uses this).
//! * `--json PATH` additionally writes the full diagnostic reports —
//!   every finding plus per-net SCOAP aggregates per ICI component —
//!   as a JSON array, one document per design.
//! * `--fail-on SEV` (`error`|`warning`|`info`, default `error`) sets
//!   the gate: any diagnostic at or above SEV exits 1. The paper's
//!   claim that the model netlists are structurally testable is
//!   enforced statically by CI running `--fail-on error`.

use rescue_core::model::ModelParams;
use rescue_lint::Severity;
use rescue_obs::Report;

fn main() {
    let obs = rescue_bench::obs_init(&["--quick", "--json", "--fail-on"]);
    let quick = rescue_bench::quick_mode();
    let json_path = rescue_bench::arg_str("--json");
    if let Some(path) = &json_path {
        rescue_bench::probe_output_file(path);
    }
    let fail_on = match rescue_bench::arg_str("--fail-on") {
        None => Severity::Error,
        Some(s) => match Severity::of_name(&s) {
            Ok(sev) => sev,
            Err(e) => {
                eprintln!("error: --fail-on: {e}");
                std::process::exit(2);
            }
        },
    };
    let params = if quick {
        ModelParams::tiny()
    } else {
        ModelParams::paper()
    };

    let mut report = Report::new("lint");
    let designs = rescue_bench::lint_report(&mut report, &params);

    for (label, lr) in &designs {
        print!("{}", lr.render_text(label, 50));
        if let Some(s) = &lr.scoap {
            println!(
                "  scoap: co_mean {:.2}, co_max {}, {} components",
                s.co_mean(),
                s.co_max(),
                s.per_component.len()
            );
        }
        if let Some(imp) = &lr.implication {
            println!(
                "  impl: {} literals, {} implications, {} constants, \
                 {}/{} reconvergent stems, {} redundant faults",
                imp.stats.literals,
                imp.stats.direct_implications,
                imp.stats.constant_literals,
                imp.stats.reconvergent_stems,
                imp.stats.stems,
                imp.redundant_faults.len()
            );
        }
    }

    if let Some(path) = &json_path {
        let docs: Vec<String> = designs
            .iter()
            .map(|(label, lr)| lr.to_json(label))
            .collect();
        let body = rescue_obs::json::array(&docs);
        if let Err(e) = std::fs::write(path, &body) {
            eprintln!("error: cannot write lint report {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote lint report {path} ({} bytes)", body.len());
    }

    rescue_bench::obs_finish(&obs, &mut report);
    let json = report.to_json();
    if let Err(e) = std::fs::write("BENCH_metrics.json", &json) {
        eprintln!("error: cannot write BENCH_metrics.json: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote BENCH_metrics.json ({} bytes)", json.len());

    let failing: Vec<&str> = designs
        .iter()
        .filter(|(_, lr)| !lr.passes(fail_on))
        .map(|(label, _)| label.as_str())
        .collect();
    if !failing.is_empty() {
        eprintln!(
            "error: lint gate failed at --fail-on {} for: {}",
            fail_on.name(),
            failing.join(", ")
        );
        std::process::exit(1);
    }
    println!("lint gate clean at --fail-on {}", fail_on.name());
}
