//! Differential fuzzing entry point: seeded random scan designs run
//! through the eight cross-engine oracles (`crates/rescue-fuzz`).
//!
//! ```text
//! fuzz [--seed N] [--cases N] [--max-gates N] [--oracle a,b,...]
//!      [--repro-dir DIR] [--replay FILE]
//! ```
//!
//! * `--seed` (default 1) and `--cases` (default 1000) pick the
//!   deterministic case stream; `--max-gates` (default 48) bounds the
//!   generated circuit size.
//! * `--oracle` restricts the run to a comma-separated subset of
//!   `engines,shards,wide,atpg,dropping,collapse,lint,redundancy`
//!   (default: all eight).
//! * Divergences are shrunk and written to `--repro-dir` (default
//!   `tests/regressions`); the process exits 1 so CI fails loudly.
//! * `--serve-metrics ADDR` exposes live case/divergence counters at
//!   `http://ADDR/metrics`; `--progress-every N` mirrors them as JSONL
//!   progress frames in the trace sink.
//! * `--replay FILE` re-runs one committed repro instead of fuzzing.
//!
//! Per-oracle counters land in `BENCH_metrics.json` under `fuzz.*`
//! keys; the bench-diff gate treats those as informational (fuzz scale
//! is a knob, not a regression signal).

use rescue_fuzz::{run_fuzz, FuzzConfig, OracleKind, Repro};
use rescue_obs::Report;

fn main() {
    let obs = rescue_bench::obs_init();

    if let Some(path) = rescue_bench::arg_str("--replay") {
        replay(&path);
        return;
    }

    let oracles = match rescue_bench::arg_str("--oracle") {
        None => OracleKind::ALL.to_vec(),
        Some(list) => list
            .split(',')
            .map(|n| match OracleKind::of_name(n.trim()) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!(
                        "error: {e} (expected \
                         engines,shards,wide,atpg,dropping,collapse,lint,redundancy)"
                    );
                    std::process::exit(2);
                }
            })
            .collect(),
    };
    let cfg = FuzzConfig {
        seed: rescue_bench::arg_usize("--seed", 1) as u64,
        cases: rescue_bench::arg_usize("--cases", 1000) as u64,
        max_gates: rescue_bench::arg_usize("--max-gates", 48),
        oracles,
        repro_dir: Some(
            rescue_bench::arg_str("--repro-dir")
                .unwrap_or_else(|| "tests/regressions".to_owned())
                .into(),
        ),
    };
    if let Some(dir) = &cfg.repro_dir {
        // Fail fast on an unwritable repro destination, like every
        // other output path.
        rescue_bench::probe_output_dir(dir);
    }

    let r = run_fuzz(&cfg);
    print!("{}", r.render_text());

    let mut report = Report::new("fuzz");
    {
        let sec = report.section("fuzz");
        sec.u64("seed", cfg.seed);
        sec.u64("cases", r.cases);
        sec.u64("max_gates", cfg.max_gates as u64);
        sec.u64("gates_generated", r.gates_generated);
        sec.u64("divergences", r.divergences.len() as u64);
        sec.u64("shrink_probes", r.shrink_probes);
    }
    for (kind, c) in &r.per_oracle {
        let sec = report.section(&format!("fuzz.{}", kind.name()));
        sec.u64("runs", c.runs);
        sec.u64("divergences", c.divergences);
    }
    rescue_bench::obs_finish(&obs, &mut report);
    let json = report.to_json();
    if let Err(e) = std::fs::write("BENCH_metrics.json", &json) {
        eprintln!("error: cannot write BENCH_metrics.json: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote BENCH_metrics.json ({} bytes)", json.len());

    if !r.clean() {
        eprintln!(
            "error: {} divergence(s) — repros written, see above",
            r.divergences.len()
        );
        std::process::exit(1);
    }
}

/// Re-run one repro file through its oracle and report the verdict.
fn replay(path: &str) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let repro = match Repro::from_text(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            std::process::exit(2);
        }
    };
    match repro.oracle.run(&repro.case) {
        Ok(()) => println!("{path}: oracle {} passes", repro.oracle.name()),
        Err(detail) => {
            eprintln!("{path}: oracle {} FAILS: {detail}", repro.oracle.name());
            std::process::exit(1);
        }
    }
}
