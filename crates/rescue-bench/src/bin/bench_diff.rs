//! Structurally compare two `BENCH_metrics.json` documents and exit
//! nonzero on regression — the CI gate against the committed
//! `BENCH_baseline.json`.
//!
//! Usage: `bench-diff <baseline.json> <current.json> [--all]`
//!
//! The gate checks answers, not speed. Deterministic counters (vector
//! counts, fault classes, histogram buckets, coverage endpoints) must
//! match exactly; derived floats get a 1e-9 relative band; wall-clock
//! metrics are always informational. A value that varied across the
//! runs of a `--repeat N` document fails unless its path is
//! informational, so gating a repeated run is also a run-to-run
//! determinism check. `--all` also prints the matching rows. Exit
//! codes: 0 = no regression, 1 = regression, 2 = usage/IO/parse error.

use rescue_bench::diff::diff;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&str> = Vec::new();
    let mut show_all = false;
    for arg in &args {
        match arg.as_str() {
            "--all" => show_all = true,
            flag if flag.starts_with("--") => usage(&format!("unknown flag {flag}")),
            p => paths.push(p),
        }
    }
    if paths.len() != 2 {
        usage("expected exactly two metrics documents");
    }

    let load = |path: &str| -> rescue_obs::json::JsonValue {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        });
        rescue_obs::json::parse(&text).unwrap_or_else(|e| {
            eprintln!("error: {path} is not valid JSON: {e}");
            std::process::exit(2);
        })
    };
    let baseline = load(paths[0]);
    let current = load(paths[1]);

    let result = diff(&baseline, &current).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    print!("{}", result.render(show_all));
    if result.regressed() {
        eprintln!("regression detected: {} vs {}", paths[1], paths[0]);
        std::process::exit(1);
    }
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!("usage: bench-diff <baseline.json> <current.json> [--all]");
    std::process::exit(2);
}
