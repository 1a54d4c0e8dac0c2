//! The repository benchmark: Table 3 ATPG, the Figure 8/9 sweeps, and
//! a served job mix, driven through the workspace crates' public
//! functions and timed from outside.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table3_atpg|fig_sweep|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones, measured untraced; with `--trace 1` the run
//! replays the workload's layer calls inside spans, reports the
//! per-layer metrics, and writes the spans to `perfbench/out/`. See
//! `perfbench/README.md` for the workloads and the metric predictions.

mod fig;
mod report;
mod serve;
mod table3;
mod trace;

use report::{Checks, Metrics};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["table3_atpg", "fig_sweep", "serve_mix"];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}"));
        }
        let seconds = seconds.unwrap_or(10.0);
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err("--seconds must be positive".to_owned());
        }
        Ok(Args {
            workload,
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        })
    }

    /// Where the traced run writes its spans.
    pub fn trace_path(&self) -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.jsonl", self.workload, self.seed))
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    match args.workload.as_str() {
        "table3_atpg" => table3::run(&args, &mut checks, &mut metrics),
        "fig_sweep" => fig::run(&args, &mut checks, &mut metrics),
        _ => serve::run(&args, &mut checks, &mut metrics),
    }
    if args.trace {
        metrics.set("ops_failed_frac", checks.failed_frac());
    }
    println!("{}", metrics.result_line(&checks, args.trace));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse("--workload fig_sweep --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, "fig_sweep");
        assert_eq!(a.seed, 9);
        assert_eq!(a.seconds, 3.0);
        assert!(a.trace);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload fig_sweep --trace 2").is_err());
        assert!(parse("--workload fig_sweep --seed").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload fig_sweep --seconds 0").is_err());
    }
}
