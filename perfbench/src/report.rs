//! Metric declarations, the result line, and the small statistics the
//! workloads share.

use rescue_obs::json::JsonObj;
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, printed by every untraced run of every workload.
/// Each is host time or host memory and is never 0.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run of every workload. A
/// layer the workload does not exercise reports 0, which is the "flat"
/// prediction for that workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Netlist construction (table3_atpg and serve_mix).
    ("model.build_ms", "ms"),
    ("netlist.scan_ms", "ms"),
    ("netlist.parse_ms", "ms"),
    ("netlist.levelize_ms", "ms"),
    ("netlist.collapse_ms", "ms"),
    // ATPG (table3_atpg).
    ("atpg.run_ms", "ms"),
    ("atpg.faults_per_s", "1/s"),
    ("atpg.podem_ms", "ms"),
    ("atpg.prepass_ms", "ms"),
    ("atpg.compact_ms", "ms"),
    ("atpg.fill_ms", "ms"),
    ("atpg.fsim_ms", "ms"),
    ("atpg.podem.calls", "count"),
    ("atpg.podem.decisions", "count"),
    ("atpg.podem.backtracks", "count"),
    ("atpg.podem.aborted", "count"),
    ("atpg.podem.decisions_per_s", "1/s"),
    ("atpg.podem.abort_backtrack_share", "ratio"),
    ("atpg.prepass.proven", "count"),
    ("atpg.prepass.calls_saved", "count"),
    ("atpg.compact.merge_ratio", "ratio"),
    ("atpg.fsim.gate_evals", "count"),
    ("atpg.fsim.word_utilization", "ratio"),
    ("atpg.fsim.sim_drop_share", "ratio"),
    ("atpg.fsim.worker_utilization", "ratio"),
    ("atpg.isolate_ms", "ms"),
    ("atpg.isolate.isolated", "count"),
    ("coverage_pct.baseline", "%"),
    ("coverage_pct.rescue", "%"),
    ("test_cycles.baseline", "cycles"),
    ("test_cycles.rescue", "cycles"),
    // Lint (serve_mix).
    ("lint.run_ms", "ms"),
    ("lint.findings", "count"),
    // Trace generation, pipeline simulation, yield math, fan-out
    // (fig_sweep).
    ("workloads.trace_ms", "ms"),
    ("pipesim.simulate_ms", "ms"),
    ("pipesim.calls", "count"),
    ("pipesim.ns_per_instr", "ns"),
    ("pipesim.sim_cycles", "cycles"),
    ("pipesim.distinct_call_share", "ratio"),
    ("yield.yat_ms", "ms"),
    ("yield.yat_calls", "count"),
    ("core.fanout_imbalance", "ratio"),
    // The job server (serve_mix).
    ("cold_job_p50_ms", "ms"),
    ("cold_job_p90_ms", "ms"),
    ("cold_job.samples", "count"),
    ("cold_job.total_ms", "ms"),
    ("warm_job_p50_ms", "ms"),
    ("warm_job_p90_ms", "ms"),
    ("warm_job.samples", "count"),
    ("serve.admit_ms.p50", "ms"),
    ("serve.admit_ms.p90", "ms"),
    ("serve.result_cache.hit_rate", "ratio"),
    ("serve.design_cache.hit_rate", "ratio"),
    ("serve.design_build_ms.quick", "ms"),
    ("serve.design_build_ms.paper", "ms"),
    ("serve.run_ms.atpg", "ms"),
    ("serve.run_ms.fsim", "ms"),
    ("serve.run_ms.lint", "ms"),
    ("serve.run_ms.netlist", "ms"),
    ("serve.fsim.ns_per_block", "ns"),
    ("serve.overhead_ms", "ms"),
    ("serve.jobs.shed", "count"),
    ("serve.jobs.failed", "count"),
    // The benchmark itself (all workloads).
    ("ops_failed_frac", "ratio"),
    ("obs.trace_overhead_pct", "%"),
];

/// Counts of checked operations: every ATPG run, simulation or served
/// job the benchmark verifies is one attempt.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Record one checked operation; a failure is reported on stderr.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}: {e}");
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Metric values by name, rendered against one of the declared lists.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric of the list the run mode prints. End-to-end metrics must
    /// all have been measured; a per-layer metric the workload does not
    /// exercise reads 0.
    pub fn result_line(&self, checks: &Checks, traced: bool) -> String {
        let declared = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = JsonObj::new();
        for &(name, unit) in declared {
            let value = match self.get(name) {
                Some(v) => v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            let mut m = JsonObj::new();
            m.f64("value", value).str("unit", unit);
            metrics.raw(name, &m.finish());
        }
        let mut line = JsonObj::new();
        line.bool("correct", checks.failed == 0)
            .u64("attempted", checks.attempted.max(1))
            .u64("failed", checks.failed)
            .raw("metrics", &metrics.finish());
        line.finish()
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// What [`timed_run`] measured.
pub struct Timed<T> {
    /// Duration of the fastest set-up, in seconds.
    pub setup_s: f64,
    /// Each pass's duration in seconds, with its output.
    pub passes: Vec<(f64, T)>,
}

/// Time `setup_reps` set-ups, then one pass that consumes the last of
/// them, and repeat until `seconds` of pass time have accumulated (at
/// least one pass). The set-ups no pass uses are dropped outside the
/// timed windows.
///
/// `setup_s` is the fastest set-up of the run. A set-up takes
/// microseconds to milliseconds; on a shared 2-vCPU VM, `fig_sweep`'s
/// median set-up moved 1.6× between quiet and busy spells of the host,
/// its fastest 1.2×, and the seconds-long pass times about 1.1×.
pub fn timed_run<S, T>(
    seconds: f64,
    setup_reps: usize,
    mut setup: impl FnMut() -> S,
    mut pass: impl FnMut(S) -> T,
) -> Timed<T> {
    assert!(setup_reps > 0, "every pass needs a set-up");
    let mut setups = Vec::new();
    let mut passes = Vec::new();
    let mut total = 0.0;
    while passes.is_empty() || total < seconds {
        let mut last = None;
        for _ in 0..setup_reps {
            let t = Instant::now();
            let s = std::hint::black_box(setup());
            setups.push(secs(t));
            last = Some(s);
        }
        let s = last.expect("at least one set-up");
        let t = Instant::now();
        let r = std::hint::black_box(pass(s));
        let d = secs(t);
        total += d;
        passes.push((d, r));
    }
    let times: Vec<String> = passes.iter().map(|(d, _)| format!("{d:.3}")).collect();
    eprintln!("perfbench: pass seconds [{}]", times.join(", "));
    let setup_s = percentile(&setups, 0.0);
    eprintln!(
        "perfbench: set-up seconds min {setup_s:.6} median {:.6} max {:.6} over {}",
        median(&setups),
        percentile(&setups, 100.0),
        setups.len()
    );
    Timed { setup_s, passes }
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Worker threads for the engines: the machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// An independent random stream derived from the workload seed; every
/// generated input comes from one of these.
pub fn rng(seed: u64, stream: u64) -> rescue_obs::SplitMix64 {
    rescue_obs::SplitMix64::new(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_obs::json::{parse, JsonValue};

    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).expect("valid JSON")
    }

    fn declared(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(JsonValue::as_str).expect(k).to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn names_units(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok(name), "bad metric name {name:?}");
            assert!(seen.insert(*name), "duplicate metric name {name:?}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit:?}");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end"), names_units(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), names_units(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_emits_every_declared_metric() {
        let mut m = Metrics::default();
        for (name, _) in END_TO_END {
            m.set(name, 1.5);
        }
        m.set("atpg.run_ms", 2.0);
        let checks = Checks {
            attempted: 3,
            failed: 1,
        };
        for (traced, list) in [(false, END_TO_END), (true, PER_LAYER)] {
            let line = parse(&m.result_line(&checks, traced)).expect("result line is JSON");
            assert_eq!(
                line.get("correct").and_then(JsonValue::as_bool),
                Some(false)
            );
            assert_eq!(line.get("failed").and_then(JsonValue::as_int), Some(1));
            let metrics = line.get("metrics").expect("metrics");
            let JsonValue::Obj(fields) = metrics else {
                panic!("metrics is an object")
            };
            let emitted: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            let want: Vec<&str> = list.iter().map(|(n, _)| *n).collect();
            assert_eq!(emitted, want);
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
