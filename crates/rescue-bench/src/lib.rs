//! Shared helpers for the experiment-regeneration binaries.
//!
//! Each binary regenerates one table or figure of the paper:
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | Table 1, system parameters |
//! | `table2` | Table 2, total and relative areas |
//! | `table3` | Table 3, scan chain data (full ATPG on both designs) |
//! | `isolation` | §6.1 fault-isolation experiment |
//! | `fig8` | Figure 8, per-benchmark IPC degradation |
//! | `fig9` | Figure 9 (both panels), relative YAT vs technology |
//! | `all` | everything above in sequence |
//!
//! Every binary accepts `--quick` to run a reduced-size configuration
//! suitable for smoke testing, and the ATPG/simulation binaries accept
//! `--threads N` to pick the fault-simulation worker count (default:
//! `RESCUE_THREADS`, then available parallelism — results are
//! bit-identical for any value), plus the observability flags:
//!
//! * `--metrics` — print an engine-counter and span-timing report to
//!   stderr when the run finishes,
//! * `--trace-perfetto <path>` — stream spans, events and counter
//!   samples to `path` as Chrome trace-event JSON while the run
//!   executes, loadable in `chrome://tracing` /
//!   [ui.perfetto.dev](https://ui.perfetto.dev); a run that dies
//!   leaves a prefix that parses once `]` is appended,
//! * `--coverage-csv <path>` / `--coverage-json <path>` — (binaries
//!   that run ATPG: `table3`, `isolation`, `all`) write the per-vector
//!   coverage curve with per-component attribution,
//! * `--serve-metrics <addr>` — start the live telemetry endpoint
//!   ([`rescue_obs::TelemetryServer`]) on `addr` (port `0` = ephemeral;
//!   the bound address is printed to stderr) serving `GET /metrics`
//!   (Prometheus text exposition), `GET /snapshot.json`, and
//!   `GET /healthz` for the whole run,
//! * `--progress-every <n>` — enable live progress collection and emit
//!   one progress frame per `n` loop units (ATPG targets, fuzz cases)
//!   to the trace as a `progress` instant plus counter tracks when
//!   `--trace-perfetto` is given.
//!
//! Every output path is probed at argument-parse time: an unwritable
//! destination aborts with exit code 2 *before* the run, not after it.
//! So does a `--…` flag the binary does not know.
//!
//! The `bench-diff` binary is the exact-answer regression gate over the
//! `BENCH_metrics.json` artifact; see [`diff`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod stats;

use rescue_core::atpg::AtpgMetrics;
use rescue_core::experiments::{AtpgDesign, Fig9Ipcs, Fig9Point, Table3};
use rescue_core::netlist::{Fault, Levelized};
use rescue_core::pipesim::{SimResult, IPC_WINDOW_CYCLES};
use rescue_obs::{CoverageCurve, Report};

/// Whether `--quick` was passed on the command line.
pub fn quick_mode() -> bool {
    arg_flag("--quick")
}

/// Whether the bare flag `name` was passed on the command line.
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// The value following `name` on the command line, if present. Exits
/// with an error when the flag is last (no value to take).
pub fn arg_str(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if a == name {
            match args.get(i + 1) {
                Some(v) => return Some(v.clone()),
                None => {
                    eprintln!("error: {name} requires a value");
                    std::process::exit(2);
                }
            }
        }
    }
    None
}

/// Parse `name N` (e.g. `--faults-per-stage 100`), defaulting to `dflt`
/// when absent. A malformed value is an error, not a silent fallback.
pub fn arg_usize(name: &str, dflt: usize) -> usize {
    match arg_str(name) {
        None => dflt,
        Some(v) => match v.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("error: {name} expects an unsigned integer, got {v:?}");
                std::process::exit(2);
            }
        },
    }
}

/// The `--threads N` flag: fault-simulation worker count. `0` (also the
/// default when the flag is absent) resolves through the
/// `RESCUE_THREADS` environment variable, then the machine's available
/// parallelism — see [`rescue_core::atpg::resolve_threads`]. Every
/// experiment statistic is bit-identical for any value; only wall-clock
/// and the utilization telemetry change.
pub fn threads_arg() -> usize {
    arg_usize("--threads", 0)
}

/// Observability flags shared by every binary (see the crate docs).
#[derive(Clone, Debug, Default)]
pub struct ObsFlags {
    /// `--metrics`: render the report to stderr at exit.
    pub metrics: bool,
    /// `--trace-perfetto <path>`: the trace-event stream.
    pub trace_perfetto: Option<String>,
    /// `--coverage-csv <path>`: coverage curve as CSV (ATPG binaries).
    pub coverage_csv: Option<String>,
    /// `--coverage-json <path>`: coverage curve as JSON (ATPG binaries).
    pub coverage_json: Option<String>,
    /// `--serve-metrics <addr>`: live telemetry HTTP endpoint address.
    pub serve_metrics: Option<String>,
    /// `--progress-every <n>`: progress-frame period (0 = off).
    pub progress_every: u64,
    /// `--repeat <n>`: benchmark runs (default 1). With n > 1 the
    /// varying metrics in the report become median/MAD/min/IQR
    /// statistics over the n runs, which `bench-diff` fails on any path
    /// it gates exactly.
    pub repeat: usize,
    /// `--metrics-json <path>`: where to write the report JSON
    /// (binaries with a conventional default, like `all` →
    /// `BENCH_metrics.json`, use it when the flag is absent).
    pub metrics_json: Option<String>,
}

/// The flags [`obs_init`] parses for every binary, value-taking or not.
const SHARED_FLAGS: &[&str] = &[
    "--metrics",
    "--trace-perfetto",
    "--coverage-csv",
    "--coverage-json",
    "--serve-metrics",
    "--progress-every",
    "--repeat",
    "--metrics-json",
];

/// The running telemetry server, held for the duration of the run and
/// shut down (gracefully, joining its thread) by [`obs_finish`].
static SERVER: std::sync::Mutex<Option<rescue_obs::TelemetryServer>> = std::sync::Mutex::new(None);

/// Probe an output file path by creating (truncating) it, exiting with
/// code 2 on failure. Every binary calls this at argument-parse time so
/// a typo'd directory or read-only destination aborts *before* the run,
/// not after minutes of engine work.
pub fn probe_output_file(path: &str) {
    if let Err(e) = std::fs::File::create(path) {
        eprintln!("error: cannot write output file {path}: {e}");
        std::process::exit(2);
    }
}

/// Probe an output directory: create it (and parents) if missing, then
/// verify a file can be created inside it. Exits with code 2 on
/// failure, like [`probe_output_file`].
pub fn probe_output_dir(path: &std::path::Path) {
    if let Err(e) = std::fs::create_dir_all(path) {
        eprintln!("error: cannot create output dir {}: {e}", path.display());
        std::process::exit(2);
    }
    let probe = path.join(".probe");
    match std::fs::File::create(&probe) {
        Ok(_) => {
            let _ = std::fs::remove_file(&probe);
        }
        Err(e) => {
            eprintln!("error: cannot write into dir {}: {e}", path.display());
            std::process::exit(2);
        }
    }
}

/// Parse the observability flags and arm the global tracer. `own` names
/// the binary's other flags: any `--…` argument that is neither one of
/// them nor a shared observability flag exits with code 2, so a typo
/// like `--quik` cannot silently run the paper-size model. Every output
/// path is opened here too, so a typo'd directory or a read-only
/// destination fails with exit code 2 before any engine work starts.
pub fn obs_init(own: &[&str]) -> ObsFlags {
    if let Some(bad) = std::env::args().skip(1).find(|a| {
        a.starts_with("--") && !SHARED_FLAGS.contains(&a.as_str()) && !own.contains(&a.as_str())
    }) {
        eprintln!("error: unknown flag {bad}");
        std::process::exit(2);
    }
    let flags = ObsFlags {
        metrics: arg_flag("--metrics"),
        trace_perfetto: arg_str("--trace-perfetto"),
        coverage_csv: arg_str("--coverage-csv"),
        coverage_json: arg_str("--coverage-json"),
        serve_metrics: arg_str("--serve-metrics"),
        progress_every: arg_usize("--progress-every", 0) as u64,
        repeat: arg_usize("--repeat", 1).max(1),
        metrics_json: arg_str("--metrics-json"),
    };
    // The span aggregate is on by default: spans are coarse
    // (phase-level, block-level) and their cost is bounded by the
    // obs.overhead A/B harness, while the profile.* sections and span
    // summary it feeds are part of the standard BENCH_metrics.json
    // artifact.
    rescue_obs::profile::global().set_enabled(true);
    if let Some(path) = &flags.metrics_json {
        probe_output_file(path);
    }
    if let Some(path) = &flags.trace_perfetto {
        // The process is named after the binary, like its report.
        let title = std::env::args()
            .next()
            .and_then(|a| Some(std::path::Path::new(&a).file_stem()?.to_str()?.to_owned()))
            .unwrap_or_else(|| "rescue".into());
        if let Err(e) = rescue_obs::global().open_sink(path, &title) {
            eprintln!("error: cannot open trace sink {path}: {e}");
            std::process::exit(2);
        }
    }
    for path in [&flags.coverage_csv, &flags.coverage_json]
        .into_iter()
        .flatten()
    {
        probe_output_file(path);
    }
    rescue_obs::live::set_progress_every(flags.progress_every);
    if let Some(addr) = &flags.serve_metrics {
        let title = std::env::args().next().unwrap_or_else(|| "rescue".into());
        match rescue_obs::TelemetryServer::start(addr, &title) {
            Ok(server) => {
                // Machine-greppable line (the CI smoke job parses it to
                // find the ephemeral port).
                eprintln!("serving metrics on http://{}/metrics", server.addr());
                *SERVER.lock().expect("server slot poisoned") = Some(server);
            }
            Err(e) => {
                eprintln!("error: cannot serve metrics on {addr}: {e}");
                std::process::exit(2);
            }
        }
    }
    flags
}

/// Finish a run: fold live-telemetry totals into the report, attach
/// the span summary and the `profile.*` self-time tree (unless
/// [`run_repeated`] already did), print the report and the flame
/// summary to stderr when `--metrics` was given, close the
/// `--trace-perfetto` stream (exit 1 if any of its writes failed), and
/// shut the telemetry server down.
pub fn obs_finish(flags: &ObsFlags, report: &mut Report) {
    if flags.serve_metrics.is_some() || flags.progress_every > 0 {
        live_report(report);
    }
    if report.spans.is_empty() {
        collect_profile(report, 1);
    }
    if flags.metrics {
        eprint!("{}", report.render_text());
        let rows = profile_rows();
        if !rows.is_empty() {
            eprint!(
                "{}",
                rescue_obs::profile::render_flame(&rescue_obs::profile::resolve_tree(&rows))
            );
        }
    }
    if let Some(path) = &flags.trace_perfetto {
        match rescue_obs::global().close_sink() {
            Ok(events) => eprintln!("wrote perfetto trace {path} ({events} events)"),
            Err(e) => {
                eprintln!("error: cannot write perfetto trace {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    // Last, so /metrics stays scrapable while the report is assembled.
    if let Some(mut server) = SERVER.lock().expect("server slot poisoned").take() {
        server.shutdown();
    }
}

/// Profile rows drained at report time, kept so the flame summary
/// renders from the same tree the `profile.*` sections were built
/// from.
static PROFILE_ROWS: std::sync::Mutex<Vec<(String, rescue_obs::profile::PathStat)>> =
    std::sync::Mutex::new(Vec::new());

fn profile_rows() -> Vec<(String, rescue_obs::profile::PathStat)> {
    PROFILE_ROWS.lock().expect("profile rows poisoned").clone()
}

/// Drain the span aggregate into the report: the per-name span
/// summary and one `profile.*` section per tree path (slashes become
/// dots) carrying total/self milliseconds and entry count, both per
/// measured run (`divisor` = measured run count). The `profile.*`
/// family is informational in `bench-diff` — it is wall-clock
/// attribution, not a determinism invariant; span counts gate.
fn collect_profile(report: &mut Report, divisor: u64) {
    rescue_obs::profile::flush_thread();
    let rows = rescue_obs::profile::global().take();
    let divisor = divisor.max(1);
    report.add_spans(
        rescue_obs::profile::summarize(&rows)
            .into_iter()
            .map(|s| rescue_obs::SpanStat {
                count: s.count / divisor,
                total_ns: s.total_ns / divisor,
                ..s
            })
            .collect(),
    );
    for node in &rescue_obs::profile::resolve_tree(&rows) {
        report
            .section(&format!("profile.{}", node.path.replace('/', ".")))
            .f64("total_ms", node.total_ns as f64 / divisor as f64 / 1e6)
            .f64("self_ms", node.self_ns as f64 / divisor as f64 / 1e6)
            .u64("count", node.count / divisor);
    }
    *PROFILE_ROWS.lock().expect("profile rows poisoned") = rows;
}

/// Run `body` `--repeat` times and merge the reports: values identical
/// across the runs stay scalars, varying values become
/// median/MAD/min/IQR statistics (which `bench-diff` fails on every
/// exactly gated path, so a repeated run is a run-to-run determinism
/// check), and the span summary and `profile.*` tree are per-run
/// averages. `body` receives the report to fill and whether this is the
/// first run (print tables then, so stdout artifacts appear exactly
/// once).
pub fn run_repeated(
    title: &str,
    flags: &ObsFlags,
    mut body: impl FnMut(&mut Report, bool),
) -> Report {
    let repeat = flags.repeat.max(1);
    let mut runs: Vec<Report> = Vec::with_capacity(repeat);
    for i in 0..repeat {
        let mut r = Report::new(title);
        body(&mut r, i == 0);
        runs.push(r);
    }
    let mut merged = stats::merge_reports(&runs);
    merged.section("bench").u64("repeat", repeat as u64);
    collect_profile(&mut merged, repeat as u64);
    merged
}

/// Write the report JSON to `--metrics-json` (or `default_path` when
/// the flag is absent; `None` = only write when asked). Exits with
/// code 1 on I/O failure.
pub fn write_metrics_json(flags: &ObsFlags, report: &Report, default_path: Option<&str>) {
    let path = flags
        .metrics_json
        .clone()
        .or_else(|| default_path.map(str::to_owned));
    let Some(path) = path else { return };
    if let Err(e) = std::fs::write(&path, report.to_json()) {
        eprintln!("error: cannot write metrics JSON {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote metrics JSON {path}");
}

/// Fill the `live` report section with the final `live.*` counter
/// totals (name-sorted). [`obs_finish`] writes it only on runs with
/// `--serve-metrics` / `--progress-every`, so the whole section is
/// informational in `bench-diff`.
fn live_report(report: &mut Report) {
    rescue_obs::live::counters();
    let snap = rescue_obs::metrics::global().snapshot();
    let sec = report.section("live");
    sec.f64("uptime_ms", rescue_obs::global().now_ns() as f64 / 1e6);
    for (name, total) in rescue_obs::live::totals(&snap) {
        sec.u64(name, total);
    }
}

/// Write the design-tagged coverage `curves` to the `--coverage-csv` /
/// `--coverage-json` paths when requested (no-op otherwise).
pub fn coverage_outputs(flags: &ObsFlags, curves: &[(&str, &CoverageCurve)]) {
    let write = |path: &str, body: &str, what: &str| {
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("error: cannot write {what} {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {what} {path}");
    };
    if let Some(path) = &flags.coverage_csv {
        let mut s = String::from(CoverageCurve::csv_header());
        for (design, c) in curves {
            s.push_str(&c.to_csv(design));
        }
        write(path, &s, "coverage CSV");
    }
    if let Some(path) = &flags.coverage_json {
        let docs: Vec<String> = curves.iter().map(|(d, c)| c.to_json(d)).collect();
        write(path, &rescue_obs::json::array(&docs), "coverage JSON");
    }
}

/// Fill one report section per ATPG phase from an [`AtpgMetrics`]: the
/// PODEM breakdown (decisions, backtracks, aborts), the fault-sim drop
/// statistics with bit-lane utilization, and the phase timings.
pub fn atpg_report(report: &mut Report, prefix: &str, m: &AtpgMetrics) {
    let c = &m.counts;
    report
        .section(&format!("{prefix}.podem"))
        .u64("faults_total", c.faults_total)
        .u64("chain_tested", c.chain_tested)
        .u64("detected", c.detected)
        .u64("untestable", c.untestable)
        .u64("aborted", c.aborted)
        .u64("decisions", c.podem_decisions)
        .u64("backtracks", c.podem_backtracks)
        .hist("backtracks_per_fault", c.backtracks_per_fault.clone());
    report
        .section(&format!("{prefix}.fsim"))
        .u64("vectors", c.vectors)
        .u64("merges_attempted", c.merges_attempted)
        .u64("merges_merged", c.merges_merged)
        .u64("blocks_flushed", c.blocks_flushed)
        .u64("patterns_simulated", c.patterns_simulated)
        .f64("word_utilization", c.word_utilization())
        .u64("faults_dropped_by_sim", c.faults_dropped_by_sim)
        .hist("drops_per_block", c.drops_per_block.clone())
        .u64("gate_evals", c.fsim_gate_evals);
    coverage_report(report, prefix, &m.coverage);
    let t = &m.timing;
    report
        .section(&format!("{prefix}.timing"))
        .f64("generate_ms", t.generate_ns as f64 / 1e6)
        .f64("compact_ms", t.compact_ns as f64 / 1e6)
        .f64("fill_ms", t.fill_ns as f64 / 1e6)
        .f64("fsim_ms", t.fsim_ns as f64 / 1e6)
        .f64("total_ms", t.total_ns as f64 / 1e6);
    // Worker utilization of the sharded fault-simulation phase. The
    // whole `.parallel` section is wall-clock/machine-dependent (the
    // thread count itself varies with `--threads`), so `bench-diff`
    // treats every key here as informational.
    let p = &m.parallel;
    let busy_ns: u64 = p.worker_busy_ns.iter().sum();
    let max_busy_ns = p.worker_busy_ns.iter().copied().max().unwrap_or(0);
    report
        .section(&format!("{prefix}.fsim.parallel"))
        .u64("threads", p.threads)
        .f64("wall_ms", p.wall_ns as f64 / 1e6)
        .f64("busy_ms", busy_ns as f64 / 1e6)
        .f64("max_worker_busy_ms", max_busy_ns as f64 / 1e6)
        .f64("utilization", p.utilization())
        .f64("effective_parallelism", p.effective_parallelism());
}

/// Fill the Table 3 report sections of both designs under
/// `{prefix}{variant}` (for example `table3.rescue.podem` with prefix
/// `table3.`): the per-phase ATPG sections of [`atpg_report`], then the
/// stage-level coverage attribution.
pub fn table3_report(report: &mut Report, prefix: &str, t: &Table3) {
    for d in t.designs() {
        atpg_report(report, &format!("{prefix}{}", d.tag()), &d.run.metrics);
    }
    for d in t.designs() {
        let sec = report.section(&format!("{prefix}{}.coverage.stages", d.tag()));
        for (stage, n) in d.stage_coverage() {
            sec.u64(&stage, n);
        }
    }
}

/// Fill one `atpg.memo.<variant>` section per design with its PODEM
/// memo's `hits` and `misses`. Misses are the searches of the design's
/// Table 3 run; hits are the calls later reruns on it replayed, which is
/// why their `podem` spans take milliseconds. Both gate exactly and are
/// cumulative, so a memo that outlived its pass would read more hits in
/// each later pass and fail the `--repeat` determinism gate.
pub fn memo_report(report: &mut Report, designs: &[&AtpgDesign]) {
    for d in designs {
        report
            .section(&format!("atpg.memo.{}", d.tag()))
            .u64("hits", d.memo.hits())
            .u64("misses", d.memo.misses());
    }
}

/// The `fsim-kernel` microbench on the Rescue (largest) design: a
/// lane-width sweep {64, 256, 512} of the PPSFP kernel over every
/// collapsed fault against the same 512-pattern stimulus, drawn from the
/// design's Table 3 run (its N-thread arm), and an n-detect
/// fault-dropping sweep rerun through the design's PODEM memo.
/// Deterministic counters (`detected`, `gate_evals`,
/// `detect_agreement`, the dropping identity flags) gate exactly in
/// `bench-diff`; the `_ms` / `_per_sec` keys and everything under
/// `fsim_kernel.parallel` are informational wall-clock.
pub fn fsim_kernel_report(report: &mut Report, design: &AtpgDesign, threads: usize) {
    use rescue_core::atpg::{resolve_threads, AtpgConfig, FaultSim};
    use rescue_core::netlist::PatternBlock;
    use std::time::Instant;

    let _s = rescue_obs::span("fsim_kernel");
    let threads = resolve_threads(threads);
    let (scanned, lev, faults) = (&design.scanned, &design.lev, &design.faults);
    let run_nt = &design.run;

    // One shared 512-pattern stimulus (8 × 64-pattern blocks, the lcm
    // of every lane width): the run's own blocks, padded with seeded
    // SplitMix blocks if the run produced fewer than eight.
    let mut group: Vec<PatternBlock> = run_nt.blocks(scanned).into_iter().take(8).collect();
    let mut pad = rescue_obs::SplitMix64::new(0x5eed_f51b_0000_0008);
    while group.len() < 8 {
        group.push(PatternBlock {
            inputs: (0..scanned.netlist.inputs().len())
                .map(|_| pad.next_u64())
                .collect(),
            state: (0..scanned.netlist.num_dffs())
                .map(|_| pad.next_u64())
                .collect(),
        });
    }

    // One sweep cell: every fault against all 512 patterns in `8 / W`
    // wide passes; per-fault "ever detected" flags are the bit-for-bit
    // agreement evidence across widths.
    fn wide_pass<const W: usize>(
        lev: &Levelized,
        faults: &[Fault],
        group: &[PatternBlock],
    ) -> (Vec<bool>, u64, f64) {
        let mut sim: FaultSim<W> = FaultSim::wide(lev);
        let mut detected = vec![false; faults.len()];
        let t = Instant::now();
        for chunk in group.chunks(W) {
            sim.load_blocks(chunk);
            for (d, &f) in detected.iter_mut().zip(faults) {
                if sim.detect_mask_wide(f).iter().any(|&w| w != 0) {
                    *d = true;
                }
            }
        }
        (
            detected,
            sim.stats().gate_evals.get(),
            t.elapsed().as_secs_f64(),
        )
    }

    let cells = [
        (64, wide_pass::<1>(lev, faults, &group)),
        (256, wide_pass::<4>(lev, faults, &group)),
        (512, wide_pass::<8>(lev, faults, &group)),
    ];
    // Bit-for-bit agreement: every width must detect exactly the same
    // fault set.
    let detect_agreement = cells.iter().all(|(_, (d, _, _))| *d == cells[0].1 .0);
    let count = |d: &[bool]| d.iter().filter(|&&x| x).count() as u64;
    for (w, (d, e, s)) in &cells {
        report
            .section(&format!("fsim_kernel.ppsfp.w{w}"))
            .u64("detected", count(d))
            .u64("gate_evals", *e)
            .f64("sweep_ms", s * 1e3)
            .f64("evals_per_sec", *e as f64 / s.max(1e-12));
    }

    // n-detect dropping sweep: the watch list must not perturb any
    // result — identity flags gate exactly — while its counters and
    // extra simulation work are reported per target.
    for n in [2u32, 4] {
        let run = design.rerun(AtpgConfig {
            threads,
            drop_after: Some(n),
            ..AtpgConfig::default()
        });
        let c = &run.metrics.counts;
        report
            .section(&format!("fsim_kernel.dropping.n{n}"))
            .u64("ndetect_target", c.ndetect_target)
            .u64("ndetect_detections", c.ndetect_detections)
            .u64("ndetect_retired", c.ndetect_retired)
            .u64("ndetect_residual", c.ndetect_residual)
            .u64("gate_evals", c.fsim_gate_evals)
            .u64(
                "classes_identical",
                u64::from(run.classes == run_nt.classes),
            )
            .u64(
                "vectors_identical",
                u64::from(run.vectors == run_nt.vectors),
            )
            .f64("atpg_ms", run.metrics.timing.total_ns as f64 / 1e6);
    }

    // The headline rate is the fastest wide width's.
    let (_, (_, best_evals, best_secs)) = cells[1..]
        .iter()
        .min_by(|a, b| a.1 .2.total_cmp(&b.1 .2))
        .expect("wide cells exist");
    let (_, (detected_w512, evals_w512, _)) = &cells[2];
    report
        .section("fsim_kernel")
        .u64("faults", faults.len() as u64)
        .u64("patterns", group.len() as u64 * 64)
        .u64("detected_ppsfp", count(detected_w512))
        .u64("gate_evals_ppsfp", *evals_w512)
        .u64("detect_agreement", u64::from(detect_agreement))
        .f64("ppsfp_ms", best_secs * 1e3)
        .f64(
            "ppsfp_evals_per_sec",
            *best_evals as f64 / best_secs.max(1e-12),
        );
    report
        .section("fsim_kernel.parallel")
        .u64("threads", threads as u64)
        .f64("atpg_nt_ms", run_nt.metrics.timing.total_ns as f64 / 1e6)
        .f64("utilization", run_nt.metrics.parallel.utilization())
        .f64(
            "effective_parallelism",
            run_nt.metrics.parallel.effective_parallelism(),
        );
}

/// The `obs.overhead` self-benchmark: the cost of counters and spans,
/// itself measured. Sweeps `faults` (every collapsed fault of one
/// design) against one deterministic pattern block on the fault
/// simulator over `lev` in three arms — everything off; an add to a
/// private counter per 64-fault chunk (strictly more counter traffic
/// than the per-shard adds production code makes to the `live.*`
/// counters, and the same atomic work, without polluting them); and
/// the counter plus the span aggregate with one `obs_sweep` span per
/// chunk — and reports the throughputs plus their ratios. Best-of-3
/// per arm, arms interleaved. Wall-clock data: the whole
/// `obs.overhead` section is informational in `bench-diff`.
pub fn obs_overhead_report(report: &mut Report, lev: &Levelized, faults: &[Fault]) {
    use rescue_core::atpg::FaultSim;
    use rescue_core::netlist::PatternBlock;
    use std::time::Instant;

    let _s = rescue_obs::span("obs_overhead");
    let block = PatternBlock {
        inputs: vec![0x1234_5678_9abc_def0; lev.input_nets().len()],
        state: vec![0x0ff0_f00f_aa55_55aa; lev.dff_q_nets().len()],
    };

    let gate_evals = rescue_obs::metrics::Counter::new();
    let prof = rescue_obs::profile::global();
    let prof_was_enabled = prof.enabled();
    // Three arms, A/B/C: everything off, the counter alone, and
    // the counter plus the span aggregate. The counter arm adds at
    // PPSFP-block granularity (one add per 64 faults) — still far more
    // often than the production path, which adds once per shard per
    // batch — and the span arm additionally opens one root-pinned
    // span per 64-fault chunk, denser than the phase-level spans
    // production code uses, so both measured ratios are conservative
    // upper bounds. The span arm's cost includes the timeline when a
    // trace sink or recording is on. Each arm repeats the full-fault
    // sweep until it has done at least `ARM_GATE_EVALS` gate
    // evaluations (about 0.1 s of kernel time), so tiny --quick
    // circuits still give a stable per-eval rate. A sweep's eval count
    // is deterministic, so every arm does the same work and the
    // `obs_sweep` span count is an exact counter like any other.
    const RECORD_EVERY_FAULTS: usize = 64;
    const ARM_GATE_EVALS: u64 = 2_000_000;
    let sweep = |count_on: bool, prof_on: bool| -> (u64, f64) {
        prof.set_enabled(prof_on);
        let mut sim = FaultSim::with_levelized(lev);
        sim.load_block(&block);
        let mut evals = 0u64;
        let t = Instant::now();
        loop {
            let mut pending_delta = 0u64;
            let mut chunk_span = None;
            for (i, &f) in faults.iter().enumerate() {
                let before = sim.stats().gate_evals.get();
                std::hint::black_box(sim.detect_mask(f));
                evals += sim.stats().gate_evals.get() - before;
                if count_on {
                    pending_delta += sim.stats().gate_evals.get() - before;
                    if i.is_multiple_of(RECORD_EVERY_FAULTS) {
                        gate_evals.add(pending_delta);
                        pending_delta = 0;
                    }
                }
                if prof_on && i.is_multiple_of(RECORD_EVERY_FAULTS) {
                    // Close the previous chunk before opening the next:
                    // spans are a LIFO stack, so the old guard must
                    // drop first.
                    drop(chunk_span.take());
                    chunk_span = Some(rescue_obs::span_root("obs_sweep"));
                }
            }
            drop(chunk_span);
            if count_on && pending_delta > 0 {
                gate_evals.add(pending_delta);
            }
            if evals >= ARM_GATE_EVALS {
                break;
            }
        }
        (evals, t.elapsed().as_secs_f64())
    };
    let mut evals = 0u64;
    let mut best_off = f64::MAX;
    let mut best_counter = f64::MAX;
    let mut best_full = f64::MAX;
    for _ in 0..3 {
        let (e, secs) = sweep(false, false);
        evals = e;
        best_off = best_off.min(secs / e.max(1) as f64);
        let (e, secs) = sweep(true, false);
        best_counter = best_counter.min(secs / e.max(1) as f64);
        let (e, secs) = sweep(true, true);
        best_full = best_full.min(secs / e.max(1) as f64);
    }
    prof.set_enabled(prof_was_enabled);
    // The sweep's chunk spans stay in the profile under the root-level
    // `obs_sweep` path — honest attribution of the self-benchmark's own
    // cost, kept apart from the engine phases.
    // Normalize per-eval (arms may run different sweep counts).
    let best_off = best_off * evals as f64;
    let best_counter = best_counter * evals as f64;
    let best_full = best_full * evals as f64;
    let pct = |num: f64, den: f64| (num / den.max(1e-12) - 1.0) * 100.0;

    report
        .section("obs.overhead")
        .u64("faults", faults.len() as u64)
        .u64("gate_evals", evals)
        .f64("uninstrumented_ms", best_off * 1e3)
        .f64("instrumented_ms", best_full * 1e3)
        .f64(
            "uninstrumented_evals_per_sec",
            evals as f64 / best_off.max(1e-12),
        )
        .f64(
            "instrumented_evals_per_sec",
            evals as f64 / best_full.max(1e-12),
        )
        .f64("overhead_ratio", best_full / best_off.max(1e-12))
        .f64("overhead_pct", pct(best_full, best_off))
        .f64("counter_overhead_pct", pct(best_counter, best_off))
        .f64("profiler_overhead_pct", pct(best_full, best_counter));
}

/// Run the static DFT linter over the model's baseline and Rescue
/// pipeline netlists, pre-scan and post-scan, filling one
/// `lint.<variant>.<phase>` section per design (diagnostic counts are
/// deterministic and gate exactly in `bench-diff`) plus a
/// `...scoap` subsection with the SCOAP aggregates (informational).
///
/// Returns the linted designs as `(label, report)` pairs so callers can
/// also serialize the full JSON documents or enforce `--fail-on`.
pub fn lint_report(
    report: &mut Report,
    params: &rescue_core::model::ModelParams,
) -> Vec<(String, rescue_lint::LintReport)> {
    use rescue_core::model::{build_pipeline, Variant};
    use rescue_core::netlist::scan::insert_scan;

    let _s = rescue_obs::span("lint");
    let mut designs = Vec::new();
    for variant in [Variant::Baseline, Variant::Rescue] {
        let tag = format!("{variant:?}").to_lowercase();
        let model = build_pipeline(params, variant);
        let scanned = insert_scan(&model.netlist).expect("model has state");
        designs.push((
            format!("{tag}.prescan"),
            rescue_lint::lint_netlist(&model.netlist),
        ));
        designs.push((format!("{tag}.scan"), rescue_lint::lint_scan(&scanned)));
    }
    for (label, lr) in &designs {
        let findings = lr.count(rescue_lint::Severity::Error)
            + lr.count(rescue_lint::Severity::Warning)
            + lr.count(rescue_lint::Severity::Info);
        rescue_obs::live::counters()
            .lint_findings
            .add(findings as u64);
        let sec = report.section(&format!("lint.{label}"));
        sec.u64("errors", lr.count(rescue_lint::Severity::Error) as u64)
            .u64("warnings", lr.count(rescue_lint::Severity::Warning) as u64)
            .u64("infos", lr.count(rescue_lint::Severity::Info) as u64)
            .u64("stuck_nets", lr.stuck_nets.len() as u64);
        for rule in rescue_lint::Rule::ALL {
            sec.u64(&format!("rule.{}", rule.name()), lr.count_rule(rule) as u64);
        }
        if let Some(s) = &lr.scoap {
            report
                .section(&format!("lint.{label}.scoap"))
                .f64("co_mean", s.co_mean())
                .u64("co_max", s.co_max())
                .u64("components", s.per_component.len() as u64);
        }
        if let Some(imp) = &lr.implication {
            report
                .section(&format!("lint.{label}.impl"))
                .u64("literals", imp.stats.literals)
                .u64("direct_implications", imp.stats.direct_implications)
                .u64("constant_literals", imp.stats.constant_literals)
                .u64("probe_rounds", imp.stats.probe_rounds)
                .u64("stems", imp.stats.stems)
                .u64("reconvergent_stems", imp.stats.reconvergent_stems)
                .u64("redundant_faults", imp.redundant_faults.len() as u64);
        }
    }
    designs
}

/// Measure the static-implication ATPG pre-pass on each design: its
/// Table 3 run is the pre-pass-off arm, and the pre-pass-on arm reruns
/// through the design's PODEM memo. Re-checks the contract the
/// `rescue-atpg` and `rescue-core` tests pin on every bench run.
/// `vectors_identical` must stay 1 (the test set never moves),
/// `unsound_diffs` must stay 0 (the only classification difference
/// allowed is the sound `Aborted` → `Untestable` upgrade on proven
/// faults, tallied in `upgraded_aborts`), and all counts are
/// deterministic, gating exactly in `bench-diff`. Throughput and
/// wall-clock keys carry the `_per_sec` / `_ms` suffixes so
/// `bench-diff` treats them as informational.
pub fn prepass_report(report: &mut Report, designs: &[&AtpgDesign]) {
    use rescue_core::atpg::{AtpgConfig, FaultClass};

    let _s = rescue_obs::span("prepass");
    for design in designs {
        let base = &design.run;
        let pre = design.rerun(AtpgConfig {
            static_prepass: true,
            ..AtpgConfig::default()
        });

        let mut upgraded = 0u64;
        let mut unsound = 0u64;
        for (fault, base_class) in &base.classes {
            match pre.classes.get(fault) {
                Some(pre_class) if pre_class == base_class => {}
                Some(FaultClass::Untestable) if *base_class == FaultClass::Aborted => {
                    upgraded += 1;
                }
                _ => unsound += 1,
            }
        }
        unsound += (pre.classes.len() != base.classes.len()) as u64;

        let prepass_s = pre.metrics.timing.prepass_ns as f64 / 1e9;
        let proven = pre.metrics.counts.prepass_proven;
        report
            .section(&format!("atpg.prepass.{}", design.tag()))
            .u64("proven", proven)
            .u64(
                "podem_calls_saved",
                pre.metrics.counts.prepass_podem_calls_saved,
            )
            .u64("vectors_identical", (base.vectors == pre.vectors) as u64)
            .u64("upgraded_aborts", upgraded)
            .u64("unsound_diffs", unsound)
            .u64("vectors", pre.vectors.len() as u64)
            .f64("prepass_ms", prepass_s * 1e3)
            .f64("proofs_per_sec", proven as f64 / prepass_s.max(1e-12));
    }
}

/// Fill one report section from a [`CoverageCurve`]: the endpoint, the
/// curve shape, and the per-component attribution of detected faults.
pub fn coverage_report(report: &mut Report, prefix: &str, c: &CoverageCurve) {
    let sec = report.section(&format!("{prefix}.coverage"));
    sec.u64("targetable", c.targetable)
        .u64("detected", c.detected_total())
        .u64("vectors", c.vectors)
        .u64("curve_points", c.points.len() as u64)
        .f64("final_coverage", c.final_coverage());
    for (label, n) in &c.attribution {
        sec.u64(&format!("attr.{label}"), *n);
    }
}

/// Minimal wall-clock benchmark harness for the `benches/` targets
/// (they build with `harness = false`, so they provide their own
/// `main`). Runs `f` once as warmup, then `samples` timed batches of
/// `iters_per_sample` calls, and prints min/median/max ns-per-call in
/// the spirit of `cargo bench`. Keep return values alive with
/// [`std::hint::black_box`] inside `f`.
pub fn bench<F: FnMut()>(name: &str, samples: usize, iters_per_sample: usize, mut f: F) {
    f();
    let mut per_call: Vec<u64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = std::time::Instant::now();
        for _ in 0..iters_per_sample {
            f();
        }
        per_call.push(t.elapsed().as_nanos() as u64 / iters_per_sample.max(1) as u64);
    }
    per_call.sort_unstable();
    let min = per_call.first().copied().unwrap_or(0);
    let med = per_call[per_call.len() / 2];
    let max = per_call.last().copied().unwrap_or(0);
    println!("{name:40} min {min:>12} ns  median {med:>12} ns  max {max:>12} ns");
}

/// Report how many simulations one Figure 9 IPC table needed:
/// `fig9.sims.requested` points, `fig9.sims.simulated` distinct machines.
pub fn fig9_sims_report(report: &mut Report, ipcs: &Fig9Ipcs) {
    report
        .section("fig9.sims")
        .u64("requested", ipcs.requested() as u64)
        .u64("simulated", ipcs.simulated() as u64);
}

/// Report one Figure 9 panel: its point count under `panel`, and each
/// point's answers under `{panel}.{node}nm.g{growth in %}` (for example
/// `fig9.panel_a.18nm.g130`), so bench-diff pins every value.
pub fn fig9_report(report: &mut Report, panel: &str, points: &[Fig9Point]) {
    report.section(panel).u64("points", points.len() as u64);
    for p in points {
        report
            .section(&format!(
                "{panel}.{:.0}nm.g{:.0}",
                p.node_nm,
                p.growth * 100.0
            ))
            .u64("cores", p.yat.cores as u64)
            .f64("none", p.yat.none)
            .f64("core_sparing", p.yat.core_sparing)
            .f64("rescue", p.yat.rescue);
    }
}

/// Fill one report section from a pipeline [`SimResult`]: IPC, stall
/// causes, squash/replay counts, and the windowed-IPC distribution.
pub fn sim_report(report: &mut Report, name: &str, r: &SimResult) {
    report
        .section(name)
        .u64("cycles", r.cycles)
        .u64("committed", r.committed)
        .f64("ipc", r.ipc())
        .u64("mispredicts", r.mispredicts)
        .u64("l1_misses", r.l1_misses)
        .u64("miss_squashes", r.miss_squashes)
        .u64("overcommit_replays", r.overcommit_replays)
        .f64("wasted_issue_fraction", r.wasted_issue_fraction())
        .u64("dispatch_stall_cycles", r.dispatch_stall_cycles)
        .u64("stall_rob_full", r.stall_rob_full)
        .u64("stall_lsq_full", r.stall_lsq_full)
        .u64("stall_iq_full", r.stall_iq_full)
        .u64("fetch_stall_cycles", r.fetch_stall_cycles)
        .f64("avg_iq_occupancy", r.avg_iq_occupancy())
        .f64("avg_fpq_occupancy", r.avg_fpq_occupancy())
        .f64("avg_rob_occupancy", r.avg_rob_occupancy())
        .u64("ipc_window_cycles", IPC_WINDOW_CYCLES)
        .hist("committed_per_window", r.ipc_windows.clone());
}
