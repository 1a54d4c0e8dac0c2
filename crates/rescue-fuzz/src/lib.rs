//! Differential fuzzing for the Rescue gate-level engines.
//!
//! The workspace carries several independent implementations of the
//! same semantics: a naive full-re-evaluation simulator, a levelized
//! packed evaluator, two event-driven fault-propagation kernels, a
//! multi-threaded sharding layer, structural fault-equivalence
//! collapsing, the PODEM test generator that consumes them all, the
//! static DFT lint that predicts untestability without simulating, and
//! the static implication engine that proves faults redundant without
//! searching.
//! This crate pits them against each other on seeded random scan
//! designs — any disagreement is a bug in one of the engines.
//!
//! The pipeline per case:
//!
//! 1. [`gen`] derives a deterministic [`ir::CaseIr`] (circuit +
//!    stimulus) from `(seed, case index)`.
//! 2. Each enabled [`oracles::OracleKind`] checks one cross-engine
//!    agreement property.
//! 3. On failure, [`shrink`] delta-debugs the case down to a minimal
//!    repro, and [`repro`] serializes it into `tests/regressions/`
//!    where the `regressions_replay` test re-runs it forever after.
//!
//! Determinism is absolute: the same `(seed, cases, max_gates)` triple
//! produces the same cases, the same oracle verdicts, and the same
//! repro files on any machine at any thread count.
//!
//! Run it via the bench binary:
//!
//! ```text
//! cargo run --release -p rescue-bench --bin fuzz -- --seed 1 --cases 1000
//! ```

pub mod gen;
pub mod ir;
pub mod oracles;
pub mod repro;
pub mod shrink;

pub use gen::{generate, GenConfig};
pub use ir::{CaseIr, GateIr};
pub use oracles::OracleKind;
pub use repro::Repro;
pub use shrink::{shrink, ShrinkStats};

use std::path::PathBuf;

/// Configuration for one fuzzing run.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Base seed; every case derives its own stream from this.
    pub seed: u64,
    /// Number of cases per oracle.
    pub cases: u64,
    /// Gate-count cap for the main generator shape.
    pub max_gates: usize,
    /// Oracles to run (default: all eight).
    pub oracles: Vec<OracleKind>,
    /// Where to write repro files for divergences (`None` = don't).
    pub repro_dir: Option<PathBuf>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 1,
            cases: 100,
            max_gates: 48,
            oracles: OracleKind::ALL.to_vec(),
            repro_dir: None,
        }
    }
}

/// Per-oracle tallies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleCounters {
    /// Cases this oracle ran on.
    pub runs: u64,
    /// Cases on which it reported a divergence.
    pub divergences: u64,
}

/// One confirmed divergence, already shrunk.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The repro (oracle, provenance, shrunk case).
    pub repro: Repro,
    /// Shrinking effort.
    pub shrink: ShrinkStats,
    /// Where the repro file was written, when a directory was given.
    pub path: Option<PathBuf>,
}

/// Result of a fuzzing run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Cases generated (per oracle stream).
    pub cases: u64,
    /// Tallies in [`OracleKind::ALL`] order (disabled oracles stay 0).
    pub per_oracle: Vec<(OracleKind, OracleCounters)>,
    /// Every divergence found, shrunk and serialized.
    pub divergences: Vec<Divergence>,
    /// Gates across all generated cases (work-volume indicator).
    pub gates_generated: u64,
    /// Shrink predicate evaluations across all divergences.
    pub shrink_probes: u64,
}

impl FuzzReport {
    /// True when every oracle agreed on every case.
    pub fn clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Human-readable summary (the fuzz binary's stdout).
    pub fn render_text(&self) -> String {
        let mut s = format!("fuzz: {} cases per oracle\n", self.cases);
        for (kind, c) in &self.per_oracle {
            s.push_str(&format!(
                "  {:<8} {:>6} runs  {:>3} divergences\n",
                kind.name(),
                c.runs,
                c.divergences
            ));
        }
        for d in &self.divergences {
            s.push_str(&format!(
                "divergence: oracle {} seed {} case {}: {}\n",
                d.repro.oracle.name(),
                d.repro.seed,
                d.repro.case_index,
                d.repro.detail
            ));
            if let Some(p) = &d.path {
                s.push_str(&format!("  repro written to {}\n", p.display()));
            }
        }
        if self.clean() {
            s.push_str("all oracles agree\n");
        }
        s
    }
}

/// Stream tag so the collapse oracle's small cases come from a
/// different part of the seed space than the main cases.
const SMALL_STREAM: u64 = 0xC011_A95E_D057_1A11;

/// Run the harness. Deterministic in `cfg`; see the crate docs.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let mut report = FuzzReport {
        cases: cfg.cases,
        per_oracle: OracleKind::ALL
            .iter()
            .map(|&k| (k, OracleCounters::default()))
            .collect(),
        ..FuzzReport::default()
    };
    let main_cfg = GenConfig::sized(cfg.max_gates);
    let small_cfg = GenConfig::small();
    let live = rescue_obs::live::counters();
    let mut meter = rescue_obs::ProgressMeter::new("fuzz");

    for idx in 0..cfg.cases {
        let main_case = generate(cfg.seed, idx, &main_cfg);
        let small_case = generate(cfg.seed ^ SMALL_STREAM, idx, &small_cfg);
        report.gates_generated += (main_case.gates.len() + small_case.gates.len()) as u64;
        live.fuzz_cases.inc();
        meter.tick(1);

        for &oracle in &cfg.oracles {
            let case = match oracle {
                OracleKind::Collapse => &small_case,
                _ => &main_case,
            };
            let slot = report
                .per_oracle
                .iter_mut()
                .find(|(k, _)| *k == oracle)
                .expect("per_oracle covers ALL");
            slot.1.runs += 1;
            let Err(detail) = oracle.run(case) else {
                continue;
            };
            slot.1.divergences += 1;
            live.fuzz_divergences.inc();

            let (shrunk, stats) = shrink(case, |c| oracle.run(c).is_err());
            report.shrink_probes += stats.probes as u64;
            let repro = Repro {
                oracle,
                seed: cfg.seed,
                case_index: idx,
                detail,
                case: shrunk,
            };
            let path = cfg
                .repro_dir
                .as_ref()
                .and_then(|dir| match repro.write_into(dir) {
                    Ok(p) => Some(p),
                    Err(e) => {
                        eprintln!("warning: cannot write repro: {e}");
                        None
                    }
                });
            report.divergences.push(Divergence {
                repro,
                shrink: stats,
                path,
            });
        }
    }
    meter.finish();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline guarantee, at smoke scale: all eight oracles agree
    /// on every generated case. The CI `fuzz-smoke` job runs the same
    /// check at 1000 cases per seed.
    #[test]
    fn smoke_all_oracles_agree() {
        let report = run_fuzz(&FuzzConfig {
            cases: 25,
            max_gates: 32,
            ..FuzzConfig::default()
        });
        assert!(report.clean(), "divergences:\n{}", report.render_text());
        for (_, c) in &report.per_oracle {
            assert_eq!(c.runs, 25);
        }
        assert!(report.gates_generated > 0);
    }

    #[test]
    fn harness_is_deterministic() {
        let cfg = FuzzConfig {
            cases: 10,
            ..FuzzConfig::default()
        };
        let a = run_fuzz(&cfg);
        let b = run_fuzz(&cfg);
        assert_eq!(a.per_oracle, b.per_oracle);
        assert_eq!(a.gates_generated, b.gates_generated);
    }

    #[test]
    fn disabled_oracles_do_not_run() {
        let report = run_fuzz(&FuzzConfig {
            cases: 3,
            oracles: vec![OracleKind::Engines],
            ..FuzzConfig::default()
        });
        for (k, c) in &report.per_oracle {
            let want = if *k == OracleKind::Engines { 3 } else { 0 };
            assert_eq!(c.runs, want, "{}", k.name());
        }
    }
}
