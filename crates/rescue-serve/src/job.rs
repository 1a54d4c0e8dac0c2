//! Job kinds, the JSON job configuration, and the job runners.
//!
//! A job request is a JSON config line followed by a text netlist
//! ([`rescue_netlist::text`]). The config selects the job kind and the
//! engine knobs; everything has a default, so `{"kind":"atpg"}` is a
//! complete config. Parsing uses the workspace's own
//! [`rescue_obs::json`] parser — no external dependencies.
//!
//! Every runner returns a single **canonical result line**: a JSON
//! object with `"type":"result"` whose bytes are a deterministic
//! function of (netlist, config). Wall-clock timings, thread counts,
//! and anything else nondeterministic are deliberately excluded — the
//! line is the byte-identity contract between the served path and the
//! CLI path (`rescue-serve run`), pinned by the e2e tests, and it is
//! what the result cache stores.

use crate::cache::Design;
use rescue_atpg::{first_detections, Atpg, AtpgConfig, PodemConfig};
use rescue_netlist::{Fnv64, Netlist, PatternBlock};
use rescue_obs::json::{self, JsonObj, JsonValue};
use rescue_obs::SplitMix64;

/// What to run against the POSTed netlist.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// Parse only; report structural statistics.
    Netlist,
    /// Full scan ATPG ([`rescue_atpg::Atpg`]).
    Atpg,
    /// Fault simulation of seeded random patterns.
    Fsim,
    /// DFT lint + SCOAP ([`rescue_lint`]).
    Lint,
}

impl JobKind {
    /// Wire name, as used in the JSON config and result lines.
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Netlist => "netlist",
            JobKind::Atpg => "atpg",
            JobKind::Fsim => "fsim",
            JobKind::Lint => "lint",
        }
    }

    /// Parse a wire name.
    pub fn from_name(s: &str) -> Result<JobKind, String> {
        match s {
            "netlist" => Ok(JobKind::Netlist),
            "atpg" => Ok(JobKind::Atpg),
            "fsim" => Ok(JobKind::Fsim),
            "lint" => Ok(JobKind::Lint),
            other => Err(format!(
                "unknown job kind {other:?} (expected netlist|atpg|fsim|lint)"
            )),
        }
    }
}

/// Parsed job configuration. Field defaults match the engine defaults
/// ([`AtpgConfig::default`]), so an empty config object runs the same
/// flow the CLI tools run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobConfig {
    /// Job kind (`"kind"`, required).
    pub kind: JobKind,
    /// Worker threads (`"threads"`, at most 64; 0 = auto: the server's
    /// share `nproc / workers`, or all cores from the CLI). Datapath
    /// knob: results are bit-identical for any value, so it is not in
    /// [`JobConfig::result_fields`].
    pub threads: usize,
    /// Fault-sim lane width in words (`"lane_words"`, 1/4/8). For an
    /// fsim job it is the width of the groups after the first block,
    /// which always runs alone at width 1; the default is 8 for fsim
    /// and 1 for every other kind (an ATPG flush is one block).
    /// Datapath knob, excluded from the hash like `threads`.
    pub lane_words: usize,
    /// ATPG random-fill seed (`"fill_seed"`).
    pub fill_seed: u64,
    /// ATPG cube merging (`"merge_cubes"`).
    pub merge_cubes: bool,
    /// ATPG merge window (`"merge_window"`).
    pub merge_window: usize,
    /// PODEM backtrack limit (`"max_backtracks"`).
    pub max_backtracks: usize,
    /// n-detect dropping (`"drop_after"`, 0 = off).
    pub drop_after: u32,
    /// ATPG static redundancy pre-pass (`"static_prepass"`).
    /// Vectors are invariant, but the pre-pass can soundly upgrade
    /// budget-`Aborted` faults to `Untestable`, which moves the result
    /// line's class counts and coverage — so unlike
    /// `threads`/`lane_words` it is in an ATPG job's
    /// [`JobConfig::result_fields`].
    pub static_prepass: bool,
    /// Fsim: number of 64-pattern blocks to simulate (`"patterns"`).
    pub patterns: usize,
    /// Fsim: pattern generator seed (`"seed"`).
    pub seed: u64,
}

/// Most worker threads a job may ask for: each one holds a fault
/// simulator and may be spawned per pattern group.
const MAX_THREADS: usize = 64;

/// Largest PODEM backtrack budget a job may ask for.
const MAX_BACKTRACKS: usize = 100_000;

/// Largest number of 64-pattern blocks an fsim job may ask for.
const MAX_PATTERN_BLOCKS: usize = 4096;

impl JobConfig {
    /// The default config for `kind`.
    pub fn new(kind: JobKind) -> JobConfig {
        let atpg = AtpgConfig::default();
        JobConfig {
            kind,
            threads: 0,
            lane_words: if kind == JobKind::Fsim { 8 } else { 1 },
            fill_seed: atpg.fill_seed,
            merge_cubes: atpg.merge_cubes,
            merge_window: atpg.merge_window,
            max_backtracks: PodemConfig::default().max_backtracks,
            drop_after: 0,
            static_prepass: atpg.static_prepass,
            patterns: 4,
            seed: 0x5eed,
        }
    }

    /// Parse a JSON config object. Unknown keys are ignored (forward
    /// compatibility); wrong types and unknown kinds are errors.
    pub fn parse(text: &str) -> Result<JobConfig, String> {
        let doc = json::parse(text).map_err(|e| format!("config is not valid JSON: {e}"))?;
        let obj = match &doc {
            JsonValue::Obj(_) => &doc,
            _ => return Err("config must be a JSON object".to_owned()),
        };
        let kind = match obj.get("kind").and_then(JsonValue::as_str) {
            Some(s) => JobKind::from_name(s)?,
            None => return Err("config is missing \"kind\"".to_owned()),
        };
        let mut cfg = JobConfig::new(kind);
        let usize_field = |name: &str, into: &mut usize| -> Result<(), String> {
            if let Some(v) = obj.get(name) {
                match v.as_int() {
                    Some(i) if i >= 0 && i <= usize::MAX as i128 => *into = i as usize,
                    _ => return Err(format!("{name:?} must be a non-negative integer")),
                }
            }
            Ok(())
        };
        let u64_field = |name: &str, into: &mut u64| -> Result<(), String> {
            if let Some(v) = obj.get(name) {
                match v.as_int() {
                    Some(i) if i >= 0 && i <= u64::MAX as i128 => *into = i as u64,
                    _ => return Err(format!("{name:?} must be a non-negative integer")),
                }
            }
            Ok(())
        };
        usize_field("threads", &mut cfg.threads)?;
        usize_field("lane_words", &mut cfg.lane_words)?;
        u64_field("fill_seed", &mut cfg.fill_seed)?;
        usize_field("merge_window", &mut cfg.merge_window)?;
        usize_field("max_backtracks", &mut cfg.max_backtracks)?;
        usize_field("patterns", &mut cfg.patterns)?;
        u64_field("seed", &mut cfg.seed)?;
        let mut drop_after = cfg.drop_after as usize;
        usize_field("drop_after", &mut drop_after)?;
        cfg.drop_after = u32::try_from(drop_after)
            .map_err(|_| "\"drop_after\" must fit in 32 bits".to_owned())?;
        if let Some(v) = obj.get("merge_cubes") {
            match v {
                JsonValue::Bool(b) => cfg.merge_cubes = *b,
                _ => return Err("\"merge_cubes\" must be a boolean".to_owned()),
            }
        }
        if let Some(v) = obj.get("static_prepass") {
            match v {
                JsonValue::Bool(b) => cfg.static_prepass = *b,
                _ => return Err("\"static_prepass\" must be a boolean".to_owned()),
            }
        }
        // Admission caps: one request must not hold a worker for long
        // or take the machine's memory and threads.
        if cfg.threads > MAX_THREADS {
            return Err(format!("\"threads\" must be at most {MAX_THREADS}"));
        }
        if cfg.max_backtracks > MAX_BACKTRACKS {
            return Err(format!(
                "\"max_backtracks\" must be at most {MAX_BACKTRACKS}"
            ));
        }
        if cfg.patterns == 0 || cfg.patterns > MAX_PATTERN_BLOCKS {
            return Err(format!("\"patterns\" must be in 1..={MAX_PATTERN_BLOCKS}"));
        }
        Ok(cfg)
    }

    /// Result-cache key: a hash of exactly [`JobConfig::result_fields`],
    /// so jobs share an entry when their result bytes provably agree.
    pub fn config_hash(&self) -> u64 {
        // Destructured so a new field cannot be left out of the key.
        let JobConfig {
            kind,
            threads,
            lane_words,
            fill_seed,
            merge_cubes,
            merge_window,
            max_backtracks,
            drop_after,
            static_prepass,
            patterns,
            seed,
        } = self.result_fields();
        let mut h = Fnv64::new();
        h.write_str("rescue-serve-config-v2");
        h.write_str(kind.name());
        for v in [
            threads as u64,
            lane_words as u64,
            fill_seed,
            u64::from(merge_cubes),
            merge_window as u64,
            max_backtracks as u64,
            u64::from(drop_after),
            u64::from(static_prepass),
            patterns as u64,
            seed,
        ] {
            h.write_u64(v);
        }
        h.finish()
    }

    /// This config with every field its kind's result does not read
    /// reset to the kind's default: the datapath knobs (`threads`,
    /// `lane_words`) for every kind, since results are bit-identical
    /// for any value; the ATPG fields for fsim jobs; `patterns` and
    /// `seed` for ATPG jobs; everything but the kind for netlist and
    /// lint jobs. Two configs share a result exactly when their
    /// `result_fields` are equal; the result cache compares these on
    /// every hit. `static_prepass` stays in for ATPG: the vectors are
    /// invariant, but on designs where PODEM's budget aborts inside a
    /// proven-redundant cone the pre-pass upgrades the class to
    /// `Untestable`, moving the result line's class counts and coverage.
    pub(crate) fn result_fields(&self) -> JobConfig {
        let mut r = JobConfig::new(self.kind);
        match self.kind {
            JobKind::Netlist | JobKind::Lint => {}
            JobKind::Atpg => {
                r.fill_seed = self.fill_seed;
                r.merge_cubes = self.merge_cubes;
                r.merge_window = self.merge_window;
                r.max_backtracks = self.max_backtracks;
                r.drop_after = self.drop_after;
                r.static_prepass = self.static_prepass;
            }
            JobKind::Fsim => {
                r.patterns = self.patterns;
                r.seed = self.seed;
            }
        }
        r
    }

    fn atpg_config(&self) -> AtpgConfig {
        AtpgConfig {
            podem: PodemConfig {
                max_backtracks: self.max_backtracks,
            },
            fill_seed: self.fill_seed,
            merge_cubes: self.merge_cubes,
            merge_window: self.merge_window,
            threads: self.threads,
            lane_words: self.lane_words,
            static_prepass: self.static_prepass,
            drop_after: if self.drop_after > 1 {
                Some(self.drop_after)
            } else {
                None
            },
        }
    }
}

/// Run one job against a prepared design and return the canonical
/// result line (no trailing newline). Errors are human-readable and
/// never panic — this path faces untrusted input.
pub fn run_job(design: &Design, cfg: &JobConfig) -> Result<String, String> {
    match cfg.kind {
        JobKind::Netlist => Ok(netlist_result(design)),
        JobKind::Lint => Ok(lint_result(design)),
        JobKind::Atpg => atpg_result(design, cfg),
        JobKind::Fsim => fsim_result(design, cfg),
    }
}

/// Start a result object with the shared envelope fields.
fn result_head(design: &Design, job: JobKind) -> JsonObj {
    let mut o = JsonObj::new();
    o.str("type", "result")
        .str("job", job.name())
        .str("design", &format!("{:016x}", design.content_hash));
    o
}

fn netlist_result(design: &Design) -> String {
    let n = &design.counts;
    let mut o = result_head(design, JobKind::Netlist);
    o.u64("inputs", n.inputs as u64)
        .u64("outputs", n.outputs as u64)
        .u64("gates", n.gates as u64)
        .u64("dffs", n.dffs as u64)
        .u64("components", n.components as u64)
        .u64("faults", design.faults.len() as u64)
        .bool("scannable", design.scanned.is_some());
    o.finish()
}

fn lint_result(design: &Design) -> String {
    let name = format!("{:016x}", design.content_hash);
    let report = match &design.scanned {
        Some(s) => rescue_lint::lint_scan(s),
        None => rescue_lint::lint_netlist(design.netlist()),
    };
    let mut o = result_head(design, JobKind::Lint);
    o.u64("errors", report.count(rescue_lint::Severity::Error) as u64)
        .u64(
            "warnings",
            report.count(rescue_lint::Severity::Warning) as u64,
        )
        .u64("infos", report.count(rescue_lint::Severity::Info) as u64)
        .raw("report", &report.to_json(&name));
    o.finish()
}

fn atpg_result(design: &Design, cfg: &JobConfig) -> Result<String, String> {
    let scanned = design
        .scanned
        .as_ref()
        .ok_or("atpg requires a design with at least one flip-flop")?;
    let atpg = Atpg::new(scanned, cfg.atpg_config()).map_err(|e| e.to_string())?;
    let run = atpg
        .run_memoized(&design.lev, &design.faults, &design.podem_memo)
        .map_err(|e| e.to_string())?;

    // Digest of the actual vector bits: two runs agree on this iff they
    // produced the same patterns, which makes served-vs-CLI
    // byte-identity a real engine-output check rather than a
    // formatting check.
    let mut digest = Fnv64::new();
    for v in &run.vectors {
        digest.write_u64(v.inputs.len() as u64);
        for &b in &v.inputs {
            digest.write(&[u8::from(b)]);
        }
        digest.write_u64(v.state.len() as u64);
        for &b in &v.state {
            digest.write(&[u8::from(b)]);
        }
    }

    use rescue_atpg::FaultClass;
    let mut o = result_head(design, JobKind::Atpg);
    o.u64("faults", run.stats.faults as u64)
        .u64("vectors", run.stats.vectors as u64)
        .u64("cells", run.stats.cells as u64)
        .u64("cycles", run.stats.cycles)
        .u64("detected", run.count(FaultClass::Detected) as u64)
        .u64("chain_tested", run.count(FaultClass::ChainTested) as u64)
        .u64("untestable", run.count(FaultClass::Untestable) as u64)
        .u64("aborted", run.count(FaultClass::Aborted) as u64)
        .f64("coverage", run.coverage())
        .str("vectors_digest", &format!("{:016x}", digest.finish()));
    Ok(o.finish())
}

fn fsim_result(design: &Design, cfg: &JobConfig) -> Result<String, String> {
    let sim_netlist = design.netlist();
    // Each fault's global first-detect pattern, keyed by its canonical
    // position. `lane_words` and `threads` only change how the patterns
    // are grouped and sharded, not which pattern detects a fault first,
    // so the digest below is invariant in both — as it must be, because
    // neither is in [`JobConfig::result_fields`] and jobs
    // differing only in them share a result-cache entry.
    let first_detect = first_detections(
        &design.lev,
        rescue_atpg::resolve_threads(cfg.threads),
        cfg.lane_words,
        &design.faults,
        pattern_blocks(sim_netlist, cfg.seed).take(cfg.patterns),
    )
    .map_err(|e| e.to_string())?;

    // Digest `(canonical fault position, global first-detect pattern)`
    // pairs in canonical fault order.
    let mut detected = 0u64;
    let mut digest = Fnv64::new();
    for (slot, det) in first_detect.iter().enumerate() {
        if let Some(pattern) = det {
            detected += 1;
            digest.write_u64(slot as u64);
            digest.write_u64(*pattern);
        }
    }

    let mut o = result_head(design, JobKind::Fsim);
    o.u64("blocks", cfg.patterns as u64)
        .u64("faults", design.faults.len() as u64)
        .u64("detected", detected)
        .u64("undetected", design.faults.len() as u64 - detected)
        .str("detect_digest", &format!("{:016x}", digest.finish()));
    Ok(o.finish())
}

/// The fsim job's seeded random pattern blocks, drawn lazily from one
/// `SplitMix64` stream: every input word, then every state word, of
/// each block in turn.
fn pattern_blocks(netlist: &Netlist, seed: u64) -> impl Iterator<Item = PatternBlock> + '_ {
    let mut rng = SplitMix64::new(seed);
    std::iter::repeat_with(move || {
        let mut b = PatternBlock::zero(netlist);
        for w in b.inputs.iter_mut().chain(b.state.iter_mut()) {
            *w = rng.next_u64();
        }
        b
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_atpg::FaultSim;
    use rescue_netlist::NetlistBuilder;

    /// Two 8-input AND cones (each output 1 with probability 1/256) and
    /// an XOR chain: random patterns detect the XOR faults in block 0
    /// and the AND cones' faults spread over later blocks.
    fn small_fixture() -> Design {
        let mut b = NetlistBuilder::new();
        b.enter_component("fixture");
        let a = b.input_bus("a", 16);
        let cone = |b: &mut NetlistBuilder, ins: &[rescue_netlist::NetId]| {
            ins[1..].iter().fold(ins[0], |acc, &x| b.and2(acc, x))
        };
        let lo = cone(&mut b, &a[..8]);
        let hi = cone(&mut b, &a[8..]);
        let any = b.or2(lo, hi);
        let parity = a[1..].iter().fold(a[0], |acc, &x| b.xor2(acc, x));
        let q0 = b.dff(any, "q0");
        let q1 = b.dff(parity, "q1");
        let both = b.and2(q0, q1);
        b.output(both, "o");
        let n = b.finish().expect("fixture builds");
        Design::build(&rescue_netlist::text::to_text(&n)).expect("fixture design builds")
    }

    fn quick_model() -> Design {
        let model = rescue_model::build_pipeline(
            &rescue_model::ModelParams::tiny(),
            rescue_model::Variant::Rescue,
        );
        Design::build(&rescue_netlist::text::to_text(&model.netlist)).expect("model builds")
    }

    /// Each fault's first detecting pattern from one 64-pattern
    /// `FaultSim`, one block at a time, with no grouping or sharding.
    fn reference_first_detections(design: &Design, seed: u64, patterns: usize) -> Vec<Option<u64>> {
        let netlist = design.netlist();
        let mut sim = FaultSim::with_levelized(&design.lev);
        let mut first = vec![None; design.faults.len()];
        for (j, block) in pattern_blocks(netlist, seed).take(patterns).enumerate() {
            sim.load_block(&block);
            for (slot, &f) in design.faults.iter().enumerate() {
                if first[slot].is_none() {
                    first[slot] = sim
                        .first_detecting_lane(f)
                        .map(|lane| j as u64 * 64 + u64::from(lane));
                }
            }
        }
        first
    }

    #[test]
    fn first_detections_match_a_one_block_reference() {
        for design in [small_fixture(), quick_model()] {
            let netlist = design.netlist();
            for patterns in [1usize, 9, 17] {
                let want = reference_first_detections(&design, 11, patterns);
                if patterns > 1 {
                    // Detections past block 0 exist, so a wrong group
                    // base cannot go unnoticed.
                    assert!(want.iter().flatten().any(|&p| p >= 64), "{patterns}");
                }
                for lane_words in [1usize, 4, 8] {
                    for threads in [1usize, 2] {
                        let got = first_detections(
                            &design.lev,
                            threads,
                            lane_words,
                            &design.faults,
                            pattern_blocks(netlist, 11).take(patterns),
                        )
                        .expect("supported width");
                        assert_eq!(
                            got, want,
                            "patterns={patterns} lane_words={lane_words} threads={threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fsim_jobs_default_to_full_lane_width() {
        assert_eq!(JobConfig::new(JobKind::Fsim).lane_words, 8);
        for kind in [JobKind::Netlist, JobKind::Atpg, JobKind::Lint] {
            assert_eq!(JobConfig::new(kind).lane_words, 1, "{kind:?}");
        }
        let design = small_fixture();
        let cfg = JobConfig::parse(r#"{"kind":"fsim","lane_words":3}"#).expect("parses");
        assert!(run_job(&design, &cfg).unwrap_err().contains("lane width 3"));
    }

    #[test]
    fn config_parses_with_defaults_and_overrides() {
        let cfg = JobConfig::parse(r#"{"kind":"atpg"}"#).unwrap();
        assert_eq!(cfg.kind, JobKind::Atpg);
        assert_eq!(cfg, JobConfig::new(JobKind::Atpg));

        let cfg = JobConfig::parse(
            r#"{"kind":"fsim","patterns":8,"seed":7,"threads":2,"merge_cubes":false}"#,
        )
        .unwrap();
        assert_eq!(cfg.kind, JobKind::Fsim);
        assert_eq!(cfg.patterns, 8);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.threads, 2);
        assert!(!cfg.merge_cubes);
    }

    #[test]
    fn config_rejects_bad_input() {
        assert!(JobConfig::parse("not json").is_err());
        assert!(JobConfig::parse("[]").is_err());
        assert!(JobConfig::parse(r#"{"kind":"noodle"}"#).is_err());
        assert!(JobConfig::parse(r#"{}"#).is_err());
        assert!(JobConfig::parse(r#"{"kind":"atpg","threads":-1}"#).is_err());
        assert!(JobConfig::parse(r#"{"kind":"fsim","patterns":0}"#).is_err());
        assert!(JobConfig::parse(r#"{"kind":"atpg","merge_cubes":3}"#).is_err());
        assert!(JobConfig::parse(r#"{"kind":"atpg","static_prepass":"yes"}"#).is_err());
    }

    #[test]
    fn admission_caps_accept_the_cap_and_name_the_field_above_it() {
        let at = format!(r#"{{"kind":"atpg","max_backtracks":{MAX_BACKTRACKS}}}"#);
        assert_eq!(
            JobConfig::parse(&at).unwrap().max_backtracks,
            MAX_BACKTRACKS
        );
        let over = format!(
            r#"{{"kind":"atpg","max_backtracks":{}}}"#,
            MAX_BACKTRACKS + 1
        );
        assert!(JobConfig::parse(&over)
            .unwrap_err()
            .contains("\"max_backtracks\""));

        let at = format!(r#"{{"kind":"fsim","patterns":{MAX_PATTERN_BLOCKS}}}"#);
        assert_eq!(JobConfig::parse(&at).unwrap().patterns, MAX_PATTERN_BLOCKS);
        let over = format!(r#"{{"kind":"fsim","patterns":{}}}"#, MAX_PATTERN_BLOCKS + 1);
        assert!(JobConfig::parse(&over)
            .unwrap_err()
            .contains("\"patterns\""));

        // Parsing only: no job above the cap runs, so no thread starts.
        let at = format!(r#"{{"kind":"fsim","threads":{MAX_THREADS}}}"#);
        assert_eq!(JobConfig::parse(&at).unwrap().threads, MAX_THREADS);
        let over = format!(r#"{{"kind":"fsim","threads":{}}}"#, MAX_THREADS + 1);
        assert!(JobConfig::parse(&over).unwrap_err().contains("\"threads\""));
        assert!(JobConfig::parse(r#"{"kind":"fsim","threads":100000}"#).is_err());
    }

    #[test]
    fn static_prepass_parses_and_reaches_the_engine_config() {
        let cfg = JobConfig::parse(r#"{"kind":"atpg","static_prepass":true}"#).unwrap();
        assert!(cfg.static_prepass);
        assert!(cfg.atpg_config().static_prepass);
        assert!(!JobConfig::new(JobKind::Atpg).static_prepass);
    }

    #[test]
    fn config_hash_ignores_datapath_knobs_only() {
        let base = JobConfig::new(JobKind::Atpg);
        let mut threads = base.clone();
        threads.threads = 7;
        threads.lane_words = 4;
        assert_eq!(base.config_hash(), threads.config_hash());
        // The fields the result cache verifies match what is hashed.
        assert_eq!(base.result_fields(), threads.result_fields());

        let mut seeded = base.clone();
        seeded.fill_seed = 1;
        assert_ne!(base.config_hash(), seeded.config_hash());
        assert_ne!(base.result_fields(), seeded.result_fields());
        let mut other_kind = base.clone();
        other_kind.kind = JobKind::Lint;
        assert_ne!(base.config_hash(), other_kind.config_hash());
        // The pre-pass can move the result line's class counts on
        // budget-limited designs, so it must key its own cache entry.
        let mut prepass = base.clone();
        prepass.static_prepass = true;
        assert_ne!(base.config_hash(), prepass.config_hash());

        // Each kind's key covers only the fields its result reads.
        let same = |a: &JobConfig, b: &JobConfig| {
            a.config_hash() == b.config_hash() && a.result_fields() == b.result_fields()
        };
        let atpg_only = |c: &JobConfig| JobConfig {
            fill_seed: 3,
            merge_cubes: false,
            merge_window: 2,
            max_backtracks: 40,
            drop_after: 3,
            static_prepass: true,
            ..c.clone()
        };
        let fsim_only = |c: &JobConfig| JobConfig {
            patterns: 9,
            seed: 11,
            ..c.clone()
        };
        let fsim = JobConfig::new(JobKind::Fsim);
        assert!(same(&fsim, &atpg_only(&fsim)));
        assert!(!same(&fsim, &fsim_only(&fsim)));
        assert!(same(&base, &fsim_only(&base)));
        for field in 0..6 {
            let mut one = base.clone();
            match field {
                0 => one.fill_seed = 3,
                1 => one.merge_cubes = false,
                2 => one.merge_window = 2,
                3 => one.max_backtracks = 40,
                4 => one.drop_after = 3,
                _ => one.static_prepass = true,
            }
            assert!(!same(&base, &one), "ATPG field {field}");
        }
        for kind in [JobKind::Netlist, JobKind::Lint] {
            let plain = JobConfig::new(kind);
            assert!(same(&plain, &fsim_only(&atpg_only(&plain))), "{kind:?}");
            assert!(!same(&plain, &base), "{kind:?}");
        }
    }
}
