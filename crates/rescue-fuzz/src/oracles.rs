//! The eight cross-engine oracles.
//!
//! Each oracle checks one agreement property between independent
//! implementations of the same semantics, so a bug in either side shows
//! up as a divergence instead of silently corrupting results:
//!
//! * [`engines`] — good-machine values from the interpreter
//!   ([`Netlist::simulate`]) against the levelized packed evaluator,
//!   and, on every enumerated fault, the detection mask and the
//!   per-observation-point differences from the naive full-re-evaluation
//!   reference against the FFR kernel at 64 patterns per pass.
//! * [`shards`] — the multi-threaded fault-sharding layer at 1, 2 and 8
//!   workers against the serial simulator, lane for lane, with equal
//!   gate-eval totals at every worker count.
//! * [`wide`] — the PPSFP kernel at 256 and 512 patterns per pass
//!   against the same kernel at 64 (which [`engines`] pins to the
//!   naive reference): every per-block detect-mask word and the global
//!   first-detecting lane must be identical.
//! * [`atpg_confirm`] — every fault ATPG classifies `Detected` must be
//!   detected by at least one of the run's own vectors under the naive
//!   reference simulator.
//! * [`dropping`] — full ATPG runs with n-detect fault dropping on
//!   (`drop_after`) and with wide lanes (`lane_words = 8`) against the
//!   default run: classifications, vectors and the coverage curve must
//!   be bit-identical, since both are pure datapath/bookkeeping knobs.
//!   Then runs sharing one PODEM memo at budgets 300, 5, 300 and 10,000
//!   with different fill seeds, each against a fresh run: the counters
//!   must agree too.
//! * [`collapse`] — structural fault-equivalence collapsing against
//!   brute force: on exhaustively-stimulated small circuits, every
//!   enumerated fault's full detection signature must be exhibited by
//!   some collapsed representative.
//! * [`lint_clean`] — every generated circuit must pass the static DFT
//!   design-rule checks error-clean, pre- and post-scan; every fault
//!   the pre-scan report proves redundant must be `Untestable` per a
//!   deep unconstrained PODEM search; and any net lint proves constant
//!   must never have its stuck-at-constant fault classified `Detected`
//!   by ATPG.
//! * [`redundancy`] — every fault the static implication engine proves
//!   redundant under capture constraints must be `Untestable` per a
//!   deep PODEM search with the pre-pass off — a `Test` or an abort
//!   would mean an unsound proof silently inflating coverage.

use crate::ir::CaseIr;
use rescue_atpg::{
    Atpg, AtpgConfig, FaultClass, FaultShards, FaultSim, Observation, Podem, PodemConfig,
    PodemMemo, PodemResult,
};
use rescue_netlist::scan::insert_scan;
use rescue_netlist::{Fault, Levelized, NetId, Netlist, PatternBlock, StuckAt};

/// Which oracle to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OracleKind {
    /// Good-machine and per-fault agreement across simulation engines.
    Engines,
    /// Serial vs. multi-threaded fault simulation bit-identity.
    Shards,
    /// Wide (256/512 patterns per pass) vs. 64-wide fault simulation
    /// detect-mask and first-lane bit-identity.
    Wide,
    /// ATPG `Detected` classifications confirmed by an independent
    /// simulator.
    AtpgConfirm,
    /// ATPG with n-detect dropping / wide lanes vs. the default run:
    /// classifications, vectors and coverage must be bit-identical;
    /// runs sharing a PODEM memo vs. fresh runs, counters included.
    Dropping,
    /// Fault-equivalence collapsing vs. brute-force signatures.
    Collapse,
    /// Static DFT lint cleanliness, plus lint-vs-PODEM agreement on
    /// redundant faults and lint-vs-ATPG agreement on constant-net
    /// untestability.
    Lint,
    /// Static redundancy proofs vs. a deep PODEM search: proven faults
    /// must be `Untestable`, never testable or aborted.
    Redundancy,
}

impl OracleKind {
    /// All oracles, in run order.
    pub const ALL: [OracleKind; 8] = [
        OracleKind::Engines,
        OracleKind::Shards,
        OracleKind::Wide,
        OracleKind::AtpgConfirm,
        OracleKind::Dropping,
        OracleKind::Collapse,
        OracleKind::Lint,
        OracleKind::Redundancy,
    ];

    /// Stable name used in repro files and metrics keys.
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::Engines => "engines",
            OracleKind::Shards => "shards",
            OracleKind::Wide => "wide",
            OracleKind::AtpgConfirm => "atpg",
            OracleKind::Dropping => "dropping",
            OracleKind::Collapse => "collapse",
            OracleKind::Lint => "lint",
            OracleKind::Redundancy => "redundancy",
        }
    }

    /// Inverse of [`OracleKind::name`].
    pub fn of_name(name: &str) -> Result<OracleKind, String> {
        Ok(match name {
            "engines" => OracleKind::Engines,
            "shards" => OracleKind::Shards,
            "wide" => OracleKind::Wide,
            "atpg" => OracleKind::AtpgConfirm,
            "dropping" => OracleKind::Dropping,
            "collapse" => OracleKind::Collapse,
            "lint" => OracleKind::Lint,
            "redundancy" => OracleKind::Redundancy,
            other => return Err(format!("unknown oracle: {other}")),
        })
    }

    /// Run this oracle on `case`. `Ok(())` means agreement; `Err`
    /// carries a human-readable description of the divergence.
    pub fn run(self, case: &CaseIr) -> Result<(), String> {
        match self {
            OracleKind::Engines => engines(case),
            OracleKind::Shards => shards(case),
            OracleKind::Wide => wide(case),
            OracleKind::AtpgConfirm => atpg_confirm(case),
            OracleKind::Dropping => dropping(case),
            OracleKind::Collapse => collapse(case),
            OracleKind::Lint => lint_clean(case),
            OracleKind::Redundancy => redundancy(case),
        }
    }
}

/// Naive single-fault detection mask: full re-evaluation of the faulty
/// machine, OR of the differences at every observation point (primary
/// outputs and flip-flop D inputs). This is the reference the
/// event-driven kernel is judged against.
fn naive_detect_mask(netlist: &Netlist, good: &[u64], block: &PatternBlock, fault: Fault) -> u64 {
    signature(netlist, good, block, fault)
        .into_iter()
        .fold(0, |a, w| a | w)
}

/// Full per-observation-point difference signature of `fault`: one word
/// per primary output, then one per flip-flop, each the XOR of faulty
/// and good values. Equivalent faults have identical signatures under
/// any stimulus.
fn signature(netlist: &Netlist, good: &[u64], block: &PatternBlock, fault: Fault) -> Vec<u64> {
    let faulty = netlist.simulate_faulty(block, fault);
    netlist
        .outputs()
        .iter()
        .map(|(_, n)| n.index())
        .chain(netlist.dffs().iter().map(|d| d.d().index()))
        .map(|i| faulty.nets[i] ^ good[i])
        .collect()
}

/// Oracle (a): interpreter vs. levelized evaluator on every net, then
/// naive vs. event-driven detection masks and per-point observations on
/// every enumerated fault.
pub fn engines(case: &CaseIr) -> Result<(), String> {
    let netlist = case.build()?;
    let block = case.block();
    let good = netlist.simulate(&block);
    let lev = Levelized::new(&netlist);
    let mut lev_vals = Vec::new();
    lev.eval_block_into(&block, &mut lev_vals);
    for (i, (&gv, &lv)) in good.nets.iter().zip(&lev_vals).enumerate() {
        if gv != lv {
            return Err(format!(
                "good machine disagrees on net {i} ({}): interpreter {gv:#x}, levelized {lv:#x}",
                netlist.net_name(NetId::from_index(i)),
            ));
        }
    }

    let mut sim = FaultSim::with_levelized(&lev);
    sim.load_block(&block);
    let points: Vec<Observation> = (0..netlist.outputs().len())
        .map(Observation::PrimaryOutput)
        .chain((0..netlist.num_dffs()).map(Observation::ScanCell))
        .collect();
    for fault in netlist.enumerate_faults() {
        let sig = signature(&netlist, &good.nets, &block, fault);
        let want = sig.iter().fold(0, |a, w| a | w);
        let got = sim.detect_mask(fault);
        if got != want {
            return Err(format!(
                "fault {fault}: naive mask {want:#x}, event-driven {got:#x}"
            ));
        }
        let mut want_obs: Vec<(Observation, u64)> = points
            .iter()
            .zip(&sig)
            .filter(|(_, &w)| w != 0)
            .map(|(&o, &w)| (o, w))
            .collect();
        want_obs.sort();
        let got_obs = sim.observations(fault);
        if got_obs != want_obs {
            return Err(format!(
                "fault {fault}: naive observations {want_obs:?}, event-driven {got_obs:?}"
            ));
        }
    }
    Ok(())
}

/// Oracle (b): the fault-sharding layer must return bit-identical lanes
/// and gate-eval totals at every worker count, and those lanes must
/// match the serial simulator.
pub fn shards(case: &CaseIr) -> Result<(), String> {
    let netlist = case.build()?;
    let block = case.block();
    let lev = Levelized::new(&netlist);
    let faults = netlist.collapse_faults();

    let mut serial = FaultSim::with_levelized(&lev);
    serial.load_block(&block);
    let want: Vec<Option<u32>> = faults
        .iter()
        .map(|&f| serial.first_detecting_lane(f))
        .collect();

    let mut evals = Vec::new();
    for threads in [1usize, 2, 8] {
        let mut shards = FaultShards::new(&lev, threads);
        let got = shards.detect_lanes(&block, &faults);
        if got != want {
            let i = got.iter().zip(&want).position(|(g, w)| g != w).unwrap_or(0);
            return Err(format!(
                "{threads}-thread lanes diverge from serial at fault {} ({:?} vs {:?})",
                faults[i], got[i], want[i]
            ));
        }
        evals.push((threads, shards.gate_evals()));
    }
    if evals.windows(2).any(|w| w[0].1 != w[1].1) {
        return Err(format!("gate evals vary with the worker count: {evals:?}"));
    }
    Ok(())
}

/// Eight sibling stimulus blocks derived deterministically from the
/// case block by rotating and re-keying every word, so wide lane groups
/// carry real cross-word variety.
fn derived_blocks(base: &PatternBlock) -> Vec<PatternBlock> {
    (0..8u32)
        .map(|k| {
            let mix = |(i, &w): (usize, &u64)| {
                w.rotate_left(7 * k)
                    ^ u64::from(k)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .rotate_left(i as u32)
            };
            PatternBlock {
                inputs: base.inputs.iter().enumerate().map(mix).collect(),
                state: base.state.iter().enumerate().map(mix).collect(),
            }
        })
        .collect()
}

/// Oracle: the fault simulator at 256 (`W = 4`) and 512 (`W = 8`)
/// patterns per pass must reproduce its own 64-wide (`W = 1`) per-block
/// detect-mask words and global first-detecting lane (`word * 64 + bit`
/// in vector order) on every collapsed fault.
pub fn wide(case: &CaseIr) -> Result<(), String> {
    let netlist = case.build()?;
    let blocks = derived_blocks(&case.block());
    let lev = Levelized::new(&netlist);
    let faults = netlist.collapse_faults();

    let mut w1 = FaultSim::with_levelized(&lev);
    let mut per_block: Vec<Vec<u64>> = Vec::new();
    for b in &blocks {
        w1.load_block(b);
        per_block.push(faults.iter().map(|&f| w1.detect_mask(f)).collect());
    }

    let mut w4: FaultSim<4> = FaultSim::wide(&lev);
    let mut w8: FaultSim<8> = FaultSim::wide(&lev);
    w8.load_blocks(&blocks);
    for (fi, &f) in faults.iter().enumerate() {
        let m8 = w8.detect_mask_wide(f);
        for (word, &m) in m8.iter().enumerate() {
            if m != per_block[word][fi] {
                return Err(format!(
                    "fault {f}: W=8 word {word} mask {m:#x} != W=1 {:#x}",
                    per_block[word][fi]
                ));
            }
        }
        let want_lane = (0..8).find_map(|j| {
            let m = per_block[j][fi];
            (m != 0).then(|| j as u32 * 64 + m.trailing_zeros())
        });
        let got = w8.first_detecting_lane(f);
        if got != want_lane {
            return Err(format!(
                "fault {f}: W=8 first lane {got:?} != W=1-derived {want_lane:?}"
            ));
        }
    }
    for (g, chunk) in blocks.chunks(4).enumerate() {
        w4.load_blocks(chunk);
        for (fi, &f) in faults.iter().enumerate() {
            let m4 = w4.detect_mask_wide(f);
            for (word, &m) in m4.iter().enumerate() {
                if m != per_block[g * 4 + word][fi] {
                    return Err(format!(
                        "fault {f}: W=4 group {g} word {word} mask {m:#x} != W=1 {:#x}",
                        per_block[g * 4 + word][fi]
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Oracle: n-detect fault dropping (`drop_after`) and wide lanes
/// (`lane_words = 8`) are pure bookkeeping/datapath knobs — a full ATPG
/// run with either enabled must produce bit-identical classifications,
/// vectors and coverage curves to the default run. And a PODEM memo is
/// exact: runs sharing one across budgets, fill seeds, the static
/// pre-pass and n-detect dropping must equal fresh runs,
/// [`rescue_atpg::AtpgCounts`] included.
pub fn dropping(case: &CaseIr) -> Result<(), String> {
    let netlist = case.build()?;
    let scanned = insert_scan(&netlist).map_err(|e| format!("insert_scan: {e}"))?;
    let base = Atpg::new(&scanned, AtpgConfig::default())
        .map_err(|e| format!("Atpg::new: {e}"))?
        .run()
        .map_err(|e| format!("Atpg::run: {e}"))?;

    let variants = [
        (
            "drop_after=2",
            AtpgConfig {
                drop_after: Some(2),
                ..AtpgConfig::default()
            },
        ),
        (
            "lane_words=8",
            AtpgConfig {
                lane_words: 8,
                ..AtpgConfig::default()
            },
        ),
        (
            "drop_after=3,lane_words=4",
            AtpgConfig {
                drop_after: Some(3),
                lane_words: 4,
                ..AtpgConfig::default()
            },
        ),
    ];
    for (label, cfg) in variants {
        let run = Atpg::new(&scanned, cfg)
            .map_err(|e| format!("Atpg::new: {e}"))?
            .run()
            .map_err(|e| format!("Atpg::run ({label}): {e}"))?;
        if run.classes != base.classes {
            let diff = base
                .classes
                .iter()
                .find(|(f, c)| run.classes.get(f) != Some(c));
            return Err(format!(
                "{label}: classifications diverge from default run, first: {diff:?}"
            ));
        }
        if run.vectors != base.vectors {
            return Err(format!(
                "{label}: vectors diverge from default run ({} vs {})",
                run.vectors.len(),
                base.vectors.len()
            ));
        }
        if run.metrics.coverage != base.metrics.coverage {
            return Err(format!("{label}: coverage curve diverges from default run"));
        }
    }

    // One PODEM memo shared across runs with other budgets and fill
    // seeds, then with the pre-pass and n-detect configs the bench
    // reruns on a Table 3 design's memo: each run, counters included,
    // must equal a fresh run.
    let lev = Levelized::new(&scanned.netlist);
    let faults = scanned.netlist.collapse_faults();
    let memo = PodemMemo::default();
    let budgets = [300, 5, 300, 10_000]
        .into_iter()
        .enumerate()
        .map(|(i, max_backtracks)| {
            let cfg = AtpgConfig {
                podem: PodemConfig { max_backtracks },
                fill_seed: 11 + i as u64,
                ..AtpgConfig::default()
            };
            (format!("budget {max_backtracks}"), cfg)
        });
    let reruns = [
        (
            "static_prepass".to_owned(),
            AtpgConfig {
                static_prepass: true,
                ..AtpgConfig::default()
            },
        ),
        (
            "drop_after=2".to_owned(),
            AtpgConfig {
                drop_after: Some(2),
                ..AtpgConfig::default()
            },
        ),
    ];
    for (i, (what, cfg)) in budgets.chain(reruns).enumerate() {
        let atpg = Atpg::new(&scanned, cfg).map_err(|e| format!("Atpg::new: {e}"))?;
        let label = format!("shared memo, run {i} ({what})");
        let fresh = atpg
            .run()
            .map_err(|e| format!("Atpg::run ({label}): {e}"))?;
        let shared = atpg
            .run_memoized(&lev, &faults, &memo)
            .map_err(|e| format!("Atpg::run_memoized ({label}): {e}"))?;
        if shared.classes != fresh.classes {
            return Err(format!("{label}: classifications diverge from a fresh run"));
        }
        if shared.vectors != fresh.vectors {
            return Err(format!("{label}: vectors diverge from a fresh run"));
        }
        if shared.metrics.coverage != fresh.metrics.coverage {
            return Err(format!("{label}: coverage curve diverges from a fresh run"));
        }
        if shared.metrics.counts != fresh.metrics.counts {
            return Err(format!(
                "{label}: counts diverge from a fresh run: {:?} vs {:?}",
                shared.metrics.counts, fresh.metrics.counts
            ));
        }
    }
    Ok(())
}

/// Oracle (c): run full ATPG on the scanned case; every fault the run
/// classifies `Detected` must be detected by at least one generated
/// vector under the naive reference simulator.
pub fn atpg_confirm(case: &CaseIr) -> Result<(), String> {
    let netlist = case.build()?;
    let scanned = insert_scan(&netlist).map_err(|e| format!("insert_scan: {e}"))?;
    let run = Atpg::new(&scanned, AtpgConfig::default())
        .map_err(|e| format!("Atpg::new: {e}"))?
        .run()
        .map_err(|e| format!("Atpg::run: {e}"))?;

    let n = &scanned.netlist;
    // Good-machine values per vector, computed once.
    let blocks: Vec<(PatternBlock, Vec<u64>)> = run
        .vectors
        .iter()
        .map(|v| {
            let b = PatternBlock::from_single(&v.inputs, &v.state);
            let good = n.simulate(&b).nets;
            (b, good)
        })
        .collect();

    for (&fault, &class) in &run.classes {
        if class != FaultClass::Detected {
            continue;
        }
        let hit = blocks
            .iter()
            .any(|(b, good)| naive_detect_mask(n, good, b, fault) & 1 != 0);
        if !hit {
            return Err(format!(
                "fault {fault} classified Detected but no vector detects it \
                 under the reference simulator ({} vectors)",
                run.vectors.len()
            ));
        }
    }
    Ok(())
}

/// Oracle (d): on a small, exhaustively-stimulated case, structural
/// equivalence collapsing must lose no behavior — every enumerated
/// fault's brute-force signature is exhibited by some collapsed
/// representative.
pub fn collapse(case: &CaseIr) -> Result<(), String> {
    let free = case.n_inputs + case.dff_d.len();
    if free > 6 {
        return Err(format!(
            "collapse oracle needs ≤ 6 free variables, case has {free}"
        ));
    }
    let mut ex = case.clone();
    crate::gen::exhaustive_stim(&mut ex);
    let netlist = ex.build()?;
    let block = ex.block();
    let good = netlist.simulate(&block).nets;

    let reps = netlist.collapse_faults();
    let rep_sigs: std::collections::HashSet<Vec<u64>> = reps
        .iter()
        .map(|&r| signature(&netlist, &good, &block, r))
        .collect();
    for fault in netlist.enumerate_faults() {
        let sig = signature(&netlist, &good, &block, fault);
        if !rep_sigs.contains(&sig) {
            return Err(format!(
                "fault {fault}: brute-force signature matches no collapsed \
                 representative ({} reps for {} faults)",
                reps.len(),
                netlist.enumerate_faults().len()
            ));
        }
    }
    Ok(())
}

/// Oracle (e): the generator must only produce circuits the static DFT
/// lint accepts error-clean, both pre-scan and after `insert_scan`.
/// Every fault the pre-scan report's implication analysis proves
/// redundant must be `Untestable` per an unconstrained deep PODEM
/// search on the pre-scan netlist; as in [`redundancy`], an abort fails
/// the case. This pins lint's translation of engine net ids back to
/// `NetId`s. When lint's constant-propagation pass proves nets stuck,
/// those structurally-untestable faults are cross-checked against
/// ATPG: a collapsed representative for a provably-constant net may be
/// absent or `Untestable`, but never `Detected`.
pub fn lint_clean(case: &CaseIr) -> Result<(), String> {
    let netlist = case.build()?;
    let pre = rescue_lint::lint_netlist(&netlist);
    if !pre.passes(rescue_lint::Severity::Error) {
        let worst = pre
            .diagnostics
            .iter()
            .find(|d| d.severity >= rescue_lint::Severity::Error);
        return Err(format!(
            "pre-scan netlist fails lint: {} error(s), first: {}",
            pre.count(rescue_lint::Severity::Error),
            worst.map_or_else(String::new, |d| d.message.clone()),
        ));
    }

    let scanned = insert_scan(&netlist).map_err(|e| format!("insert_scan: {e}"))?;
    let post = rescue_lint::lint_scan(&scanned);
    if !post.passes(rescue_lint::Severity::Error) {
        let worst = post
            .diagnostics
            .iter()
            .find(|d| d.severity >= rescue_lint::Severity::Error);
        return Err(format!(
            "post-scan netlist fails lint: {} error(s), first: {}",
            post.count(rescue_lint::Severity::Error),
            worst.map_or_else(String::new, |d| d.message.clone()),
        ));
    }

    let redundant = pre
        .implication
        .as_ref()
        .map_or(&[][..], |imp| &imp.redundant_faults);
    if !redundant.is_empty() {
        let lev = Levelized::new(&netlist);
        let podem = Podem::new(
            &netlist,
            &lev,
            vec![None; netlist.inputs().len()],
            PodemConfig {
                max_backtracks: 10_000,
            },
        );
        for &(net, value) in redundant {
            let fault = Fault::net(NetId::from_index(net as usize), stuck_at(value));
            match podem.generate(fault) {
                PodemResult::Untestable => {}
                PodemResult::Test(_) => {
                    return Err(format!(
                        "lint proves pre-scan {fault} redundant but PODEM generated a test"
                    ));
                }
                PodemResult::Aborted => {
                    return Err(format!(
                        "lint proves pre-scan {fault} redundant but PODEM aborted \
                         at 10000 backtracks (proof not independently confirmed)"
                    ));
                }
            }
        }
    }

    if pre.stuck_nets.is_empty() {
        return Ok(());
    }
    // Lint proved some nets constant; ATPG must agree those stuck-at
    // faults are untestable. The collapsed fault list may have merged a
    // stem fault into an equivalent representative, so only faults that
    // still appear in the run's classification map are checked.
    let run = Atpg::new(&scanned, AtpgConfig::default())
        .map_err(|e| format!("Atpg::new: {e}"))?
        .run()
        .map_err(|e| format!("Atpg::run: {e}"))?;
    for &(net, value) in &pre.stuck_nets {
        let fault = Fault::net(NetId::from_index(net as usize), stuck_at(value));
        if let Some(&class) = run.classes.get(&fault) {
            if class == FaultClass::Detected {
                return Err(format!(
                    "lint proves net {net} constant {} but ATPG classifies \
                     its stuck-at fault Detected",
                    u8::from(value),
                ));
            }
        }
    }
    Ok(())
}

fn stuck_at(one: bool) -> StuckAt {
    if one {
        StuckAt::One
    } else {
        StuckAt::Zero
    }
}

/// Oracle (h): soundness of FIRE-style redundancy identification. Every
/// fault the static implication engine proves untestable under capture
/// constraints is handed to PODEM with a backtrack budget ~33× the
/// production default and the pre-pass off: the search must come back
/// `Untestable`. A generated test is a hard unsoundness (the "proof"
/// was wrong); an abort means the claim was not independently
/// confirmable, which this oracle also refuses to let pass.
pub fn redundancy(case: &CaseIr) -> Result<(), String> {
    let netlist = case.build()?;
    let scanned = insert_scan(&netlist).map_err(|e| format!("insert_scan: {e}"))?;
    let atpg = Atpg::new(&scanned, AtpgConfig::default()).map_err(|e| format!("Atpg::new: {e}"))?;
    let lev = Levelized::new(&scanned.netlist);
    let constraints = atpg.capture_constraints();
    let mut engine = rescue_lint::ImplicationEngine::from_levelized(&lev, &constraints);
    let podem = Podem::new(
        &scanned.netlist,
        &lev,
        constraints,
        PodemConfig {
            max_backtracks: 10_000,
        },
    );
    for fault in scanned.netlist.collapse_faults() {
        if atpg.is_chain_fault(fault) || !engine.prove_fault_levelized(&lev, fault) {
            continue;
        }
        match podem.generate(fault) {
            PodemResult::Untestable => {}
            PodemResult::Test(_) => {
                return Err(format!(
                    "implication engine proved {fault} redundant but PODEM generated a test"
                ));
            }
            PodemResult::Aborted => {
                return Err(format!(
                    "implication engine proved {fault} redundant but PODEM aborted \
                     at 10000 backtracks (proof not independently confirmed)"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};

    #[test]
    fn oracle_names_round_trip() {
        for o in OracleKind::ALL {
            assert_eq!(OracleKind::of_name(o.name()).unwrap(), o);
        }
        assert!(OracleKind::of_name("bogus").is_err());
    }

    #[test]
    fn all_oracles_pass_on_a_known_case() {
        let case = generate(1, 0, &GenConfig::sized(24));
        engines(&case).unwrap();
        shards(&case).unwrap();
        wide(&case).unwrap();
        atpg_confirm(&case).unwrap();
        dropping(&case).unwrap();
        lint_clean(&case).unwrap();
        redundancy(&case).unwrap();
        let small = generate(1, 0, &GenConfig::small());
        collapse(&small).unwrap();
        lint_clean(&small).unwrap();
        redundancy(&small).unwrap();
    }

    #[test]
    fn derived_blocks_are_deterministic_and_diverse() {
        let case = generate(3, 0, &GenConfig::sized(24));
        let a = derived_blocks(&case.block());
        let b = derived_blocks(&case.block());
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert_eq!(a[0], case.block(), "word 0 is the case's own block");
        for w in &a[1..] {
            assert_ne!(w, &a[0], "sibling blocks must differ from the seed");
        }
    }

    /// A deliberately broken "reference": flipping one stimulus bit
    /// between the two sides is the kind of divergence the engines
    /// oracle must flag. Here we simulate it by checking the oracle's
    /// own failure path — a case whose free variables exceed the
    /// collapse oracle's bound is rejected with a message, not a panic.
    #[test]
    fn collapse_oracle_rejects_oversized_cases() {
        let mut case = generate(1, 0, &GenConfig::small());
        case.n_inputs = 7;
        case.stim_inputs = vec![0; 7];
        let err = collapse(&case).unwrap_err();
        assert!(err.contains("free variables"), "{err}");
    }
}
