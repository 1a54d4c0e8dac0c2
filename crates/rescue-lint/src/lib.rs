//! Static DFT lint for Rescue netlists: design-rule checks plus SCOAP
//! testability and static implication analysis.
//!
//! Commercial test flows run design-rule checking before ATPG ever
//! starts — structural problems (combinational loops, undriven nets,
//! state unreachable from the scan chain) are cheap to find statically
//! and expensive to debug dynamically. This crate is that layer for the
//! Rescue workspace. It has two halves:
//!
//! * **Rules.** [`rules`] implements the design rules over an
//!   unvalidated [`ir::LintNetlist`] wiring view, producing
//!   [`diag::Diagnostic`]s at three severities (see [`diag::Rule`] for
//!   the catalog). Pathological circuits the validated types cannot
//!   express are linted through [`lint`], which runs the rules only.
//! * **Value analyses.** [`scoap`] computes SCOAP controllability /
//!   observability (CC0, CC1, CO) per net with per-ICI-component
//!   aggregates, turning the paper's "ICI improves testability" claim
//!   into a statically checkable metric; [`implication`] proves
//!   stuck-at faults redundant. Both run on the
//!   [`rescue_netlist::Levelized`] view of a validated netlist — the
//!   same view ATPG uses — and only when no structural rule fired. Net
//!   ids are translated back to the original `NetId` at the report
//!   boundary.
//!
//! Entry points: [`lint_netlist`] / [`lint_scan`] run both halves on
//! the validated types; [`lint`] runs the rules on a raw view.
//!
//! ```
//! use rescue_netlist::NetlistBuilder;
//!
//! let mut b = NetlistBuilder::new();
//! b.enter_component("lc");
//! let a = b.input("a");
//! let x = b.not(a);
//! b.output(x, "o");
//! let netlist = b.finish().unwrap();
//!
//! let report = rescue_lint::lint_netlist(&netlist);
//! assert_eq!(report.count(rescue_lint::Severity::Error), 0);
//! assert!(report.scoap.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod implication;
pub mod ir;
pub mod rules;
pub mod scoap;

pub use diag::{Diagnostic, ImplicationReport, LintReport, Rule, Severity};
pub use implication::{ImplicationEngine, ImplicationStats, ProofSite};
pub use ir::{LintChain, LintDff, LintDriver, LintGate, LintNetlist, NO_NET};
pub use scoap::{ScoapAnalysis, SCOAP_INF};

use rescue_netlist::scan::ScanNetlist;
use rescue_netlist::{Levelized, Netlist};
use std::collections::HashSet;

/// Lint a raw netlist view: run every design rule. A raw view carries
/// no validated structure to levelize, so the value analyses are left
/// out (`scoap` and `implication` are `None`); the validated entry
/// points below add them.
pub fn lint(netlist: &LintNetlist) -> LintReport {
    rules_report(netlist).0
}

/// The rules' report over `view`, plus whether no structural rule fired.
fn rules_report(view: &LintNetlist) -> (LintReport, bool) {
    let outcome = rules::run_rules(view);
    let report = LintReport {
        diagnostics: outcome.diagnostics,
        stuck_nets: outcome.stuck_nets,
        ..LintReport::default()
    };
    (report, outcome.sound)
}

/// Lint a validated pre-scan [`Netlist`].
pub fn lint_netlist(netlist: &Netlist) -> LintReport {
    lint_validated(netlist, &LintNetlist::from_netlist(netlist))
}

/// Lint a single-chain scan netlist, including the scan-integrity
/// rules.
pub fn lint_scan(scan: &ScanNetlist) -> LintReport {
    lint_validated(&scan.netlist, &LintNetlist::from_scan(scan))
}

/// The rules over `view` (the wiring view of `netlist`), then — when no
/// structural rule fired — SCOAP and static implication over
/// `netlist`'s [`Levelized`] view, unconstrained.
fn lint_validated(netlist: &Netlist, view: &LintNetlist) -> LintReport {
    let (mut report, sound) = rules_report(view);
    if !sound {
        return report;
    }
    let lev = Levelized::new(netlist);
    report.scoap = Some(ScoapAnalysis::compute(netlist, &lev, &[]));
    let mut engine = ImplicationEngine::from_levelized(&lev, &[]);
    // Nets the 3-valued stuck-net rule already covers keep that rule;
    // the implication engine reports only what plain constant
    // propagation cannot see.
    let stuck: HashSet<(u32, bool)> = report.stuck_nets.iter().copied().collect();
    let mut redundant_faults = Vec::new();
    for net in 0..netlist.num_nets() {
        for v in [false, true] {
            if stuck.contains(&(net as u32, v)) {
                continue;
            }
            if engine.prove_redundant(ProofSite::Net(lev.new_net(net)), v) {
                redundant_faults.push((net as u32, v));
            }
        }
    }
    // Rules emit in `Rule::ALL` order and `RedundantFault` is last, so
    // appending keeps the report sorted.
    for &(net, v) in &redundant_faults {
        report.diagnostics.push(Diagnostic::new(
            Rule::RedundantFault,
            format!(
                "stuck-at-{} on {} is untestable by static implication",
                v as u8,
                view.net_name(net),
            ),
            Some(net),
        ));
    }
    report.implication = Some(ImplicationReport {
        stats: engine.stats(),
        redundant_faults,
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_netlist::scan::insert_scan;
    use rescue_netlist::{GateKind, NetId, NetlistBuilder};
    use rescue_obs::SplitMix64;

    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new();
        b.enter_component("lc");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.and2(a, c);
        let q = b.dff(x, "r0");
        let y = b.xor2(q, a);
        let q1 = b.dff(y, "r1");
        b.output(q1, "o");
        b.finish().unwrap()
    }

    #[test]
    fn valid_netlists_lint_clean() {
        let n = sample();
        let r = lint_netlist(&n);
        assert_eq!(r.count(Severity::Error), 0, "{}", r.render_text("pre", 50));
        assert!(r.scoap.is_some());

        let s = insert_scan(&n).unwrap();
        let rs = lint_scan(&s);
        assert_eq!(
            rs.count(Severity::Error),
            0,
            "{}",
            rs.render_text("scan", 50)
        );
    }

    #[test]
    fn seeded_redundancy_count_is_exact() {
        // y = (a AND ¬a) OR b: the AND cone is redundant logic that
        // 3-valued constant propagation cannot see (both AND inputs
        // unknown), so stuck-net stays silent and the implication
        // engine must carry the proof alone. Exactly two faults are
        // provable: x sa0 (x = a AND ¬a is a learned constant 0) and
        // ¬a sa0 (its only fanout is the AND, blocked by the side
        // input a forced to the controlling value 0).
        let mut b = NetlistBuilder::new();
        b.enter_component("lc");
        let a = b.input("a");
        let c = b.input("b");
        let na = b.not(a);
        let x = b.and2(a, na);
        let y = b.or2(x, c);
        b.output(y, "y");
        let n = b.finish().unwrap();
        let r = lint_netlist(&n);
        assert!(r.stuck_nets.is_empty(), "3-valued rule must not see x");
        assert_eq!(r.count_rule(Rule::StuckNet), 0);
        assert_eq!(r.count_rule(Rule::RedundantFault), 2);
        let imp = r.implication.as_ref().unwrap();
        assert_eq!(
            imp.redundant_faults,
            vec![(na.index() as u32, false), (x.index() as u32, false)]
        );
        // The report stays a warning, not an error.
        assert_eq!(r.count(Severity::Error), 0);
        // JSON carries the impl section with the exact count.
        let v = rescue_obs::json::parse(&r.to_json("seeded")).unwrap();
        let imp_json = v.get("impl").unwrap();
        assert_eq!(
            imp_json.get("redundant_faults").unwrap().as_int().unwrap(),
            2
        );
        assert!(
            imp_json
                .get("direct_implications")
                .unwrap()
                .as_int()
                .unwrap()
                > 0
        );
    }

    /// Seeded random netlist rich in constants and repeated pins: gates
    /// draw their pins from the few most recent nets and often repeat
    /// the first pin, so both const-fed cones and same-net XORs appear.
    fn random_netlist(seed: u64) -> Netlist {
        const KINDS: [GateKind; 9] = [
            GateKind::Buf,
            GateKind::Not,
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Mux,
        ];
        let mut rng = SplitMix64::new(seed);
        let mut b = NetlistBuilder::new();
        b.enter_component("lc");
        let mut nets: Vec<NetId> = (0..3).map(|i| b.input(&format!("i{i}"))).collect();
        let (q, state) = b.dff_feedback("r");
        nets.push(q);
        nets.push(b.const0());
        nets.push(b.const1());
        for _ in 0..24 {
            let kind = KINDS[rng.below(KINDS.len())];
            let arity = match kind {
                GateKind::Buf | GateKind::Not => 1,
                GateKind::Mux => 3,
                _ => 2 + rng.below(3),
            };
            let recent = |rng: &mut SplitMix64| nets[nets.len() - 1 - rng.below(nets.len().min(5))];
            let first = recent(&mut rng);
            let pins: Vec<NetId> = (0..arity)
                .map(|p| {
                    if p == 0 || rng.next_bool() {
                        first
                    } else {
                        recent(&mut rng)
                    }
                })
                .collect();
            nets.push(b.gate(kind, &pins));
        }
        let last = nets[nets.len() - 1];
        b.connect_dff(state, last);
        b.output(last, "o");
        b.output(nets[nets.len() / 2], "m");
        b.finish().unwrap()
    }

    #[test]
    fn every_stuck_net_is_a_constant_the_engine_learned() {
        // The stuck-net rule and the implication engine share one
        // 3-valued evaluator and one wiring identity, and the engine
        // learns more on top, so every rule constant must be an engine
        // constant. The fixture's 4-pin XOR over one net is constant
        // only by its wiring.
        let mut b = NetlistBuilder::new();
        b.enter_component("lc");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.xor(&[a, a, a, a]);
        let y = b.or2(x, c);
        b.output(y, "y");
        let fixture = b.finish().unwrap();
        let fixture_report = lint_netlist(&fixture);
        assert_eq!(fixture_report.stuck_nets, vec![(x.index() as u32, false)]);

        let mut checked = 0;
        let designs = (0..64).map(random_netlist).chain([fixture]);
        for (i, n) in designs.enumerate() {
            let report = lint_netlist(&n);
            let lev = Levelized::new(&n);
            let engine = ImplicationEngine::from_levelized(&lev, &[]);
            for &(net, v) in &report.stuck_nets {
                assert_eq!(
                    engine.net_constant(lev.new_net(net as usize)),
                    Some(v),
                    "design {i}: rule proves net {net} constant {} but the engine does not",
                    u8::from(v),
                );
                checked += 1;
            }
        }
        assert!(checked > 64, "random designs should carry constants");
    }

    #[test]
    fn scan_insertion_preserves_scoap_functional_observability() {
        // Scan makes state a pseudo-port in both views, so the
        // functional nets' controllability must not get worse.
        let n = sample();
        let pre = lint_netlist(&n);
        let post = lint_scan(&insert_scan(&n).unwrap());
        let s_pre = pre.scoap.unwrap();
        let s_post = post.scoap.unwrap();
        for net in 0..n.num_nets() {
            assert!(s_post.cc0[net] <= s_pre.cc0[net]);
            assert!(s_post.cc1[net] <= s_pre.cc1[net]);
        }
    }
}
