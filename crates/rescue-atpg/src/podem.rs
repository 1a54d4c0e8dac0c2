//! PODEM test generation over the combinational capture view of a scanned
//! circuit.
//!
//! The capture view treats primary inputs and flip-flop outputs as free
//! variables (the tester controls both: pins directly, state through the
//! scan chain), and primary outputs plus flip-flop D inputs as observation
//! points (pins directly, captured state through scan-out). Pin
//! constraints model test-mode wiring — `scan_enable` is held at 0 during
//! capture.
//!
//! [`Podem::generate`] is a pure function of (netlist, constraints,
//! fault, backtrack budget), and the search reads the budget only at
//! its abort check. [`PodemMemo`] keeps one outcome per fault on that
//! basis and serves it again wherever the budget rule
//! ([`PodemMemo`]'s docs) says a fresh search would return the same
//! outcome with the same counts; [`Podem::generate_memoized`] replays
//! a hit into [`PodemStats`] exactly as the search would have recorded
//! it.

use rescue_netlist::threeval::{controlling_value, eval_gate_v3, V3};
use rescue_netlist::{Driver, Fault, FaultSite, GateKind, Levelized, NetId, Netlist};
use rescue_obs::metrics::{Counter, Histogram};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Tuning knobs for PODEM.
#[derive(Clone, Copy, Debug)]
pub struct PodemConfig {
    /// Abort a fault after this many backtracks.
    pub max_backtracks: usize,
}

impl Default for PodemConfig {
    fn default() -> Self {
        PodemConfig {
            max_backtracks: 300,
        }
    }
}

/// A generated test cube: required values for primary inputs and scanned
/// state; `X` entries are don't-cares free for random fill.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TestCube {
    /// One value per primary input.
    pub inputs: Vec<V3>,
    /// One value per flip-flop (state to scan in).
    pub state: Vec<V3>,
}

/// Outcome of test generation for one fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PodemResult {
    /// A test was found.
    Test(TestCube),
    /// The fault is provably untestable under the pin constraints
    /// (redundant logic or constrained-off).
    Untestable,
    /// The backtrack limit was exceeded.
    Aborted,
}

/// Live counters for one PODEM engine, aggregated across `generate`
/// calls. Updates are relaxed atomics, so `generate` keeps its `&self`
/// receiver and the counters cost ~1 ns each in the decision loop.
#[derive(Debug, Default)]
pub struct PodemStats {
    /// Faults targeted (total `generate` calls).
    pub faults_targeted: Counter,
    /// Calls that produced a test cube.
    pub tests_found: Counter,
    /// Calls that proved the fault untestable.
    pub untestable: Counter,
    /// Calls that hit the backtrack limit.
    pub aborted: Counter,
    /// Decision-stack pushes (branch decisions taken).
    pub decisions: Counter,
    /// Backtracks across all calls.
    pub backtracks: Counter,
    /// Backtracks per fault (distribution over `generate` calls).
    pub backtracks_per_fault: Histogram,
}

/// PODEM engine bound to one netlist + pin-constraint set.
#[derive(Debug)]
pub struct Podem<'a> {
    netlist: &'a Netlist,
    /// Per primary input: a fixed test-mode value, if constrained.
    constraints: Vec<Option<bool>>,
    /// SCOAP controllability per net under `constraints`
    /// ([`rescue_lint::scoap::controllability`]).
    cc0: Vec<u64>,
    cc1: Vec<u64>,
    config: PodemConfig,
    stats: PodemStats,
}

/// Scratch simulation state for one `generate` call.
struct Machine {
    good: Vec<V3>,
    bad: Vec<V3>,
}

/// The work one search did: what [`PodemStats`] records per call.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    decisions: u64,
    backtracks: u64,
}

impl<'a> Podem<'a> {
    /// Create an engine. `lev` must be `Levelized::new(netlist)`: the
    /// backtrace costs are the shared SCOAP over it. `constraints` has
    /// one entry per primary input (use `None` for free pins).
    pub fn new(
        netlist: &'a Netlist,
        lev: &Levelized,
        constraints: Vec<Option<bool>>,
        config: PodemConfig,
    ) -> Self {
        assert_eq!(constraints.len(), netlist.inputs().len());
        assert_eq!(lev.num_nets(), netlist.num_nets());
        let (cc0, cc1) = rescue_lint::scoap::controllability(lev, &constraints);
        Podem {
            netlist,
            constraints,
            cc0,
            cc1,
            config,
            stats: PodemStats::default(),
        }
    }

    /// Counters aggregated across every `generate` call on this engine.
    pub fn stats(&self) -> &PodemStats {
        &self.stats
    }

    /// Generate a test for `fault`.
    pub fn generate(&self, fault: Fault) -> PodemResult {
        let mut tally = Tally::default();
        let result = self.search(fault, &mut tally);
        self.record(&result, tally);
        result
    }

    /// [`Podem::generate`] through `memo`: a hit returns the stored
    /// outcome and records the stored counts, so both the result and
    /// [`PodemStats`] equal what the search would have produced; a miss
    /// searches and stores the outcome. `memo` must only ever serve
    /// engines built over this netlist with these constraints.
    pub fn generate_memoized(&self, fault: Fault, memo: &PodemMemo) -> PodemResult {
        let budget = self.config.max_backtracks;
        if let Some((result, tally)) = memo.lookup(self.netlist, fault, budget) {
            self.record(&result, tally);
            return result;
        }
        let mut tally = Tally::default();
        let result = self.search(fault, &mut tally);
        self.record(&result, tally);
        memo.store(fault, &result, tally);
        result
    }

    /// Add one call's outcome and work to the engine counters.
    fn record(&self, result: &PodemResult, tally: Tally) {
        let s = &self.stats;
        s.faults_targeted.inc();
        s.decisions.add(tally.decisions);
        s.backtracks.add(tally.backtracks);
        s.backtracks_per_fault.record(tally.backtracks);
        match result {
            PodemResult::Test(_) => s.tests_found.inc(),
            PodemResult::Untestable => s.untestable.inc(),
            PodemResult::Aborted => s.aborted.inc(),
        }
    }

    fn search(&self, fault: Fault, tally: &mut Tally) -> PodemResult {
        let n = self.netlist;
        let mut m = Machine {
            good: vec![V3::X; n.num_nets()],
            bad: vec![V3::X; n.num_nets()],
        };
        // Decision stack: (net, current value, tried_both).
        let mut stack: Vec<(NetId, bool, bool)> = Vec::new();
        // Current assignments to free-variable nets.
        let mut assign: Vec<V3> = vec![V3::X; n.num_nets()];

        loop {
            self.imply(&mut m, &assign, fault);

            if self.detected(&m) {
                return PodemResult::Test(self.extract_cube(&assign));
            }

            let objective = self.pick_objective(&m, fault);
            let next = match objective {
                Some(obj) => self.backtrace(&m, obj),
                None => None,
            };

            match next {
                Some((net, value)) => {
                    tally.decisions += 1;
                    stack.push((net, value, false));
                    assign[net.index()] = V3::from_bool(value);
                }
                None => {
                    // Dead end: backtrack.
                    loop {
                        match stack.pop() {
                            None => return PodemResult::Untestable,
                            Some((net, v, tried_both)) => {
                                assign[net.index()] = V3::X;
                                if !tried_both {
                                    tally.backtracks += 1;
                                    // The only read of the budget: the
                                    // rule in `MemoEntry::serves`
                                    // depends on it.
                                    if tally.backtracks > self.config.max_backtracks as u64 {
                                        return PodemResult::Aborted;
                                    }
                                    stack.push((net, !v, true));
                                    assign[net.index()] = V3::from_bool(!v);
                                    break;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Forward-imply assignments through the circuit with the fault active
    /// in the bad machine.
    fn imply(&self, m: &mut Machine, assign: &[V3], fault: Fault) {
        let n = self.netlist;
        let stuck = V3::from_bool(fault.stuck_at.is_one());
        // Seed inputs and state.
        for (i, &net) in n.inputs().iter().enumerate() {
            let v = match self.constraints[i] {
                Some(c) => V3::from_bool(c),
                None => assign[net.index()],
            };
            m.good[net.index()] = v;
            m.bad[net.index()] = v;
        }
        for d in n.dffs() {
            let q = d.q();
            m.good[q.index()] = assign[q.index()];
            m.bad[q.index()] = assign[q.index()];
        }
        // Stem fault on an input/state net applies immediately.
        if let FaultSite::Net(site) = fault.site {
            if !matches!(n.net_driver(site), Driver::Gate(_)) {
                m.bad[site.index()] = stuck;
            }
        }
        // Evaluate gates in topological order.
        let mut gbuf: Vec<V3> = Vec::with_capacity(8);
        let mut bbuf: Vec<V3> = Vec::with_capacity(8);
        for &gid in n.topo_order() {
            let gate = n.gate(gid);
            gbuf.clear();
            bbuf.clear();
            for &inp in gate.inputs() {
                gbuf.push(m.good[inp.index()]);
                bbuf.push(m.bad[inp.index()]);
            }
            if let FaultSite::GateInput(fg, pin) = fault.site {
                if fg == gid {
                    bbuf[pin as usize] = stuck;
                }
            }
            let out = gate.output();
            m.good[out.index()] = eval_gate_v3(gate.kind(), &gbuf);
            let mut bv = eval_gate_v3(gate.kind(), &bbuf);
            if fault.site == FaultSite::Net(out) {
                bv = stuck;
            }
            m.bad[out.index()] = bv;
        }
    }

    /// Whether a difference (D or D̄) has reached an observation point.
    fn detected(&self, m: &Machine) -> bool {
        let n = self.netlist;
        let observed = |net: NetId| {
            let g = m.good[net.index()];
            let b = m.bad[net.index()];
            g != V3::X && b != V3::X && g != b
        };
        n.outputs().iter().any(|(_, net)| observed(*net))
            || n.dffs().iter().any(|d| observed(d.d()))
    }

    /// PODEM objective: activate the fault, then advance the D-frontier.
    fn pick_objective(&self, m: &Machine, fault: Fault) -> Option<(NetId, bool)> {
        let n = self.netlist;
        let want_activation = !fault.stuck_at.is_one();
        // Activation net: the node the good machine must drive opposite
        // to the stuck value.
        let act_net = match fault.site {
            FaultSite::Net(net) => net,
            FaultSite::GateInput(g, pin) => n.gate(g).inputs()[pin as usize],
        };
        match m.good[act_net.index()] {
            V3::X => return Some((act_net, want_activation)),
            v => {
                if v.to_bool() != Some(want_activation) {
                    // Good machine drives the stuck value: no difference can
                    // ever exist under the current assignments.
                    return None;
                }
            }
        }

        // D-frontier: gates with a difference on an input and an
        // undetermined output difference. Pick the first; objective is an
        // unassigned input at the gate's non-controlling value.
        for &gid in n.topo_order() {
            let gate = n.gate(gid);
            let out = gate.output();
            let out_g = m.good[out.index()];
            let out_b = m.bad[out.index()];
            let out_diff = out_g != V3::X && out_b != V3::X && out_g != out_b;
            if out_diff {
                continue;
            }
            let mut has_d_input = gate.inputs().iter().any(|&i| {
                let g = m.good[i.index()];
                let b = m.bad[i.index()];
                g != V3::X && b != V3::X && g != b
            });
            // A pin fault creates its difference on the pin itself, which
            // net values cannot show: the faulty gate joins the D-frontier
            // as soon as the good machine drives the pin opposite to the
            // stuck value.
            if let FaultSite::GateInput(fg, pin) = fault.site {
                if fg == gid {
                    let src = gate.inputs()[pin as usize];
                    if m.good[src.index()].to_bool() == Some(want_activation) {
                        has_d_input = true;
                    }
                }
            }
            if !has_d_input {
                continue;
            }
            // Find an X input to sensitize through.
            for (pin, &i) in gate.inputs().iter().enumerate() {
                if m.good[i.index()] == V3::X {
                    let value = match gate.kind() {
                        GateKind::Mux if pin == 0 => {
                            // Select the leg carrying the difference.
                            let a = gate.inputs()[1];
                            let da = m.good[a.index()] != m.bad[a.index()]
                                && m.good[a.index()] != V3::X
                                && m.bad[a.index()] != V3::X;
                            !da
                        }
                        k => match controlling_value(k) {
                            Some(c) => !c,
                            None => false,
                        },
                    };
                    return Some((i, value));
                }
            }
        }
        None
    }

    /// Backtrace an objective to an unassigned free input, picking the
    /// cheaper (SCOAP) branch at each controlled gate.
    fn backtrace(&self, m: &Machine, obj: (NetId, bool)) -> Option<(NetId, bool)> {
        let n = self.netlist;
        let (mut net, mut value) = obj;
        loop {
            match n.net_driver(net) {
                Driver::Input(idx) => {
                    if self.constraints[idx as usize].is_some() {
                        return None; // constrained pin cannot be decided
                    }
                    return Some((net, value));
                }
                Driver::Dff(_) => return Some((net, value)),
                Driver::Gate(g) => {
                    let gate = n.gate(g);
                    let kind = gate.kind();
                    match kind {
                        GateKind::Const0 | GateKind::Const1 => return None,
                        GateKind::Buf => {
                            net = gate.inputs()[0];
                        }
                        GateKind::Not => {
                            net = gate.inputs()[0];
                            value = !value;
                        }
                        GateKind::Mux => {
                            // Prefer steering through the select if free,
                            // else through a free data leg.
                            let sel = gate.inputs()[0];
                            let a = gate.inputs()[1];
                            let b = gate.inputs()[2];
                            match m.good[sel.index()] {
                                V3::Zero => net = a,
                                V3::One => net = b,
                                V3::X => {
                                    // Choose the leg whose controllability
                                    // for `value` is cheaper, then set the
                                    // select accordingly... backtracing the
                                    // select itself is the decision.
                                    let cost_a = self.cost(a, value);
                                    let cost_b = self.cost(b, value);
                                    let pick_b = cost_b < cost_a;
                                    net = sel;
                                    value = pick_b;
                                }
                            }
                        }
                        GateKind::Xor | GateKind::Xnor => {
                            // Pick the first X input; required value depends
                            // on the others, which may be X — choose the
                            // cheaper polarity.
                            let x_in = gate
                                .inputs()
                                .iter()
                                .copied()
                                .find(|i| m.good[i.index()] == V3::X)?;
                            let v0 = self.cost(x_in, false);
                            let v1 = self.cost(x_in, true);
                            net = x_in;
                            value = v1 < v0;
                        }
                        GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                            let c = controlling_value(kind).expect("controlled gate");
                            let inv = matches!(kind, GateKind::Nand | GateKind::Nor);
                            let needed = if inv { !value } else { value };
                            // needed == c-controlled output (c AND-like -> 0)?
                            // For AND: output 0 needs one input 0 (easy pick);
                            // output 1 needs all inputs 1 (pick hardest X).
                            let want_controlling = needed == c;
                            let xs: Vec<NetId> = gate
                                .inputs()
                                .iter()
                                .copied()
                                .filter(|i| m.good[i.index()] == V3::X)
                                .collect();
                            if xs.is_empty() {
                                return None;
                            }
                            let target = if want_controlling {
                                *xs.iter()
                                    .min_by_key(|&&i| self.cost(i, c))
                                    .expect("nonempty")
                            } else {
                                *xs.iter()
                                    .max_by_key(|&&i| self.cost(i, !c))
                                    .expect("nonempty")
                            };
                            net = target;
                            value = if want_controlling { c } else { !c };
                        }
                    }
                }
            }
        }
    }

    fn cost(&self, net: NetId, value: bool) -> u64 {
        if value {
            self.cc1[net.index()]
        } else {
            self.cc0[net.index()]
        }
    }

    fn extract_cube(&self, assign: &[V3]) -> TestCube {
        let n = self.netlist;
        let inputs = n
            .inputs()
            .iter()
            .enumerate()
            .map(|(i, &net)| match self.constraints[i] {
                Some(c) => V3::from_bool(c),
                None => assign[net.index()],
            })
            .collect();
        let state = n.dffs().iter().map(|d| assign[d.q().index()]).collect();
        TestCube { inputs, state }
    }

    /// The pin constraints this engine applies during capture.
    pub fn constraints(&self) -> &[Option<bool>] {
        &self.constraints
    }
}

/// Shared outcome memo for [`Podem::generate_memoized`]: at most one
/// entry per fault, each holding the verdict, the call's `decisions`
/// and `backtracks`, and for a test the cube's specified positions only
/// (a mean of about 9 of 448 inputs plus flops on the quick Rescue
/// model, 13 of 1392 on the paper-size one).
///
/// **Budget rule.** The search is deterministic and reads
/// `max_backtracks` only at its abort check, so:
///
/// * a `Test` or `Untestable` found after `k` backtracks is what any
///   budget ≥ `k` returns, with the same counts;
/// * an `Aborted` stops at backtrack `budget + 1`, so it is served only
///   at the budget it aborted at (a larger budget searches on, a smaller
///   one stops sooner with other counts).
///
/// A lookup the rule rejects is a miss, and the fresh outcome replaces
/// the entry, so the memo never holds more entries than distinct faults
/// asked about, whatever mix of budgets it sees.
///
/// The memo is `Sync`; concurrent runs may share it. The lock is never
/// held across a search (two racing misses both search and store the
/// same outcome), and a lock poisoned by a panicking holder is
/// recovered: entries are inserted whole, so the map is always
/// consistent.
#[derive(Debug, Default)]
pub struct PodemMemo {
    entries: Mutex<HashMap<Fault, MemoEntry>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

/// One stored [`Podem::generate`] outcome.
#[derive(Debug)]
struct MemoEntry {
    verdict: Verdict,
    tally: Tally,
}

#[derive(Debug)]
enum Verdict {
    /// The cube's specified positions (inputs, then flops) and values.
    Test(Box<[(u32, bool)]>),
    Untestable,
    Aborted,
}

impl MemoEntry {
    fn new(result: &PodemResult, tally: Tally) -> MemoEntry {
        let verdict = match result {
            PodemResult::Test(cube) => Verdict::Test(
                cube.inputs
                    .iter()
                    .chain(&cube.state)
                    .enumerate()
                    // Inputs and flops are distinct nets, and net ids
                    // are `u32`, so a position always fits.
                    .filter_map(|(pos, v)| Some((pos as u32, v.to_bool()?)))
                    .collect(),
            ),
            PodemResult::Untestable => Verdict::Untestable,
            PodemResult::Aborted => Verdict::Aborted,
        };
        MemoEntry { verdict, tally }
    }

    /// Whether a search under `budget` returns exactly this outcome.
    fn serves(&self, budget: usize) -> bool {
        let budget = budget as u64;
        match self.verdict {
            Verdict::Test(_) | Verdict::Untestable => self.tally.backtracks <= budget,
            Verdict::Aborted => self.tally.backtracks - 1 == budget,
        }
    }

    /// The outcome as `generate` returns it on `netlist`.
    fn result(&self, netlist: &Netlist) -> PodemResult {
        match &self.verdict {
            Verdict::Test(specified) => {
                let n_in = netlist.inputs().len();
                let mut inputs = vec![V3::X; n_in];
                let mut state = vec![V3::X; netlist.num_dffs()];
                for &(pos, value) in specified.iter() {
                    let pos = pos as usize;
                    let slot = if pos < n_in {
                        &mut inputs[pos]
                    } else {
                        &mut state[pos - n_in]
                    };
                    *slot = V3::from_bool(value);
                }
                PodemResult::Test(TestCube { inputs, state })
            }
            Verdict::Untestable => PodemResult::Untestable,
            Verdict::Aborted => PodemResult::Aborted,
        }
    }
}

impl PodemMemo {
    /// An empty memo counting its hits and misses on the given
    /// counters (e.g. ones from the [`rescue_obs::metrics`] registry).
    /// [`PodemMemo::default`] counts on private ones.
    pub fn with_counters(hits: Arc<Counter>, misses: Arc<Counter>) -> PodemMemo {
        PodemMemo {
            entries: Mutex::default(),
            hits,
            misses,
        }
    }

    /// Number of faults with a stored outcome.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no outcome is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the memo so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that had to search so far.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<Fault, MemoEntry>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The stored outcome of `fault` and its counts, if the budget rule
    /// lets it stand for a search under `budget`.
    fn lookup(
        &self,
        netlist: &Netlist,
        fault: Fault,
        budget: usize,
    ) -> Option<(PodemResult, Tally)> {
        let hit = self
            .lock()
            .get(&fault)
            .filter(|e| e.serves(budget))
            .map(|e| (e.result(netlist), e.tally));
        match hit {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        hit
    }

    /// Store a fresh outcome, replacing any entry for `fault`.
    fn store(&self, fault: Fault, result: &PodemResult, tally: Tally) {
        let entry = MemoEntry::new(result, tally);
        self.lock().insert(fault, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_netlist::{NetlistBuilder, StuckAt};
    use rescue_obs::SplitMix64;

    /// PODEM over `n` with default limits.
    fn podem(n: &Netlist, constraints: Vec<Option<bool>>) -> Podem<'_> {
        Podem::new(n, &Levelized::new(n), constraints, PodemConfig::default())
    }

    fn and_circuit() -> Netlist {
        let mut b = NetlistBuilder::new();
        b.enter_component("c");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.and2(a, c);
        b.output(x, "o");
        b.finish().unwrap()
    }

    #[test]
    fn generates_test_for_and_sa0() {
        let n = and_circuit();
        let p = podem(&n, vec![None, None]);
        let out_net = n.outputs()[0].1;
        match p.generate(Fault::net(out_net, StuckAt::Zero)) {
            PodemResult::Test(cube) => {
                // Detecting output sa0 requires both inputs at 1.
                assert_eq!(cube.inputs, vec![V3::One, V3::One]);
            }
            other => panic!("expected a test, got {other:?}"),
        }
    }

    #[test]
    fn generates_test_for_pin_fault() {
        let n = and_circuit();
        let p = podem(&n, vec![None, None]);
        let g = rescue_netlist::GateId::from_index(0);
        match p.generate(Fault::pin(g, 0, StuckAt::One)) {
            PodemResult::Test(cube) => {
                // a must be 0 (activate), b must be 1 (propagate).
                assert_eq!(cube.inputs, vec![V3::Zero, V3::One]);
            }
            other => panic!("expected a test, got {other:?}"),
        }
    }

    #[test]
    fn redundant_fault_is_untestable() {
        // x = a AND !a is constant 0; sa0 at x is undetectable.
        let mut b = NetlistBuilder::new();
        b.enter_component("c");
        let a = b.input("a");
        let na = b.not(a);
        let x = b.and2(a, na);
        b.output(x, "o");
        let n = b.finish().unwrap();
        let p = podem(&n, vec![None]);
        let out_net = n.outputs()[0].1;
        assert_eq!(
            p.generate(Fault::net(out_net, StuckAt::Zero)),
            PodemResult::Untestable
        );
        // sa1 IS testable (any input value shows the difference).
        assert!(matches!(
            p.generate(Fault::net(out_net, StuckAt::One)),
            PodemResult::Test(_)
        ));
    }

    #[test]
    fn constrained_pin_blocks_activation() {
        // With b constrained to 0, an AND output sa0 cannot be activated.
        let n = and_circuit();
        let p = podem(&n, vec![None, Some(false)]);
        let out_net = n.outputs()[0].1;
        assert_eq!(
            p.generate(Fault::net(out_net, StuckAt::Zero)),
            PodemResult::Untestable
        );
    }

    #[test]
    fn state_is_controllable_and_observable() {
        // q -> NOT -> d of another flop: test a fault between two flops.
        let mut b = NetlistBuilder::new();
        b.enter_component("c");
        let a = b.input("a");
        let q0 = b.dff(a, "r0");
        let inv = b.not(q0);
        let _q1 = b.dff(inv, "r1");
        let n = b.finish().unwrap();
        let p = podem(&n, vec![None]);
        match p.generate(Fault::net(inv, StuckAt::One)) {
            PodemResult::Test(cube) => {
                // r0 must hold 1 so the inverter output is 0 (difference).
                assert_eq!(cube.state[0], V3::One);
            }
            other => panic!("expected a test, got {other:?}"),
        }
    }

    /// A seeded random DAG over four inputs and the outputs of two
    /// flops, observed at two outputs and a third flop: reconvergent
    /// enough that some searches backtrack and some abort.
    fn random_circuit(seed: u64) -> Netlist {
        let mut rng = SplitMix64::new(seed);
        let mut b = NetlistBuilder::new();
        b.enter_component("c");
        let mut nets: Vec<NetId> = (0..4).map(|i| b.input(&format!("i{i}"))).collect();
        let a = b.input("fb0");
        let c = b.input("fb1");
        nets.push(b.dff(a, "s0"));
        nets.push(b.dff(c, "s1"));
        for _ in 0..40 {
            let mut pick = || nets[rng.below(nets.len())];
            let (x, y, z) = (pick(), pick(), pick());
            let out = match rng.below(6) {
                0 => b.and2(x, y),
                1 => b.or2(x, y),
                2 => b.xor2(x, y),
                3 => b.nand2(x, y),
                4 => b.mux(z, x, y),
                _ => b.not(x),
            };
            nets.push(out);
        }
        let k = nets.len();
        b.output(nets[k - 1], "o0");
        b.output(nets[k - 2], "o1");
        let q = b.dff(nets[k - 3], "s2");
        b.output(q, "o2");
        b.finish().unwrap()
    }

    fn engine(n: &Netlist, max_backtracks: usize) -> Podem<'_> {
        let free = vec![None; n.inputs().len()];
        Podem::new(n, &Levelized::new(n), free, PodemConfig { max_backtracks })
    }

    /// Every counter of `a` equals the same counter of `b`.
    fn same_stats(a: &PodemStats, b: &PodemStats) -> bool {
        let counters = |s: &PodemStats| {
            [
                &s.faults_targeted,
                &s.tests_found,
                &s.untestable,
                &s.aborted,
                &s.decisions,
                &s.backtracks,
            ]
            .map(|c| c.get())
        };
        counters(a) == counters(b)
            && a.backtracks_per_fault.snapshot() == b.backtracks_per_fault.snapshot()
    }

    #[test]
    fn memo_serves_finished_outcomes_at_or_above_k_and_aborts_at_their_own_budget() {
        let (mut finished_after_backtracks, mut aborted) = (0, 0);
        for seed in 1..=8 {
            let n = random_circuit(seed);
            let faults = n.collapse_faults();
            let hits = Arc::new(Counter::new());
            let memo = PodemMemo::with_counters(Arc::clone(&hits), Arc::default());
            // One shared memo across a stream of budgets, each engine
            // checked against a fresh one call for call and counter for
            // counter.
            for budget in [300, 0, 1, 300, 2, 5, 2, 10_000] {
                let fresh = engine(&n, budget);
                let shared = engine(&n, budget);
                for &f in &faults {
                    let want = fresh.generate(f);
                    assert_eq!(shared.generate_memoized(f, &memo), want, "{f} at {budget}");
                    aborted += usize::from(want == PodemResult::Aborted);
                }
                assert!(same_stats(shared.stats(), fresh.stats()), "budget {budget}");
                assert!(memo.len() <= faults.len());
            }

            // The rule fault by fault, from the backtrack count `k` a
            // deep search needs.
            for &f in &faults {
                let deep = engine(&n, 10_000);
                let want = deep.generate(f);
                let k = deep.stats().backtracks.get() as usize;
                if k == 0 || want == PodemResult::Aborted {
                    continue;
                }
                finished_after_backtracks += 1;
                let memo = PodemMemo::with_counters(Arc::clone(&hits), Arc::default());
                let ask = |budget: usize| {
                    let before = hits.get();
                    let got = engine(&n, budget).generate_memoized(f, &memo);
                    (got, hits.get() > before)
                };
                assert_eq!(ask(10_000), (want.clone(), false));
                assert_eq!(
                    ask(k),
                    (want.clone(), true),
                    "finished at {k}, reused at {k}"
                );
                assert_eq!(ask(k - 1), (PodemResult::Aborted, false), "never below k");
                assert_eq!(
                    ask(k - 1),
                    (PodemResult::Aborted, true),
                    "abort at its budget"
                );
                assert_eq!(
                    ask(k),
                    (want.clone(), false),
                    "abort not at a larger budget"
                );
                assert_eq!(memo.len(), 1);
            }
        }
        // The circuits exercise both sides of the rule.
        assert!(finished_after_backtracks > 0 && aborted > 0);
    }

    #[test]
    fn a_poisoned_memo_keeps_serving() {
        let n = and_circuit();
        let p = podem(&n, vec![None, None]);
        let f = Fault::net(n.outputs()[0].1, StuckAt::Zero);
        let hits = Arc::new(Counter::new());
        let memo = PodemMemo::with_counters(Arc::clone(&hits), Arc::default());
        let first = p.generate_memoized(f, &memo);
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _guard = memo.lock();
                panic!("a job panics while holding the memo lock");
            });
            assert!(holder.join().is_err());
        });
        assert!(memo.entries.is_poisoned());
        assert_eq!(p.generate_memoized(f, &memo), first);
        assert_eq!(hits.get(), 1);
        assert_eq!(memo.len(), 1);
    }
}
