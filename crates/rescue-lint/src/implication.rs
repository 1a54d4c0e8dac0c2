//! Static implication engine and FIRE-style fault-independent
//! redundancy identification.
//!
//! The engine works on net/value **literals**: literal `2·net + v`
//! asserts "net carries value `v`". Three layers of knowledge are
//! learned once per circuit, then reused for every fault query:
//!
//! 1. **Direct implications** from gate semantics — e.g. for
//!    `o = AND(a, b)`, `o=1 ⇒ a=1` and `a=0 ⇒ o=0`. Edges are emitted
//!    in contrapositive-closed pairs, so the contrapositive law holds
//!    by construction on the edge set.
//! 2. **Constants** from 3-valued propagation under pin constraints
//!    (the ATPG capture view pins `scan_enable = 0`), which also
//!    *strengthen* the edge set: a mux whose select is constant
//!    degenerates to a buffer, an AND with every other input constant
//!    non-controlling becomes a buffer, and so on.
//! 3. **Indirect implications** via bounded failed-literal probing:
//!    when the implication closure of a literal is contradictory, its
//!    complement is a learned constant (the contrapositive law applied
//!    to derived chains). Learned constants re-enter step 2 until a
//!    fixed point.
//!
//! On top sits **FIRE**-style redundancy identification (fault
//! independent, in the sense that no test generation runs): a
//! stuck-at-`v` fault is proven untestable when either
//!
//! * **excitation** is impossible — the closure of "site = ¬v" is
//!   self-contradictory or conflicts with a learned constant — or
//! * **propagation** is blocked — sweeping the potential
//!   difference-cone forward, every path is stopped by a side input
//!   that the excitation closure (valid in both the good and the
//!   faulty machine, since side nets are outside the cone) forces to
//!   the gate's controlling value, before any observation point is
//!   reached.
//!
//! Both checks are conservative: `true` is a proof of redundancy,
//! `false` just means "not proven". The fuzz harness's `redundancy`
//! oracle cross-checks every proof against PODEM.

use rescue_netlist::threeval::{eval_gate_v3, wired_constant, V3};
use rescue_netlist::{Fault, FaultSite, GateKind, Levelized};
use std::collections::VecDeque;

/// Cap on literals visited per failed-literal probe. Keeps the global
/// learning pass linear in circuit size; anything learned under the cap
/// is sound, and deeper contradictions are still caught per fault by
/// the (uncapped) excitation closure.
const PROBE_CAP: usize = 128;

/// Cap on failed-literal / constant-strengthening rounds.
const PROBE_ROUNDS: usize = 4;

/// Cap on gates visited per reconvergence probe of one fanout stem.
const RECONV_CAP: usize = 512;

/// Aggregate statistics of the learned implication database, reported
/// beside SCOAP in lint output and bench rows (`lint.*.impl.*`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ImplicationStats {
    /// Literals in the universe (2 per net).
    pub literals: u64,
    /// Direct implication edges after constant strengthening.
    pub direct_implications: u64,
    /// Nets proven constant (pin constraints, 3-valued propagation,
    /// and failed-literal learning combined).
    pub constant_literals: u64,
    /// Failed-literal rounds run to reach the fixed point (≥ 1).
    pub probe_rounds: u64,
    /// Nets feeding two or more gate pins (fanout stems).
    pub stems: u64,
    /// Stems whose forward branches meet again at some gate within the
    /// probe cap — the structures that make test generation hard.
    pub reconvergent_stems: u64,
}

/// Where a fault sits, in the engine's own net/gate index space: the
/// [`Levelized`] internal (level-order) net numbering and packed gate
/// positions. Translate original ids with [`Levelized::new_net`] /
/// [`Levelized::pos_of`], or use
/// [`ImplicationEngine::prove_fault_levelized`] to map a
/// [`rescue_netlist::Fault`] directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProofSite {
    /// Stem fault on a net.
    Net(usize),
    /// Branch fault on one input pin of a gate.
    Pin {
        /// Engine gate index (packed position for the levelized view).
        gate: usize,
        /// Pin index within the gate.
        pin: usize,
    },
}

/// The learned implication database plus reusable proof scratch.
///
/// Construction is the expensive part (edge building and failed-literal
/// probing); each [`ImplicationEngine::prove_redundant`] call
/// afterwards is a bounded graph walk with no allocation.
pub struct ImplicationEngine {
    num_nets: usize,
    // Gates in topological order, CSR over input nets.
    kinds: Vec<GateKind>,
    gate_in_offsets: Vec<u32>,
    gate_ins: Vec<u32>,
    gate_out: Vec<u32>,
    // Per net: gate indices reading it (CSR).
    fan_offsets: Vec<u32>,
    fan_gates: Vec<u32>,
    /// Observation points: nets feeding a primary output or a state
    /// element's D input.
    obs: Vec<bool>,
    /// Learned constants per net.
    constv: Vec<Option<bool>>,
    // Implication edges, CSR over literals (2·net + value).
    edge_offsets: Vec<u32>,
    edges: Vec<u32>,
    probe_rounds: u64,
    stat_stems: u64,
    stat_reconv: u64,
    // ---- reusable scratch (cleared via touched lists) ----
    lit_seen: Vec<bool>,
    lit_touched: Vec<u32>,
    lit_stack: Vec<u32>,
    diff: Vec<bool>,
    diff_touched: Vec<u32>,
    gate_queue: VecDeque<u32>,
}

#[inline]
fn lit(net: usize, v: bool) -> usize {
    2 * net + v as usize
}

impl ImplicationEngine {
    /// Build the engine over a [`Levelized`] combinational frame with
    /// per-primary-input pin constraints (index-aligned with the
    /// netlist's input declaration order, as produced by
    /// `Atpg::capture_constraints`; `&[]` is the unconstrained view
    /// lint uses). Observation points are primary outputs and flip-flop
    /// D inputs.
    pub fn from_levelized(lev: &Levelized, constraints: &[Option<bool>]) -> ImplicationEngine {
        let _prof = rescue_obs::profile::scope("implication.build");
        let num_nets = lev.num_nets();
        let n_gates = lev.num_gates();
        let mut kinds = Vec::with_capacity(n_gates);
        let mut gate_in_offsets = Vec::with_capacity(n_gates + 1);
        let mut gate_ins = Vec::new();
        let mut gate_out = Vec::with_capacity(n_gates);
        gate_in_offsets.push(0u32);
        for pos in 0..n_gates as u32 {
            kinds.push(lev.kind(pos));
            gate_ins.extend_from_slice(lev.inputs(pos));
            gate_in_offsets.push(gate_ins.len() as u32);
            gate_out.push(lev.out_net(pos));
        }
        let obs = (0..num_nets)
            .map(|ni| !lev.fanout_outputs(ni).is_empty() || !lev.fanout_dffs(ni).is_empty())
            .collect();
        let mut constv = vec![None; num_nets];
        for (c, &ni) in constraints.iter().zip(lev.input_nets()) {
            constv[ni as usize] = *c;
        }
        // Fanout CSR: count, prefix-sum, fill.
        let mut fan_offsets = vec![0u32; num_nets + 1];
        for &n in &gate_ins {
            fan_offsets[n as usize + 1] += 1;
        }
        for i in 0..num_nets {
            fan_offsets[i + 1] += fan_offsets[i];
        }
        let mut cursor = fan_offsets.clone();
        let mut fan_gates = vec![0u32; gate_ins.len()];
        for gi in 0..n_gates {
            let (a, b) = (
                gate_in_offsets[gi] as usize,
                gate_in_offsets[gi + 1] as usize,
            );
            for &n in &gate_ins[a..b] {
                let c = &mut cursor[n as usize];
                fan_gates[*c as usize] = gi as u32;
                *c += 1;
            }
        }
        let mut eng = ImplicationEngine {
            num_nets,
            kinds,
            gate_in_offsets,
            gate_ins,
            gate_out,
            fan_offsets,
            fan_gates,
            obs,
            constv,
            edge_offsets: Vec::new(),
            edges: Vec::new(),
            probe_rounds: 0,
            stat_stems: 0,
            stat_reconv: 0,
            lit_seen: vec![false; 2 * num_nets],
            lit_touched: Vec::new(),
            lit_stack: Vec::new(),
            diff: vec![false; num_nets],
            diff_touched: Vec::new(),
            gate_queue: VecDeque::new(),
        };
        eng.learn();
        eng
    }

    #[inline]
    fn ins(&self, gi: usize) -> &[u32] {
        &self.gate_ins[self.gate_in_offsets[gi] as usize..self.gate_in_offsets[gi + 1] as usize]
    }

    #[inline]
    fn fanout(&self, ni: usize) -> &[u32] {
        &self.fan_gates[self.fan_offsets[ni] as usize..self.fan_offsets[ni + 1] as usize]
    }

    /// Propagate constants to a forward fixed point (gates are already
    /// in topological order, so each round is one pass; learned
    /// constants injected between rounds re-trigger it). A gate's output
    /// is constant when its wiring fixes it or when 3-valued evaluation
    /// over the current constants does.
    fn propagate_constants(&mut self) {
        let mut pins: Vec<V3> = Vec::new();
        loop {
            let mut changed = false;
            for gi in 0..self.kinds.len() {
                let out = self.gate_out[gi] as usize;
                if self.constv[out].is_some() {
                    continue;
                }
                let (kind, ins) = (self.kinds[gi], self.ins(gi));
                pins.clear();
                pins.extend(ins.iter().map(|&n| V3::from(self.constv[n as usize])));
                let v = wired_constant(kind, ins).or_else(|| eval_gate_v3(kind, &pins).to_bool());
                if v.is_some() {
                    self.constv[out] = v;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// (Re)build the direct-implication CSR under the current
    /// constants. Every edge is emitted with its contrapositive, so the
    /// edge relation is contrapositive-closed by construction.
    fn build_edges(&mut self) {
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        fn both(pairs: &mut Vec<(u32, u32)>, from: usize, to: usize) {
            pairs.push((from as u32, to as u32));
            pairs.push(((to ^ 1) as u32, (from ^ 1) as u32));
        }
        // Buffer-like equivalence o = i ^ invert: 4 edges.
        fn buf_pair(pairs: &mut Vec<(u32, u32)>, o: usize, i: usize, invert: bool) {
            for v in [false, true] {
                both(pairs, lit(i, v), lit(o, v ^ invert));
            }
        }
        for gi in 0..self.kinds.len() {
            let o = self.gate_out[gi] as usize;
            if self.constv[o].is_some() {
                continue; // literals on a constant net are settled
            }
            let ins = self.ins(gi);
            match self.kinds[gi] {
                GateKind::Const0 | GateKind::Const1 => {}
                GateKind::Buf => buf_pair(&mut pairs, o, ins[0] as usize, false),
                GateKind::Not => buf_pair(&mut pairs, o, ins[0] as usize, true),
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    let (ctrl, invert) = match self.kinds[gi] {
                        GateKind::And => (false, false),
                        GateKind::Nand => (false, true),
                        GateKind::Or => (true, false),
                        _ => (true, true),
                    };
                    // A constant controlling input would have made the
                    // output constant, so the surviving constants are
                    // all non-controlling and drop out of the function.
                    let mut unknown: Vec<usize> = Vec::with_capacity(ins.len());
                    for &n in ins {
                        if self.constv[n as usize].is_none() && !unknown.contains(&(n as usize)) {
                            unknown.push(n as usize);
                        }
                    }
                    if unknown.len() == 1 {
                        buf_pair(&mut pairs, o, unknown[0], invert);
                    } else {
                        for &x in &unknown {
                            both(&mut pairs, lit(x, ctrl), lit(o, ctrl ^ invert));
                        }
                    }
                }
                GateKind::Xor | GateKind::Xnor => {
                    let invert = matches!(self.kinds[gi], GateKind::Xnor);
                    let mut parity = invert;
                    let mut unknown: Vec<usize> = Vec::new();
                    for &n in ins {
                        match self.constv[n as usize] {
                            Some(v) => parity ^= v,
                            None => unknown.push(n as usize),
                        }
                    }
                    if unknown.len() == 1 {
                        buf_pair(&mut pairs, o, unknown[0], parity);
                    }
                }
                GateKind::Mux => {
                    let (s, a, b) = (ins[0] as usize, ins[1] as usize, ins[2] as usize);
                    match self.constv[s] {
                        Some(false) => buf_pair(&mut pairs, o, a, false),
                        Some(true) => buf_pair(&mut pairs, o, b, false),
                        None if a == b => buf_pair(&mut pairs, o, a, false),
                        None => match (self.constv[a], self.constv[b]) {
                            // Legs constant and distinct: o = sel or ¬sel.
                            (Some(va), Some(vb)) if va != vb => {
                                buf_pair(&mut pairs, o, s, va);
                            }
                            // One leg constant: o ≠ va forces the other
                            // leg selected and equal to o.
                            (Some(va), None) => {
                                both(&mut pairs, lit(o, !va), lit(s, true));
                                both(&mut pairs, lit(o, !va), lit(b, !va));
                            }
                            (None, Some(vb)) => {
                                both(&mut pairs, lit(o, !vb), lit(s, false));
                                both(&mut pairs, lit(o, !vb), lit(a, !vb));
                            }
                            _ => {}
                        },
                    }
                }
            }
        }
        // CSR by source literal, preserving emission order per literal.
        let nlits = 2 * self.num_nets;
        let mut offsets = vec![0u32; nlits + 1];
        for &(f, _) in &pairs {
            offsets[f as usize + 1] += 1;
        }
        for i in 0..nlits {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut edges = vec![0u32; pairs.len()];
        for &(f, t) in &pairs {
            let c = &mut cursor[f as usize];
            edges[*c as usize] = t;
            *c += 1;
        }
        self.edge_offsets = offsets;
        self.edges = edges;
    }

    /// Bounded DFS from `l0`: true when the closure is contradictory
    /// (implies both polarities of some net, or conflicts with a
    /// constant) within `cap` visited literals. Scratch is cleared on
    /// exit.
    fn probe_fails(&mut self, l0: usize, cap: usize) -> bool {
        let mut contradicted = false;
        self.lit_stack.clear();
        self.lit_stack.push(l0 as u32);
        self.lit_seen[l0] = true;
        self.lit_touched.push(l0 as u32);
        let mut visited = 1usize;
        'walk: while let Some(l) = self.lit_stack.pop() {
            let l = l as usize;
            let (a, b) = (
                self.edge_offsets[l] as usize,
                self.edge_offsets[l + 1] as usize,
            );
            for i in a..b {
                let m = self.edges[i] as usize;
                if self.lit_seen[m] {
                    continue;
                }
                if self.lit_seen[m ^ 1] || self.constv[m >> 1] == Some(m & 1 == 0) {
                    contradicted = true;
                    break 'walk;
                }
                self.lit_seen[m] = true;
                self.lit_touched.push(m as u32);
                self.lit_stack.push(m as u32);
                visited += 1;
                if visited >= cap {
                    break 'walk;
                }
            }
        }
        for &t in &self.lit_touched {
            self.lit_seen[t as usize] = false;
        }
        self.lit_touched.clear();
        self.lit_stack.clear();
        contradicted
    }

    /// Constant propagation → edge building → failed-literal learning,
    /// iterated to a (bounded) fixed point.
    fn learn(&mut self) {
        self.propagate_constants();
        self.build_edges();
        for round in 0..PROBE_ROUNDS {
            self.probe_rounds = round as u64 + 1;
            let mut learned = false;
            for net in 0..self.num_nets {
                for v in [false, true] {
                    if self.constv[net].is_none() && self.probe_fails(lit(net, v), PROBE_CAP) {
                        self.constv[net] = Some(!v);
                        learned = true;
                    }
                }
            }
            if !learned {
                break;
            }
            self.propagate_constants();
            self.build_edges();
        }
        self.compute_stem_stats();
    }

    /// Forward branch labelling from every fanout stem: a stem is
    /// reconvergent when two distinct branches meet at a gate within
    /// [`RECONV_CAP`] visited gates.
    fn compute_stem_stats(&mut self) {
        let mut gmask = vec![0u32; self.kinds.len()];
        let mut touched: Vec<u32> = Vec::new();
        let mut queue: VecDeque<u32> = VecDeque::new();
        let mut stems = 0u64;
        let mut reconv = 0u64;
        for ni in 0..self.num_nets {
            let fan = self.fanout(ni);
            if fan.len() < 2 {
                continue;
            }
            stems += 1;
            queue.clear();
            for (branch, &gi) in fan.iter().enumerate().take(32) {
                let m = &mut gmask[gi as usize];
                if *m == 0 {
                    touched.push(gi);
                }
                *m |= 1u32 << branch;
                queue.push_back(gi);
            }
            let mut hit = false;
            let mut visited = 0usize;
            while let Some(gi) = queue.pop_front() {
                visited += 1;
                let mask = gmask[gi as usize];
                if mask.count_ones() >= 2 {
                    hit = true;
                    break;
                }
                if visited > RECONV_CAP {
                    break;
                }
                let out = self.gate_out[gi as usize] as usize;
                for &succ in self.fanout(out) {
                    let m = &mut gmask[succ as usize];
                    if *m == 0 {
                        touched.push(succ);
                    }
                    if *m | mask != *m {
                        *m |= mask;
                        queue.push_back(succ);
                    }
                }
            }
            if !hit {
                hit = touched.iter().any(|&g| gmask[g as usize].count_ones() >= 2);
            }
            if hit {
                reconv += 1;
            }
            for &g in &touched {
                gmask[g as usize] = 0;
            }
            touched.clear();
        }
        self.stat_stems = stems;
        self.stat_reconv = reconv;
    }

    /// The learned constant on a net, if any (engine net space).
    pub fn net_constant(&self, net: usize) -> Option<bool> {
        self.constv.get(net).copied().flatten()
    }

    /// Database statistics for reports.
    pub fn stats(&self) -> ImplicationStats {
        ImplicationStats {
            literals: 2 * self.num_nets as u64,
            direct_implications: self.edges.len() as u64,
            constant_literals: self.constv.iter().filter(|c| c.is_some()).count() as u64,
            probe_rounds: self.probe_rounds,
            stems: self.stat_stems,
            reconvergent_stems: self.stat_reconv,
        }
    }

    /// Map a [`Fault`] on the original netlist into this engine's index
    /// space (the engine must have been built from the same
    /// [`Levelized`]) and try to prove it redundant.
    pub fn prove_fault_levelized(&mut self, lev: &Levelized, fault: Fault) -> bool {
        let v = fault.stuck_at.is_one();
        match fault.site {
            FaultSite::Net(n) => self.prove_redundant(ProofSite::Net(lev.new_net(n.index())), v),
            FaultSite::GateInput(g, pin) => self.prove_redundant(
                ProofSite::Pin {
                    gate: lev.pos_of(g) as usize,
                    pin: pin as usize,
                },
                v,
            ),
        }
    }

    /// Try to prove the stuck-at-`stuck_at_one` fault at `site`
    /// redundant (untestable). `true` is a proof; `false` means "not
    /// proven" — never "testable".
    pub fn prove_redundant(&mut self, site: ProofSite, stuck_at_one: bool) -> bool {
        let _prof = rescue_obs::profile::scope("implication.prove");
        let n = match site {
            ProofSite::Net(n) => n,
            ProofSite::Pin { gate, pin } => {
                let Some(&n) = self.kinds.get(gate).and_then(|_| self.ins(gate).get(pin)) else {
                    return false;
                };
                n as usize
            }
        };
        if n >= self.num_nets {
            return false;
        }
        // Excitation: the good machine must drive the site to ¬v.
        if self.constv[n] == Some(stuck_at_one) {
            return true;
        }
        if self.closure_contradicts(lit(n, !stuck_at_one)) {
            self.clear_closure();
            return true;
        }
        // Propagation: grow the potential difference cone; every net
        // outside it carries its good value in both machines, so
        // closure/constant forcings on side inputs block soundly.
        let blocked = self.propagation_blocked(site);
        self.clear_closure();
        blocked
    }

    /// Full (uncapped) closure walk from `l0`, leaving the closure
    /// marked in `lit_seen` for the propagation phase. Returns true on
    /// contradiction.
    fn closure_contradicts(&mut self, l0: usize) -> bool {
        debug_assert!(self.lit_touched.is_empty());
        self.lit_stack.clear();
        self.lit_stack.push(l0 as u32);
        self.lit_seen[l0] = true;
        self.lit_touched.push(l0 as u32);
        while let Some(l) = self.lit_stack.pop() {
            let l = l as usize;
            let (a, b) = (
                self.edge_offsets[l] as usize,
                self.edge_offsets[l + 1] as usize,
            );
            for i in a..b {
                let m = self.edges[i] as usize;
                if self.lit_seen[m] {
                    continue;
                }
                if self.lit_seen[m ^ 1] || self.constv[m >> 1] == Some(m & 1 == 0) {
                    return true;
                }
                self.lit_seen[m] = true;
                self.lit_touched.push(m as u32);
                self.lit_stack.push(m as u32);
            }
        }
        false
    }

    fn clear_closure(&mut self) {
        for &t in &self.lit_touched {
            self.lit_seen[t as usize] = false;
        }
        self.lit_touched.clear();
        self.lit_stack.clear();
    }

    /// The value a net is forced to in both machines, as far as the
    /// current excitation closure plus constants know. Only meaningful
    /// for nets outside the difference cone.
    #[inline]
    fn forced(&self, net: usize) -> Option<bool> {
        if self.lit_seen[lit(net, false)] {
            Some(false)
        } else if self.lit_seen[lit(net, true)] {
            Some(true)
        } else {
            self.constv[net]
        }
    }

    /// Can the fault effect pass gate `gi`? `is_diff(pin)` marks the
    /// pins carrying a potential difference.
    fn gate_passes(&self, gi: usize, is_diff: impl Fn(usize) -> bool) -> bool {
        let ins = self.ins(gi);
        match self.kinds[gi] {
            GateKind::Const0 | GateKind::Const1 => false,
            GateKind::Buf | GateKind::Not | GateKind::Xor | GateKind::Xnor => true,
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                let ctrl = matches!(self.kinds[gi], GateKind::Or | GateKind::Nor);
                // A side input forced to the controlling value pins the
                // output in both machines.
                !ins.iter()
                    .enumerate()
                    .any(|(p, &s)| !is_diff(p) && self.forced(s as usize) == Some(ctrl))
            }
            GateKind::Mux => {
                let (s, a, b) = (ins[0] as usize, ins[1] as usize, ins[2] as usize);
                let (sd, ad, bd) = (is_diff(0), is_diff(1), is_diff(2));
                if !sd {
                    match self.forced(s) {
                        Some(false) => ad,
                        Some(true) => bd,
                        None => true,
                    }
                } else if !ad && !bd {
                    // Difference only on select: both legs forced to
                    // the same known value pin the output.
                    !matches!(
                        (self.forced(a), self.forced(b)),
                        (Some(x), Some(y)) if x == y
                    )
                } else {
                    true
                }
            }
        }
    }

    /// Forward difference-cone sweep. Returns true when no observation
    /// point is reachable (propagation provably blocked). Relies on the
    /// excitation closure still being marked; clears its own scratch.
    fn propagation_blocked(&mut self, site: ProofSite) -> bool {
        debug_assert!(self.diff_touched.is_empty());
        self.gate_queue.clear();
        let mut observed = false;
        match site {
            ProofSite::Net(n) => self.mark_diff(n, &mut observed),
            ProofSite::Pin { gate, pin } => {
                if self.gate_passes(gate, |p| p == pin) {
                    let out = self.gate_out[gate] as usize;
                    self.mark_diff(out, &mut observed);
                }
            }
        }
        while !observed {
            let Some(gi) = self.gate_queue.pop_front() else {
                break;
            };
            let gi = gi as usize;
            let out = self.gate_out[gi] as usize;
            if self.diff[out] {
                continue;
            }
            let range = self.gate_in_offsets[gi] as usize..self.gate_in_offsets[gi + 1] as usize;
            let passes = {
                let gate_ins = &self.gate_ins[range];
                let diff = &self.diff;
                self.gate_passes(gi, |p| diff[gate_ins[p] as usize])
            };
            if passes {
                self.mark_diff(out, &mut observed);
            }
        }
        for &t in &self.diff_touched {
            self.diff[t as usize] = false;
        }
        self.diff_touched.clear();
        self.gate_queue.clear();
        !observed
    }

    fn mark_diff(&mut self, net: usize, observed: &mut bool) {
        if self.diff[net] {
            return;
        }
        self.diff[net] = true;
        self.diff_touched.push(net as u32);
        if self.obs[net] {
            *observed = true;
            return;
        }
        let (a, b) = (
            self.fan_offsets[net] as usize,
            self.fan_offsets[net + 1] as usize,
        );
        for i in a..b {
            let g = self.fan_gates[i];
            self.gate_queue.push_back(g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_netlist::{NetlistBuilder, StuckAt};

    /// `x = a AND ¬a` feeding an OR so `x` itself is not a primary
    /// output: `x` is constant 0, provable only through implications
    /// (3-valued simulation sees both AND inputs unknown).
    fn conflict_netlist() -> rescue_netlist::Netlist {
        let mut bld = NetlistBuilder::new();
        bld.enter_component("lc");
        let a = bld.input("a");
        let b = bld.input("b");
        let na = bld.not(a);
        let x = bld.and2(a, na);
        let y = bld.or2(x, b);
        bld.output(y, "y");
        bld.finish().unwrap()
    }

    #[test]
    fn learns_conflict_constant_and_proves_sa0_redundant() {
        let n = conflict_netlist();
        let lev = Levelized::new(&n);
        let constraints = vec![None; 2];
        let mut eng = ImplicationEngine::from_levelized(&lev, &constraints);
        let x = lev.new_net(3); // nets: a=0, b=1, na=2, x=3, y=4
        assert_eq!(eng.net_constant(x), Some(false), "x = a AND ¬a is 0");
        // sa0 at x: excitation needs x = 1, impossible.
        assert!(eng.prove_redundant(ProofSite::Net(x), false));
        // sa1 at x: excitation trivial, propagates through the OR to y.
        assert!(!eng.prove_redundant(ProofSite::Net(x), true));
        // Faults on a still reach y (the AND passes: both pins diff).
        let a = lev.new_net(0);
        assert!(!eng.prove_redundant(ProofSite::Net(a), false));
        assert!(!eng.prove_redundant(ProofSite::Net(a), true));
    }

    #[test]
    fn constrained_pin_blocks_propagation() {
        // g = a AND en, en pinned to 0 by constraints: every fault on
        // `a` is unobservable; with en free they are all testable.
        let mut bld = NetlistBuilder::new();
        bld.enter_component("lc");
        let a = bld.input("a");
        let en = bld.input("en");
        let g = bld.and2(a, en);
        bld.output(g, "g");
        let n = bld.finish().unwrap();
        let lev = Levelized::new(&n);

        let mut pinned = ImplicationEngine::from_levelized(&lev, &[None, Some(false)]);
        let a_net = lev.new_net(0);
        assert!(pinned.prove_redundant(ProofSite::Net(a_net), false));
        assert!(pinned.prove_redundant(ProofSite::Net(a_net), true));
        // The AND output itself is constant 0: sa0 unexcitable.
        let g_net = lev.new_net(2);
        assert!(pinned.prove_redundant(ProofSite::Net(g_net), false));

        let mut free = ImplicationEngine::from_levelized(&lev, &[None, None]);
        assert!(!free.prove_redundant(ProofSite::Net(a_net), false));
        assert!(!free.prove_redundant(ProofSite::Net(a_net), true));
    }

    #[test]
    fn mux_with_constant_select_blocks_unselected_leg() {
        let mut bld = NetlistBuilder::new();
        bld.enter_component("lc");
        let d = bld.input("d");
        let e = bld.input("e");
        let s = bld.const0();
        let m = bld.mux(s, d, e);
        bld.output(m, "m");
        let n = bld.finish().unwrap();
        let lev = Levelized::new(&n);
        let mut eng = ImplicationEngine::from_levelized(&lev, &[None, None]);
        let e_net = lev.new_net(1);
        let d_net = lev.new_net(0);
        // The unselected leg is unobservable; the selected one is not.
        assert!(eng.prove_redundant(ProofSite::Net(e_net), false));
        assert!(eng.prove_redundant(ProofSite::Net(e_net), true));
        assert!(!eng.prove_redundant(ProofSite::Net(d_net), false));
        assert!(!eng.prove_redundant(ProofSite::Net(d_net), true));
    }

    #[test]
    fn pin_fault_with_controlling_side_value_is_blocked() {
        // y = AND(a, a): a branch fault sa1 on one pin requires a = 0
        // on the other pin — controlling — so it can never pass.
        let mut bld = NetlistBuilder::new();
        bld.enter_component("lc");
        let a = bld.input("a");
        let y = bld.and2(a, a);
        bld.output(y, "y");
        let n = bld.finish().unwrap();
        let lev = Levelized::new(&n);
        let mut eng = ImplicationEngine::from_levelized(&lev, &[None]);
        let pin_site = ProofSite::Pin {
            gate: 0, // single gate, packed position 0
            pin: 0,
        };
        assert!(eng.prove_redundant(pin_site, true));
        // sa0 on the pin requires a = 1 on the side pin: non-controlling,
        // the difference reaches y.
        assert!(!eng.prove_redundant(pin_site, false));
    }

    #[test]
    fn unconstrained_view_learns_the_conflict_and_stem_stats() {
        let n = conflict_netlist();
        let lev = Levelized::new(&n);
        let mut eng = ImplicationEngine::from_levelized(&lev, &[]);
        let x = lev.new_net(3);
        assert_eq!(eng.net_constant(x), Some(false));
        assert!(eng.prove_redundant(ProofSite::Net(x), false));
        assert!(!eng.prove_redundant(ProofSite::Net(x), true));
        let stats = eng.stats();
        assert_eq!(stats.literals, 2 * n.num_nets() as u64);
        assert!(stats.direct_implications > 0);
        assert!(stats.constant_literals >= 1);
        // Net `a` fans out to the NOT and the AND and the branches
        // re-meet at the AND: one reconvergent stem.
        assert_eq!(stats.stems, 1);
        assert_eq!(stats.reconvergent_stems, 1);
    }

    #[test]
    fn proofs_agree_with_podem_on_a_scanned_design() {
        // Seed a redundancy into a scanned design and cross-check every
        // net-fault proof against PODEM: anything the engine proves
        // redundant, PODEM must also call untestable.
        use rescue_atpg::{Podem, PodemConfig, PodemResult};
        let mut bld = NetlistBuilder::new();
        bld.enter_component("lc");
        let a = bld.input("a");
        let b = bld.input("b");
        let na = bld.not(a);
        let x = bld.and2(a, na); // constant 0, redundant logic
        let y = bld.or2(x, b);
        let q = bld.dff(y, "r");
        bld.output(q, "out");
        let n = bld.finish().unwrap();
        let scanned = rescue_netlist::scan::insert_scan(&n).unwrap();
        let lev = Levelized::new(&scanned.netlist);
        let constraints: Vec<Option<bool>> = scanned
            .netlist
            .inputs()
            .iter()
            .map(|&net| (net == scanned.chain.scan_enable).then_some(false))
            .collect();
        let mut eng = ImplicationEngine::from_levelized(&lev, &constraints);
        let podem = Podem::new(
            &scanned.netlist,
            &lev,
            constraints.clone(),
            PodemConfig {
                max_backtracks: 10_000,
            },
        );
        let mut proven = 0;
        for net in 0..scanned.netlist.num_nets() {
            for stuck in StuckAt::both() {
                let fault = Fault::net(rescue_netlist::NetId::from_index(net), stuck);
                if !eng.prove_fault_levelized(&lev, fault) {
                    continue;
                }
                proven += 1;
                assert!(
                    matches!(podem.generate(fault), PodemResult::Untestable),
                    "engine proved {fault} redundant but PODEM disagrees"
                );
            }
        }
        assert!(proven > 0, "fixture should contain provable redundancy");
    }
}
