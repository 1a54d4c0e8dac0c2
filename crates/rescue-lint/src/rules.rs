//! The design-rule checks.
//!
//! Rules fall into three groups, run in order by [`run_rules`]:
//!
//! 1. **Structural soundness** — undriven / multiply-driven nets,
//!    floating pins, bad arity, unattributed elements, combinational
//!    loops (including loops spanning ICI components). Any of these is
//!    an error and disqualifies the netlist from the value-based
//!    analyses below.
//! 2. **Testability hazards** (sound netlists only) — dead logic that
//!    no observation point can see, and nets constant propagation
//!    proves can never toggle (their stuck-at faults are untestable by
//!    construction), plus the informational capture-cone ambiguity
//!    metric ICI exists to eliminate.
//! 3. **Scan integrity** (when chains are present) — every flip-flop on
//!    exactly one chain, chain wiring consistent with the declared
//!    order, no combinational path bypassing a scan mux.
//!
//! The rules read only the raw [`LintNetlist`] wiring view. The value
//! analyses (SCOAP, static implication) run on the validated netlist's
//! [`rescue_netlist::Levelized`] view instead, behind the same
//! soundness gate (see [`crate::lint_netlist`]).

use crate::diag::{Diagnostic, Rule};
use crate::ir::{LintDriver, LintNetlist, NO_NET};
use rescue_netlist::threeval::{eval_gate_v3, wired_constant, V3};
use rescue_netlist::GateKind;

/// How many elements a loop/cone message names before eliding.
const NAME_CAP: usize = 8;

/// Output of the rule pass, consumed by [`crate::lint`].
pub struct RuleOutcome {
    /// All findings.
    pub diagnostics: Vec<Diagnostic>,
    /// Constant nets as `(net, value)` (subset of the
    /// [`Rule::StuckNet`] diagnostics, machine-readable).
    pub stuck_nets: Vec<(u32, bool)>,
    /// True when no structural (group 1) error fired, i.e. value-based
    /// analyses such as SCOAP and static implication are meaningful.
    pub sound: bool,
}

/// Run every rule over `lint`.
pub fn run_rules(lint: &LintNetlist) -> RuleOutcome {
    let mut diags = Vec::new();
    let drivers = lint.drivers();

    check_references(lint, &mut diags);
    check_drivers(lint, &drivers, &mut diags);
    let topo = match levelize(lint) {
        Ok(t) => Some(t),
        Err(leftover) => {
            check_loops(lint, &leftover, &mut diags);
            None
        }
    };

    let sound = !diags
        .iter()
        .any(|d| d.severity == crate::diag::Severity::Error);
    let mut stuck_nets = Vec::new();
    if sound {
        if let Some(topo) = &topo {
            check_dead_logic(lint, &drivers, &mut diags);
            stuck_nets = check_stuck_nets(lint, topo, &mut diags);
            check_capture_ambiguity(lint, &drivers, topo, &mut diags);
        }
    }

    if !lint.chains.is_empty() {
        check_scan_membership(lint, &mut diags);
        check_scan_wiring(lint, &drivers, &mut diags);
    }

    diags.sort_by_key(|d| d.rule);
    RuleOutcome {
        diagnostics: diags,
        stuck_nets,
        sound,
    }
}

/// Is `net` a usable net index?
fn net_ok(lint: &LintNetlist, net: u32) -> bool {
    net != NO_NET && (net as usize) < lint.num_nets()
}

/// Floating pins, out-of-range references, bad arity, unattributed
/// elements.
fn check_references(lint: &LintNetlist, diags: &mut Vec<Diagnostic>) {
    let n_comp = lint.components.len();
    for (gi, g) in lint.gates.iter().enumerate() {
        for (pin, &i) in g.inputs.iter().enumerate() {
            if !net_ok(lint, i) {
                diags.push(Diagnostic::new(
                    Rule::FloatingInput,
                    format!("gate g{gi} ({}) pin {pin} is unconnected", g.kind),
                    None,
                ));
            }
        }
        if !net_ok(lint, g.output) {
            diags.push(Diagnostic::new(
                Rule::FloatingInput,
                format!("gate g{gi} ({}) output is unconnected", g.kind),
                None,
            ));
        }
        if !g.kind.arity_ok(g.inputs.len()) {
            diags.push(Diagnostic::new(
                Rule::BadArity,
                format!("gate g{gi} ({}) has {} inputs", g.kind, g.inputs.len()),
                None,
            ));
        }
        if g.component as usize >= n_comp {
            diags.push(Diagnostic::new(
                Rule::Unattributed,
                format!(
                    "gate g{gi} ({}) names component {} of {n_comp}",
                    g.kind, g.component
                ),
                None,
            ));
        }
    }
    for (fi, f) in lint.dffs.iter().enumerate() {
        for (what, net) in [("D", f.d), ("Q", f.q)] {
            if !net_ok(lint, net) {
                diags.push(Diagnostic::new(
                    Rule::FloatingInput,
                    format!("flip-flop {} (ff{fi}) {what} is unconnected", f.name),
                    None,
                ));
            }
        }
        if f.component as usize >= n_comp {
            diags.push(Diagnostic::new(
                Rule::Unattributed,
                format!(
                    "flip-flop {} (ff{fi}) names component {} of {n_comp}",
                    f.name, f.component
                ),
                None,
            ));
        }
    }
    for (name, net) in &lint.outputs {
        if !net_ok(lint, *net) {
            diags.push(Diagnostic::new(
                Rule::FloatingInput,
                format!("primary output {name} is unconnected"),
                None,
            ));
        }
    }
}

/// Undriven and multiply-driven nets.
///
/// A net with no driver is reported only when something reads it — a
/// dangling name with no readers is dead weight, not a hazard.
fn check_drivers(lint: &LintNetlist, drivers: &[Vec<LintDriver>], diags: &mut Vec<Diagnostic>) {
    let mut read = vec![false; lint.num_nets()];
    let mut mark = |net: u32| {
        if net_ok(lint, net) {
            read[net as usize] = true;
        }
    };
    for g in &lint.gates {
        for &i in &g.inputs {
            mark(i);
        }
    }
    for f in &lint.dffs {
        mark(f.d);
    }
    for (_, o) in &lint.outputs {
        mark(*o);
    }

    for (net, drv) in drivers.iter().enumerate() {
        if drv.is_empty() && read[net] {
            diags.push(Diagnostic::new(
                Rule::UndrivenNet,
                format!(
                    "net {} (n{net}) is read but driven by nothing",
                    lint.net_name(net as u32)
                ),
                Some(net as u32),
            ));
        }
        if drv.len() > 1 {
            let who: Vec<String> = drv
                .iter()
                .map(|d| match d {
                    LintDriver::Input(i) => format!("input {i}"),
                    LintDriver::Gate(g) => format!("g{g}"),
                    LintDriver::Dff(f) => format!("ff{f}"),
                })
                .collect();
            diags.push(Diagnostic::new(
                Rule::MultiplyDrivenNet,
                format!(
                    "net {} (n{net}) has {} drivers: {}",
                    lint.net_name(net as u32),
                    drv.len(),
                    who.join(", ")
                ),
                Some(net as u32),
            ));
        }
    }
}

/// Kahn's algorithm over the gate graph. `Ok` carries a topological
/// order of all gates; `Err` carries the gates left unplaced (members
/// of combinational cycles plus their downstream cones).
///
/// Out-of-range references never block placement — they are reported
/// separately by [`check_references`].
fn levelize(lint: &LintNetlist) -> Result<Vec<usize>, Vec<usize>> {
    let n_nets = lint.num_nets();
    let mut drivers_left = vec![0u32; n_nets];
    for g in &lint.gates {
        if net_ok(lint, g.output) {
            drivers_left[g.output as usize] += 1;
        }
    }
    let mut readers: Vec<Vec<usize>> = vec![Vec::new(); n_nets];
    let mut pending = vec![0u32; lint.gates.len()];
    for (gi, g) in lint.gates.iter().enumerate() {
        for &i in &g.inputs {
            if net_ok(lint, i) && drivers_left[i as usize] > 0 {
                pending[gi] += 1;
                readers[i as usize].push(gi);
            }
        }
    }
    let mut order: Vec<usize> = (0..lint.gates.len()).filter(|&g| pending[g] == 0).collect();
    let mut head = 0;
    while head < order.len() {
        let gi = order[head];
        head += 1;
        let out = lint.gates[gi].output;
        if !net_ok(lint, out) {
            continue;
        }
        drivers_left[out as usize] -= 1;
        if drivers_left[out as usize] == 0 {
            for &r in &readers[out as usize] {
                pending[r] -= 1;
                if pending[r] == 0 {
                    order.push(r);
                }
            }
        }
    }
    if order.len() == lint.gates.len() {
        Ok(order)
    } else {
        let mut placed = vec![false; lint.gates.len()];
        for &g in &order {
            placed[g] = true;
        }
        Err((0..lint.gates.len()).filter(|&g| !placed[g]).collect())
    }
}

/// Report each strongly connected component of the cyclic residue as a
/// combinational loop; loops whose gates span more than one ICI
/// component additionally violate isolation.
fn check_loops(lint: &LintNetlist, leftover: &[usize], diags: &mut Vec<Diagnostic>) {
    // Compact the residue into a subgraph: edge g -> h when h reads
    // g's output.
    let mut local = vec![usize::MAX; lint.gates.len()];
    for (li, &g) in leftover.iter().enumerate() {
        local[g] = li;
    }
    let mut reads_net: Vec<Vec<usize>> = vec![Vec::new(); lint.num_nets()];
    for (li, &g) in leftover.iter().enumerate() {
        for &i in &lint.gates[g].inputs {
            if net_ok(lint, i) {
                reads_net[i as usize].push(li);
            }
        }
    }
    let adj: Vec<Vec<usize>> = leftover
        .iter()
        .map(|&g| {
            let out = lint.gates[g].output;
            if net_ok(lint, out) {
                reads_net[out as usize].clone()
            } else {
                Vec::new()
            }
        })
        .collect();

    for scc in tarjan_sccs(&adj) {
        let cyclic = scc.len() > 1 || adj[scc[0]].contains(&scc[0]);
        if !cyclic {
            continue;
        }
        let gates: Vec<usize> = scc.iter().map(|&li| leftover[li]).collect();
        let names: Vec<String> = gates
            .iter()
            .take(NAME_CAP)
            .map(|&g| format!("g{g}({})", lint.net_name(lint.gates[g].output)))
            .collect();
        let elide = if gates.len() > NAME_CAP { ", ..." } else { "" };
        diags.push(Diagnostic::new(
            Rule::CombLoop,
            format!(
                "combinational loop through {} gates: {}{elide}",
                gates.len(),
                names.join(" -> ")
            ),
            Some(lint.gates[gates[0]].output),
        ));

        let mut comps: Vec<u32> = gates.iter().map(|&g| lint.gates[g].component).collect();
        comps.sort_unstable();
        comps.dedup();
        if comps.len() > 1 {
            let comp_names: Vec<&str> = comps
                .iter()
                .map(|&c| {
                    lint.components
                        .get(c as usize)
                        .map(String::as_str)
                        .unwrap_or("<invalid>")
                })
                .collect();
            diags.push(Diagnostic::new(
                Rule::CrossComponentLoop,
                format!(
                    "combinational loop of {} gates spans components {}",
                    gates.len(),
                    comp_names.join(", ")
                ),
                Some(lint.gates[gates[0]].output),
            ));
        }
    }
}

/// Iterative Tarjan SCC over a small adjacency list.
fn tarjan_sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    const UNSEEN: u32 = u32::MAX;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0u32;
    let mut comps = Vec::new();
    let mut call: Vec<(usize, usize)> = Vec::new();

    for start in 0..n {
        if index[start] != UNSEEN {
            continue;
        }
        index[start] = next;
        low[start] = next;
        next += 1;
        stack.push(start);
        on_stack[start] = true;
        call.push((start, 0));
        while let Some(&(v, child)) = call.last() {
            if child < adj[v].len() {
                call.last_mut().expect("nonempty").1 += 1;
                let w = adj[v][child];
                if index[w] == UNSEEN {
                    index[w] = next;
                    low[w] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(p, _)) = call.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("SCC stack underflow");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comps.push(comp);
                }
            }
        }
    }
    comps
}

/// Backward reachability from observation points (primary outputs and
/// flip-flop D pins, crossing flip-flops from Q back to D). Gates and
/// flip-flops never reached are dead logic.
fn check_dead_logic(lint: &LintNetlist, drivers: &[Vec<LintDriver>], diags: &mut Vec<Diagnostic>) {
    let mut net_needed = vec![false; lint.num_nets()];
    let mut gate_live = vec![false; lint.gates.len()];
    let mut dff_live = vec![false; lint.dffs.len()];
    let mut work: Vec<u32> = Vec::new();
    let need = |net: u32, net_needed: &mut Vec<bool>, work: &mut Vec<u32>| {
        if net_ok(lint, net) && !net_needed[net as usize] {
            net_needed[net as usize] = true;
            work.push(net);
        }
    };
    for (_, o) in &lint.outputs {
        need(*o, &mut net_needed, &mut work);
    }
    for f in &lint.dffs {
        need(f.d, &mut net_needed, &mut work);
    }
    while let Some(net) = work.pop() {
        for d in &drivers[net as usize] {
            match *d {
                LintDriver::Input(_) => {}
                LintDriver::Gate(g) => {
                    gate_live[g as usize] = true;
                    for &i in &lint.gates[g as usize].inputs {
                        need(i, &mut net_needed, &mut work);
                    }
                }
                LintDriver::Dff(f) => {
                    dff_live[f as usize] = true;
                    // D was already seeded as an observation point.
                }
            }
        }
    }
    for (gi, live) in gate_live.iter().enumerate() {
        if !live {
            let g = &lint.gates[gi];
            diags.push(Diagnostic::new(
                Rule::DeadLogic,
                format!(
                    "gate g{gi} ({}) driving {} reaches no output or flip-flop",
                    g.kind,
                    lint.net_name(g.output)
                ),
                Some(g.output),
            ));
        }
    }
    for (fi, live) in dff_live.iter().enumerate() {
        if !live {
            let f = &lint.dffs[fi];
            diags.push(Diagnostic::new(
                Rule::DeadLogic,
                format!("flip-flop {} (ff{fi}) feeds no output or flip-flop", f.name),
                Some(f.q),
            ));
        }
    }
}

/// Three-valued constant propagation. Primary inputs and flip-flop Qs
/// are unknown (full scan makes all state freely loadable); constants
/// flow forward from `const0`/`const1` gates and from wiring
/// identities (an XOR/XNOR over an even number of copies of one net).
/// Every net proved constant-`v` makes its stuck-at-`v` fault
/// untestable by construction. Runs on sound netlists only, so every
/// pin is a valid net and every arity is legal.
fn check_stuck_nets(
    lint: &LintNetlist,
    topo: &[usize],
    diags: &mut Vec<Diagnostic>,
) -> Vec<(u32, bool)> {
    let mut val: Vec<Option<bool>> = vec![None; lint.num_nets()];
    let mut pins: Vec<V3> = Vec::new();
    for &gi in topo {
        let g = &lint.gates[gi];
        pins.clear();
        pins.extend(g.inputs.iter().map(|&n| V3::from(val[n as usize])));
        val[g.output as usize] =
            wired_constant(g.kind, &g.inputs).or_else(|| eval_gate_v3(g.kind, &pins).to_bool());
    }
    let mut stuck = Vec::new();
    for (net, v) in val.iter().enumerate() {
        let Some(v) = *v else { continue };
        let bit = u8::from(v);
        diags.push(Diagnostic::new(
            Rule::StuckNet,
            format!(
                "net {} (n{net}) is constant {bit}: its stuck-at-{bit} fault is untestable",
                lint.net_name(net as u32)
            ),
            Some(net as u32),
        ));
        stuck.push((net as u32, v));
    }
    stuck
}

/// Cap on the per-net component-set size tracked by the capture-cone
/// analysis; the ambiguity rule only needs "more than one".
const COMP_SET_CAP: usize = 8;

/// For every flip-flop, the set of ICI components whose combinational
/// logic feeds its *functional* D within one cycle (through a scan mux
/// the functional leg is pin 1). More than one component means a
/// corrupted capture cannot be attributed — the paper's Section 3.1
/// ambiguity, informational because it is the expected state of the
/// non-ICI baseline.
fn check_capture_ambiguity(
    lint: &LintNetlist,
    drivers: &[Vec<LintDriver>],
    topo: &[usize],
    diags: &mut Vec<Diagnostic>,
) {
    // comps[net] = components of gates in the net's fan-in cone
    // (capped; the cap preserves the |set| > 1 signal).
    let mut comps: Vec<Vec<u32>> = vec![Vec::new(); lint.num_nets()];
    for &gi in topo {
        let g = &lint.gates[gi];
        if !net_ok(lint, g.output) {
            continue;
        }
        let mut set = vec![g.component];
        for &i in &g.inputs {
            if !net_ok(lint, i) {
                continue;
            }
            for &c in &comps[i as usize] {
                if !set.contains(&c) && set.len() < COMP_SET_CAP {
                    set.push(c);
                }
            }
        }
        set.sort_unstable();
        comps[g.output as usize] = set;
    }

    for (fi, f) in lint.dffs.iter().enumerate() {
        if !net_ok(lint, f.d) {
            continue;
        }
        // Functional D: behind the scan mux when one is present.
        let mut d = f.d;
        if let [LintDriver::Gate(g)] = drivers[f.d as usize][..] {
            let gate = &lint.gates[g as usize];
            if gate.scan_path && gate.kind == GateKind::Mux && gate.inputs.len() == 3 {
                d = gate.inputs[1];
            }
        }
        if !net_ok(lint, d) {
            continue;
        }
        let set = &comps[d as usize];
        if set.len() > 1 {
            let names: Vec<&str> = set
                .iter()
                .take(NAME_CAP)
                .map(|&c| {
                    lint.components
                        .get(c as usize)
                        .map(String::as_str)
                        .unwrap_or("<invalid>")
                })
                .collect();
            diags.push(Diagnostic::new(
                Rule::CaptureAmbiguity,
                format!(
                    "flip-flop {} (ff{fi}) captures from {} components: {}",
                    f.name,
                    set.len(),
                    names.join(", ")
                ),
                Some(f.d),
            ));
        }
    }
}

/// Every flip-flop must sit on exactly one scan chain.
fn check_scan_membership(lint: &LintNetlist, diags: &mut Vec<Diagnostic>) {
    let mut on_chains = vec![0u32; lint.dffs.len()];
    for (ci, chain) in lint.chains.iter().enumerate() {
        for &d in &chain.order {
            match on_chains.get_mut(d as usize) {
                Some(n) => *n += 1,
                None => diags.push(Diagnostic::new(
                    Rule::ScanBrokenOrder,
                    format!("chain {ci} names nonexistent flip-flop ff{d}"),
                    None,
                )),
            }
        }
    }
    for (fi, &n) in on_chains.iter().enumerate() {
        let name = &lint.dffs[fi].name;
        if n == 0 {
            diags.push(Diagnostic::new(
                Rule::ScanMissingDff,
                format!("flip-flop {name} (ff{fi}) is on no scan chain"),
                Some(lint.dffs[fi].q),
            ));
        } else if n > 1 {
            diags.push(Diagnostic::new(
                Rule::ScanDuplicateDff,
                format!("flip-flop {name} (ff{fi}) is on {n} scan chains"),
                Some(lint.dffs[fi].q),
            ));
        }
    }
}

/// Chain connectivity: walking the declared order from `scan_in`, every
/// cell's D must be its scan mux selecting between the functional D
/// (`scan_enable` = 0) and the predecessor's Q, and the last Q must be
/// the chain's `scan_out` on a primary output.
fn check_scan_wiring(lint: &LintNetlist, drivers: &[Vec<LintDriver>], diags: &mut Vec<Diagnostic>) {
    for (ci, chain) in lint.chains.iter().enumerate() {
        for (what, net) in [
            ("scan_in", chain.scan_in),
            ("scan_enable", chain.scan_enable),
        ] {
            let is_pi = net_ok(lint, net) && lint.inputs.contains(&net);
            if !is_pi {
                diags.push(Diagnostic::new(
                    Rule::ScanBrokenOrder,
                    format!("chain {ci} {what} is not a primary input"),
                    Some(net),
                ));
            }
        }

        let mut prev = chain.scan_in;
        for &d in &chain.order {
            let Some(f) = lint.dffs.get(d as usize) else {
                continue; // reported by membership
            };
            if !net_ok(lint, f.d) {
                prev = f.q;
                continue; // reported by check_references
            }
            match drivers[f.d as usize][..] {
                [LintDriver::Gate(g)] => {
                    let gate = &lint.gates[g as usize];
                    if !gate.scan_path || gate.kind != GateKind::Mux {
                        diags.push(Diagnostic::new(
                            Rule::ScanBypass,
                            format!(
                                "flip-flop {} (ff{d}) D is driven by functional \
                                 {} g{g}, bypassing the scan mux",
                                f.name, gate.kind
                            ),
                            Some(f.d),
                        ));
                    } else if gate.inputs.len() != 3
                        || gate.inputs[0] != chain.scan_enable
                        || gate.inputs[2] != prev
                    {
                        diags.push(Diagnostic::new(
                            Rule::ScanBrokenOrder,
                            format!(
                                "chain {ci}: scan mux of {} (ff{d}) is miswired \
                                 (want sel=scan_enable, shift leg={})",
                                f.name,
                                lint.net_name(prev)
                            ),
                            Some(f.d),
                        ));
                    }
                }
                _ => diags.push(Diagnostic::new(
                    Rule::ScanBypass,
                    format!("flip-flop {} (ff{d}) D has no scan mux driving it", f.name),
                    Some(f.d),
                )),
            }
            prev = f.q;
        }

        if chain.scan_out != prev {
            diags.push(Diagnostic::new(
                Rule::ScanBrokenOrder,
                format!(
                    "chain {ci} scan_out is {} but the last cell's Q is {}",
                    lint.net_name(chain.scan_out),
                    lint.net_name(prev)
                ),
                Some(chain.scan_out),
            ));
        } else if !lint.outputs.iter().any(|(_, o)| *o == chain.scan_out) {
            diags.push(Diagnostic::new(
                Rule::ScanBrokenOrder,
                format!("chain {ci} scan_out is not a primary output"),
                Some(chain.scan_out),
            ));
        }
    }
}
