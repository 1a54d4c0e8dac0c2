//! SCOAP testability analysis (Goldstein 1979): combinational 0/1
//! controllability (CC0/CC1) and observability (CO) per net, plus
//! per-component aggregates.
//!
//! This is the one SCOAP in the workspace: lint reports it per ICI
//! component, and PODEM's backtrace reads its [`controllability`] under
//! the capture pin constraints.
//!
//! Conventions for the full-scan context this repo models:
//!
//! * Primary inputs and flip-flop Q outputs cost 1 to control to either
//!   value (state is freely loadable through the scan chain).
//! * A tied net — the output of a `const0`/`const1` gate, or a primary
//!   input held by a pin constraint — costs 0 for its value and
//!   [`SCOAP_INF`] for the other: nothing has to be decided to get the
//!   tied value, and the other one is unreachable.
//! * Primary outputs and flip-flop D inputs cost 0 to observe (state is
//!   freely unloadable through the scan chain).
//! * Every gate traversal adds 1.
//! * Values saturate at [`SCOAP_INF`]; a CC1 of `SCOAP_INF` means "this
//!   net can never be driven to 1" (e.g. the output of a `const0`).
//!
//! The passes run over the [`Levelized`] view in its level order; every
//! value handed out is indexed by the original [`rescue_netlist::NetId`].

use rescue_netlist::{ComponentId, GateKind, Levelized, Netlist};
use rescue_obs::json::JsonObj;
use rescue_obs::metrics::HistogramSnapshot;

/// Saturation bound: any SCOAP value at or above this means
/// "unachievable" (the net cannot be controlled to that value, or
/// cannot be observed).
pub const SCOAP_INF: u64 = 1 << 40;

/// Saturating SCOAP addition.
fn sat(a: u64, b: u64) -> u64 {
    (a + b).min(SCOAP_INF)
}

/// Per-net SCOAP values plus per-component summaries.
#[derive(Clone, Debug)]
pub struct ScoapAnalysis {
    /// Cost to set each net to 0.
    pub cc0: Vec<u64>,
    /// Cost to set each net to 1.
    pub cc1: Vec<u64>,
    /// Cost to observe each net at an output or flip-flop D
    /// ([`SCOAP_INF`] when nothing observes it).
    pub co: Vec<u64>,
    /// One summary per ICI component, in component order.
    pub per_component: Vec<ComponentScoap>,
}

/// Aggregated testability of the nets driven by one component's gates.
#[derive(Clone, Debug)]
pub struct ComponentScoap {
    /// Component name.
    pub name: String,
    /// Distribution of finite CC0 values.
    pub cc0: HistogramSnapshot,
    /// Distribution of finite CC1 values.
    pub cc1: HistogramSnapshot,
    /// Distribution of finite CO values.
    pub co: HistogramSnapshot,
    /// Nets whose CO saturated (unobservable logic).
    pub unobservable: u64,
    /// Nets where CC0 or CC1 saturated (one value unreachable).
    pub uncontrollable: u64,
}

/// (CC0, CC1) per net, indexed by original `NetId`. `constraints` has
/// one optional tied value per primary input in declaration order (as
/// produced by `Atpg::capture_constraints`); a shorter slice leaves the
/// remaining inputs free, so `&[]` is the unconstrained view.
pub fn controllability(lev: &Levelized, constraints: &[Option<bool>]) -> (Vec<u64>, Vec<u64>) {
    let (cc0, cc1) = forward(lev, constraints);
    (original_order(lev, &cc0), original_order(lev, &cc1))
}

/// The forward (controllability) pass, in `lev`'s internal net ids.
fn forward(lev: &Levelized, constraints: &[Option<bool>]) -> (Vec<u64>, Vec<u64>) {
    let n = lev.num_nets();
    let mut cc0 = vec![SCOAP_INF; n];
    let mut cc1 = vec![SCOAP_INF; n];

    // Controllability sources: primary inputs (tied or free) and
    // scan-loadable Qs.
    for (i, &net) in lev.input_nets().iter().enumerate() {
        let (c0, c1) = match constraints.get(i).copied().flatten() {
            Some(false) => (0, SCOAP_INF),
            Some(true) => (SCOAP_INF, 0),
            None => (1, 1),
        };
        cc0[net as usize] = c0;
        cc1[net as usize] = c1;
    }
    for &q in lev.dff_q_nets() {
        cc0[q as usize] = 1;
        cc1[q as usize] = 1;
    }

    let mut ins: Vec<(u64, u64)> = Vec::with_capacity(lev.max_fanin());
    for pos in 0..lev.num_gates() as u32 {
        ins.clear();
        ins.extend(
            lev.inputs(pos)
                .iter()
                .map(|&i| (cc0[i as usize], cc1[i as usize])),
        );
        let (c0, c1) = gate_cc(lev.kind(pos), &ins);
        let o = lev.out_net(pos) as usize;
        cc0[o] = c0;
        cc1[o] = c1;
    }
    (cc0, cc1)
}

/// The backward (observability) pass, in `lev`'s internal net ids: a
/// gate's input is observable through the gate if the output is
/// observable and the side pins are held at their non-controlling
/// values.
fn backward(lev: &Levelized, cc0: &[u64], cc1: &[u64]) -> Vec<u64> {
    // Observability sinks: primary outputs and scan-unloadable Ds.
    let co_sink = |ni: usize| {
        if lev.fanout_outputs(ni).is_empty() && lev.fanout_dffs(ni).is_empty() {
            SCOAP_INF
        } else {
            0
        }
    };
    let mut co: Vec<u64> = (0..lev.num_nets()).map(co_sink).collect();
    for pos in (0..lev.num_gates() as u32).rev() {
        let inputs = lev.inputs(pos);
        let co_out = co[lev.out_net(pos) as usize];
        for (pin, &inp) in inputs.iter().enumerate() {
            let through = pin_co(lev.kind(pos), pin, inputs, cc0, cc1);
            let cost = sat(sat(co_out, 1), through);
            let i = inp as usize;
            co[i] = co[i].min(cost);
        }
    }
    co
}

/// Re-index a per-net vector from internal to original net ids.
fn original_order(lev: &Levelized, internal: &[u64]) -> Vec<u64> {
    (0..internal.len())
        .map(|old| internal[lev.new_net(old)])
        .collect()
}

impl ScoapAnalysis {
    /// Compute SCOAP values for `netlist`; `lev` must be
    /// `Levelized::new(netlist)`. `constraints` are per-input tied
    /// values as for [`controllability`].
    pub fn compute(
        netlist: &Netlist,
        lev: &Levelized,
        constraints: &[Option<bool>],
    ) -> ScoapAnalysis {
        let (cc0, cc1) = forward(lev, constraints);
        let co = original_order(lev, &backward(lev, &cc0, &cc1));
        let (cc0, cc1) = (original_order(lev, &cc0), original_order(lev, &cc1));

        // Per-component aggregation over driven nets.
        let mut per_component: Vec<ComponentScoap> = (0..netlist.num_components())
            .map(|c| ComponentScoap {
                name: netlist
                    .component_name(ComponentId::from_index(c))
                    .to_owned(),
                cc0: HistogramSnapshot::default(),
                cc1: HistogramSnapshot::default(),
                co: HistogramSnapshot::default(),
                unobservable: 0,
                uncontrollable: 0,
            })
            .collect();
        for g in netlist.gates() {
            let comp = &mut per_component[g.component().index()];
            let o = g.output().index();
            if cc0[o] < SCOAP_INF {
                comp.cc0.record(cc0[o]);
            }
            if cc1[o] < SCOAP_INF {
                comp.cc1.record(cc1[o]);
            }
            if cc0[o] >= SCOAP_INF || cc1[o] >= SCOAP_INF {
                comp.uncontrollable += 1;
            }
            if co[o] < SCOAP_INF {
                comp.co.record(co[o]);
            } else {
                comp.unobservable += 1;
            }
        }

        ScoapAnalysis {
            cc0,
            cc1,
            co,
            per_component,
        }
    }

    /// Mean of finite CO values across all nets (the headline
    /// observability figure; lower is better).
    pub fn co_mean(&self) -> f64 {
        let finite: Vec<u64> = self.co.iter().copied().filter(|&v| v < SCOAP_INF).collect();
        if finite.is_empty() {
            return 0.0;
        }
        finite.iter().sum::<u64>() as f64 / finite.len() as f64
    }

    /// Largest finite CO value (the hardest-to-observe net).
    pub fn co_max(&self) -> u64 {
        self.co
            .iter()
            .copied()
            .filter(|&v| v < SCOAP_INF)
            .max()
            .unwrap_or(0)
    }

    /// Nets whose CO saturated (nothing observes them), across the
    /// whole netlist.
    pub fn unobservable_nets(&self) -> u64 {
        self.co.iter().filter(|&&v| v >= SCOAP_INF).count() as u64
    }

    /// Nets where CC0 or CC1 saturated (one value unreachable), across
    /// the whole netlist.
    pub fn uncontrollable_nets(&self) -> u64 {
        self.cc0
            .iter()
            .zip(&self.cc1)
            .filter(|&(&c0, &c1)| c0 >= SCOAP_INF || c1 >= SCOAP_INF)
            .count() as u64
    }

    /// Render as a JSON object (the `scoap` member of the lint report).
    ///
    /// Saturated values ([`SCOAP_INF`]) are never emitted as raw costs:
    /// aggregates cover finite values only, and saturation is reported
    /// explicitly — `saturated` flags (top-level and per component)
    /// plus `unobservable_nets` / `uncontrollable_nets` totals —
    /// because a fully saturated component would otherwise render as a
    /// perfect-looking `co_mean` of 0.
    pub fn to_json(&self) -> String {
        let comps: Vec<String> = self
            .per_component
            .iter()
            .map(|c| {
                let mut o = JsonObj::new();
                o.str("name", &c.name);
                o.u64("nets", c.co.count + c.unobservable);
                o.f64("cc0_mean", c.cc0.mean());
                o.f64("cc1_mean", c.cc1.mean());
                o.f64("co_mean", c.co.mean());
                o.u64("co_max", c.co.max.min(SCOAP_INF - 1));
                o.u64("unobservable", c.unobservable);
                o.u64("uncontrollable", c.uncontrollable);
                o.bool("saturated", c.unobservable > 0 || c.uncontrollable > 0);
                o.arr_u64("co_buckets", &c.co.buckets);
                o.finish()
            })
            .collect();
        let unobservable = self.unobservable_nets();
        let uncontrollable = self.uncontrollable_nets();
        let mut obj = JsonObj::new();
        obj.f64("co_mean", self.co_mean());
        obj.u64("co_max", self.co_max().min(SCOAP_INF - 1));
        obj.u64("unobservable_nets", unobservable);
        obj.u64("uncontrollable_nets", uncontrollable);
        obj.bool("saturated", unobservable > 0 || uncontrollable > 0);
        obj.raw("components", &format!("[{}]", comps.join(",")));
        obj.finish()
    }
}

/// (CC0, CC1) of a gate's output from its inputs' values.
fn gate_cc(kind: GateKind, ins: &[(u64, u64)]) -> (u64, u64) {
    let min0 = ins.iter().map(|&(c0, _)| c0).min().unwrap_or(SCOAP_INF);
    let min1 = ins.iter().map(|&(_, c1)| c1).min().unwrap_or(SCOAP_INF);
    let sum0 = ins.iter().fold(0u64, |a, &(c0, _)| sat(a, c0));
    let sum1 = ins.iter().fold(0u64, |a, &(_, c1)| sat(a, c1));
    match kind {
        GateKind::Const0 => (0, SCOAP_INF),
        GateKind::Const1 => (SCOAP_INF, 0),
        GateKind::Buf => (sat(ins[0].0, 1), sat(ins[0].1, 1)),
        GateKind::Not => (sat(ins[0].1, 1), sat(ins[0].0, 1)),
        // AND is 0 when any input is 0, 1 only when all are 1.
        GateKind::And => (sat(min0, 1), sat(sum1, 1)),
        GateKind::Nand => (sat(sum1, 1), sat(min0, 1)),
        GateKind::Or => (sat(sum0, 1), sat(min1, 1)),
        GateKind::Nor => (sat(min1, 1), sat(sum0, 1)),
        // N-ary parity: fold the cheapest way to reach each parity.
        GateKind::Xor => {
            let (even, odd) = parity_cc(ins);
            (sat(even, 1), sat(odd, 1))
        }
        GateKind::Xnor => {
            let (even, odd) = parity_cc(ins);
            (sat(odd, 1), sat(even, 1))
        }
        // Mux inputs are [sel, a, b]; output = a when sel=0.
        GateKind::Mux => {
            let (s0, s1) = ins[0];
            let (a0, a1) = ins[1];
            let (b0, b1) = ins[2];
            (
                sat(sat(s0, a0).min(sat(s1, b0)), 1),
                sat(sat(s0, a1).min(sat(s1, b1)), 1),
            )
        }
    }
}

/// Cheapest costs to make the XOR of all inputs 0 (`even`) / 1 (`odd`).
fn parity_cc(ins: &[(u64, u64)]) -> (u64, u64) {
    let mut even = 0u64;
    let mut odd = SCOAP_INF;
    for &(c0, c1) in ins {
        let new_even = sat(even, c0).min(sat(odd, c1));
        let new_odd = sat(even, c1).min(sat(odd, c0));
        even = new_even;
        odd = new_odd;
    }
    (even, odd)
}

/// Side-pin cost to propagate pin `pin` of a gate to its output: the
/// cost of holding every *other* input at a non-controlling value.
fn pin_co(kind: GateKind, pin: usize, inputs: &[u32], cc0: &[u64], cc1: &[u64]) -> u64 {
    let others = || {
        inputs
            .iter()
            .enumerate()
            .filter(move |&(j, _)| j != pin)
            .map(|(_, &i)| i as usize)
    };
    match kind {
        GateKind::Const0 | GateKind::Const1 => SCOAP_INF,
        GateKind::Buf | GateKind::Not => 0,
        // AND/NAND side pins must all be 1; OR/NOR must all be 0.
        GateKind::And | GateKind::Nand => others().fold(0u64, |a, i| sat(a, cc1[i])),
        GateKind::Or | GateKind::Nor => others().fold(0u64, |a, i| sat(a, cc0[i])),
        // XOR side pins only need *known* values: cheapest of each.
        GateKind::Xor | GateKind::Xnor => others().fold(0u64, |a, i| sat(a, cc0[i].min(cc1[i]))),
        GateKind::Mux => {
            let (s, a, b) = (inputs[0] as usize, inputs[1] as usize, inputs[2] as usize);
            match pin {
                // Observing sel requires the data legs to differ.
                0 => sat(cc0[a], cc1[b]).min(sat(cc1[a], cc0[b])),
                // Observing a data leg requires selecting it.
                1 => cc0[s],
                2 => cc1[s],
                _ => SCOAP_INF,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_netlist::NetlistBuilder;

    /// Unconstrained SCOAP of a builder's netlist.
    fn analyze(b: NetlistBuilder) -> ScoapAnalysis {
        let n = b.finish().unwrap();
        ScoapAnalysis::compute(&n, &Levelized::new(&n), &[])
    }

    #[test]
    fn inverter_chain_costs_grow_linearly() {
        let mut b = NetlistBuilder::new();
        b.enter_component("lc");
        let a = b.input("a");
        let x1 = b.not(a);
        let x2 = b.not(x1);
        b.output(x2, "o");
        let s = analyze(b);
        // a=net0, x1=net1, x2=net2.
        assert_eq!((s.cc0[0], s.cc1[0]), (1, 1));
        assert_eq!((s.cc0[1], s.cc1[1]), (2, 2));
        assert_eq!((s.cc0[2], s.cc1[2]), (3, 3));
        // Observability grows toward the input: x2 is a PO.
        assert_eq!(s.co[2], 0);
        assert_eq!(s.co[1], 1);
        assert_eq!(s.co[0], 2);
    }

    #[test]
    fn and_gate_follows_goldstein_formulas() {
        let mut b = NetlistBuilder::new();
        b.enter_component("lc");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.and2(a, c);
        b.output(x, "o");
        let s = analyze(b);
        let x = 2; // nets: a=0, b=1, x=2
        assert_eq!(s.cc0[x], 2); // cheapest single 0 + 1
        assert_eq!(s.cc1[x], 3); // both 1s + 1
                                 // Observing `a` through the AND: side pin b held at 1.
        assert_eq!(s.co[0], 2); // co(x)=0 + 1 + cc1(b)=1
    }

    #[test]
    fn const_gate_output_is_uncontrollable_to_the_other_value() {
        let mut b = NetlistBuilder::new();
        b.enter_component("lc");
        let a = b.input("a");
        let z = b.const0();
        let x = b.and2(a, z);
        b.output(x, "o");
        let s = analyze(b);
        let z = 1; // nets: a=0, z=1, x=2
        assert_eq!(s.cc0[z], 0);
        assert_eq!(s.cc1[z], SCOAP_INF);
        // The AND output can never be 1 either.
        assert_eq!(s.cc1[2], SCOAP_INF);
        // `a` is unobservable: the side pin can never be non-controlling.
        assert_eq!(s.co[0], SCOAP_INF);
    }

    #[test]
    fn tied_nets_cost_zero_for_their_value_and_inf_for_the_other() {
        // Both ways of tying a net follow one rule: a const gate's
        // output and a constrained primary input cost 0 for the tied
        // value (nothing to decide) and SCOAP_INF for the other.
        let mut b = NetlistBuilder::new();
        b.enter_component("lc");
        let a = b.input("a");
        let en = b.input("en");
        let one = b.const1();
        let x = b.and(&[a, en, one]);
        b.output(x, "o");
        let n = b.finish().unwrap();
        let lev = Levelized::new(&n);
        let (en, one, x) = (en.index(), one.index(), x.index());

        let (cc0, cc1) = controllability(&lev, &[None, Some(false)]);
        assert_eq!((cc0[one], cc1[one]), (SCOAP_INF, 0));
        assert_eq!((cc0[en], cc1[en]), (0, SCOAP_INF));
        // x = 0 through the tied pin costs 0 + 1; x = 1 needs en = 1.
        assert_eq!((cc0[x], cc1[x]), (1, SCOAP_INF));

        // Unconstrained, en is a free pin again; the const stays tied,
        // and its 0 cost adds nothing to x = 1 = a + en + one + 1.
        let (cc0, cc1) = controllability(&lev, &[]);
        assert_eq!((cc0[en], cc1[en]), (1, 1));
        assert_eq!((cc0[one], cc1[one]), (SCOAP_INF, 0));
        assert_eq!(cc1[x], 3);

        // The full analysis reads the same forward pass.
        let s = ScoapAnalysis::compute(&n, &lev, &[None, Some(false)]);
        assert_eq!((s.cc0[en], s.cc1[en]), (0, SCOAP_INF));
        assert_eq!((s.cc0[x], s.cc1[x]), (1, SCOAP_INF));
        // `a` cannot be observed: en is stuck at the AND's controlling
        // value.
        assert_eq!(s.co[0], SCOAP_INF);
    }

    #[test]
    fn values_are_indexed_by_original_net_id() {
        // The flip-flop's Q is created after the AND output but comes
        // before it in level order (inputs, then Qs, then gate outputs):
        // the analysis must still hand out builder ids.
        let mut b = NetlistBuilder::new();
        b.enter_component("lc");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.and2(a, c);
        let q = b.dff(x, "r0");
        let y = b.not(q);
        b.output(y, "o");
        let s = analyze(b);
        assert!(q.index() > x.index());
        assert_eq!((s.cc0[x.index()], s.cc1[x.index()]), (2, 3));
        assert_eq!((s.cc0[q.index()], s.cc1[q.index()]), (1, 1));
        assert_eq!((s.cc0[y.index()], s.cc1[y.index()]), (2, 2));
        assert_eq!((s.co[x.index()], s.co[q.index()]), (0, 1));
    }

    #[test]
    fn dff_boundaries_are_scan_pseudo_ports() {
        let mut b = NetlistBuilder::new();
        b.enter_component("lc");
        let a = b.input("a");
        let q = b.dff(a, "r0");
        let x = b.not(q);
        b.output(x, "o");
        let s = analyze(b);
        // Q (net 1) is a pseudo-input, D (= a, net 0) a pseudo-output.
        assert_eq!((s.cc0[1], s.cc1[1]), (1, 1));
        assert_eq!(s.co[0], 0);
    }

    #[test]
    fn saturation_is_flagged_not_rendered_as_raw_costs() {
        // Const0-fed AND: x can never be 1 and `a` is unobservable, so
        // both saturation flags must fire, with exact totals, and no
        // emitted cost may reach the raw SCOAP_INF sentinel.
        let mut b = NetlistBuilder::new();
        b.enter_component("lc");
        let a = b.input("a");
        let z = b.const0();
        let x = b.and2(a, z);
        b.output(x, "o");
        let s = analyze(b);
        let v = rescue_obs::json::parse(&s.to_json()).unwrap();
        assert!(v.get("saturated").unwrap().as_bool().unwrap());
        // co saturates on `a` only (z and x reach the PO).
        assert_eq!(v.get("unobservable_nets").unwrap().as_int().unwrap(), 1);
        // cc saturates on z (never 1) and x (never 1).
        assert_eq!(v.get("uncontrollable_nets").unwrap().as_int().unwrap(), 2);
        let comp = &v.get("components").unwrap().as_arr().unwrap()[0];
        assert!(comp.get("saturated").unwrap().as_bool().unwrap());
        assert_eq!(comp.get("uncontrollable").unwrap().as_int().unwrap(), 2);
        let co_max = v.get("co_max").unwrap().as_int().unwrap() as u64;
        assert!(co_max < SCOAP_INF, "co_max leaked the saturation sentinel");

        // A clean design reports saturated=false everywhere.
        let mut b = NetlistBuilder::new();
        b.enter_component("lc");
        let a = b.input("a");
        let x = b.not(a);
        b.output(x, "o");
        let s = analyze(b);
        let v = rescue_obs::json::parse(&s.to_json()).unwrap();
        assert!(!v.get("saturated").unwrap().as_bool().unwrap());
        assert_eq!(v.get("unobservable_nets").unwrap().as_int().unwrap(), 0);
        assert_eq!(v.get("uncontrollable_nets").unwrap().as_int().unwrap(), 0);
    }

    #[test]
    fn json_renders_and_parses() {
        let mut b = NetlistBuilder::new();
        b.enter_component("lc");
        let a = b.input("a");
        let x = b.not(a);
        b.output(x, "o");
        let s = analyze(b);
        let v = rescue_obs::json::parse(&s.to_json()).unwrap();
        let comps = v.get("components").unwrap().as_arr().unwrap();
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].get("name").unwrap().as_str().unwrap(), "lc");
        assert!(v.get("co_mean").unwrap().as_f64().is_some());
    }
}
