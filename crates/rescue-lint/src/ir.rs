//! The raw wiring view the lint rules run on.
//!
//! [`rescue_netlist::Netlist`] is validated at elaboration time — a
//! value of that type can *never* contain a combinational loop, a
//! multiply-driven net, or a floating gate input, because
//! `NetlistBuilder::finish` rejects them. That is exactly the wrong
//! shape for a lint engine: the pathological structures the rules exist
//! to diagnose must be *expressible*. [`LintNetlist`] is therefore a
//! deliberately unvalidated mirror of the netlist data model — plain
//! index-based vectors with no invariants beyond "indices may be out of
//! range" — that the rules treat as untrusted input.
//!
//! Well-formed circuits enter through the lossless conversions
//! [`LintNetlist::from_netlist`] / [`from_scan`](LintNetlist::from_scan)
//! / [`from_multi_scan`](LintNetlist::from_multi_scan); pathological
//! ones are constructed literally in tests.
//!
//! Only the design rules read this view. The value analyses (SCOAP,
//! static implication) need a validated netlist and run on its
//! [`rescue_netlist::Levelized`] view instead, so a raw view linted with
//! [`crate::lint`] gets the rules only.

use rescue_netlist::scan::{MultiScanNetlist, ScanChain, ScanNetlist};
use rescue_netlist::{GateKind, Netlist};

/// Sentinel net index meaning "not connected".
pub const NO_NET: u32 = u32::MAX;

/// A gate as the linter sees it: raw indices, no guarantees.
#[derive(Clone, Debug)]
pub struct LintGate {
    /// Boolean function.
    pub kind: GateKind,
    /// Input net indices, in pin order. May contain [`NO_NET`] or
    /// out-of-range values.
    pub inputs: Vec<u32>,
    /// Output net index.
    pub output: u32,
    /// ICI component index (may be out of range).
    pub component: u32,
    /// True for scan-path muxes added by scan insertion.
    pub scan_path: bool,
}

/// A flip-flop as the linter sees it.
#[derive(Clone, Debug)]
pub struct LintDff {
    /// Data-input net index.
    pub d: u32,
    /// Output net index.
    pub q: u32,
    /// ICI component index (may be out of range).
    pub component: u32,
    /// Debug name.
    pub name: String,
}

/// One scan chain description (mirror of [`ScanChain`]).
#[derive(Clone, Debug)]
pub struct LintChain {
    /// Flip-flop indices in scan order (scan-in side first).
    pub order: Vec<u32>,
    /// `scan_in` net index.
    pub scan_in: u32,
    /// `scan_enable` net index.
    pub scan_enable: u32,
    /// `scan_out` net index.
    pub scan_out: u32,
}

/// What drives a net, as recomputed from the raw element lists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LintDriver {
    /// Primary input (index into [`LintNetlist::inputs`]).
    Input(u32),
    /// Output of gate `i`.
    Gate(u32),
    /// Q of flip-flop `i`.
    Dff(u32),
}

/// The unvalidated circuit the rules analyze.
#[derive(Clone, Debug, Default)]
pub struct LintNetlist {
    /// Net names; the vector length defines the net count.
    pub net_names: Vec<String>,
    /// Primary-input net indices.
    pub inputs: Vec<u32>,
    /// Primary outputs as `(name, net index)`.
    pub outputs: Vec<(String, u32)>,
    /// Gates in declaration order.
    pub gates: Vec<LintGate>,
    /// Flip-flops in declaration order.
    pub dffs: Vec<LintDff>,
    /// ICI component names; gate/dff `component` fields index this.
    pub components: Vec<String>,
    /// Scan chains, when linting a post-scan netlist.
    pub chains: Vec<LintChain>,
}

impl LintNetlist {
    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.net_names.len()
    }

    /// Name of net `n`, tolerating out-of-range indices.
    pub fn net_name(&self, n: u32) -> &str {
        if n == NO_NET {
            return "<unconnected>";
        }
        self.net_names
            .get(n as usize)
            .map(String::as_str)
            .unwrap_or("<invalid>")
    }

    /// Recompute, for every net, the list of things claiming to drive
    /// it. A well-formed circuit has exactly one driver per net; the
    /// undriven / multiply-driven rules report the exceptions.
    pub fn drivers(&self) -> Vec<Vec<LintDriver>> {
        let mut drv: Vec<Vec<LintDriver>> = vec![Vec::new(); self.num_nets()];
        let mut claim = |net: u32, d: LintDriver| {
            if let Some(slot) = drv.get_mut(net as usize) {
                slot.push(d);
            }
        };
        for (i, &n) in self.inputs.iter().enumerate() {
            claim(n, LintDriver::Input(i as u32));
        }
        for (i, g) in self.gates.iter().enumerate() {
            claim(g.output, LintDriver::Gate(i as u32));
        }
        for (i, f) in self.dffs.iter().enumerate() {
            claim(f.q, LintDriver::Dff(i as u32));
        }
        drv
    }

    /// Lossless view of a pre-scan [`Netlist`].
    pub fn from_netlist(netlist: &Netlist) -> LintNetlist {
        let net_names = (0..netlist.num_nets())
            .map(|i| {
                netlist
                    .net_name(rescue_netlist::NetId::from_index(i))
                    .to_owned()
            })
            .collect();
        LintNetlist {
            net_names,
            inputs: netlist.inputs().iter().map(|n| n.index() as u32).collect(),
            outputs: netlist
                .outputs()
                .iter()
                .map(|(name, n)| (name.clone(), n.index() as u32))
                .collect(),
            gates: netlist
                .gates()
                .iter()
                .map(|g| LintGate {
                    kind: g.kind(),
                    inputs: g.inputs().iter().map(|n| n.index() as u32).collect(),
                    output: g.output().index() as u32,
                    component: g.component().index() as u32,
                    scan_path: g.is_scan_path(),
                })
                .collect(),
            dffs: netlist
                .dffs()
                .iter()
                .map(|f| LintDff {
                    d: f.d().index() as u32,
                    q: f.q().index() as u32,
                    component: f.component().index() as u32,
                    name: f.name().to_owned(),
                })
                .collect(),
            components: (0..netlist.num_components())
                .map(|i| {
                    netlist
                        .component_name(rescue_netlist::ComponentId::from_index(i))
                        .to_owned()
                })
                .collect(),
            chains: Vec::new(),
        }
    }

    /// View of a single-chain scan netlist, chain description included.
    pub fn from_scan(scan: &ScanNetlist) -> LintNetlist {
        let mut lint = LintNetlist::from_netlist(&scan.netlist);
        lint.chains = vec![convert_chain(&scan.chain)];
        lint
    }

    /// View of a multi-chain scan netlist, all chains included.
    pub fn from_multi_scan(scan: &MultiScanNetlist) -> LintNetlist {
        let mut lint = LintNetlist::from_netlist(&scan.netlist);
        lint.chains = scan.chains.iter().map(convert_chain).collect();
        lint
    }
}

fn convert_chain(chain: &ScanChain) -> LintChain {
    LintChain {
        order: chain.order.iter().map(|d| d.index() as u32).collect(),
        scan_in: chain.scan_in.index() as u32,
        scan_enable: chain.scan_enable.index() as u32,
        scan_out: chain.scan_out.index() as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_netlist::scan::{insert_scan, insert_scan_chains};
    use rescue_netlist::NetlistBuilder;

    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new();
        b.enter_component("lc");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.and(&[a, c]);
        let q = b.dff(x, "r0");
        let q1 = b.dff(q, "r1");
        b.output(q1, "o");
        b.finish().unwrap()
    }

    #[test]
    fn conversion_is_lossless_on_counts() {
        let n = sample();
        let l = LintNetlist::from_netlist(&n);
        assert_eq!(l.num_nets(), n.num_nets());
        assert_eq!(l.gates.len(), n.num_gates());
        assert_eq!(l.dffs.len(), n.num_dffs());
        assert_eq!(l.inputs.len(), n.inputs().len());
        assert_eq!(l.outputs.len(), n.outputs().len());
        assert_eq!(l.components, vec!["lc".to_owned()]);
        assert!(l.chains.is_empty());
    }

    #[test]
    fn every_net_has_exactly_one_driver_after_conversion() {
        let l = LintNetlist::from_netlist(&sample());
        for (i, d) in l.drivers().iter().enumerate() {
            assert_eq!(d.len(), 1, "net {i} has {} drivers", d.len());
        }
    }

    #[test]
    fn scan_conversion_carries_the_chain() {
        let n = sample();
        let s = insert_scan(&n).unwrap();
        let l = LintNetlist::from_scan(&s);
        assert_eq!(l.chains.len(), 1);
        assert_eq!(l.chains[0].order.len(), 2);
        assert_eq!(l.net_name(l.chains[0].scan_in), "scan_in");

        let m = insert_scan_chains(&n, 2).unwrap();
        let lm = LintNetlist::from_multi_scan(&m);
        assert_eq!(lm.chains.len(), 2);
    }
}
