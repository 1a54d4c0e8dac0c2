//! Scan insertion: replace every flip-flop with a muxed-flip-flop scan
//! cell and stitch the cells into a single scan chain (full scan), exactly
//! as described in the paper's Section 2.
//!
//! After insertion the circuit gains three pins: `scan_in`, `scan_enable`
//! (primary inputs) and `scan_out` (primary output). When `scan_enable`
//! is high every flip-flop captures its chain predecessor's Q instead of
//! its functional D input, so the state elements form a shift register.
//!
//! The test schedule for `v` vectors over a chain of `c` cells with
//! single-cycle capture overlaps scan-out of vector *i* with scan-in of
//! vector *i+1*:
//!
//! ```text
//! total cycles = (v + 1) * c + v
//! ```
//!
//! which matches Table 3's `cycles ≈ vectors × cells` relation.

use crate::builder::elaborate;
use crate::error::BuildError;
use crate::netlist::{Dff, DffId, Driver, Gate, GateId, GateKind, NetId, NetInfo, Netlist};

/// Order and wiring of a single scan chain.
#[derive(Clone, Debug)]
pub struct ScanChain {
    /// Flip-flops in scan order (scan-in side first).
    pub order: Vec<DffId>,
    /// The `scan_in` primary-input net.
    pub scan_in: NetId,
    /// The `scan_enable` primary-input net.
    pub scan_enable: NetId,
    /// The `scan_out` primary-output net (Q of the last cell).
    pub scan_out: NetId,
}

impl ScanChain {
    /// Number of scan cells in the chain.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Chain position of a flip-flop (0 = closest to `scan_in`).
    pub fn position(&self, dff: DffId) -> Option<usize> {
        self.order.iter().position(|&d| d == dff)
    }

    /// Cycles to run `vectors` single-capture scan tests with overlapped
    /// scan-in/scan-out (the standard schedule).
    pub fn test_cycles(&self, vectors: usize) -> u64 {
        if vectors == 0 {
            return 0;
        }
        (vectors as u64 + 1) * self.len() as u64 + vectors as u64
    }
}

/// A netlist with scan inserted, plus its chain description.
///
/// The embedded [`Netlist`] contains the scan-path muxes (marked
/// [`Gate::is_scan_path`]); functional behaviour with `scan_enable = 0` is
/// identical to the original circuit.
#[derive(Clone, Debug)]
pub struct ScanNetlist {
    /// The transformed circuit.
    pub netlist: Netlist,
    /// The inserted chain.
    pub chain: ScanChain,
}

impl ScanNetlist {
    /// For every scan cell (in chain order), the ICI components whose logic
    /// feeds its functional D input within one cycle.
    ///
    /// Under ICI each list has length ≤ 1; the single entry is the
    /// component a failing bit at that chain position isolates to. Without
    /// ICI, lists with several entries are exactly the ambiguity the paper
    /// describes in Section 3.1.
    pub fn capture_components(&self) -> Vec<Vec<crate::netlist::ComponentId>> {
        self.chain
            .order
            .iter()
            .map(|&d| {
                // Walk from the *functional* D (the mux's pin 1), not the
                // scan mux output, so the scan path itself is not counted.
                let mux_net = self.netlist.dff(d).d();
                let mux_gate = match self.netlist.net_driver(mux_net) {
                    Driver::Gate(g) => g,
                    _ => unreachable!("scan cell D is always driven by its scan mux"),
                };
                let functional_d = self.netlist.gate(mux_gate).inputs()[1];
                self.netlist.cone_components(functional_d)
            })
            .collect()
    }
}

/// Insert a single full-scan chain into `netlist`.
///
/// Scan cells are chained in flip-flop declaration order, which the
/// structural generators arrange to be component-contiguous (as a layout
/// tool would for wire length).
///
/// # Errors
///
/// Returns [`BuildError::NoState`] if the netlist has no flip-flops
/// (nothing to scan).
pub fn insert_scan(netlist: &Netlist) -> Result<ScanNetlist, BuildError> {
    if netlist.num_dffs() == 0 {
        return Err(BuildError::NoState);
    }
    let mut nets: Vec<NetInfo> = netlist.nets.clone();
    let mut gates: Vec<Gate> = netlist.gates.clone();
    let mut dffs: Vec<Dff> = netlist.dffs.clone();
    let mut inputs: Vec<NetId> = netlist.inputs.clone();
    let mut outputs = netlist.outputs.clone();
    let components = netlist.components.clone();

    let new_net = |nets: &mut Vec<NetInfo>, name: String, driver: Driver| {
        let id = NetId(nets.len() as u32);
        nets.push(NetInfo { name, driver });
        id
    };

    let scan_in = new_net(
        &mut nets,
        "scan_in".to_owned(),
        Driver::Input(inputs.len() as u32),
    );
    inputs.push(scan_in);
    let scan_enable = new_net(
        &mut nets,
        "scan_enable".to_owned(),
        Driver::Input(inputs.len() as u32),
    );
    inputs.push(scan_enable);

    let order: Vec<DffId> = (0..dffs.len() as u32).map(DffId).collect();
    let mut prev_q = scan_in;
    for &d in &order {
        let dff = &mut dffs[d.index()];
        let gid = GateId(gates.len() as u32);
        let mux_out = new_net(
            &mut nets,
            format!("{}_scanmux", dff.name),
            Driver::Gate(gid),
        );
        gates.push(Gate {
            kind: GateKind::Mux,
            // sel = scan_enable, a (sel=0) = functional D, b (sel=1) = chain.
            inputs: vec![scan_enable, dff.d, prev_q],
            output: mux_out,
            component: dff.component,
            scan_path: true,
        });
        dff.d = mux_out;
        prev_q = dff.q;
    }
    let scan_out = prev_q;
    outputs.push(("scan_out".to_owned(), scan_out));

    let netlist = elaborate(nets, gates, dffs, inputs, outputs, components)?;
    Ok(ScanNetlist {
        netlist,
        chain: ScanChain {
            order,
            scan_in,
            scan_enable,
            scan_out,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::sim::PatternBlock;

    fn two_ff_circuit() -> Netlist {
        let mut b = NetlistBuilder::new();
        b.enter_component("lc");
        let a = b.input("a");
        let q0 = b.dff(a, "r0");
        let inv = b.not(q0);
        let q1 = b.dff(inv, "r1");
        b.output(q1, "out");
        b.finish().unwrap()
    }

    #[test]
    fn scan_adds_pins_and_muxes() {
        let n = two_ff_circuit();
        let s = insert_scan(&n).unwrap();
        assert_eq!(s.chain.len(), 2);
        assert_eq!(s.netlist.inputs().len(), n.inputs().len() + 2);
        assert_eq!(s.netlist.outputs().len(), n.outputs().len() + 1);
        assert_eq!(
            s.netlist
                .gates()
                .iter()
                .filter(|g| g.is_scan_path())
                .count(),
            2
        );
    }

    #[test]
    fn functional_mode_matches_original() {
        let n = two_ff_circuit();
        let s = insert_scan(&n).unwrap();
        // scan_enable = 0: behave exactly like the original.
        let block = PatternBlock {
            inputs: vec![0b1010],
            state: vec![0b0011, 0b0101],
        };
        let orig = n.simulate(&block);
        let scanned = s.netlist.simulate(&PatternBlock {
            inputs: vec![0b1010, /* scan_in */ 0, /* scan_en */ 0],
            state: block.state.clone(),
        });
        assert_eq!(orig.next_state(&n), scanned.next_state(&s.netlist));
        assert_eq!(orig.outputs(&n), &scanned.outputs(&s.netlist)[..1]);
    }

    #[test]
    fn shift_mode_forms_a_shift_register() {
        let n = two_ff_circuit();
        let s = insert_scan(&n).unwrap();
        // scan_enable = 1, scan_in = 1, state = 0 -> after one cycle the
        // first cell holds 1 and the second holds the old first cell (0).
        let r = s.netlist.simulate(&PatternBlock {
            inputs: vec![0, u64::MAX, u64::MAX],
            state: vec![0, 0],
        });
        let next = r.next_state(&s.netlist);
        assert_eq!(next[0], u64::MAX);
        assert_eq!(next[1], 0);
    }

    #[test]
    fn scanning_a_stateless_circuit_is_an_error() {
        let mut b = NetlistBuilder::new();
        b.enter_component("lc");
        let a = b.input("a");
        let x = b.not(a);
        b.output(x, "o");
        let n = b.finish().unwrap();
        assert_eq!(insert_scan(&n).unwrap_err(), BuildError::NoState);
    }

    #[test]
    fn test_cycle_schedule() {
        let n = two_ff_circuit();
        let s = insert_scan(&n).unwrap();
        assert_eq!(s.chain.test_cycles(0), 0);
        // (v+1)*c + v with c=2, v=3 -> 8 + 3 = 11.
        assert_eq!(s.chain.test_cycles(3), 11);
    }
}
