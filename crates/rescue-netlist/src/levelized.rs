//! Levelized, cache-friendly evaluation view of a [`Netlist`].
//!
//! [`Levelized`] flattens the gate graph into plain index arrays laid
//! out for the fault-simulation inner loop:
//!
//! * gates are **re-ordered level-major** (ties broken by gate id), so a
//!   full-block evaluation is one forward sweep over contiguous arrays;
//! * per-gate pin lists and per-net fanout lists are stored in **CSR
//!   form** (an offsets array plus one flat slice), replacing the
//!   `Vec<Vec<_>>` of the elaborated netlist — one pointer chase per
//!   lookup instead of two, and no per-gate allocations;
//! * everything is plain `u32` data behind `&self`, so one `Levelized`
//!   is built per netlist and **shared immutably across threads** by the
//!   fault-sharding layer;
//! * nets are **renumbered in first-use (level) order** — primary
//!   inputs, then flip-flop Q outputs, then gate outputs in packed
//!   order — behind an old↔new permutation, so the hot good/faulty
//!   value arrays are written in streaming order during the level sweep
//!   instead of striding through builder-assigned net ids.
//!
//! Positions into the packed order are called `pos` below; they relate
//! to [`GateId`]s through [`Levelized::pos_of`] / [`Levelized::gate_at`].
//! Net indices exposed by the accessors ([`Levelized::out_net`],
//! [`Levelized::inputs`], the fanout views) are **internal level-order
//! ids**; translate at the boundary with [`Levelized::new_net`] /
//! [`Levelized::old_net`]. [`Levelized::eval_block_into`] keeps its
//! original contract and returns values indexed by [`NetId`].

use crate::netlist::{GateId, GateKind, NetId, Netlist};
use crate::sim::{PatternBlock, WideBlock};

/// Compact level-ordered evaluation arrays for one netlist. See the
/// module docs.
#[derive(Clone, Debug)]
pub struct Levelized {
    num_nets: usize,
    num_levels: u32,
    /// Packed order: position -> gate id (level-major, then gate id).
    gate_at: Vec<u32>,
    /// Inverse: gate id -> packed position.
    pos_of: Vec<u32>,
    /// Per packed position: logic level.
    level: Vec<u32>,
    /// Per packed position: boolean function.
    kind: Vec<GateKind>,
    /// Per packed position: output net index.
    out_net: Vec<u32>,
    /// CSR per packed position: input net indices, pin order preserved.
    in_offsets: Vec<u32>,
    in_nets: Vec<u32>,
    /// CSR per net: consuming packed positions, level-major.
    fanout_offsets: Vec<u32>,
    fanout_pos: Vec<u32>,
    /// CSR per net: flip-flop indices whose D input is the net.
    dff_offsets: Vec<u32>,
    dff_ids: Vec<u32>,
    /// CSR per net: primary-output indices fed by the net.
    po_offsets: Vec<u32>,
    po_ids: Vec<u32>,
    /// Net index per primary input, declaration order.
    input_nets: Vec<u32>,
    /// Q-output net index per flip-flop.
    dff_q_nets: Vec<u32>,
    /// Permutation: internal level-order net index -> original `NetId`.
    net_old: Vec<u32>,
    /// Inverse permutation: original `NetId` -> internal net index.
    net_new: Vec<u32>,
    /// Largest gate fan-in (scratch-buffer sizing).
    max_fanin: usize,
}

fn csr<T, I: IntoIterator<Item = u32>>(
    rows: impl Iterator<Item = T>,
    mut flatten: impl FnMut(T) -> I,
) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = Vec::new();
    let mut flat = Vec::new();
    offsets.push(0);
    for row in rows {
        flat.extend(flatten(row));
        offsets.push(flat.len() as u32);
    }
    (offsets, flat)
}

impl Levelized {
    /// Build the packed representation. Called once per netlist; the
    /// result borrows nothing and is `Sync`.
    pub fn new(n: &Netlist) -> Self {
        let _span = rescue_obs::span("levelize");
        let num_gates = n.num_gates();
        let mut gate_at: Vec<u32> = (0..num_gates as u32).collect();
        gate_at.sort_by_key(|&g| (n.gate_level(GateId::from_index(g as usize)), g));
        let mut pos_of = vec![0u32; num_gates];
        for (pos, &g) in gate_at.iter().enumerate() {
            pos_of[g as usize] = pos as u32;
        }

        let gate = |pos: usize| n.gate(GateId::from_index(gate_at[pos] as usize));
        let level: Vec<u32> = (0..num_gates)
            .map(|p| n.gate_level(GateId::from_index(gate_at[p] as usize)))
            .collect();
        let kind: Vec<GateKind> = (0..num_gates).map(|p| gate(p).kind()).collect();

        // Renumber nets in first-write order of the level sweep: primary
        // inputs, then flip-flop Qs, then gate outputs in packed order.
        // Every net has exactly one driver so this is a total
        // permutation; any undriven stragglers go at the end.
        let mut net_new = vec![u32::MAX; n.num_nets()];
        let mut net_old: Vec<u32> = Vec::with_capacity(n.num_nets());
        {
            let mut assign = |old: u32| {
                if net_new[old as usize] == u32::MAX {
                    net_new[old as usize] = net_old.len() as u32;
                    net_old.push(old);
                }
            };
            for i in n.inputs() {
                assign(i.index() as u32);
            }
            for d in n.dffs() {
                assign(d.q().index() as u32);
            }
            for p in 0..num_gates {
                assign(gate(p).output().index() as u32);
            }
            for old in 0..n.num_nets() as u32 {
                assign(old);
            }
        }
        debug_assert_eq!(net_old.len(), n.num_nets());

        let out_net: Vec<u32> = (0..num_gates)
            .map(|p| net_new[gate(p).output().index()])
            .collect();
        let (in_offsets, in_nets) = csr(0..num_gates, |p| {
            gate(p)
                .inputs()
                .iter()
                .map(|i| net_new[i.index()])
                .collect::<Vec<_>>()
        });

        // Per-net fanout as packed positions, rows in internal net
        // order. The elaborated fanout is already level-sorted; mapping
        // to positions keeps that order.
        let old_of = |ni: usize| NetId::from_index(net_old[ni] as usize);
        let (fanout_offsets, fanout_pos) = csr(0..n.num_nets(), |ni| {
            n.fanout_gates(old_of(ni))
                .iter()
                .map(|g| pos_of[g.index()])
                .collect::<Vec<_>>()
        });
        let (dff_offsets, dff_ids) = csr(0..n.num_nets(), |ni| {
            n.fanout_dffs(old_of(ni))
                .iter()
                .map(|d| d.index() as u32)
                .collect::<Vec<_>>()
        });
        let (po_offsets, po_ids) = csr(0..n.num_nets(), |ni| n.fanout_outputs(old_of(ni)).to_vec());

        Levelized {
            num_nets: n.num_nets(),
            num_levels: level.last().map_or(0, |&l| l + 1),
            pos_of,
            level,
            kind,
            out_net,
            in_offsets,
            in_nets,
            fanout_offsets,
            fanout_pos,
            dff_offsets,
            dff_ids,
            po_offsets,
            po_ids,
            input_nets: n.inputs().iter().map(|i| net_new[i.index()]).collect(),
            dff_q_nets: n.dffs().iter().map(|d| net_new[d.q().index()]).collect(),
            net_old,
            net_new,
            max_fanin: n
                .gates()
                .iter()
                .map(|g| g.inputs().len())
                .max()
                .unwrap_or(0),
            gate_at,
        }
    }

    /// Number of nets in the underlying netlist.
    pub fn num_nets(&self) -> usize {
        self.num_nets
    }

    /// Number of gates (= packed positions).
    pub fn num_gates(&self) -> usize {
        self.gate_at.len()
    }

    /// Number of logic levels (0 for a gate-free netlist).
    pub fn num_levels(&self) -> u32 {
        self.num_levels
    }

    /// Largest gate fan-in.
    pub fn max_fanin(&self) -> usize {
        self.max_fanin
    }

    /// Packed position of a gate.
    #[inline]
    pub fn pos_of(&self, g: GateId) -> u32 {
        self.pos_of[g.index()]
    }

    /// Gate at a packed position.
    #[inline]
    pub fn gate_at(&self, pos: u32) -> GateId {
        GateId::from_index(self.gate_at[pos as usize] as usize)
    }

    /// Logic level of the gate at `pos`.
    #[inline]
    pub fn level(&self, pos: u32) -> u32 {
        self.level[pos as usize]
    }

    /// Boolean function of the gate at `pos`.
    #[inline]
    pub fn kind(&self, pos: u32) -> GateKind {
        self.kind[pos as usize]
    }

    /// Internal level-order net index of an original [`NetId`] index.
    #[inline]
    pub fn new_net(&self, old: usize) -> usize {
        self.net_new[old] as usize
    }

    /// Original [`NetId`] index of an internal level-order net index.
    #[inline]
    pub fn old_net(&self, ni: usize) -> usize {
        self.net_old[ni] as usize
    }

    /// Output net (internal index) of the gate at `pos`.
    #[inline]
    pub fn out_net(&self, pos: u32) -> u32 {
        self.out_net[pos as usize]
    }

    /// Input nets (internal indices) of the gate at `pos`, pin order.
    #[inline]
    pub fn inputs(&self, pos: u32) -> &[u32] {
        let p = pos as usize;
        &self.in_nets[self.in_offsets[p] as usize..self.in_offsets[p + 1] as usize]
    }

    /// Packed positions of the gates reading internal net `ni`,
    /// level-major.
    #[inline]
    pub fn fanout(&self, ni: usize) -> &[u32] {
        &self.fanout_pos[self.fanout_offsets[ni] as usize..self.fanout_offsets[ni + 1] as usize]
    }

    /// Flip-flop indices whose D input is internal net `ni`.
    #[inline]
    pub fn fanout_dffs(&self, ni: usize) -> &[u32] {
        &self.dff_ids[self.dff_offsets[ni] as usize..self.dff_offsets[ni + 1] as usize]
    }

    /// Primary-output indices fed by internal net `ni`.
    #[inline]
    pub fn fanout_outputs(&self, ni: usize) -> &[u32] {
        &self.po_ids[self.po_offsets[ni] as usize..self.po_offsets[ni + 1] as usize]
    }

    /// Internal net index per primary input, declaration order. Together
    /// with [`Levelized::dff_q_nets`] this is the literal view consumed
    /// by static implication analysis: the free (assignable) nets of the
    /// combinational capture frame.
    #[inline]
    pub fn input_nets(&self) -> &[u32] {
        &self.input_nets
    }

    /// Internal Q-output net index per flip-flop, declaration order.
    #[inline]
    pub fn dff_q_nets(&self) -> &[u32] {
        &self.dff_q_nets
    }

    /// Fault-free 64-way bit-parallel evaluation of one capture cycle
    /// into a caller-owned buffer (resized to `num_nets`), indexed by
    /// **original** [`NetId`]. Produces exactly the same net values as
    /// [`Netlist::simulate`]. Compatibility path over
    /// [`Levelized::eval_wide_into`]; the kernels use the wide form
    /// directly and stay in internal net order.
    pub fn eval_block_into(&self, block: &PatternBlock, nets: &mut Vec<u64>) {
        let wide = WideBlock::<1>::from_blocks(std::slice::from_ref(block));
        let mut internal: Vec<[u64; 1]> = Vec::with_capacity(self.num_nets);
        self.eval_wide_into(&wide, &mut internal);
        nets.clear();
        nets.resize(self.num_nets, 0);
        for (ni, v) in internal.iter().enumerate() {
            nets[self.net_old[ni] as usize] = v[0];
        }
    }

    /// Fault-free `W * 64`-way bit-parallel evaluation of one capture
    /// cycle into a caller-owned buffer (resized to `num_nets`),
    /// indexed by **internal** net order. One forward sweep over the
    /// level-ordered arrays; because nets are renumbered in first-write
    /// order, the sweep writes `nets` almost sequentially.
    pub fn eval_wide_into<const W: usize>(&self, wide: &WideBlock<W>, nets: &mut Vec<[u64; W]>) {
        assert_eq!(
            wide.inputs.len(),
            self.input_nets.len(),
            "input width mismatch"
        );
        assert_eq!(
            wide.state.len(),
            self.dff_q_nets.len(),
            "state width mismatch"
        );
        nets.clear();
        nets.resize(self.num_nets, [0; W]);
        for (i, &ni) in self.input_nets.iter().enumerate() {
            nets[ni as usize] = wide.inputs[i];
        }
        for (i, &ni) in self.dff_q_nets.iter().enumerate() {
            nets[ni as usize] = wide.state[i];
        }
        let mut in_buf: Vec<[u64; W]> = Vec::with_capacity(self.max_fanin);
        let _span = rescue_obs::span("good_eval");
        for pos in 0..self.num_gates() as u32 {
            in_buf.clear();
            in_buf.extend(self.inputs(pos).iter().map(|&ni| nets[ni as usize]));
            nets[self.out_net(pos) as usize] = self.kind(pos).eval_wide(&in_buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new();
        b.enter_component("c");
        let a = b.input("a");
        let c = b.input("c");
        let x = b.and2(a, c);
        let y = b.xor2(x, c);
        let z = b.or2(x, y);
        let q = b.dff(z, "r");
        b.output(y, "o");
        b.output(q, "oq");
        b.finish().unwrap()
    }

    #[test]
    fn packed_order_is_level_major() {
        let n = sample();
        let lev = Levelized::new(&n);
        assert_eq!(lev.num_gates(), n.num_gates());
        for pos in 1..lev.num_gates() as u32 {
            assert!(lev.level(pos - 1) <= lev.level(pos));
        }
        for g in 0..n.num_gates() {
            let id = GateId::from_index(g);
            assert_eq!(lev.gate_at(lev.pos_of(id)), id);
            assert_eq!(lev.level(lev.pos_of(id)), n.gate_level(id));
        }
    }

    #[test]
    fn csr_views_match_netlist() {
        let n = sample();
        let lev = Levelized::new(&n);
        for g in 0..n.num_gates() {
            let id = GateId::from_index(g);
            let pos = lev.pos_of(id);
            let gate = n.gate(id);
            assert_eq!(lev.kind(pos), gate.kind());
            assert_eq!(
                lev.old_net(lev.out_net(pos) as usize),
                gate.output().index()
            );
            let pins: Vec<usize> = lev
                .inputs(pos)
                .iter()
                .map(|&x| lev.old_net(x as usize))
                .collect();
            let want: Vec<usize> = gate.inputs().iter().map(|i| i.index()).collect();
            assert_eq!(pins, want);
        }
        for old in 0..n.num_nets() {
            let id = NetId::from_index(old);
            let ni = lev.new_net(old);
            let gates: Vec<GateId> = lev.fanout(ni).iter().map(|&p| lev.gate_at(p)).collect();
            assert_eq!(gates, n.fanout_gates(id));
            let dffs: Vec<usize> = lev.fanout_dffs(ni).iter().map(|&d| d as usize).collect();
            let want: Vec<usize> = n.fanout_dffs(id).iter().map(|d| d.index()).collect();
            assert_eq!(dffs, want);
            assert_eq!(
                lev.fanout_outputs(ni),
                n.fanout_outputs(id),
                "po fanout of net {old}"
            );
        }
    }

    #[test]
    fn net_renumbering_is_a_level_order_permutation() {
        let n = sample();
        let lev = Levelized::new(&n);
        // Total permutation: old -> new -> old round-trips for every
        // net, and every internal id is hit exactly once.
        let mut seen = vec![false; n.num_nets()];
        for old in 0..n.num_nets() {
            let ni = lev.new_net(old);
            assert_eq!(lev.old_net(ni), old, "round trip of net {old}");
            assert!(!seen[ni], "internal id {ni} assigned twice");
            seen[ni] = true;
        }
        // First-write order: inputs, then DFF Qs, then gate outputs in
        // packed (level-major) order — so the sweep writes sequentially.
        let base = n.inputs().len() + n.dffs().len();
        for (i, inp) in n.inputs().iter().enumerate() {
            assert_eq!(lev.new_net(inp.index()), i);
        }
        for (i, d) in n.dffs().iter().enumerate() {
            assert_eq!(lev.new_net(d.q().index()), n.inputs().len() + i);
        }
        for pos in 0..lev.num_gates() as u32 {
            assert_eq!(lev.out_net(pos) as usize, base + pos as usize);
        }
    }

    #[test]
    fn eval_block_matches_simulate() {
        let n = sample();
        let lev = Levelized::new(&n);
        let block = PatternBlock {
            inputs: vec![0xdead_beef_0123_4567, 0xaaaa_5555_ffff_0000],
            state: vec![0x0f0f_0f0f_0f0f_0f0f],
        };
        let mut nets = Vec::new();
        lev.eval_block_into(&block, &mut nets);
        assert_eq!(nets, n.simulate(&block).nets);
    }

    #[test]
    fn eval_wide_matches_simulate_per_word_with_replicated_padding() {
        let n = sample();
        let lev = Levelized::new(&n);
        let blocks = [
            PatternBlock {
                inputs: vec![0xdead_beef_0123_4567, 0xaaaa_5555_ffff_0000],
                state: vec![0x0f0f_0f0f_0f0f_0f0f],
            },
            PatternBlock {
                inputs: vec![0x1234_5678_9abc_def0, 0x0ff0_0ff0_0ff0_0ff0],
                state: vec![0xffff_0000_ffff_0000],
            },
            PatternBlock {
                inputs: vec![!0, 0],
                state: vec![0x5555_5555_5555_5555],
            },
        ];
        let wide = WideBlock::<4>::from_blocks(&blocks);
        assert_eq!(wide.real_words, 3);
        assert_eq!(wide.real_mask(), [!0, !0, !0, 0]);
        let mut nets: Vec<[u64; 4]> = Vec::new();
        lev.eval_wide_into(&wide, &mut nets);
        for word in 0..4 {
            // Word 3 replicates the last real block.
            let expect = n.simulate(&blocks[word.min(blocks.len() - 1)]).nets;
            for old in 0..n.num_nets() {
                assert_eq!(
                    nets[lev.new_net(old)][word],
                    expect[old],
                    "net {old} word {word}"
                );
            }
        }
    }
}
