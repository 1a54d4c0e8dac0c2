//! Fanout-free-region (FFR) fault simulation, 64 to 512 patterns per
//! pass.
//!
//! Good-machine values for a lane block of `W * 64` patterns (64, 256
//! or 512 for `W` ∈ {1, 4, 8}) are computed once. A fault is then
//! simulated in two parts, the critical-path-tracing split of
//! Abramovici, Menon & Miller (1984) and Antreich & Schulz (1987):
//!
//! * **Local difference.** Inside its fanout-free region
//!   ([`Levelized::ffr_root`]) a fault effect has exactly one way out:
//!   each net on the way is read by a single gate pin and observed
//!   nowhere. The difference is carried on good values along that path,
//!   one gate evaluation per hop (a pin fault first re-evaluates its gate
//!   with the pin forced), and stops as soon as it dies.
//! * **Root observability.** The region's root is flipped in every lane
//!   and the change is propagated event-driven through its fanout cone
//!   to the flip-flop D inputs and primary outputs. In the lanes where
//!   the local difference is set, the faulty machine *is* the flipped
//!   machine, so the fault's detect mask is its local difference AND the
//!   root's observability — exact for every fault, lane and width. The
//!   observability is computed at most once per root per loaded block
//!   and kept in a dense per-root memo.
//!
//! The work unit, [`FsimStats::gate_evals`], therefore counts FFR hops
//! plus root propagations, each root once per block.
//!
//! The simulator runs over the [`Levelized`] packed view of the netlist
//! and keeps its hot `good`/`faulty` arrays in the view's **internal
//! level-order net numbering**, so the good sweep and the propagation
//! both stream; public APIs taking [`rescue_netlist::NetId`] or
//! [`Fault`] translate at the boundary.
//!
//! Events are ordered by logic level; because a gate only ever
//! schedules consumers at strictly higher levels, the queue is a
//! **level-indexed bucket array** with O(1) push/pop. The faulty array
//! is a full copy of the good values, so the inner loop reads it
//! directly (no branch per pin), and a touched-net undo list restores
//! the copy after each propagation. There is one kernel at every width;
//! its reference is the naive full re-simulation
//! [`Netlist::simulate_faulty`], which the tests and the fuzz oracles
//! check it against.
//!
//! All scratch (the input buffer, the touched-net list, the queues, the
//! root memo) lives in the `FaultSim` and is reused across calls; a
//! simulator performs no per-fault allocation in steady state.

use rescue_netlist::{Fault, FaultSite, Levelized, Netlist, PatternBlock, WideBlock};
use rescue_obs::metrics::{Counter, Gauge};

/// Where a fault effect was observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Observation {
    /// Captured into the flip-flop with this index (visible at that scan
    /// chain position after scan-out).
    ScanCell(usize),
    /// Visible at the primary output with this index.
    PrimaryOutput(usize),
}

/// Live counters for one fault simulator, aggregated across blocks.
#[derive(Debug, Default)]
pub struct FsimStats {
    /// Pattern blocks loaded (good-machine simulations). A wide load
    /// counts once per *lane block*, whatever its width.
    pub blocks_loaded: Counter,
    /// Faults simulated (detect-mask or observation queries).
    pub faults_simulated: Counter,
    /// Simulated faults that were detected under their block.
    pub faults_detected: Counter,
    /// Gate evaluations beyond the good sweep (the unit of
    /// fault-simulation work): the hops of each fault's local
    /// difference, plus the event-driven propagation of each FFR root
    /// once per block. One wide eval counts once: at `W = 8` a single
    /// eval covers 512 patterns.
    pub gate_evals: Counter,
    /// Events pushed onto the root-propagation queue (queue pressure).
    pub events_queued: Counter,
    /// High-water mark of pending propagation events at any instant.
    pub queue_peak: Gauge,
}

impl FsimStats {
    /// Fold a measured queue high-water mark into the gauge (keeps the
    /// max across propagations).
    fn note_queue_peak(&self, peak: usize) {
        let peak = peak as i64;
        if peak > self.queue_peak.get() {
            self.queue_peak.set(peak);
        }
    }
}

/// How the simulator holds its levelized view: built and owned by
/// [`FaultSim::new`], or borrowed from a caller that shares one across
/// many simulators (the fault-sharding layer).
#[derive(Debug)]
enum LevHandle<'a> {
    Owned(Box<Levelized>),
    Shared(&'a Levelized),
}

impl LevHandle<'_> {
    #[inline]
    fn get(&self) -> &Levelized {
        match self {
            LevHandle::Owned(l) => l,
            LevHandle::Shared(l) => l,
        }
    }
}

/// Dense index of the fanout-free-region root `fault`'s effect leaves
/// through: that of the faulty net, or of a faulty pin's gate output.
pub(crate) fn ffr_root_of(lev: &Levelized, fault: Fault) -> usize {
    lev.ffr_root(match fault.site {
        FaultSite::Net(site) => lev.new_net(site.index()),
        FaultSite::GateInput(g, _) => lev.out_net(lev.pos_of(g)) as usize,
    })
}

#[inline]
fn xor<const W: usize>(a: [u64; W], b: [u64; W]) -> [u64; W] {
    std::array::from_fn(|i| a[i] ^ b[i])
}

#[inline]
fn and<const W: usize>(a: [u64; W], b: [u64; W]) -> [u64; W] {
    std::array::from_fn(|i| a[i] & b[i])
}

#[inline]
fn any<const W: usize>(a: [u64; W]) -> bool {
    a.iter().any(|&w| w != 0)
}

/// Fault simulator bound to a netlist, reusable across pattern blocks.
///
/// The const parameter `W` is the lane-block width in 64-pattern words:
/// `FaultSim<'_>` (the default, `W = 1`) simulates 64 patterns per
/// pass and keeps the original `u64` API; `FaultSim<'_, 4>` /
/// `FaultSim<'_, 8>` simulate 256 / 512 patterns per pass through the
/// `_wide` methods. Lanes are numbered `word * 64 + bit` in vector
/// order, so lane indices are stable across widths.
///
/// Build with [`FaultSim::new`] (owns its levelized view),
/// [`FaultSim::with_levelized`] (borrows one shared across workers), or
/// [`FaultSim::wide`] for `W > 1`.
#[derive(Debug)]
pub struct FaultSim<'a, const W: usize = 1> {
    lev: LevHandle<'a>,
    /// Good-machine values for the current block, internal net order.
    good: Vec<[u64; W]>,
    /// Values under the root being propagated: a full copy of `good`,
    /// kept exact between propagations by the undo list.
    faulty: Vec<[u64; W]>,
    touched_epoch: Vec<u32>,
    /// Nets touched by the current propagation (indices into `faulty`):
    /// the undo list, and the only nets observation collection visits.
    touched: Vec<u32>,
    epoch: u32,
    /// Per packed gate position: epoch when last queued.
    queued: Vec<u32>,
    /// One event bucket per logic level.
    buckets: Vec<Vec<u32>>,
    /// Reusable gate-input scratch.
    in_buf: Vec<[u64; W]>,
    /// Per FFR root (dense index): lanes in which flipping the root is
    /// observed, valid when `root_block` matches `block`.
    root_obs: Vec<[u64; W]>,
    /// Per FFR root: the block number `root_obs` was computed under
    /// (0 = never).
    root_block: Vec<u32>,
    /// Number of the loaded block, from 1.
    block: u32,
    /// Non-replicated words of the loaded lane block (`1..=W`).
    loaded_words: usize,
    stats: FsimStats,
}

impl FaultSim<'static> {
    /// Create a simulator for `netlist`, building a private levelized
    /// view. Prefer [`FaultSim::with_levelized`] when several simulators
    /// share one netlist.
    pub fn new(netlist: &Netlist) -> Self {
        Self::from_handle(LevHandle::Owned(Box::new(Levelized::new(netlist))))
    }
}

impl<'a> FaultSim<'a> {
    /// Create a simulator over a shared levelized view.
    pub fn with_levelized(lev: &'a Levelized) -> Self {
        Self::from_handle(LevHandle::Shared(lev))
    }

    /// Load a pattern block: runs the good-machine simulation.
    pub fn load_block(&mut self, block: &PatternBlock) {
        self.load_wide(&WideBlock::<1>::from_blocks(std::slice::from_ref(block)));
    }

    /// Good-machine value of a net under the loaded block.
    pub fn good_value(&self, net: rescue_netlist::NetId) -> u64 {
        self.good_wide(net)[0]
    }

    /// Simulate `fault` against the loaded block. Returns the patterns
    /// (bitmask) under which the fault is detected, or 0 if undetected.
    pub fn detect_mask(&mut self, fault: Fault) -> u64 {
        self.detect_mask_wide(fault)[0]
    }

    /// Simulate `fault` and report every observation point where a
    /// difference appears, with its pattern mask. This is the data fault
    /// isolation consumes (the failing scan positions).
    pub fn observations(&mut self, fault: Fault) -> Vec<(Observation, u64)> {
        self.observations_wide(fault)
            .into_iter()
            .map(|(o, m)| (o, m[0]))
            .collect()
    }
}

impl<'a, const W: usize> FaultSim<'a, W> {
    /// Create a `W`-word-wide simulator over a shared levelized view,
    /// e.g. `FaultSim::<8>::wide(&lev)` for 512 patterns per pass.
    pub fn wide(lev: &'a Levelized) -> Self {
        Self::from_handle(LevHandle::Shared(lev))
    }

    fn from_handle(lev: LevHandle<'a>) -> Self {
        let l = lev.get();
        let n = l.num_nets();
        let roots = l.num_ffr_roots();
        FaultSim {
            good: vec![[0; W]; n],
            faulty: vec![[0; W]; n],
            touched_epoch: vec![0; n],
            touched: Vec::new(),
            epoch: 0,
            queued: vec![0; l.num_gates()],
            buckets: vec![Vec::new(); l.num_levels() as usize],
            in_buf: Vec::with_capacity(l.max_fanin()),
            root_obs: vec![[0; W]; roots],
            root_block: vec![0; roots],
            block: 0,
            loaded_words: 1,
            stats: FsimStats::default(),
            lev,
        }
    }

    /// Counters aggregated across every block and fault simulated.
    pub fn stats(&self) -> &FsimStats {
        &self.stats
    }

    /// Number of non-replicated 64-pattern words in the loaded block.
    pub fn loaded_words(&self) -> usize {
        self.loaded_words
    }

    /// Load a lane block: runs the good-machine simulation for all
    /// `W * 64` patterns in one sweep.
    pub fn load_wide(&mut self, wide: &WideBlock<W>) {
        // Phase attribution: the full-block good sweep plus the
        // faulty-copy reset. Per-fault work is left to the caller's span
        // (`fsim.worker` self time): a span per fault would cost more
        // than the work it measures.
        let _span = rescue_obs::span("ppsfp_good_sweep");
        self.lev.get().eval_wide_into(wide, &mut self.good);
        self.loaded_words = wide.real_words;
        // The propagation reads `faulty` unconditionally, so it must
        // start as an exact copy of the good values.
        self.faulty.copy_from_slice(&self.good);
        // A new block number invalidates every root memo entry.
        self.block = self.block.wrapping_add(1);
        if self.block == 0 {
            self.root_block.fill(0);
            self.block = 1;
        }
        self.stats.blocks_loaded.inc();
    }

    /// Pack `1..=W` pattern blocks (padding by replicating the last)
    /// and load them. Convenience over [`FaultSim::load_wide`].
    pub fn load_blocks(&mut self, blocks: &[PatternBlock]) {
        self.load_wide(&WideBlock::from_blocks(blocks));
    }

    /// Good-machine lane block of a net under the loaded block.
    pub fn good_wide(&self, net: rescue_netlist::NetId) -> [u64; W] {
        self.good[self.lev.get().new_net(net.index())]
    }

    /// Simulate `fault` against the loaded lane block. Word `j`, bit
    /// `k` of the result is set when pattern `j * 64 + k` detects the
    /// fault; all-zero when the block misses it. Padding words
    /// replicate their source block's word.
    pub fn detect_mask_wide(&mut self, fault: Fault) -> [u64; W] {
        self.stats.faults_simulated.inc();
        let (root, local) = self.local_diff(fault);
        if !any(local) {
            return local;
        }
        if self.root_block[root] != self.block {
            let mut obs = [0u64; W];
            self.propagate_root(root, |_, diff| {
                for (acc, w) in obs.iter_mut().zip(diff) {
                    *acc |= w;
                }
            });
            self.root_obs[root] = obs;
            self.root_block[root] = self.block;
        }
        let mask = and(local, self.root_obs[root]);
        if any(mask) {
            self.stats.faults_detected.inc();
        }
        mask
    }

    /// Lane of the first pattern in the loaded block that detects
    /// `fault`, or `None` when the block misses it. Lanes are numbered
    /// `word * 64 + bit` — the pattern's position in vector order — so
    /// the returned index is identical whatever `W` the same patterns
    /// are packed into. This is the per-vector provenance the coverage
    /// curve records.
    pub fn first_detecting_lane(&mut self, fault: Fault) -> Option<u32> {
        let mask = self.detect_mask_wide(fault);
        // Replicated padding words only duplicate detections already
        // present in the last real word, so scanning in word order
        // always lands on a real lane first.
        mask.iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(word, w)| word as u32 * 64 + w.trailing_zeros())
    }

    /// Number of distinct *real* patterns in the loaded block that
    /// detect `fault` (padding words excluded). Drives the n-detect
    /// fault-dropping policy.
    pub fn detecting_lane_count(&mut self, fault: Fault) -> u32 {
        let mask = self.detect_mask_wide(fault);
        mask.iter()
            .take(self.loaded_words)
            .map(|w| w.count_ones())
            .sum()
    }

    /// Simulate `fault` and report every observation point where a
    /// difference appears, with its per-word pattern masks: the root's
    /// propagation with each point's difference ANDed with the fault's
    /// local difference (not memoised).
    pub fn observations_wide(&mut self, fault: Fault) -> Vec<(Observation, [u64; W])> {
        self.stats.faults_simulated.inc();
        let (root, local) = self.local_diff(fault);
        let mut obs = Vec::new();
        if any(local) {
            self.propagate_root(root, |o, diff| {
                let m = and(diff, local);
                if any(m) {
                    obs.push((o, m));
                }
            });
        }
        obs.sort();
        obs
    }

    /// The fault's difference at its FFR root, carried on good values
    /// from the site one gate per hop: `(dense root index, difference)`.
    /// The difference is all-zero when the effect dies inside the
    /// region (the walk stops there).
    fn local_diff(&mut self, fault: Fault) -> (usize, [u64; W]) {
        let FaultSim {
            lev,
            good,
            in_buf,
            stats,
            ..
        } = self;
        let lev = lev.get();
        let stuck = [if fault.stuck_at.is_one() { u64::MAX } else { 0 }; W];
        let (mut net, mut diff) = match fault.site {
            FaultSite::Net(site) => {
                let ni = lev.new_net(site.index());
                (ni, xor(good[ni], stuck))
            }
            FaultSite::GateInput(g, pin) => {
                hop(lev, lev.pos_of(g), pin as usize, stuck, good, in_buf, stats)
            }
        };
        let root = lev.ffr_root(net);
        let root_net = lev.ffr_root_net(root);
        while net != root_net && any(diff) {
            // A non-root net is read by exactly one pin of one gate.
            let pos = lev.fanout(net)[0];
            let pin = lev
                .inputs(pos)
                .iter()
                .position(|&i| i as usize == net)
                .expect("a non-root net is read by its single consumer");
            (net, diff) = hop(lev, pos, pin, xor(good[net], diff), good, in_buf, stats);
        }
        (root, diff)
    }

    fn bump_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: clear the lazily-reset maps.
            self.touched_epoch.fill(0);
            self.queued.fill(0);
            self.epoch = 1;
        }
        self.touched.clear();
    }

    /// Flip FFR root `root` in every lane, propagate the change
    /// event-driven, and report each observation point that differs
    /// with its per-word difference.
    fn propagate_root(&mut self, root: usize, mut on_observe: impl FnMut(Observation, [u64; W])) {
        self.bump_epoch();
        self.propagate(self.lev.get().ffr_root_net(root));
        // Collect observations: any touched net with a difference that
        // feeds a flip-flop D or a primary output. The root itself is
        // touched, so a root that is observed directly is included.
        let lev = self.lev.get();
        for &net in &self.touched {
            let ni = net as usize;
            let diff = xor(self.faulty[ni], self.good[ni]);
            if !any(diff) {
                continue;
            }
            for &d in lev.fanout_dffs(ni) {
                on_observe(Observation::ScanCell(d as usize), diff);
            }
            for &o in lev.fanout_outputs(ni) {
                on_observe(Observation::PrimaryOutput(o as usize), diff);
            }
        }
        // Undo: restore the full faulty copy for the next propagation.
        let FaultSim {
            touched,
            good,
            faulty,
            ..
        } = self;
        for &net in touched.iter() {
            let ni = net as usize;
            faulty[ni] = good[ni];
        }
    }

    fn propagate(&mut self, root_net: usize) {
        let FaultSim {
            lev,
            good,
            faulty,
            touched_epoch,
            touched,
            epoch,
            queued,
            buckets,
            in_buf,
            stats,
            ..
        } = self;
        let lev = lev.get();
        let epoch = *epoch;

        faulty[root_net] = good[root_net].map(|w| !w);
        touched_epoch[root_net] = epoch;
        touched.push(root_net as u32);
        let mut pending = schedule(lev, root_net, queued, buckets, epoch);
        let mut pushes = pending as u64;
        let mut peak = pending;

        // A gate only schedules consumers at strictly higher levels, so a
        // single ascending sweep from the root's first (lowest-level)
        // consumer drains every event; nothing is ever pushed at or below
        // the level being drained.
        let mut lvl = lev
            .fanout(root_net)
            .first()
            .map_or(0, |&pos| lev.level(pos));
        while pending > 0 {
            let bucket = &mut buckets[lvl as usize];
            if bucket.is_empty() {
                lvl += 1;
                continue;
            }
            let mut bucket = std::mem::take(bucket);
            for &pos in &bucket {
                // `pending` counts unprocessed events (the rest of this
                // bucket plus all higher levels), so the peak below is
                // the exact queue high-water mark.
                pending -= 1;
                let out = eval_gate::<W>(
                    lev,
                    pos,
                    faulty,
                    touched_epoch,
                    touched,
                    epoch,
                    in_buf,
                    stats,
                );
                if let Some(out) = out {
                    let queued_now = schedule(lev, out, queued, buckets, epoch);
                    pending += queued_now;
                    pushes += queued_now as u64;
                    peak = peak.max(pending);
                }
            }
            bucket.clear();
            buckets[lvl as usize] = bucket;
            lvl += 1;
        }
        stats.events_queued.add(pushes);
        stats.note_queue_peak(peak);
    }
}

/// Queue every consumer of internal net `net` not yet queued this epoch
/// in its level's bucket; returns how many were queued.
#[inline]
fn schedule(
    lev: &Levelized,
    net: usize,
    queued: &mut [u32],
    buckets: &mut [Vec<u32>],
    epoch: u32,
) -> usize {
    let mut pushed = 0;
    for &pos in lev.fanout(net) {
        if queued[pos as usize] != epoch {
            queued[pos as usize] = epoch;
            buckets[lev.level(pos) as usize].push(pos);
            pushed += 1;
        }
    }
    pushed
}

/// Evaluate the gate at packed position `pos` on good values with input
/// pin `pin` replaced by `value`: `(output net, its difference from the
/// good value)`.
#[inline]
fn hop<const W: usize>(
    lev: &Levelized,
    pos: u32,
    pin: usize,
    value: [u64; W],
    good: &[[u64; W]],
    in_buf: &mut Vec<[u64; W]>,
    stats: &FsimStats,
) -> (usize, [u64; W]) {
    stats.gate_evals.inc();
    in_buf.clear();
    in_buf.extend(lev.inputs(pos).iter().map(|&ni| good[ni as usize]));
    in_buf[pin] = value;
    let out = lev.out_net(pos) as usize;
    (out, xor(lev.kind(pos).eval_wide(in_buf), good[out]))
}

/// Re-evaluate the gate at packed position `pos` on the propagation's
/// values. Marks the output net touched; returns `Some(out_net)` when
/// the change must be propagated to the net's consumers.
///
/// The faulty array is a full copy of the good values kept exact by the
/// undo list, so pins read it unconditionally and a change propagates
/// exactly when the new value differs from the stored one.
#[allow(clippy::too_many_arguments)]
#[inline]
fn eval_gate<const W: usize>(
    lev: &Levelized,
    pos: u32,
    faulty: &mut [[u64; W]],
    touched_epoch: &mut [u32],
    touched: &mut Vec<u32>,
    epoch: u32,
    in_buf: &mut Vec<[u64; W]>,
    stats: &FsimStats,
) -> Option<usize> {
    stats.gate_evals.inc();
    in_buf.clear();
    in_buf.extend(lev.inputs(pos).iter().map(|&ni| faulty[ni as usize]));
    let v = lev.kind(pos).eval_wide(in_buf);
    let oi = lev.out_net(pos) as usize;
    if v == faulty[oi] {
        return None;
    }
    if touched_epoch[oi] != epoch {
        touched_epoch[oi] = epoch;
        touched.push(oi as u32);
    }
    faulty[oi] = v;
    Some(oi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_netlist::{NetlistBuilder, StuckAt};
    use rescue_obs::rng::SplitMix64;

    fn sample() -> rescue_netlist::Netlist {
        let mut b = NetlistBuilder::new();
        b.enter_component("c");
        let a = b.input("a");
        let bb = b.input("b");
        let c = b.input("c");
        let x = b.and2(a, bb);
        let y = b.or2(x, c);
        let z = b.xor2(x, y);
        let q = b.dff(z, "r");
        b.output(y, "o");
        b.output(q, "oq");
        b.finish().unwrap()
    }

    /// Detect mask of `fault` under `block` by naive full faulty
    /// re-simulation: the reference the event-driven kernel must match.
    fn naive_mask(n: &Netlist, block: &PatternBlock, fault: Fault) -> u64 {
        let full = n.simulate_faulty(block, fault);
        let good = n.simulate(block);
        let observed = n
            .dffs()
            .iter()
            .map(|d| d.d())
            .chain(n.outputs().iter().map(|&(_, net)| net));
        observed.fold(0, |acc, net| {
            acc | (full.nets[net.index()] ^ good.nets[net.index()])
        })
    }

    fn random_block(n: &Netlist, rng: &mut SplitMix64) -> PatternBlock {
        PatternBlock {
            inputs: (0..n.inputs().len()).map(|_| rng.next_u64()).collect(),
            state: (0..n.num_dffs()).map(|_| rng.next_u64()).collect(),
        }
    }

    /// Fanout-free-region boundary cases: nets read twice by one gate
    /// (`xor2(a, a)`, `and2(c, c)`), a mux whose select sits inside a
    /// region, a chain of hops with pin faults deep inside it, a root
    /// that feeds a flip-flop D input and more gates, const gates, and
    /// pin faults on a gate whose output is an observed root.
    fn ffr_fixture() -> rescue_netlist::Netlist {
        let mut b = NetlistBuilder::new();
        b.enter_component("ffr");
        let a = b.input("a");
        let c = b.input("c");
        let d = b.input("d");
        let e = b.input("e");
        let f = b.input("f");
        let xa = b.xor2(a, a);
        let cc = b.and2(c, c);
        let sel = b.nand2(d, e);
        let m = b.mux(sel, cc, xa);
        let n1 = b.not(m);
        let n2 = b.and2(n1, f);
        let n3 = b.or2(n2, d);
        let r = b.xor2(n3, e);
        let q = b.dff(r, "q");
        let k0 = b.const0();
        let k1 = b.const1();
        let g1 = b.and2(r, q);
        let g2 = b.or2(r, k0);
        let g3 = b.and2(g1, k1);
        let g4 = b.xor2(g2, g3);
        b.output(g4, "o");
        b.finish().unwrap()
    }

    /// Cross-check the event-driven simulator against full faulty
    /// re-simulation on every enumerated fault of small circuits.
    #[test]
    fn event_driven_matches_full_resimulation() {
        let fixture = ffr_fixture();
        let fixture_block = random_block(&fixture, &mut SplitMix64::new(0xff5));
        let cases = [
            (
                sample(),
                PatternBlock {
                    inputs: vec![0b1100_1010, 0b1010_0110, 0b0110_0011],
                    state: vec![0b0001_1000],
                },
            ),
            (fixture, fixture_block),
        ];
        for (n, block) in &cases {
            let mut sim = FaultSim::new(n);
            sim.load_block(block);
            for fault in n.enumerate_faults() {
                assert_eq!(
                    sim.detect_mask(fault),
                    naive_mask(n, block, fault),
                    "fault {fault}"
                );
            }
            assert!(sim.stats().gate_evals.get() > 0);
            assert!(sim.stats().events_queued.get() > 0);
            assert!(sim.stats().queue_peak.get() > 0);
        }
    }

    /// The undo list must leave `faulty == good` after every fault, or
    /// the next fault would start from a corrupt baseline. Load several
    /// different lane blocks one after another on one simulator of
    /// width `W`, check the copy after every fault, and require every
    /// word of every mask to match the naive re-simulation of its block.
    fn undo_restores_the_good_copy<const W: usize>() {
        for n in [sample(), ffr_fixture()] {
            let faults = n.enumerate_faults();
            let mut rng = SplitMix64::new(0x5eed ^ W as u64);
            let lev = Levelized::new(&n);
            let mut sim = FaultSim::<W>::wide(&lev);
            for group in 0..4 {
                let blocks: Vec<PatternBlock> =
                    (0..W).map(|_| random_block(&n, &mut rng)).collect();
                sim.load_blocks(&blocks);
                for &fault in &faults {
                    let mask = sim.detect_mask_wide(fault);
                    for (word, block) in blocks.iter().enumerate() {
                        assert_eq!(
                            mask[word],
                            naive_mask(&n, block, fault),
                            "W={W} group {group} word {word} fault {fault}"
                        );
                    }
                    for (ni, (f, g)) in sim.faulty.iter().zip(&sim.good).enumerate() {
                        assert_eq!(f, g, "W={W} fault {fault}: copy not restored at net {ni}");
                    }
                }
            }
        }
    }

    #[test]
    fn ppsfp_undo_restores_the_good_copy() {
        undo_restores_the_good_copy::<1>();
        undo_restores_the_good_copy::<4>();
        undo_restores_the_good_copy::<8>();
    }

    /// Wide masks must equal the per-block masks word for word, and the
    /// first detecting lane must be the same global pattern index at
    /// every width.
    #[test]
    fn wide_masks_match_per_block_masks() {
        let n = sample();
        let blocks = [
            PatternBlock {
                inputs: vec![0xdead_beef, 0x0123_4567, 0xffff_0000],
                state: vec![0xaaaa_5555],
            },
            PatternBlock {
                inputs: vec![0, 0, 0],
                state: vec![u64::MAX],
            },
            PatternBlock {
                inputs: vec![0x00ff_00ff, 0x0f0f_0f0f, 0x3333_3333],
                state: vec![0x5555_5555],
            },
        ];
        let lev = rescue_netlist::Levelized::new(&n);
        let mut narrow = FaultSim::with_levelized(&lev);
        let per_block: Vec<Vec<u64>> = blocks
            .iter()
            .map(|b| {
                narrow.load_block(b);
                n.enumerate_faults()
                    .into_iter()
                    .map(|f| narrow.detect_mask(f))
                    .collect()
            })
            .collect();
        let mut sim4 = FaultSim::<4>::wide(&lev);
        sim4.load_blocks(&blocks);
        assert_eq!(sim4.loaded_words(), 3);
        for (fi, fault) in n.enumerate_faults().into_iter().enumerate() {
            let wide = sim4.detect_mask_wide(fault);
            for word in 0..4 {
                // Word 3 is padding that replicates block 2.
                let want = per_block[word.min(2)][fi];
                assert_eq!(wide[word], want, "fault {fault} word {word}");
            }
            let want_lane = (0..3).find_map(|w| {
                let m = per_block[w][fi];
                (m != 0).then(|| w as u32 * 64 + m.trailing_zeros())
            });
            assert_eq!(sim4.first_detecting_lane(fault), want_lane, "fault {fault}");
            let want_count: u32 = (0..3).map(|w| per_block[w][fi].count_ones()).sum();
            assert_eq!(sim4.detecting_lane_count(fault), want_count);
        }
    }

    #[test]
    fn observation_points_identify_capturing_cell() {
        // Two independent cones, each captured by its own flop.
        let mut b = NetlistBuilder::new();
        b.enter_component("left");
        let a = b.input("a");
        let na = b.not(a);
        b.dff(na, "r_left");
        b.enter_component("right");
        let c = b.input("c");
        let nc = b.not(c);
        b.dff(nc, "r_right");
        let n = b.finish().unwrap();

        let mut sim = FaultSim::new(&n);
        sim.load_block(&PatternBlock {
            inputs: vec![u64::MAX, u64::MAX],
            state: vec![0, 0],
        });
        // Fault in the left cone observes only at flop 0.
        let obs = sim.observations(Fault::net(na, StuckAt::One));
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].0, Observation::ScanCell(0));
    }
}
