//! Deterministic fault-parallel sharding for the FFR fault simulator.
//!
//! Fault simulation is embarrassingly parallel across the fault list:
//! every fault's result depends only on the fault and the good-machine
//! block. [`FaultShards`] groups the faults by fanout-free-region root,
//! cuts the groups into one shard per worker (one [`FaultSim`] per
//! worker over a shared [`Levelized`]), and scatters the per-fault
//! results back **into canonical fault-index order**. The reduced output
//! is therefore bit-for-bit identical for any worker count, including 1.
//! Because no root is split across workers, each root's observability is
//! propagated once per block whatever the worker count, so the summed
//! gate evals are thread-invariant too. Fault dropping, the coverage
//! curve, per-vector provenance, and every `AtpgCounts` value match the
//! sequential run exactly.
//!
//! The same invariance holds across lane widths: a worker pool is
//! `FaultShards<'a, W>` for `W` ∈ {1, 4, 8} (64/256/512 patterns per
//! pass), and [`LaneShards`] wraps the three monomorphizations behind a
//! runtime `lane_words` knob for the ATPG loop. Lanes are numbered
//! `word * 64 + bit` in vector order, so detection provenance is
//! width-independent. [`first_detections`] runs a whole fault-dropping
//! simulation of a pattern stream on these pools: one narrow block, then
//! full-width groups.
//!
//! Workers are plain `std::thread::scope` threads (no external deps);
//! each opens a `fsim.worker` span so the Perfetto export shows one
//! track per worker, and the span's elapsed time is the worker's busy
//! time in the utilization report.

use crate::error::AtpgError;
use crate::fsim::{ffr_root_of, FaultSim};
use rescue_netlist::{Fault, Levelized, PatternBlock, WideBlock};

/// Current values of the [`crate::fsim::FsimStats`] counters that the
/// `live.fsim.*` counters mirror.
fn live_stats<const W: usize>(sim: &FaultSim<'_, W>) -> [u64; 4] {
    let st = sim.stats();
    [
        st.gate_evals.get(),
        st.faults_simulated.get(),
        st.events_queued.get(),
        st.blocks_loaded.get(),
    ]
}

/// Add one worker pass's stats delta to the `live.fsim.*` counters.
fn publish_live<const W: usize>(sim: &FaultSim<'_, W>, before: [u64; 4]) {
    let live = rescue_obs::live::counters();
    let counters = [
        &live.fsim_gate_evals,
        &live.fsim_faults_simulated,
        &live.fsim_events_queued,
        &live.fsim_blocks_loaded,
    ];
    for ((counter, after), before) in counters.into_iter().zip(live_stats(sim)).zip(before) {
        counter.add(after - before);
    }
}

/// Minimum faults worth giving a spawned worker; spawn overhead would
/// dominate below this. Depends only on the fault count, never on the
/// worker count, so scheduling stays a pure implementation detail (the
/// results are thread-count-invariant regardless).
const MIN_FAULTS_TO_SPAWN: usize = 32;

/// Resolve a requested worker count: an explicit `requested > 0` wins,
/// then a positive `RESCUE_THREADS` environment variable, then
/// [`std::thread::available_parallelism`].
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(v) = std::env::var("RESCUE_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Per-worker utilization snapshot of a parallel fault-simulation phase.
/// Wall-clock data: excluded from determinism comparisons, reported as
/// informational (timing-class) metrics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FsimParallel {
    /// Worker count the run was configured with.
    pub threads: u64,
    /// Busy nanoseconds per worker (simulation work only).
    pub worker_busy_ns: Vec<u64>,
    /// Wall nanoseconds spent inside sharded simulation calls.
    pub wall_ns: u64,
}

impl FsimParallel {
    /// Mean worker busy fraction of the sharded wall time (0 when
    /// nothing ran).
    pub fn utilization(&self) -> f64 {
        if self.wall_ns == 0 || self.threads == 0 {
            return 0.0;
        }
        let busy: u64 = self.worker_busy_ns.iter().sum();
        busy as f64 / (self.wall_ns as f64 * self.threads as f64)
    }

    /// Total busy time over wall time: the parallelism actually achieved
    /// (1.0 means no overlap at all).
    pub fn effective_parallelism(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        let busy: u64 = self.worker_busy_ns.iter().sum();
        busy as f64 / self.wall_ns as f64
    }
}

/// A pool of per-worker fault simulators over one shared levelized view.
/// See the module docs for the determinism argument.
#[derive(Debug)]
pub struct FaultShards<'a, const W: usize = 1> {
    lev: &'a Levelized,
    sims: Vec<FaultSim<'a, W>>,
    busy_ns: Vec<u64>,
    wall_ns: u64,
}

impl<'a> FaultShards<'a> {
    /// Create `threads` workers (at least 1) over a shared view, with
    /// the default 64-pattern width.
    pub fn new(lev: &'a Levelized, threads: usize) -> Self {
        Self::wide(lev, threads)
    }

    /// First detecting lane per fault under `block`, in `faults` order.
    /// Equivalent to calling [`FaultSim::first_detecting_lane`] for each
    /// fault on one simulator, for any worker count.
    pub fn detect_lanes(&mut self, block: &PatternBlock, faults: &[Fault]) -> Vec<Option<u32>> {
        let wide = WideBlock::<1>::from_blocks(std::slice::from_ref(block));
        self.detect_lanes_wide(&wide, faults)
    }
}

impl<'a, const W: usize> FaultShards<'a, W> {
    /// Create `threads` workers (at least 1) of width `W` over a shared
    /// view.
    pub fn wide(lev: &'a Levelized, threads: usize) -> Self {
        let threads = threads.max(1);
        FaultShards {
            lev,
            sims: (0..threads).map(|_| FaultSim::wide(lev)).collect(),
            busy_ns: vec![0; threads],
            wall_ns: 0,
        }
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.sims.len()
    }

    /// Gate evaluations summed across workers. Deterministic: a fault's
    /// local hops are scheduling-independent and each root belongs to
    /// exactly one worker, so the sum over a fixed fault population
    /// never varies with the worker count.
    pub fn gate_evals(&self) -> u64 {
        self.sims.iter().map(|s| s.stats().gate_evals.get()).sum()
    }

    /// Utilization snapshot accumulated across all sharded calls.
    pub fn parallel_stats(&self) -> FsimParallel {
        FsimParallel {
            threads: self.sims.len() as u64,
            worker_busy_ns: self.busy_ns.clone(),
            wall_ns: self.wall_ns,
        }
    }

    /// First detecting lane per fault under the lane block, in `faults`
    /// order (lane = `word * 64 + bit`, stable across widths).
    pub fn detect_lanes_wide(&mut self, wide: &WideBlock<W>, faults: &[Fault]) -> Vec<Option<u32>> {
        self.map_faults(wide, faults, |sim, f| sim.first_detecting_lane(f))
    }

    /// Number of distinct real patterns in the lane block detecting each
    /// fault, in `faults` order (n-detect bookkeeping for fault
    /// dropping).
    pub fn detect_counts_wide(&mut self, wide: &WideBlock<W>, faults: &[Fault]) -> Vec<u32> {
        self.map_faults(wide, faults, |sim, f| sim.detecting_lane_count(f))
    }

    /// Shard `faults` over the workers, apply `op` per fault against the
    /// loaded lane block, and return the results in canonical
    /// fault-index order.
    ///
    /// Shards are whole fanout-free regions ([`root_shards`]): each
    /// root's observability is then propagated by exactly one worker,
    /// so the summed gate evals are the same at every worker count.
    fn map_faults<R: Send>(
        &mut self,
        wide: &WideBlock<W>,
        faults: &[Fault],
        op: impl Fn(&mut FaultSim<'a, W>, Fault) -> R + Sync,
    ) -> Vec<R> {
        let wall = rescue_obs::span("fsim.shards");
        let workers = self
            .sims
            .len()
            .min(faults.len().div_ceil(MIN_FAULTS_TO_SPAWN));
        let out = if workers <= 1 {
            // Open the worker span on the serial path too, pinned to the
            // profile root, so the span and profile path sets are
            // identical across thread counts (only the worker count
            // varies, which the diff gate treats as informational for
            // `.worker` spans).
            let busy = rescue_obs::span_root("fsim.worker");
            let sim = &mut self.sims[0];
            let before = live_stats(sim);
            sim.load_wide(wide);
            let results: Vec<R> = faults.iter().map(|&f| op(sim, f)).collect();
            publish_live(sim, before);
            self.busy_ns[0] += busy.finish();
            results
        } else {
            let shards = root_shards(self.lev, faults, workers);
            let FaultShards { sims, busy_ns, .. } = self;
            let op = &op;
            let mut results: Vec<Option<R>> =
                std::iter::repeat_with(|| None).take(faults.len()).collect();
            std::thread::scope(|s| {
                let handles: Vec<_> = sims
                    .iter_mut()
                    .zip(&shards)
                    .map(|(sim, shard)| {
                        s.spawn(move || {
                            let busy = rescue_obs::span_root("fsim.worker");
                            let before = live_stats(sim);
                            sim.load_wide(wide);
                            let shard_out: Vec<R> =
                                shard.iter().map(|&i| op(sim, faults[i as usize])).collect();
                            publish_live(sim, before);
                            (shard_out, busy.finish())
                        })
                    })
                    .collect();
                // Scatter each shard's results back to their canonical
                // fault positions.
                for (i, (h, shard)) in handles.into_iter().zip(&shards).enumerate() {
                    let (shard_out, busy) = h.join().expect("fsim worker panicked");
                    for (&slot, r) in shard.iter().zip(shard_out) {
                        results[slot as usize] = Some(r);
                    }
                    busy_ns[i] += busy;
                }
            });
            // Every position is covered by exactly one shard; a gap would
            // shorten the list, which callers reject as a lane-count
            // mismatch.
            results.into_iter().flatten().collect()
        };
        self.wall_ns += wall.finish();
        debug_assert_eq!(out.len(), faults.len());
        out
    }
}

/// Positions into `faults`, grouped by fanout-free-region root (roots
/// ascending, canonical order within a root) and cut at root boundaries
/// into at most `workers` shards of about `faults.len() / workers`
/// faults each. A counting sort over the dense root indices.
fn root_shards(lev: &Levelized, faults: &[Fault], workers: usize) -> Vec<Vec<u32>> {
    let roots: Vec<u32> = faults.iter().map(|&f| ffr_root_of(lev, f) as u32).collect();
    let mut next = vec![0u32; lev.num_ffr_roots() + 1];
    for &r in &roots {
        next[r as usize + 1] += 1;
    }
    for r in 1..next.len() {
        next[r] += next[r - 1];
    }
    let mut order = vec![0u32; faults.len()];
    for (i, &r) in roots.iter().enumerate() {
        order[next[r as usize] as usize] = i as u32;
        next[r as usize] += 1;
    }
    let target = faults.len().div_ceil(workers);
    let root_at = |k: usize| roots[order[k] as usize];
    let mut shards = Vec::with_capacity(workers);
    let mut cut = 0;
    while cut < order.len() {
        let mut end = (cut + target).min(order.len());
        while end < order.len() && root_at(end) == root_at(end - 1) {
            end += 1;
        }
        shards.push(order[cut..end].to_vec());
        cut = end;
    }
    shards
}

/// Runtime lane-width dispatch over the three [`FaultShards`]
/// monomorphizations, so the ATPG loop can take `lane_words` as a plain
/// config knob. Every width runs the same FFR kernel; lane results are
/// width-invariant, so the choice only affects wall-clock time (and the
/// gate-eval count, since a wide pass evaluates the union of its words'
/// cones).
#[derive(Debug)]
pub enum LaneShards<'a> {
    /// 64 patterns per pass (`[u64; 1]` lanes).
    W1(FaultShards<'a, 1>),
    /// 256 patterns per pass (`[u64; 4]` lanes).
    W4(FaultShards<'a, 4>),
    /// 512 patterns per pass (`[u64; 8]` lanes).
    W8(FaultShards<'a, 8>),
}

impl<'a> LaneShards<'a> {
    /// Create a pool of `threads` workers with `lane_words` ∈ {1, 4, 8}
    /// 64-pattern words per pass. Returns `None` for any other width.
    pub fn new(lev: &'a Levelized, threads: usize, lane_words: usize) -> Option<Self> {
        match lane_words {
            1 => Some(LaneShards::W1(FaultShards::new(lev, threads))),
            4 => Some(LaneShards::W4(FaultShards::wide(lev, threads))),
            8 => Some(LaneShards::W8(FaultShards::wide(lev, threads))),
            _ => None,
        }
    }

    /// The lane width in 64-pattern words.
    pub fn lane_words(&self) -> usize {
        match self {
            LaneShards::W1(_) => 1,
            LaneShards::W4(_) => 4,
            LaneShards::W8(_) => 8,
        }
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        match self {
            LaneShards::W1(s) => s.threads(),
            LaneShards::W4(s) => s.threads(),
            LaneShards::W8(s) => s.threads(),
        }
    }

    /// Gate re-evaluations summed across workers.
    pub fn gate_evals(&self) -> u64 {
        match self {
            LaneShards::W1(s) => s.gate_evals(),
            LaneShards::W4(s) => s.gate_evals(),
            LaneShards::W8(s) => s.gate_evals(),
        }
    }

    /// Utilization snapshot accumulated across all sharded calls.
    pub fn parallel_stats(&self) -> FsimParallel {
        match self {
            LaneShards::W1(s) => s.parallel_stats(),
            LaneShards::W4(s) => s.parallel_stats(),
            LaneShards::W8(s) => s.parallel_stats(),
        }
    }

    /// First detecting lane per fault for a group of `1..=lane_words`
    /// consecutive 64-pattern blocks, packed (and padded by replicating
    /// the last block) into one lane block. Lane indices are global to
    /// the group: `block_index_in_group * 64 + bit`.
    pub fn detect_lanes_group(
        &mut self,
        blocks: &[PatternBlock],
        faults: &[Fault],
    ) -> Vec<Option<u32>> {
        match self {
            LaneShards::W1(s) => s.detect_lanes_wide(&WideBlock::from_blocks(blocks), faults),
            LaneShards::W4(s) => s.detect_lanes_wide(&WideBlock::from_blocks(blocks), faults),
            LaneShards::W8(s) => s.detect_lanes_wide(&WideBlock::from_blocks(blocks), faults),
        }
    }

    /// Distinct real detecting-pattern count per fault for a group of
    /// blocks (n-detect bookkeeping; padding excluded).
    pub fn detect_counts_group(&mut self, blocks: &[PatternBlock], faults: &[Fault]) -> Vec<u32> {
        match self {
            LaneShards::W1(s) => s.detect_counts_wide(&WideBlock::from_blocks(blocks), faults),
            LaneShards::W4(s) => s.detect_counts_wide(&WideBlock::from_blocks(blocks), faults),
            LaneShards::W8(s) => s.detect_counts_wide(&WideBlock::from_blocks(blocks), faults),
        }
    }
}

/// Apply one block's per-fault detection lanes to the remaining-fault
/// list (faults, or their positions) in canonical order: detected
/// entries are passed to `on_detect` and removed, the rest stay in
/// `remaining` (original order).
///
/// The worker pool promises one lane per fault; a count mismatch is a
/// corrupted reduction and is surfaced as
/// [`AtpgError::LaneCountMismatch`] (with `remaining` untouched) rather
/// than letting faults be silently misclassified.
pub(crate) fn apply_detect_lanes<T>(
    lanes: &[Option<u32>],
    remaining: &mut Vec<T>,
    mut on_detect: impl FnMut(T, u32),
) -> Result<(), AtpgError> {
    if lanes.len() != remaining.len() {
        return Err(AtpgError::LaneCountMismatch {
            faults: remaining.len(),
            lanes: lanes.len(),
        });
    }
    let old = std::mem::take(remaining);
    for (f, &lane) in old.into_iter().zip(lanes) {
        match lane {
            Some(l) => on_detect(f, l),
            None => remaining.push(f),
        }
    }
    Ok(())
}

/// Global first-detect pattern of each fault under a fault-dropping
/// simulation of `blocks`, in `faults` order (`None`: undetected).
/// Pattern `p` is bit `p % 64` of block `p / 64`.
///
/// Block 0 runs alone on a 64-pattern pool: random patterns drop most
/// faults in their first block, so the bulk of the fault list pays only
/// the narrow width. The survivors then see groups of `lane_words`
/// blocks on a second pool of that width, built only if a second group
/// exists. A group starting at block `b` has lane base `b * 64`, so the
/// answer is identical at every width and worker count.
///
/// Blocks are drawn from the iterator one group at a time, into one
/// reused buffer, and not at all once every fault is detected — the
/// patterns are generated as they are simulated.
pub fn first_detections(
    lev: &Levelized,
    threads: usize,
    lane_words: usize,
    faults: &[Fault],
    blocks: impl IntoIterator<Item = PatternBlock>,
) -> Result<Vec<Option<u64>>, AtpgError> {
    let unsupported = AtpgError::UnsupportedLaneWidth { lane_words };
    if !matches!(lane_words, 1 | 4 | 8) {
        return Err(unsupported);
    }
    let mut narrow = LaneShards::W1(FaultShards::new(lev, threads));
    let mut blocks = blocks.into_iter();
    let mut first: Vec<Option<u64>> = vec![None; faults.len()];
    // Canonical positions of the faults still undetected.
    let mut remaining: Vec<usize> = (0..faults.len()).collect();
    let mut wide: Option<LaneShards<'_>> = None;
    let mut group: Vec<PatternBlock> = Vec::with_capacity(lane_words);
    // The still-undetected faults, rebuilt in place for each group.
    let mut undetected: Vec<Fault> = Vec::with_capacity(faults.len());
    let mut start_block = 0usize;
    while !remaining.is_empty() {
        let width = if start_block == 0 { 1 } else { lane_words };
        group.clear();
        group.extend(blocks.by_ref().take(width));
        if group.is_empty() {
            break;
        }
        let shards = if start_block == 0 || lane_words == 1 {
            &mut narrow
        } else {
            if wide.is_none() {
                wide = LaneShards::new(lev, threads, lane_words);
            }
            wide.as_mut().ok_or(unsupported.clone())?
        };
        undetected.clear();
        undetected.extend(remaining.iter().map(|&slot| faults[slot]));
        let lanes = shards.detect_lanes_group(&group, &undetected);
        let base = start_block as u64 * 64;
        apply_detect_lanes(&lanes, &mut remaining, |slot, lane| {
            first[slot] = Some(base + u64::from(lane));
        })?;
        start_block += group.len();
    }
    Ok(first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_netlist::{scan::insert_scan, NetlistBuilder};

    fn design() -> rescue_netlist::ScanNetlist {
        let mut b = NetlistBuilder::new();
        b.enter_component("c");
        let a = b.input_bus("a", 24);
        let mut acc = a[0];
        for &x in &a[1..] {
            let t = b.xor2(acc, x);
            let u = b.and2(acc, x);
            acc = b.or2(t, u);
        }
        let q = b.dff(acc, "q");
        b.output(q, "o");
        insert_scan(&b.finish().unwrap()).unwrap()
    }

    #[test]
    fn sharded_lanes_match_sequential_for_any_worker_count() {
        let s = design();
        let n = &s.netlist;
        let lev = Levelized::new(n);
        let faults = n.collapse_faults();
        // Enough faults that multi-worker spawning actually happens.
        assert!(faults.len() > 2 * MIN_FAULTS_TO_SPAWN, "{}", faults.len());
        let block = rescue_netlist::PatternBlock {
            inputs: vec![0x1234_5678_9abc_def0; n.inputs().len()],
            state: vec![0x0ff0_f00f_aa55_55aa; n.num_dffs()],
        };

        let mut reference = FaultSim::with_levelized(&lev);
        reference.load_block(&block);
        let want: Vec<Option<u32>> = faults
            .iter()
            .map(|&f| reference.first_detecting_lane(f))
            .collect();

        for threads in [1, 2, 3, 8] {
            let mut shards = FaultShards::new(&lev, threads);
            assert_eq!(
                shards.detect_lanes(&block, &faults),
                want,
                "{threads} threads"
            );
            assert_eq!(
                shards.gate_evals(),
                reference.stats().gate_evals.get(),
                "{threads} threads"
            );
        }
    }

    /// Lane results and deterministic stats must be identical across
    /// every lane width × worker count combination (the satellite
    /// determinism matrix, in-crate edition).
    #[test]
    fn lane_shards_are_width_and_thread_invariant() {
        let s = design();
        let n = &s.netlist;
        let lev = Levelized::new(n);
        let faults = n.collapse_faults();
        let blocks: Vec<PatternBlock> = (0..8u64)
            .map(|j| rescue_netlist::PatternBlock {
                inputs: vec![
                    0x1234_5678_9abc_def0u64.rotate_left(j as u32 * 7) ^ j;
                    n.inputs().len()
                ],
                state: vec![0x0ff0_f00f_aa55_55aau64.rotate_left(j as u32 * 5); n.num_dffs()],
            })
            .collect();

        // Reference: width 1, one worker, group = one block at a time,
        // lane offset by 64 per block.
        let mut reference = FaultSim::with_levelized(&lev);
        let mut want: Vec<Option<u32>> = vec![None; faults.len()];
        for (j, b) in blocks.iter().enumerate() {
            reference.load_block(b);
            for (fi, &f) in faults.iter().enumerate() {
                if want[fi].is_none() {
                    want[fi] = reference
                        .first_detecting_lane(f)
                        .map(|lane| j as u32 * 64 + lane);
                }
            }
        }

        for lane_words in [1usize, 4, 8] {
            for threads in [1usize, 2, 8] {
                let mut shards = LaneShards::new(&lev, threads, lane_words).unwrap();
                let mut got: Vec<Option<u32>> = vec![None; faults.len()];
                for (gi, group) in blocks.chunks(lane_words).enumerate() {
                    let base = (gi * lane_words * 64) as u32;
                    let lanes = shards.detect_lanes_group(group, &faults);
                    for (fi, lane) in lanes.into_iter().enumerate() {
                        if got[fi].is_none() {
                            got[fi] = lane.map(|l| base + l);
                        }
                    }
                }
                assert_eq!(got, want, "lane_words={lane_words} threads={threads}");
            }
        }

        // Gate-eval totals are width-dependent (wider passes evaluate
        // union cones) but thread-invariant per width.
        for lane_words in [1usize, 4, 8] {
            let mut evals = Vec::new();
            for threads in [1usize, 2, 8] {
                let mut shards = LaneShards::new(&lev, threads, lane_words).unwrap();
                for group in blocks.chunks(lane_words) {
                    shards.detect_lanes_group(group, &faults);
                }
                evals.push(shards.gate_evals());
            }
            assert!(
                evals.windows(2).all(|w| w[0] == w[1]),
                "lane_words={lane_words}: {evals:?}"
            );
        }
    }

    #[test]
    fn lane_shards_rejects_unsupported_widths() {
        let s = design();
        let lev = Levelized::new(&s.netlist);
        for lane_words in [0usize, 2, 3, 5, 16] {
            assert!(LaneShards::new(&lev, 1, lane_words).is_none());
        }
    }

    #[test]
    fn resolve_threads_priority() {
        assert_eq!(resolve_threads(3), 3);
        // requested = 0 falls through to env/available parallelism; both
        // are positive.
        assert!(resolve_threads(0) >= 1);
    }
}
