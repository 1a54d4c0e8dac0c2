//! The cycle-stepped simulation engine.
//!
//! Each stepped cycle does work in proportion to what happens in it, not
//! to the window size:
//!
//! * Issue queues the entry's replay-shadow end, tagged with its issue
//!   cycle (`Engine::shadow_ends`; every shadow is equally long, so the
//!   queue is in cycle order). The slot release pops the ends that are
//!   due; one whose entry was squashed (or squashed and reissued) since
//!   is stale and dropped. An entry forwarded into the compaction buffer
//!   inside its shadow is released once it reaches the old half. A
//!   queue half drops a released id only once it reaches the front, so a
//!   release shifts nothing.
//! * An issued instruction is done once its `done_cycle` has passed;
//!   retire reads that off the ROB head, so finishing needs no event.
//! * Every producer keeps the list of its consumers, built at dispatch.
//!   A change of its ready time recomputes theirs; a consumer whose
//!   ready time lies ahead waits on a wakeup heap (`Engine::wakes`).
//!   Each queue keeps its ready entries in a bit set over the ids, and
//!   selection walks its set bits in id order, so it stays oldest first.
//! * Compaction flips an entry between `InQueue` and `InBuffer` as it
//!   moves, and a miss squash that hits a buffer resident puts it
//!   straight back to `InBuffer`.
//! * A cycle in which no stage changes any state is not repeated one
//!   cycle at a time: the engine jumps to the earliest pending shadow
//!   end, wakeup, miss detection, fetch resumption or ROB-head finish and
//!   accounts for the skipped cycles exactly as stepping them would
//!   (`Engine::skip_idle_cycles`).

use crate::config::{CoreConfig, Policy, Resources, SimConfig};
use crate::result::{SimResult, IPC_WINDOW_CYCLES};
use rescue_workloads::{InstrKind, TraceInstr};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Result not yet available.
const NOT_READY: u64 = u64::MAX;

/// Cycles without a commit after which the run is declared deadlocked.
const WATCHDOG_CYCLES: u64 = 1_000_000;

/// The per-stage work counters, in [`StageWork`] field order: each is
/// the registry counter `pipesim.stages.<name>`.
pub const STAGE_COUNTERS: [&str; 5] = [
    "select_scanned",
    "woken",
    "events",
    "released",
    "compaction_moves",
];

/// Work done by one engine's stages, counted in plain integers and
/// added to the `pipesim.stages.*` registry counters at every IPC-window
/// close and at the end of the run.
#[derive(Clone, Copy, Debug, Default)]
struct StageWork {
    /// Ready-list entries selection examined.
    select_scanned: u64,
    /// Entries that joined a ready set.
    woken: u64,
    /// Shadow-end and wakeup events popped, stale ones included.
    events: u64,
    /// Issue-queue slots released.
    released: u64,
    /// Entries moved between queue halves and the compaction buffer.
    compaction_moves: u64,
}

impl StageWork {
    /// Add the counts to the registry counters and start again at zero.
    fn flush(&mut self) {
        let counts = [
            self.select_scanned,
            self.woken,
            self.events,
            self.released,
            self.compaction_moves,
        ];
        for (counter, n) in stage_counters().iter().zip(counts) {
            if n > 0 {
                counter.add(n);
            }
        }
        *self = StageWork::default();
    }
}

fn stage_counters() -> &'static [Arc<rescue_obs::metrics::Counter>; STAGE_COUNTERS.len()] {
    static COUNTERS: OnceLock<[Arc<rescue_obs::metrics::Counter>; STAGE_COUNTERS.len()]> =
        OnceLock::new();
    COUNTERS.get_or_init(|| {
        STAGE_COUNTERS
            .map(|name| rescue_obs::metrics::global().counter(&format!("pipesim.stages.{name}")))
    })
}

/// The `pipesim.stages.*` totals of every simulation this process has
/// finished (and the whole IPC windows of those still running), in
/// [`STAGE_COUNTERS`] order.
pub fn stage_totals() -> [(&'static str, u64); STAGE_COUNTERS.len()] {
    let counters = stage_counters();
    std::array::from_fn(|i| (STAGE_COUNTERS[i], counters[i].get()))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Waiting in an issue-queue half.
    InQueue,
    /// In the Rescue inter-segment compaction buffer (wakeable, not
    /// selectable).
    InBuffer,
    /// Issued: done once `done_cycle` has passed, and holding its queue
    /// slot until the replay shadow passes.
    Issued,
}

/// Where an entry sits in its issue queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Loc {
    Old,
    Buf,
    New,
    /// Its slot was released.
    Gone,
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    instr: TraceInstr,
    state: State,
    issue_cycle: u64,
    done_cycle: u64,
    loc: Loc,
    /// The latest ready time of its sources (`NOT_READY` while one has
    /// none).
    ready_time: u64,
    /// When its own result is ready for consumers (`NOT_READY` until it
    /// issues).
    ready_at: u64,
}

impl Slot {
    /// Selectable once its sources are ready.
    fn selectable(&self) -> bool {
        self.state == State::InQueue && matches!(self.loc, Loc::Old | Loc::New)
    }
}

/// The reorder buffer: ids `base..base + len`, their slots in a ring
/// indexed by id, at least `rob_entries` long so live ids never share a
/// slot.
#[derive(Debug)]
struct Rob {
    slots: Vec<Slot>,
    mask: u64,
    /// The oldest id held, the next to retire.
    base: u64,
    len: usize,
}

impl Rob {
    /// An empty ROB over a ring of `ring` ids, a power of two.
    fn new(ring: usize) -> Self {
        let unused = Slot {
            instr: TraceInstr::simple_alu(),
            state: State::InQueue,
            issue_cycle: 0,
            done_cycle: u64::MAX,
            loc: Loc::Gone,
            ready_time: NOT_READY,
            ready_at: NOT_READY,
        };
        Rob {
            slots: vec![unused; ring],
            mask: ring as u64 - 1,
            base: 0,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The id the next dispatched instruction gets.
    fn end(&self) -> u64 {
        self.base + self.len as u64
    }

    fn front(&self) -> Option<&Slot> {
        self.get(self.base)
    }

    fn pop_front(&mut self) -> Slot {
        let slot = *self.slot(self.base);
        self.base += 1;
        self.len -= 1;
        slot
    }

    fn push_back(&mut self, slot: Slot) {
        debug_assert!(self.len < self.slots.len());
        let at = self.ring_index(self.end());
        self.slots[at] = slot;
        self.len += 1;
    }

    /// The slot of `id` if it is still in the ROB.
    fn get(&self, id: u64) -> Option<&Slot> {
        (id >= self.base && id < self.end()).then(|| self.slot(id))
    }

    /// Where `id` sits in the ring.
    fn ring_index(&self, id: u64) -> usize {
        (id & self.mask) as usize
    }

    /// The slot of `id`, which is in the ROB.
    fn slot(&self, id: u64) -> &Slot {
        debug_assert!(id >= self.base && id < self.end());
        &self.slots[self.ring_index(id)]
    }

    fn slot_mut(&mut self, id: u64) -> &mut Slot {
        debug_assert!(id >= self.base && id < self.end());
        let at = self.ring_index(id);
        &mut self.slots[at]
    }
}

/// A set of in-flight instruction ids: one bit per slot of a ring at
/// least `rob_entries` long, so live ids never share a bit.
#[derive(Debug)]
struct IdSet {
    words: Vec<u64>,
    mask: u64,
}

impl IdSet {
    /// An empty set over a ring of `ring` ids, a power of two of at
    /// least 64.
    fn new(ring: usize) -> Self {
        IdSet {
            words: vec![0; ring / 64],
            mask: ring as u64 - 1,
        }
    }

    fn bit(&self, id: u64) -> (usize, u64) {
        let at = id & self.mask;
        ((at / 64) as usize, 1 << (at % 64))
    }

    /// Add `id`; false if it was already in.
    fn insert(&mut self, id: u64) -> bool {
        let (w, b) = self.bit(id);
        let added = self.words[w] & b == 0;
        self.words[w] |= b;
        added
    }

    fn remove(&mut self, id: u64) {
        let (w, b) = self.bit(id);
        self.words[w] &= !b;
    }

    /// The members in `ids`, in increasing order. `ids` must lie within
    /// one ring length.
    fn members(&self, ids: Range<u64>) -> impl Iterator<Item = u64> + '_ {
        let Range { start: mut id, end } = ids;
        std::iter::from_fn(move || {
            while id < end {
                let at = id & self.mask;
                let ahead = self.words[(at / 64) as usize] >> (at % 64);
                if ahead == 0 {
                    id += 64 - at % 64;
                } else {
                    id += u64::from(ahead.trailing_zeros());
                    if id >= end {
                        break;
                    }
                    id += 1;
                    return Some(id - 1);
                }
            }
            None
        })
    }
}

/// One issue queue (int or fp) with its Rescue segmentation.
#[derive(Debug)]
struct Queue {
    old: Part,
    new: Part,
    buf: Part,
    /// Old-half free slots visible to the new half (one cycle delayed —
    /// the cycle-split compaction request).
    old_free_prev: usize,
    /// The selectable entries whose sources are ready. Old ids precede
    /// buffer ids, which precede new ids, so the entries below the new
    /// half's front are the old half's.
    ready: IdSet,
}

impl Queue {
    fn new(ring: usize) -> Self {
        Queue {
            old: Part::default(),
            new: Part::default(),
            buf: Part::default(),
            old_free_prev: 0,
            ready: IdSet::new(ring),
        }
    }

    fn occupancy(&self) -> usize {
        self.old.len() + self.new.len() + self.buf.len()
    }

    /// The old and the new half's ids, of the live ids `live`.
    fn halves(&self, live: Range<u64>) -> (Range<u64>, Range<u64>) {
        let new_front = self.new.ids.front().map_or(live.end, |&id| id);
        (live.start..new_front, new_front..live.end)
    }

    fn half_of(&mut self, loc: Loc) -> &mut Part {
        match loc {
            Loc::Old => &mut self.old,
            Loc::New => &mut self.new,
            Loc::Buf | Loc::Gone => unreachable!("not a queue half"),
        }
    }
}

/// A queue half or the compaction buffer: its entries' ids, in id order.
/// A released entry stays in place until it reaches the front, so a
/// release shifts nothing; the front is always an entry still held.
#[derive(Debug, Default)]
struct Part {
    ids: VecDeque<u64>,
    /// How many of `ids` are still held.
    held: usize,
}

impl Part {
    fn len(&self) -> usize {
        self.held
    }

    fn push_back(&mut self, id: u64) {
        self.ids.push_back(id);
        self.held += 1;
    }

    /// Take the oldest entry out; `gone` tells the released ids.
    fn pop_front(&mut self, gone: impl Fn(u64) -> bool) -> Option<u64> {
        let id = self.ids.pop_front()?;
        self.held -= 1;
        self.trim(gone);
        Some(id)
    }

    /// One entry was released (and marked `gone`).
    fn release(&mut self, gone: impl Fn(u64) -> bool) {
        self.held -= 1;
        self.trim(gone);
    }

    fn trim(&mut self, gone: impl Fn(u64) -> bool) {
        while self.ids.front().is_some_and(|&id| gone(id)) {
            self.ids.pop_front();
        }
    }
}

/// Run `cfg`/`core` over `trace` until `n_instr` instructions commit.
///
/// # Panics
///
/// Panics if the configuration deadlocks (a bug, guarded by a watchdog).
pub fn simulate(
    cfg: &SimConfig,
    core: &CoreConfig,
    trace: impl IntoIterator<Item = TraceInstr>,
    n_instr: u64,
) -> SimResult {
    core.validate();
    let mut eng = Engine::new(cfg, core, trace.into_iter());
    eng.run(n_instr)
}

/// The instruction classes a trace holds, as far as they decide which
/// core resources a simulation over it can reach: the input to
/// [`CoreConfig::canonical_for`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceSummary {
    has_fp: bool,
}

impl TraceSummary {
    /// Summarize `trace`, which must be every instruction a simulation
    /// may fetch (the whole prefix it is fed, not a sample).
    pub fn of(trace: impl IntoIterator<Item = TraceInstr>) -> Self {
        TraceSummary {
            has_fp: trace.into_iter().any(|i| i.kind.is_fp()),
        }
    }

    /// Whether any instruction is floating point.
    pub fn has_fp(&self) -> bool {
        self.has_fp
    }
}

impl CoreConfig {
    /// The core that simulates exactly like this one over any trace
    /// `summary` describes, with every resource such a trace cannot
    /// reach at full strength. Cores with the same canonical core give
    /// equal [`SimResult`]s, so a sweep simulates only one of them.
    ///
    /// With no FP instruction the FP side is canonicalized: dispatch
    /// routes only `is_fp()` instructions to the FP queue, so the FP
    /// queue stays empty for the whole run, and every read of the FP
    /// fields then acts on an empty queue:
    ///
    /// * `fp_iq_halves` (and the FP capacity derived from it) is read by
    ///   Rescue selection, where both halves pick nothing and an empty
    ///   pick never overcommits; by compaction, which has nothing to
    ///   move; and by dispatch, only for FP instructions. Compaction's
    ///   one-time `old_free_prev` update on a two-half queue at most
    ///   marks a cycle busy, and idle-cycle skipping is exact either way.
    /// * `fp_width`, `fp_add` and `fp_mul` of [`CoreConfig::resources`]
    ///   are read by selection from the FP queue, and by the budget check
    ///   of integer picks, whose usage has every FP field at zero.
    ///
    /// The rule reads instruction classes only, never statistics.
    pub fn canonical_for(&self, summary: &TraceSummary) -> CoreConfig {
        if summary.has_fp {
            return *self;
        }
        CoreConfig {
            fp_iq_halves: 2,
            fp_be_groups: 2,
            ..*self
        }
    }
}

struct Engine<'c, T: Iterator<Item = TraceInstr>> {
    cfg: &'c SimConfig,
    core: &'c CoreConfig,
    trace: T,
    trace_done: bool,

    cycle: u64,
    rob: Rob,
    next_id: u64,

    /// The consumers of each producer, indexed like the ROB ring: filled
    /// at the consumers' dispatch, cleared when the slot is reused. A
    /// consumer retires after its producers, so every listed id is live
    /// while its producer is.
    consumers: Vec<Vec<u64>>,
    intq: Queue,
    fpq: Queue,
    lsq_count: usize,

    /// Pending replay-shadow ends (cycle, id, the issue cycle it belongs
    /// to), in cycle order: every issue's shadow lasts equally long.
    shadow_ends: VecDeque<(u64, u64, u64)>,
    /// Pending wakeups (ready time, id) of selectable entries whose
    /// sources are not ready yet, earliest first.
    wakes: BinaryHeap<Reverse<(u64, u64)>>,

    fetchq: VecDeque<(u64, TraceInstr)>,
    fetch_stall: bool,
    fetch_resume_at: u64,
    redirect_branch: Option<u64>,

    /// (detection_cycle, load id) for in-flight L1 misses.
    miss_checks: VecDeque<(u64, u64)>,
    /// Recently issued (cycle, id), for miss-shadow squashing.
    recent_issues: VecDeque<(u64, u64)>,

    budget: Resources,
    int_cap: usize,
    fp_cap: usize,
    lsq_cap: usize,
    fe_width: usize,
    hold_extra: u64,
    squash_window: u64,

    stats: SimResult,
    last_commit_cycle: u64,
    /// Committed count at the last IPC-window boundary.
    window_committed_base: u64,
    /// The `live.pipesim.*` counters, advanced once per IPC window.
    live: &'static rescue_obs::EngineCounters,
    /// Stage work since the last flush to the `pipesim.stages.*` counters.
    work: StageWork,
    /// Why dispatch stalled in the last stepped cycle, if it did.
    last_stall: Option<StallCause>,
    /// Whether fetch sat out the last stepped cycle on a redirect.
    fetch_stalled: bool,
    /// Selection's pick buffers for the old and new halves, reused every
    /// cycle (the baseline's combined selection uses the first).
    picks: [Vec<u64>; 2],
    /// Step every cycle, never jumping over idle ones (the reference the
    /// skip is tested against).
    #[cfg(test)]
    step_every_cycle: bool,
    /// Cycles stepped rather than skipped.
    #[cfg(test)]
    stepped: u64,
}

/// Why dispatch blocked this cycle (first blocked instruction's need).
#[derive(Clone, Copy, Debug)]
enum StallCause {
    Rob,
    Lsq,
    Iq,
}

impl<'c, T: Iterator<Item = TraceInstr>> Engine<'c, T> {
    fn new(cfg: &'c SimConfig, core: &'c CoreConfig, trace: T) -> Self {
        let (int_cap, fp_cap, lsq_cap) = core.capacities(cfg);
        let (hold_extra, squash_window) = (cfg.hold_extra, cfg.squash_window);
        let ring = cfg.rob_entries.next_power_of_two().max(64);
        Engine {
            cfg,
            core,
            trace,
            trace_done: false,
            cycle: 0,
            rob: Rob::new(ring),
            next_id: 0,
            consumers: vec![Vec::new(); ring],
            intq: Queue::new(ring),
            fpq: Queue::new(ring),
            lsq_count: 0,
            shadow_ends: VecDeque::new(),
            wakes: BinaryHeap::new(),
            fetchq: VecDeque::with_capacity(32),
            fetch_stall: false,
            fetch_resume_at: 0,
            redirect_branch: None,
            miss_checks: VecDeque::new(),
            recent_issues: VecDeque::new(),
            budget: core.resources(cfg),
            int_cap,
            fp_cap,
            lsq_cap,
            fe_width: core.frontend_width(cfg),
            hold_extra,
            squash_window,
            stats: SimResult::default(),
            last_commit_cycle: 0,
            window_committed_base: 0,
            live: rescue_obs::live::counters(),
            work: StageWork::default(),
            last_stall: None,
            fetch_stalled: false,
            picks: [Vec::new(), Vec::new()],
            #[cfg(test)]
            step_every_cycle: false,
            #[cfg(test)]
            stepped: 0,
        }
    }

    fn slot(&self, id: u64) -> &Slot {
        self.rob.slot(id)
    }

    fn slot_mut(&mut self, id: u64) -> &mut Slot {
        self.rob.slot_mut(id)
    }

    fn queue_mut(&mut self, fp: bool) -> &mut Queue {
        if fp {
            &mut self.fpq
        } else {
            &mut self.intq
        }
    }

    /// The `fp` queue, and whether an id it lists was released.
    fn queue_and_gone(&mut self, fp: bool) -> (&mut Queue, impl Fn(u64) -> bool + '_) {
        let rob = &self.rob;
        let q = if fp { &mut self.fpq } else { &mut self.intq };
        (q, move |id| id < rob.base || rob.slot(id).loc == Loc::Gone)
    }

    fn run(&mut self, n_instr: u64) -> SimResult {
        while self.stats.committed < n_instr {
            self.step();
            if self.trace_done && self.rob.is_empty() && self.fetchq.is_empty() {
                break;
            }
            assert!(
                self.cycle - self.last_commit_cycle < WATCHDOG_CYCLES,
                "simulator deadlock at cycle {} (committed {})",
                self.cycle,
                self.stats.committed
            );
        }
        self.stats.cycles = self.cycle;
        self.work.flush();
        self.stats.clone()
    }

    fn step(&mut self) {
        #[cfg(test)]
        {
            self.stepped += 1;
        }
        self.stats.sum_iq_occupancy += self.intq.occupancy() as u64;
        self.stats.sum_fpq_occupancy += self.fpq.occupancy() as u64;
        self.stats.sum_rob_occupancy += self.rob.len() as u64;
        // Non-short-circuiting `|`: every stage runs, in order.
        let busy = self.retire()
            | self.handle_miss_detections()
            | self.select_and_issue()
            | self.release_due()
            | self.compact()
            | self.dispatch()
            | self.fetch();
        self.advance(1);
        if !busy {
            #[cfg(test)]
            if self.step_every_cycle {
                return;
            }
            self.skip_idle_cycles();
        }
    }

    /// Jump over the cycles that would repeat the idle one just stepped.
    ///
    /// A cycle in which no stage changed any state leaves the engine as
    /// it found it, so every following cycle repeats it until a
    /// time-guarded condition flips: an entry's sources become ready, an
    /// issued instruction finishes or leaves the replay shadow, a miss is
    /// detected, or fetch resumes after a redirect. Each skipped cycle is
    /// accounted exactly as stepping it would be. The jump stops at the
    /// watchdog limit so a deadlock still panics at the same cycle.
    fn skip_idle_cycles(&mut self) {
        let now = self.cycle;
        let next = self
            .next_event(now)
            .min(self.last_commit_cycle + WATCHDOG_CYCLES);
        if next <= now {
            return;
        }
        let k = next - now;
        self.stats.sum_iq_occupancy += k * self.intq.occupancy() as u64;
        self.stats.sum_fpq_occupancy += k * self.fpq.occupancy() as u64;
        self.stats.sum_rob_occupancy += k * self.rob.len() as u64;
        if let Some(cause) = self.last_stall {
            self.count_stall(cause, k);
        }
        if self.fetch_stalled {
            self.stats.fetch_stall_cycles += k;
        }
        self.advance(k);
    }

    /// The earliest cycle `>= now` at which a time-guarded condition of
    /// some stage can change (`u64::MAX` if none can). Stale events can
    /// only make it earlier, which costs an idle step, never a missed
    /// change. Of the ROB only the head matters: retire waits for it.
    fn next_event(&self, now: u64) -> u64 {
        let retire_at = match self.rob.front() {
            Some(h) if h.state == State::Issued && h.loc == Loc::Gone => h.done_cycle + 1,
            _ => u64::MAX,
        };
        [
            retire_at,
            self.shadow_ends.front().map_or(u64::MAX, |&(at, _, _)| at),
            self.wakes.peek().map_or(u64::MAX, |w| w.0 .0),
            self.miss_checks.front().map_or(u64::MAX, |&(when, _)| when),
            self.fetch_resume_at,
        ]
        .into_iter()
        .filter(|&t| t >= now)
        .min()
        .unwrap_or(u64::MAX)
    }

    /// Move the clock `k` cycles forward, closing every IPC window whose
    /// boundary it crosses.
    fn advance(&mut self, k: u64) {
        let from = self.cycle;
        self.cycle += k;
        for _ in from / IPC_WINDOW_CYCLES..self.cycle / IPC_WINDOW_CYCLES {
            self.close_window();
        }
    }

    fn close_window(&mut self) {
        let window = self.stats.committed - self.window_committed_base;
        self.stats.ipc_windows.record(window);
        self.window_committed_base = self.stats.committed;
        self.live.pipesim_cycles.add(IPC_WINDOW_CYCLES);
        self.live.pipesim_committed.add(window);
        self.work.flush();
        // Counter tracks for the Perfetto timeline (no-ops unless the
        // tracer is enabled; cheap enough for the window boundary).
        if rescue_obs::global().enabled() {
            rescue_obs::counter(
                "pipesim.window_ipc",
                window as f64 / IPC_WINDOW_CYCLES as f64,
            );
            rescue_obs::counter("pipesim.int_iq_occupancy", self.intq.occupancy() as f64);
            rescue_obs::counter("pipesim.rob_occupancy", self.rob.len() as f64);
        }
    }

    // ---- Wakeup: ready times and ready sets.

    /// The latest ready time of `id`'s sources.
    fn sources_ready_time(&self, id: u64) -> u64 {
        let mut t = 0;
        for dep in self.slot(id).instr.src_deps.into_iter().flatten() {
            match id.checked_sub(dep as u64) {
                None => return NOT_READY,
                // A retired producer's result was ready when it retired.
                Some(p) if p < self.rob.base => {}
                Some(p) => t = t.max(self.slot(p).ready_at),
            }
        }
        t
    }

    /// Set producer `p`'s ready time and recompute its consumers'.
    fn set_ready_at(&mut self, p: u64, at: u64) {
        self.slot_mut(p).ready_at = at;
        let ring = self.rob.ring_index(p);
        let consumers = std::mem::take(&mut self.consumers[ring]);
        for &c in &consumers {
            let t = self.sources_ready_time(c);
            self.slot_mut(c).ready_time = t;
            self.place(c);
        }
        self.consumers[ring] = consumers;
    }

    /// Put `id` on its queue's ready set or take it off, as its state,
    /// place and ready time now say; a selectable entry whose sources
    /// become ready later gets a wakeup at that time.
    fn place(&mut self, id: u64) {
        let cycle = self.cycle;
        let s = self.slot(id);
        let (selectable, ready_time) = (s.selectable(), s.ready_time);
        let ready = &mut self.queue_mut(s.instr.kind.is_fp()).ready;
        if selectable && ready_time <= cycle {
            if ready.insert(id) {
                self.work.woken += 1;
            }
            return;
        }
        ready.remove(id);
        if selectable && ready_time != NOT_READY {
            self.wakes.push(Reverse((ready_time, id)));
        }
    }

    /// Put every entry whose wakeup is due on its ready set.
    fn wake_due(&mut self) {
        while let Some(&Reverse((at, id))) = self.wakes.peek() {
            if at > self.cycle {
                break;
            }
            self.wakes.pop();
            self.work.events += 1;
            // A wakeup whose entry's ready time moved on since is stale.
            if self.rob.get(id).is_some_and(|s| s.ready_time <= self.cycle) {
                self.place(id);
            }
        }
    }

    // ---- Stage 1: retire.
    fn retire(&mut self) -> bool {
        let mut n = 0;
        while n < self.cfg.commit_width {
            let Some(head) = self.rob.front() else { break };
            if head.state != State::Issued || head.done_cycle >= self.cycle || head.loc != Loc::Gone
            {
                break;
            }
            let slot = self.rob.pop_front();
            if slot.instr.kind.is_mem() {
                self.lsq_count -= 1;
            }
            if slot.instr.kind == InstrKind::Load && slot.instr.l1_miss {
                self.stats.l1_misses += 1;
            }
            self.stats.committed += 1;
            self.last_commit_cycle = self.cycle;
            n += 1;
        }
        n > 0
    }

    // ---- Stage 2: L1-miss detection and issue-shadow squash.
    fn handle_miss_detections(&mut self) -> bool {
        let mut changed = false;
        while let Some(&(when, load_id)) = self.miss_checks.front() {
            if when > self.cycle {
                break;
            }
            self.miss_checks.pop_front();
            changed = true;
            if load_id < self.rob.base {
                continue; // already retired (cannot happen for misses)
            }
            // Correct the load's readiness to the true latency.
            let (issue, actual) = {
                let s = self.slot(load_id);
                if s.state != State::Issued {
                    continue; // load itself was squashed; re-check on reissue
                }
                (s.issue_cycle, s.done_cycle)
            };
            if when != issue + self.cfg.l1_latency {
                // Stale check from an issue that was squashed and redone.
                continue;
            }
            self.set_ready_at(load_id, actual);

            // Squash everything issued in the shadow window.
            let lo = self.cycle.saturating_sub(self.squash_window);
            for i in 0..self.recent_issues.len() {
                let (c, id) = self.recent_issues[i];
                if c < lo || c >= self.cycle || id == load_id || id < self.rob.base {
                    continue;
                }
                let cycle = self.cycle;
                let s = self.slot_mut(id);
                // Only a not yet finished instruction is squashed.
                if s.state == State::Issued && s.done_cycle >= cycle {
                    // A buffer resident goes back to waiting in the buffer.
                    s.state = if s.loc == Loc::Buf {
                        State::InBuffer
                    } else {
                        State::InQueue
                    };
                    self.stats.miss_squashes += 1;
                    self.set_ready_at(id, NOT_READY);
                    self.place(id);
                }
            }
        }
        // Trim the recent-issue history.
        let keep_from = self.cycle.saturating_sub(self.squash_window + 2);
        while matches!(self.recent_issues.front(), Some(&(c, _)) if c < keep_from) {
            self.recent_issues.pop_front();
        }
        changed
    }

    // ---- Stage 3: wakeup, select, issue.
    fn select_and_issue(&mut self) -> bool {
        self.wake_due();
        let issued_before = self.stats.issued_total;
        let [mut picks_old, mut picks_new] = std::mem::take(&mut self.picks);
        match self.cfg.policy {
            Policy::Baseline => {
                // One combined selection: int picks, then fp picks.
                let mut used = Resources::zero();
                let picks = &mut picks_old;
                let live = self.live_ids();
                self.work.select_scanned +=
                    self.pick_from(&self.intq.ready, live.clone(), false, &mut used, picks);
                self.work.select_scanned +=
                    self.pick_from(&self.fpq.ready, live, true, &mut used, picks);
                for &id in picks.iter() {
                    self.issue(id);
                }
            }
            Policy::Rescue => {
                for fp in [false, true] {
                    let (halves_present, q) = if fp {
                        (self.core.fp_iq_halves, &self.fpq)
                    } else {
                        (self.core.int_iq_halves, &self.intq)
                    };
                    picks_old.clear();
                    picks_new.clear();
                    if halves_present == 1 {
                        // Single surviving half: no cross-half policy.
                        let mut used = Resources::zero();
                        self.work.select_scanned += self.pick_from(
                            &q.ready,
                            self.live_ids(),
                            fp,
                            &mut used,
                            &mut picks_old,
                        );
                        for &id in &picks_old {
                            self.issue(id);
                        }
                        continue;
                    }
                    // Each half selects as if the other selects nothing.
                    let (old, new) = q.halves(self.live_ids());
                    let mut used_old = Resources::zero();
                    self.work.select_scanned +=
                        self.pick_from(&q.ready, old, fp, &mut used_old, &mut picks_old);
                    let mut used_new = Resources::zero();
                    self.work.select_scanned +=
                        self.pick_from(&q.ready, new, fp, &mut used_new, &mut picks_new);
                    let total = used_old.plus(&used_new);
                    if self.budget.fits(&total) {
                        for &id in picks_old.iter().chain(&picks_new) {
                            self.issue(id);
                        }
                    } else {
                        // Overcommit: replay per the configured policy;
                        // any kept half fits by construction since each
                        // half obeyed the constraints alone.
                        use crate::config::ReplayPolicy;
                        let (keep, drop) = match self.cfg.replay_policy {
                            ReplayPolicy::SmallerHalf => {
                                if picks_old.len() < picks_new.len() {
                                    (&picks_new, &picks_old)
                                } else {
                                    (&picks_old, &picks_new)
                                }
                            }
                            ReplayPolicy::NewHalf => (&picks_old, &picks_new),
                            ReplayPolicy::LargerHalf => {
                                if picks_old.len() >= picks_new.len() {
                                    (&picks_new, &picks_old)
                                } else {
                                    (&picks_old, &picks_new)
                                }
                            }
                        };
                        self.stats.overcommit_replays += drop.len() as u64;
                        for &id in keep {
                            self.issue(id);
                        }
                    }
                }
            }
        }
        picks_old.clear();
        picks_new.clear();
        self.picks = [picks_old, picks_new];
        self.stats.issued_total != issued_before
    }

    fn issue(&mut self, id: u64) {
        let cycle = self.cycle;
        let l1 = self.cfg.l1_latency;
        let l2 = self.cfg.l2_latency;
        let mem = self.cfg.mem_latency;
        let (int_mul, fp_add, fp_mul) = (
            self.cfg.int_mul_latency,
            self.cfg.fp_add_latency,
            self.cfg.fp_mul_latency,
        );
        let penalty = self.cfg.mispredict_penalty;
        let is_redirect = self.redirect_branch == Some(id);
        let mut miss_check = None;
        let mut resume_at = None;
        let bypass = {
            let s = self.slot_mut(id);
            debug_assert_eq!(s.state, State::InQueue);
            s.state = State::Issued;
            s.issue_cycle = cycle;
            let (latency, bypass) = match s.instr.kind {
                InstrKind::IntAlu | InstrKind::Branch | InstrKind::Store => (1, 1),
                InstrKind::IntMul => (int_mul, int_mul),
                InstrKind::FpAdd => (fp_add, fp_add),
                InstrKind::FpMul => (fp_mul, fp_mul),
                InstrKind::Load => {
                    let actual = if !s.instr.l1_miss {
                        l1
                    } else if !s.instr.l2_miss {
                        l2
                    } else {
                        mem
                    };
                    if s.instr.l1_miss {
                        miss_check = Some((cycle + l1, id));
                    }
                    // Speculative wakeup assumes an L1 hit.
                    (actual, l1)
                }
            };
            s.done_cycle = cycle + latency;
            if is_redirect {
                resume_at = Some(cycle + latency + penalty);
            }
            bypass
        };
        self.place(id);
        self.set_ready_at(id, cycle + bypass);
        self.shadow_ends
            .push_back((cycle + l1 + self.hold_extra, id, cycle));
        if let Some(mc) = miss_check {
            // Keep detection queue sorted by time (l1 latency constant, so
            // pushes are already in order).
            self.miss_checks.push_back(mc);
        }
        if let Some(r) = resume_at {
            self.fetch_resume_at = r;
            self.fetch_stall = true; // stays stalled until the resume time
            self.redirect_branch = None;
        }
        self.recent_issues.push_back((cycle, id));
        self.stats.issued_total += 1;
    }

    /// Oldest-first pick from the members of `ready` (the ready set of
    /// the fp or int queue) in `ids` under the shared budget, appended to
    /// `picks`.
    ///
    /// Every kind an int-queue entry can hold consumes `int_width`, and
    /// every fp-queue kind consumes `fp_width`, so once the queue's width
    /// is used up no later entry fits and the walk stops. Returns how
    /// many entries it examined.
    fn pick_from(
        &self,
        ready: &IdSet,
        ids: Range<u64>,
        fp: bool,
        used: &mut Resources,
        picks: &mut Vec<u64>,
    ) -> u64 {
        let width_used = |used: &Resources| {
            if fp {
                used.fp_width >= self.budget.fp_width
            } else {
                used.int_width >= self.budget.int_width
            }
        };
        let mut scanned = 0;
        for id in ready.members(ids) {
            if width_used(used) {
                break;
            }
            scanned += 1;
            let s = self.slot(id);
            debug_assert!(s.selectable() && s.ready_time <= self.cycle);
            let after = used.plus(&kind_usage(s.instr.kind));
            if !self.budget.fits(&after) {
                continue;
            }
            *used = after;
            picks.push(id);
        }
        scanned
    }

    // ---- Stage 3b: release queue slots out of the replay shadow.
    fn release_due(&mut self) -> bool {
        let mut changed = false;
        while let Some(&(at, id, issued)) = self.shadow_ends.front() {
            if at > self.cycle {
                break;
            }
            self.shadow_ends.pop_front();
            self.work.events += 1;
            let Some(s) = self.rob.get(id) else {
                continue;
            };
            // Squashed since (perhaps reissued), or a buffer resident,
            // which is released once it reaches the old half (see
            // `arrive_in_old`).
            if s.issue_cycle != issued
                || s.state != State::Issued
                || !matches!(s.loc, Loc::Old | Loc::New)
            {
                continue;
            }
            let (loc, fp) = (s.loc, s.instr.kind.is_fp());
            self.slot_mut(id).loc = Loc::Gone;
            let (q, gone) = self.queue_and_gone(fp);
            q.half_of(loc).release(gone);
            self.work.released += 1;
            changed = true;
        }
        changed
    }

    // ---- Stage 4: compaction.
    fn compact(&mut self) -> bool {
        let mut changed = false;
        let mut moves = 0;
        match self.cfg.policy {
            Policy::Baseline => {
                // Single-cycle inter-segment compaction: the queue behaves
                // as one FIFO. Entries flow new -> old freely.
                for fp in [false, true] {
                    let half = if fp { self.fp_cap } else { self.int_cap } / 2;
                    loop {
                        let (q, gone) = self.queue_and_gone(fp);
                        if q.old.len() >= half {
                            break;
                        }
                        let Some(id) = q.new.pop_front(gone) else {
                            break;
                        };
                        q.old.push_back(id);
                        self.slot_mut(id).loc = Loc::Old;
                        changed = true;
                        moves += 1;
                    }
                }
            }
            Policy::Rescue => {
                let buf_cap = self.cfg.compaction_buffer;
                for fp in [false, true] {
                    let (cap, halves) = if fp {
                        (self.fp_cap, self.core.fp_iq_halves)
                    } else {
                        (self.int_cap, self.core.int_iq_halves)
                    };
                    if halves == 1 {
                        continue; // single surviving half, no movement
                    }
                    let half = cap / 2;
                    // Old half consumes the temporary buffer; entries
                    // arriving there become selectable.
                    loop {
                        let (q, gone) = self.queue_and_gone(fp);
                        if q.old.len() >= half {
                            break;
                        }
                        let Some(id) = q.buf.pop_front(gone) else {
                            break;
                        };
                        q.old.push_back(id);
                        self.arrive_in_old(id);
                        changed = true;
                        moves += 1;
                    }
                    // New half forwards entries toward the buffer based on
                    // *last* cycle's free-slot count (cycle-split request).
                    let q = self.queue_mut(fp);
                    let mut quota = q.old_free_prev.min(buf_cap - q.buf.len());
                    while quota > 0 {
                        let (q, gone) = self.queue_and_gone(fp);
                        let Some(id) = q.new.pop_front(gone) else {
                            break;
                        };
                        q.buf.push_back(id);
                        let s = self.slot_mut(id);
                        s.loc = Loc::Buf;
                        if s.state == State::InQueue {
                            s.state = State::InBuffer;
                            self.place(id);
                        }
                        quota -= 1;
                        changed = true;
                        moves += 1;
                    }
                    let q = self.queue_mut(fp);
                    let old_free = half - q.old.len().min(half);
                    changed |= old_free != q.old_free_prev;
                    q.old_free_prev = old_free;
                }
            }
        }
        self.work.compaction_moves += moves;
        changed
    }

    /// `id` moved from the compaction buffer into the old half in this
    /// cycle's compaction.
    fn arrive_in_old(&mut self, id: u64) {
        let cycle = self.cycle;
        let shadow_end = {
            let s = self.slot_mut(id);
            s.loc = Loc::Old;
            match s.state {
                State::InBuffer => {
                    s.state = State::InQueue;
                    None
                }
                State::Issued => Some(s.issue_cycle),
                State::InQueue => None,
            }
        };
        match shadow_end {
            None => self.place(id),
            // Its shadow ended while it sat in the buffer: the release,
            // which runs before compaction, frees it next cycle. This
            // cycle's release took every shadow end due by now, so the
            // queue stays in cycle order.
            Some(issued) if issued + self.cfg.l1_latency + self.hold_extra <= cycle => {
                self.shadow_ends.push_front((cycle + 1, id, issued));
            }
            Some(_) => {}
        }
    }

    // ---- Stage 5: dispatch from the fetch queue into the window.
    fn dispatch(&mut self) -> bool {
        let mut stalled: Option<StallCause> = None;
        let rob_before = self.rob.len();
        for _ in 0..self.fe_width {
            let Some(&(id, instr)) = self.fetchq.front() else {
                break;
            };
            if self.rob.len() >= self.cfg.rob_entries {
                stalled = Some(StallCause::Rob);
                break;
            }
            if instr.kind.is_mem() && self.lsq_count >= self.lsq_cap {
                stalled = Some(StallCause::Lsq);
                break;
            }
            let fp = instr.kind.is_fp();
            let (q, cap, halves) = if fp {
                (&mut self.fpq, self.fp_cap, self.core.fp_iq_halves)
            } else {
                (&mut self.intq, self.int_cap, self.core.int_iq_halves)
            };
            let ok = match self.cfg.policy {
                Policy::Baseline => q.occupancy() < cap,
                Policy::Rescue => {
                    if halves == 1 {
                        q.old.len() < cap
                    } else {
                        // Insertion goes through the new half only.
                        q.new.len() < cap / 2
                    }
                }
            };
            if !ok {
                stalled = Some(StallCause::Iq);
                break;
            }
            let loc = match self.cfg.policy {
                Policy::Rescue if halves == 1 => Loc::Old,
                Policy::Rescue => Loc::New,
                // FIFO semantics: fill old first, overflow to new.
                Policy::Baseline if q.old.len() < cap / 2 => Loc::Old,
                Policy::Baseline => Loc::New,
            };
            q.half_of(loc).push_back(id);
            self.fetchq.pop_front();
            debug_assert_eq!(id, self.rob.end());
            let ring = self.rob.ring_index(id);
            self.consumers[ring].clear();
            for dep in instr.src_deps.into_iter().flatten() {
                match id.checked_sub(dep as u64) {
                    Some(p) if p >= self.rob.base => {
                        let ring = self.rob.ring_index(p);
                        self.consumers[ring].push(id);
                    }
                    _ => {}
                }
            }
            self.rob.push_back(Slot {
                instr,
                state: State::InQueue,
                issue_cycle: 0,
                done_cycle: u64::MAX,
                loc,
                ready_time: NOT_READY,
                ready_at: NOT_READY,
            });
            let ready_time = self.sources_ready_time(id);
            self.slot_mut(id).ready_time = ready_time;
            self.place(id);
            if instr.kind.is_mem() {
                self.lsq_count += 1;
            }
        }
        if let Some(cause) = stalled {
            self.count_stall(cause, 1);
        }
        self.last_stall = stalled;
        self.rob.len() != rob_before
    }

    /// Count `k` dispatch-stall cycles blocked on `cause`.
    fn count_stall(&mut self, cause: StallCause, k: u64) {
        self.stats.dispatch_stall_cycles += k;
        match cause {
            StallCause::Rob => self.stats.stall_rob_full += k,
            StallCause::Lsq => self.stats.stall_lsq_full += k,
            StallCause::Iq => self.stats.stall_iq_full += k,
        }
    }

    /// The ids in the ROB.
    fn live_ids(&self) -> Range<u64> {
        self.rob.base..self.rob.end()
    }

    // ---- Stage 6: fetch.
    fn fetch(&mut self) -> bool {
        self.fetch_stalled = self.fetch_stall
            && (self.redirect_branch.is_some() || self.cycle < self.fetch_resume_at);
        if self.fetch_stalled {
            self.stats.fetch_stall_cycles += 1;
            return false;
        }
        let mut changed = std::mem::take(&mut self.fetch_stall);
        for _ in 0..self.fe_width {
            if self.fetchq.len() >= 32 || self.trace_done {
                break;
            }
            changed = true;
            let Some(instr) = self.trace.next() else {
                self.trace_done = true;
                break;
            };
            let id = self.next_id;
            self.next_id += 1;
            self.fetchq.push_back((id, instr));
            if instr.kind == InstrKind::Branch && instr.mispredict {
                self.stats.mispredicts += 1;
                self.redirect_branch = Some(id);
                self.fetch_stall = true;
                self.fetch_resume_at = u64::MAX;
                break;
            }
        }
        changed
    }
}

fn kind_usage(kind: InstrKind) -> Resources {
    let mut r = Resources::zero();
    match kind {
        InstrKind::IntAlu | InstrKind::Branch => {
            r.int_alu = 1;
            r.int_width = 1;
        }
        InstrKind::IntMul => {
            r.int_mul = 1;
            r.int_width = 1;
        }
        InstrKind::Load | InstrKind::Store => {
            r.mem_ports = 1;
            r.int_width = 1;
        }
        InstrKind::FpAdd => {
            r.fp_add = 1;
            r.fp_width = 1;
        }
        InstrKind::FpMul => {
            r.fp_mul = 1;
            r.fp_width = 1;
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReplayPolicy;
    use rescue_obs::SplitMix64;
    use rescue_workloads::{BenchmarkProfile, TraceGenerator};

    /// [`simulate`] the fast way (skipping idle cycles) or the reference
    /// way (stepping every cycle); also returns how many cycles were
    /// stepped.
    fn run(
        cfg: &SimConfig,
        core: &CoreConfig,
        trace: impl Iterator<Item = TraceInstr>,
        n_instr: u64,
        fast: bool,
    ) -> (SimResult, u64) {
        core.validate();
        let mut eng = Engine::new(cfg, core, trace);
        eng.step_every_cycle = !fast;
        let result = eng.run(n_instr);
        (result, eng.stepped)
    }

    /// A core with a single surviving int or fp issue-queue half.
    fn single_half(fp: bool) -> CoreConfig {
        CoreConfig {
            int_iq_halves: if fp { 2 } else { 1 },
            fp_iq_halves: if fp { 1 } else { 2 },
            ..CoreConfig::healthy()
        }
    }

    #[test]
    fn skipping_idle_cycles_matches_stepping() {
        let cores = CoreConfig::all_degraded();
        let replays = [
            ReplayPolicy::SmallerHalf,
            ReplayPolicy::NewHalf,
            ReplayPolicy::LargerHalf,
        ];
        let mut rng = SplitMix64::new(0x51c1_d1e5);
        let (mut case, mut cycles, mut stepped) = (0, 0, 0);
        for policy in [Policy::Baseline, Policy::Rescue] {
            for bench in ["gzip", "mcf", "swim", "art"] {
                let prof = BenchmarkProfile::by_name(bench).unwrap();
                for seed in [1, 2] {
                    for halvings in [0, 2, 5] {
                        let mut cfg = SimConfig::paper(policy).scaled_to_halvings(halvings);
                        cfg.replay_policy = replays[case % 3];
                        cfg.compaction_buffer = [1, 4, 8][case / 3 % 3];
                        let core = match case % 4 {
                            0 => single_half(case % 8 == 4),
                            _ => cores[rng.below(cores.len())],
                        };
                        case += 1;
                        let trace = || TraceGenerator::new(&prof, seed);
                        let (want, _) = run(&cfg, &core, trace(), 3_000, false);
                        let (got, steps) = run(&cfg, &core, trace(), 3_000, true);
                        assert_eq!(
                            got, want,
                            "{policy:?} {bench} seed {seed} halvings {halvings} {core:?} \
                             {:?} buffer {}",
                            cfg.replay_policy, cfg.compaction_buffer
                        );
                        cycles += want.cycles;
                        stepped += steps;
                    }
                }
            }
        }
        // The grid spends most of its cycles waiting on memory: if it did
        // not, the comparison above would not exercise the skip.
        assert!(stepped * 2 < cycles, "stepped {stepped} of {cycles} cycles");
    }

    /// An entry issued from the new half and forwarded into the
    /// compaction buffer before its replay shadow ends is released only
    /// once it reaches the old half; the release bound must still cover
    /// it while it sits in the buffer.
    #[test]
    fn issued_entry_forwarded_into_the_buffer_is_released_on_time() {
        let cfg = SimConfig::paper(Policy::Rescue);
        let core = CoreConfig::healthy();
        let shadow = cfg.l1_latency + cfg.hold_extra;
        // Loads that miss hold old-half slots, so ready ALU ops issue
        // from the new half; the loop below checks that some of them are
        // forwarded into the buffer inside their shadow.
        let trace = || {
            (0u64..).map(|i| {
                let mut t = TraceInstr::simple_alu();
                if i % 24 == 0 {
                    t.kind = InstrKind::Load;
                    t.l1_miss = true;
                    t.l2_miss = i % 48 == 0;
                } else if i % 3 == 0 {
                    t.src_deps = [Some(1), None];
                }
                t
            })
        };
        let mut eng = Engine::new(&cfg, &core, trace());
        let mut forwarded = 0;
        while eng.stats.committed < 2_000 {
            eng.step();
            let rob = &eng.rob;
            forwarded += eng
                .intq
                .buf
                .ids
                .iter()
                .map(|&id| rob.slot(id))
                .filter(|s| s.state == State::Issued && eng.cycle < s.issue_cycle + shadow)
                .count();
        }
        assert!(forwarded > 0, "no issued entry was forwarded in its shadow");
        let (want, _) = run(&cfg, &core, trace(), 2_000, false);
        let (got, _) = run(&cfg, &core, trace(), 2_000, true);
        assert_eq!(got, want);
    }

    /// FNV-1a over the `Debug` rendering of every result of a small grid
    /// (both policies, four benchmarks, two nodes, healthy, single-half
    /// and degraded cores). Recorded before the event bounds and the
    /// width early exit went in: it catches a change that the fast and
    /// reference modes would share.
    #[test]
    fn results_match_the_recorded_digest() {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let cores = [
            CoreConfig::healthy(),
            single_half(false),
            single_half(true),
            CoreConfig::all_degraded()[45],
        ];
        for policy in [Policy::Baseline, Policy::Rescue] {
            for bench in ["gzip", "mcf", "swim", "art"] {
                let prof = BenchmarkProfile::by_name(bench).unwrap();
                for halvings in [0, 5] {
                    let cfg = SimConfig::paper(policy).scaled_to_halvings(halvings);
                    for core in &cores {
                        let r = simulate(&cfg, core, TraceGenerator::new(&prof, 11), 1_500);
                        for b in format!("{r:?}").bytes() {
                            h ^= u64::from(b);
                            h = h.wrapping_mul(0x1000_0000_01b3);
                        }
                    }
                }
            }
        }
        assert_eq!(h, RECORDED_DIGEST, "got {h:#018x}");
    }

    const RECORDED_DIGEST: u64 = 0xc160_46fe_4476_84d3;

    /// Shapes of synthetic trace that drive the engine's event paths
    /// harder than the SPEC profiles do.
    #[derive(Clone, Copy, Debug)]
    enum Stress {
        /// Bursts of L1-missing loads with dependent consumers: miss
        /// squashes land on entries in every queue part, the compaction
        /// buffer included.
        MissStorm,
        /// Every instruction waits on the one before it, through
        /// long-latency int, fp and load producers.
        Chains,
        /// Bursts of mispredicted branches between dependent ALU work.
        MispredictBursts,
        /// Every kind, random dependences, misses and mispredicts.
        Mixed,
    }

    const STRESS: [Stress; 4] = [
        Stress::MissStorm,
        Stress::Chains,
        Stress::MispredictBursts,
        Stress::Mixed,
    ];

    /// An endless `shape` trace drawn from `seed`. No dependence reaches
    /// back before the first instruction.
    fn stress_trace(shape: Stress, seed: u64) -> impl Iterator<Item = TraceInstr> {
        use InstrKind::*;
        let mut rng = SplitMix64::new(seed);
        (0u64..).map(move |i| {
            let mut t = TraceInstr::simple_alu();
            let dep = |rng: &mut SplitMix64, max: usize| {
                let d = 1 + rng.below(max) as u64;
                (d <= i).then_some(d as u16)
            };
            match shape {
                Stress::MissStorm => {
                    if i % 64 < 24 && rng.gen_bool(0.7) {
                        t.kind = Load;
                        t.l1_miss = rng.gen_bool(0.9);
                        t.l2_miss = t.l1_miss && rng.gen_bool(0.3);
                        t.src_deps[0] = dep(&mut rng, 40).filter(|_| rng.gen_bool(0.3));
                    } else {
                        t.kind = [IntAlu, IntAlu, FpAdd, Store][rng.below(4)];
                        t.src_deps = [dep(&mut rng, 4), dep(&mut rng, 12)];
                    }
                }
                Stress::Chains => {
                    t.kind = [IntAlu, IntMul, FpAdd, FpMul, Load, IntAlu][rng.below(6)];
                    t.l1_miss = t.kind == Load && rng.gen_bool(0.2);
                    t.src_deps = [
                        dep(&mut rng, 1),
                        dep(&mut rng, 200).filter(|_| rng.next_bool()),
                    ];
                }
                Stress::MispredictBursts => {
                    if i % 96 < 32 && i % 3 == 0 {
                        t.kind = Branch;
                        t.mispredict = rng.gen_bool(0.6);
                    } else {
                        t.kind = [IntAlu, IntAlu, IntMul, Load][rng.below(4)];
                    }
                    t.src_deps = [dep(&mut rng, 6), None];
                }
                Stress::Mixed => {
                    t.kind = [IntAlu, IntMul, FpAdd, FpMul, Load, Store, Branch][rng.below(7)];
                    t.l1_miss = t.kind == Load && rng.gen_bool(0.4);
                    t.l2_miss = t.l1_miss && rng.gen_bool(0.5);
                    t.mispredict = t.kind == Branch && rng.gen_bool(0.1);
                    t.src_deps = [
                        dep(&mut rng, 16),
                        dep(&mut rng, 64).filter(|_| rng.next_bool()),
                    ];
                }
            }
            t
        })
    }

    /// FNV-1a over the `Debug` rendering of the result of every stress
    /// case at `n_instr` instructions and `halvings`: both policies, every
    /// shape, healthy, single-half and degraded cores, and on Rescue every
    /// [`ReplayPolicy`] with compaction buffers of 1, 4 and 8 entries.
    fn stress_digest(n_instr: u64, halvings: &[u32]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let cores = [
            CoreConfig::healthy(),
            single_half(false),
            single_half(true),
            CoreConfig::all_degraded()[45],
            CoreConfig::all_degraded()[22],
        ];
        let replays = [
            ReplayPolicy::SmallerHalf,
            ReplayPolicy::NewHalf,
            ReplayPolicy::LargerHalf,
        ];
        let mut case = 0;
        for &halving in halvings {
            for (s, &shape) in STRESS.iter().enumerate() {
                let mut cfgs = Vec::new();
                for core in &cores {
                    cfgs.push((SimConfig::paper(Policy::Baseline), *core));
                }
                for combo in 0..9 {
                    let mut cfg = SimConfig::paper(Policy::Rescue);
                    cfg.replay_policy = replays[combo % 3];
                    cfg.compaction_buffer = [1, 4, 8][combo / 3];
                    cfgs.push((cfg, cores[(s + combo) % cores.len()]));
                }
                for (cfg, core) in cfgs {
                    let cfg = cfg.scaled_to_halvings(halving);
                    let r = simulate(&cfg, &core, stress_trace(shape, 7 + case), n_instr);
                    assert!(r.committed >= n_instr, "{shape:?} {core:?}");
                    case += 1;
                    for b in format!("{r:?}").bytes() {
                        h ^= u64::from(b);
                        h = h.wrapping_mul(0x1000_0000_01b3);
                    }
                }
            }
        }
        h
    }

    /// The stress matrix at 1,500 instructions on the 90 and 18 nm
    /// latencies. The digest was recorded on the engine that rescanned
    /// its window every cycle, before wakeup, Done promotion and slot
    /// release became event driven.
    #[test]
    fn stress_results_match_the_recorded_digest() {
        let h = stress_digest(1_500, &[0, 5]);
        assert_eq!(h, STRESS_DIGEST, "got {h:#018x}");
    }

    const STRESS_DIGEST: u64 = 0x5dc0_95c7_2c91_289d;

    /// The stress matrix at Figure 9's simulation sizes (2k, 5k and 30k
    /// instructions) on the latencies of its four nodes (90, 65, 32 and
    /// 18 nm are 0, 1, 3 and 5 area halvings), recorded like
    /// [`STRESS_DIGEST`]. Run it with `--release -- --ignored`.
    #[test]
    #[ignore = "minutes in a debug build; run with --release -- --ignored"]
    fn stress_results_at_figure9_sizes_match_the_recorded_digest() {
        let got: Vec<u64> = [2_000, 5_000, 30_000]
            .map(|n| stress_digest(n, &[0, 1, 3, 5]))
            .to_vec();
        assert_eq!(got, STRESS_DIGESTS_FIG9, "got {got:#018x?}");
    }

    const STRESS_DIGESTS_FIG9: [u64; 3] = [
        0x1d6f_490a_7e34_8b7a,
        0x8014_54e6_9cf1_46a8,
        0x7aa0_41ce_8d18_b1e2,
    ];

    #[test]
    fn skipping_drains_a_finite_trace_like_stepping() {
        for policy in [Policy::Baseline, Policy::Rescue] {
            for bench in ["mcf", "art"] {
                let prof = BenchmarkProfile::by_name(bench).unwrap();
                let cfg = SimConfig::paper(policy).scaled_to_halvings(5);
                let trace = || TraceGenerator::new(&prof, 3).take(1_500);
                let core = CoreConfig::healthy();
                let (want, _) = run(&cfg, &core, trace(), 10_000, false);
                let (got, _) = run(&cfg, &core, trace(), 10_000, true);
                assert_eq!(want.committed, 1_500);
                assert_eq!(got, want, "{policy:?} {bench}");
            }
        }
    }
}
