//! The cycle-stepped simulation engine.
//!
//! A cycle in which no stage changes any state is not repeated one cycle
//! at a time: the engine jumps to the next cycle at which a time-guarded
//! condition can change and accounts for the skipped cycles exactly as
//! stepping them would (`Engine::skip_idle_cycles`).
//!
//! Within a stepped cycle, the Done promotion and the replay-shadow
//! release skip their walks until the cycle reaches a lower bound on the
//! next entry they could change (`Engine::next_done`, `Engine::next_safe`),
//! and selection stops scanning a queue once its issue width is used.

use crate::config::{CoreConfig, Policy, Resources, SimConfig};
use crate::result::{SimResult, IPC_WINDOW_CYCLES};
use rescue_workloads::{InstrKind, TraceInstr};
use std::collections::VecDeque;

/// Result not yet available.
const NOT_READY: u64 = u64::MAX;

/// Cycles without a commit after which the run is declared deadlocked.
const WATCHDOG_CYCLES: u64 = 1_000_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Waiting in an issue-queue half.
    InQueue,
    /// In the Rescue inter-segment compaction buffer (wakeable, not
    /// selectable).
    InBuffer,
    /// Issued; occupies its queue slot until the replay shadow passes.
    Issued,
    /// Execution finished.
    Done,
}

#[derive(Clone, Debug)]
struct Slot {
    instr: TraceInstr,
    state: State,
    issue_cycle: u64,
    done_cycle: u64,
    /// Still occupies an issue-queue slot (or the compaction buffer).
    in_queue: bool,
}

/// One issue queue (int or fp) with its Rescue segmentation.
#[derive(Debug, Default)]
struct Queue {
    old: VecDeque<u64>,
    new: VecDeque<u64>,
    buf: VecDeque<u64>,
    /// Old-half free slots visible to the new half (one cycle delayed —
    /// the cycle-split compaction request).
    old_free_prev: usize,
}

impl Queue {
    fn occupancy(&self) -> usize {
        self.old.len() + self.new.len() + self.buf.len()
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

struct Engine<'c, T: Iterator<Item = TraceInstr>> {
    cfg: &'c SimConfig,
    core: &'c CoreConfig,
    trace: T,
    trace_done: bool,

    cycle: u64,
    rob: VecDeque<Slot>,
    rob_base: u64,
    next_id: u64,

    /// Producer readiness cycle, indexed by instruction id masked with
    /// `ready_mask`. Only ids in the ROB are ever read or written (every
    /// source read is guarded by `p >= rob_base`), and the ring is at
    /// least `rob_entries` long, so live ids never share a slot.
    ready_at: Vec<u64>,
    ready_mask: usize,
    intq: Queue,
    fpq: Queue,
    lsq_count: usize,

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
    /// Why dispatch stalled in the last stepped cycle, if it did.
    last_stall: Option<StallCause>,
    /// Whether fetch sat out the last stepped cycle on a redirect.
    fetch_stalled: bool,
    /// Lower bound on every Issued entry's `done_cycle`: no entry can be
    /// promoted to Done before this cycle.
    next_done: u64,
    /// Lower bound on the cycle at which an Issued or Done entry still
    /// in a queue half or a compaction buffer leaves the replay shadow:
    /// no queue slot can be released before this cycle.
    next_safe: u64,
    /// Selection's pick buffers for the old and new halves, reused every
    /// cycle (the baseline's combined selection uses the first).
    picks: [Vec<u64>; 2],
    /// Walk and scan every entry every cycle, ignoring `next_done`,
    /// `next_safe` and the issue-width early exit (the reference the
    /// bounds are tested against).
    #[cfg(test)]
    eager: bool,
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
        let ready_ring = cfg.rob_entries.next_power_of_two();
        Engine {
            cfg,
            core,
            trace,
            trace_done: false,
            cycle: 0,
            rob: VecDeque::with_capacity(cfg.rob_entries),
            rob_base: 0,
            next_id: 0,
            ready_at: vec![NOT_READY; ready_ring],
            ready_mask: ready_ring - 1,
            intq: Queue::default(),
            fpq: Queue::default(),
            lsq_count: 0,
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
            last_stall: None,
            fetch_stalled: false,
            next_done: u64::MAX,
            next_safe: u64::MAX,
            picks: [Vec::new(), Vec::new()],
            #[cfg(test)]
            eager: false,
            #[cfg(test)]
            step_every_cycle: false,
            #[cfg(test)]
            stepped: 0,
        }
    }

    fn slot(&self, id: u64) -> &Slot {
        &self.rob[(id - self.rob_base) as usize]
    }

    fn slot_mut(&mut self, id: u64) -> &mut Slot {
        &mut self.rob[(id - self.rob_base) as usize]
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
            | self.remove_safe_entries()
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
    /// time-guarded condition flips: a source becomes ready, an issued
    /// instruction finishes or leaves the replay shadow, a miss is
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
    /// some stage can change (`u64::MAX` if none can).
    fn next_event(&self, now: u64) -> u64 {
        let mut next = u64::MAX;
        let mut at = |t: u64| {
            if t >= now && t < next {
                next = t;
            }
        };
        let shadow = self.cfg.l1_latency + self.hold_extra;
        for (id, s) in (self.rob_base..).zip(&self.rob) {
            match s.state {
                State::Issued | State::Done => {
                    at(s.done_cycle);
                    if s.in_queue {
                        at(s.issue_cycle + shadow);
                    }
                }
                State::InQueue => {
                    // Today a source's ready time is also its producer's
                    // `done_cycle` or miss-check time; watching it directly
                    // keeps the skip exact if a bypass ever differs.
                    for dep in s.instr.src_deps.into_iter().flatten() {
                        match id.checked_sub(dep as u64) {
                            Some(p) if p >= self.rob_base => {
                                at(self.ready_at[p as usize & self.ready_mask]);
                            }
                            _ => {}
                        }
                    }
                }
                State::InBuffer => {}
            }
        }
        if let Some(&(when, _)) = self.miss_checks.front() {
            at(when);
        }
        at(self.fetch_resume_at);
        next
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

    // ---- Stage 1: retire.
    fn retire(&mut self) -> bool {
        let mut n = 0;
        while n < self.cfg.commit_width {
            let Some(head) = self.rob.front() else { break };
            if head.state != State::Done || head.done_cycle > self.cycle || head.in_queue {
                break;
            }
            let slot = self.rob.pop_front().expect("head exists");
            if slot.instr.kind.is_mem() {
                self.lsq_count -= 1;
            }
            if slot.instr.kind == InstrKind::Load && slot.instr.l1_miss {
                self.stats.l1_misses += 1;
            }
            self.rob_base += 1;
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
            if load_id < self.rob_base {
                continue; // already retired (cannot happen for misses)
            }
            // Correct the load's readiness to the true latency.
            let (issue, actual) = {
                let s = self.slot(load_id);
                if s.state != State::Issued && s.state != State::Done {
                    continue; // load itself was squashed; re-check on reissue
                }
                (s.issue_cycle, s.done_cycle)
            };
            if when != issue + self.cfg.l1_latency {
                // Stale check from an issue that was squashed and redone.
                continue;
            }
            self.ready_at[load_id as usize & self.ready_mask] = actual;

            // Squash everything issued in the shadow window.
            let lo = self.cycle.saturating_sub(self.squash_window);
            for &(c, id) in &self.recent_issues {
                if c < lo || c >= self.cycle || id == load_id || id < self.rob_base {
                    continue;
                }
                let s = &mut self.rob[(id - self.rob_base) as usize];
                if s.state == State::Issued {
                    s.state = State::InQueue;
                    self.ready_at[id as usize & self.ready_mask] = NOT_READY;
                    self.stats.miss_squashes += 1;
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
        let issued_before = self.stats.issued_total;
        let [mut picks_old, mut picks_new] = std::mem::take(&mut self.picks);
        match self.cfg.policy {
            Policy::Baseline => {
                // One combined selection: int picks, then fp picks.
                let mut used = Resources::zero();
                let picks = &mut picks_old;
                self.pick_from(&[QueuePart::IntOld, QueuePart::IntNew], &mut used, picks);
                self.pick_from(&[QueuePart::FpOld, QueuePart::FpNew], &mut used, picks);
                for &id in picks.iter() {
                    self.issue(id);
                }
            }
            Policy::Rescue => {
                for fp in [false, true] {
                    let (halves_present, parts) = if fp {
                        (self.core.fp_iq_halves, [QueuePart::FpOld, QueuePart::FpNew])
                    } else {
                        (
                            self.core.int_iq_halves,
                            [QueuePart::IntOld, QueuePart::IntNew],
                        )
                    };
                    picks_old.clear();
                    picks_new.clear();
                    if halves_present == 1 {
                        // Single surviving half: no cross-half policy.
                        let mut used = Resources::zero();
                        self.pick_from(&parts[..1], &mut used, &mut picks_old);
                        for &id in &picks_old {
                            self.issue(id);
                        }
                        continue;
                    }
                    // Each half selects as if the other selects nothing.
                    let mut used_old = Resources::zero();
                    self.pick_from(&parts[..1], &mut used_old, &mut picks_old);
                    let mut used_new = Resources::zero();
                    self.pick_from(&parts[1..], &mut used_new, &mut picks_new);
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
        let ring = id as usize & self.ready_mask;
        let is_redirect = self.redirect_branch == Some(id);
        let mut miss_check = None;
        let mut resume_at = None;
        {
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
            self.ready_at[ring] = cycle + bypass;
            if is_redirect {
                resume_at = Some(cycle + latency + self.cfg.mispredict_penalty);
            }
        }
        self.next_done = self.next_done.min(self.slot(id).done_cycle);
        self.next_safe = self.next_safe.min(cycle + l1 + self.hold_extra);
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

    /// Oldest-first pick across the given queue parts under the shared
    /// budget, appended to `picks`.
    ///
    /// Every kind an int-queue entry can hold consumes `int_width`, and
    /// every fp-queue kind consumes `fp_width`, so once the queue's width
    /// is used up no later entry fits and the scan stops.
    fn pick_from(&self, parts: &[QueuePart], used: &mut Resources, picks: &mut Vec<u64>) {
        let width_used = |used: &Resources| match parts[0] {
            QueuePart::IntOld | QueuePart::IntNew => used.int_width >= self.budget.int_width,
            QueuePart::FpOld | QueuePart::FpNew => used.fp_width >= self.budget.fp_width,
        };
        for &part in parts {
            for &id in self.part(part) {
                if width_used(used) && !self.eager() {
                    return;
                }
                let s = self.slot(id);
                if s.state != State::InQueue || !self.sources_ready(id) {
                    continue;
                }
                let after = used.plus(&kind_usage(s.instr.kind));
                if !self.budget.fits(&after) {
                    continue;
                }
                *used = after;
                picks.push(id);
            }
        }
    }

    fn sources_ready(&self, id: u64) -> bool {
        let s = self.slot(id);
        for dep in s.instr.src_deps.into_iter().flatten() {
            let producer = id.checked_sub(dep as u64);
            let Some(p) = producer else { return false };
            if p < self.rob_base {
                continue; // producer retired long ago
            }
            if self.ready_at[p as usize & self.ready_mask] > self.cycle {
                return false;
            }
        }
        true
    }

    // ---- Stage 3b: release queue slots out of the replay shadow, and
    // promote finished instructions to Done.
    //
    // Each walk runs only once the cycle reaches its bound, and
    // recomputes the bound from what it leaves behind; `issue` lowers
    // both bounds for the entry it issues.
    fn remove_safe_entries(&mut self) -> bool {
        let shadow = self.cfg.l1_latency + self.hold_extra;
        let cycle = self.cycle;
        let mut changed = false;
        if cycle >= self.next_done || self.eager() {
            let mut next_done = u64::MAX;
            for slot in self.rob.iter_mut() {
                if slot.state == State::Issued {
                    if slot.done_cycle <= cycle {
                        slot.state = State::Done;
                        changed = true;
                    } else {
                        next_done = next_done.min(slot.done_cycle);
                    }
                }
            }
            self.next_done = next_done;
        }
        if cycle >= self.next_safe || self.eager() {
            let rob = &mut self.rob;
            let base = self.rob_base;
            let mut next_safe = u64::MAX;
            for dq in [
                &mut self.intq.old,
                &mut self.intq.new,
                &mut self.fpq.old,
                &mut self.fpq.new,
            ] {
                dq.retain(|&id| {
                    let s = &mut rob[(id - base) as usize];
                    if !matches!(s.state, State::Issued | State::Done) {
                        return true;
                    }
                    let safe_at = s.issue_cycle + shadow;
                    if cycle >= safe_at {
                        s.in_queue = false;
                        changed = true;
                        false
                    } else {
                        next_safe = next_safe.min(safe_at);
                        true
                    }
                });
            }
            // An entry issued in the new half can be forwarded into the
            // compaction buffer before its shadow ends. It is released
            // only after it reaches the old half, so its shadow end
            // bounds the next release too, even once it has passed.
            for &id in self.intq.buf.iter().chain(&self.fpq.buf) {
                let s = &rob[(id - base) as usize];
                if matches!(s.state, State::Issued | State::Done) {
                    next_safe = next_safe.min(s.issue_cycle + shadow);
                }
            }
            self.next_safe = next_safe;
        }
        changed
    }

    /// Whether to ignore the event bounds and scan everything every
    /// cycle (tests only).
    #[cfg(test)]
    fn eager(&self) -> bool {
        self.eager
    }

    #[cfg(not(test))]
    fn eager(&self) -> bool {
        false
    }

    // ---- Stage 4: compaction.
    fn compact(&mut self) -> bool {
        let mut changed = false;
        match self.cfg.policy {
            Policy::Baseline => {
                // Single-cycle inter-segment compaction: the queue behaves
                // as one FIFO. Entries flow new -> old freely.
                for (q, cap) in [(&mut self.intq, self.int_cap), (&mut self.fpq, self.fp_cap)] {
                    let half = cap / 2;
                    while q.old.len() < half && !q.new.is_empty() {
                        let id = q.new.pop_front().expect("non-empty");
                        q.old.push_back(id);
                        changed = true;
                    }
                }
            }
            Policy::Rescue => {
                let buf_cap = self.cfg.compaction_buffer;
                for (q, cap, halves) in [
                    (&mut self.intq, self.int_cap, self.core.int_iq_halves),
                    (&mut self.fpq, self.fp_cap, self.core.fp_iq_halves),
                ] {
                    if halves == 1 {
                        continue; // single surviving half, no movement
                    }
                    let half = cap / 2;
                    // Old half consumes the temporary buffer.
                    while q.old.len() < half && !q.buf.is_empty() {
                        let id = q.buf.pop_front().expect("non-empty");
                        q.old.push_back(id);
                        changed = true;
                    }
                    // New half forwards entries toward the buffer based on
                    // *last* cycle's free-slot count (cycle-split request).
                    let mut quota = q.old_free_prev.min(buf_cap - q.buf.len());
                    while quota > 0 && !q.new.is_empty() {
                        let id = q.new.pop_front().expect("non-empty");
                        q.buf.push_back(id);
                        quota -= 1;
                        changed = true;
                    }
                    let old_free = half - q.old.len().min(half);
                    changed |= old_free != q.old_free_prev;
                    q.old_free_prev = old_free;
                }
                let rob = &mut self.rob;
                let base = self.rob_base;
                // Buffer residents change state for bookkeeping.
                for &id in self.intq.buf.iter().chain(&self.fpq.buf) {
                    let s = &mut rob[(id - base) as usize];
                    if s.state == State::InQueue {
                        s.state = State::InBuffer;
                        changed = true;
                    }
                }
                // And entries arriving in the old half become selectable.
                for &id in self.intq.old.iter().chain(&self.fpq.old) {
                    let s = &mut rob[(id - base) as usize];
                    if s.state == State::InBuffer {
                        s.state = State::InQueue;
                        changed = true;
                    }
                }
            }
        }
        changed
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
            match self.cfg.policy {
                Policy::Rescue if halves == 1 => q.old.push_back(id),
                Policy::Rescue => q.new.push_back(id),
                Policy::Baseline => {
                    // FIFO semantics: fill old first, overflow to new.
                    let half = cap / 2;
                    if q.old.len() < half {
                        q.old.push_back(id);
                    } else {
                        q.new.push_back(id);
                    }
                }
            }
            self.fetchq.pop_front();
            debug_assert_eq!(id, self.next_rob_id());
            self.ready_at[id as usize & self.ready_mask] = NOT_READY;
            self.rob.push_back(Slot {
                instr,
                state: State::InQueue,
                issue_cycle: 0,
                done_cycle: u64::MAX,
                in_queue: true,
            });
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

    fn next_rob_id(&self) -> u64 {
        self.rob_base + self.rob.len() as u64
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

    fn part(&self, part: QueuePart) -> &VecDeque<u64> {
        match part {
            QueuePart::IntOld => &self.intq.old,
            QueuePart::IntNew => &self.intq.new,
            QueuePart::FpOld => &self.fpq.old,
            QueuePart::FpNew => &self.fpq.new,
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum QueuePart {
    IntOld,
    IntNew,
    FpOld,
    FpNew,
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

    /// [`simulate`] the fast way (skipping idle cycles, walking only at
    /// the event bounds, stopping selection at the issue width) or the
    /// reference way (stepping every cycle, scanning everything every
    /// cycle); also returns how many cycles were stepped.
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
        eng.eager = !fast;
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
            let (rob, base) = (&eng.rob, eng.rob_base);
            forwarded += eng
                .intq
                .buf
                .iter()
                .map(|&id| &rob[(id - base) as usize])
                .filter(|s| {
                    matches!(s.state, State::Issued | State::Done)
                        && eng.cycle < s.issue_cycle + shadow
                })
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
