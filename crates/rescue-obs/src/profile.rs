//! The span aggregate: every [`crate::span`] that closes while the
//! aggregate is on folds its elapsed time into a per-thread path tree,
//! merged process-wide into path-keyed rows (`atpg.run/podem`,
//! `atpg.run/fsim`, …). The path of a span is the chain of span names
//! open on its thread, so paths are span names joined by `/`.
//!
//! Design goals, in order:
//!
//! 1. **No locks on the hot path.** Each thread accumulates into a
//!    thread-local arena tree; the global mutex is only taken when a
//!    thread's tree is drained: when its outermost span closes (so a
//!    worker's spans are merged before its closure returns, joined or
//!    detached), at thread exit, or on an explicit [`flush_thread`].
//! 2. **Thread-count-invariant paths.** Worker bodies open their span
//!    with [`crate::span_root`], which pins it under the virtual root
//!    regardless of what the spawning code had open — so the set of
//!    `profile.*` report sections does not depend on `--threads`, which
//!    the `bench-diff` baseline gate requires.
//!
//! The merged rows are resolved into a tree ([`resolve_tree`]) where
//! each node carries *total* time (wall time with the span open) and
//! *self* time (total minus the sum of direct children) — the invariant
//! `Σ children.total ≤ parent.total` holds per thread because child
//! spans are strictly nested inside their parent, and is preserved by
//! the merge because every thread contributes the same path shapes.
//! [`render_flame`] prints an indented text flame summary and
//! [`summarize`] folds the rows into the per-span-name
//! [`SpanStat`] summary. The same tree stack also gives every timeline
//! record its nesting depth ([`depth`]).

use crate::trace::SpanStat;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Accumulated wall time and entry count for one tree path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathStat {
    /// Total nanoseconds with this span open (summed over entries and
    /// threads).
    pub total_ns: u64,
    /// Number of times the span was entered.
    pub count: u64,
    /// Longest single entry in nanoseconds.
    pub max_ns: u64,
}

impl PathStat {
    fn add(&mut self, other: &PathStat) {
        self.total_ns += other.total_ns;
        self.count += other.count;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// One resolved node of the profile tree (see [`resolve_tree`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileNode {
    /// Slash-joined path from the root, e.g. `"atpg.run/fsim"`.
    pub path: String,
    /// Nesting depth (`"atpg.run"` is 0, `"atpg.run/fsim"` is 1).
    pub depth: usize,
    /// Total nanoseconds with the span open.
    pub total_ns: u64,
    /// Total minus the sum of direct children's totals (saturating).
    pub self_ns: u64,
    /// Entry count.
    pub count: u64,
}

/// One node of a thread-local tree arena.
#[derive(Debug)]
struct LocalNode {
    name: &'static str,
    children: Vec<usize>,
    stat: PathStat,
}

impl LocalNode {
    fn new(name: &'static str) -> Self {
        LocalNode {
            name,
            children: Vec::new(),
            stat: PathStat::default(),
        }
    }
}

/// Per-thread state: an arena tree plus the open-span stack.
/// `nodes[0]` is a virtual root that never accumulates time.
#[derive(Debug)]
struct LocalTree {
    nodes: Vec<LocalNode>,
    stack: Vec<usize>,
}

impl LocalTree {
    fn new() -> Self {
        LocalTree {
            nodes: vec![LocalNode::new("")],
            stack: Vec::new(),
        }
    }

    /// Find or create the child of `parent` named `name`.
    fn child(&mut self, parent: usize, name: &'static str) -> usize {
        if let Some(&c) = self.nodes[parent]
            .children
            .iter()
            .find(|&&c| self.nodes[c].name == name)
        {
            return c;
        }
        let idx = self.nodes.len();
        self.nodes.push(LocalNode::new(name));
        self.nodes[parent].children.push(idx);
        idx
    }

    /// Push `name` onto the stack; returns the stack height before the
    /// push (the span's nesting depth).
    fn enter(&mut self, name: &'static str, pin_to_root: bool) -> u64 {
        let depth = self.stack.len() as u64;
        let parent = if pin_to_root {
            0
        } else {
            self.stack.last().copied().unwrap_or(0)
        };
        let idx = self.child(parent, name);
        self.stack.push(idx);
        depth
    }

    fn exit(&mut self, elapsed_ns: u64, aggregate: bool) {
        if let Some(idx) = self.stack.pop() {
            if aggregate {
                self.nodes[idx].stat.add(&PathStat {
                    total_ns: elapsed_ns,
                    count: 1,
                    max_ns: elapsed_ns,
                });
            }
        }
    }

    /// Move every accumulated stat into `merged` (keyed by slash path)
    /// and zero the local stats. The arena and stack are kept intact so
    /// guards that are still open remain valid.
    fn drain_into(&mut self, merged: &mut BTreeMap<String, PathStat>) {
        // DFS from the root, building paths as we go.
        let mut work: Vec<(usize, String)> = self.nodes[0]
            .children
            .iter()
            .map(|&c| (c, self.nodes[c].name.to_owned()))
            .collect();
        while let Some((idx, path)) = work.pop() {
            let node = &mut self.nodes[idx];
            if node.stat != PathStat::default() {
                merged.entry(path.clone()).or_default().add(&node.stat);
                node.stat = PathStat::default();
            }
            for &c in &self.nodes[idx].children {
                work.push((c, format!("{path}/{}", self.nodes[c].name)));
            }
        }
    }
}

/// TLS wrapper whose `Drop` merges any remaining thread-local stats
/// into the global profiler (a thread that dies with spans open).
struct LocalSlot(RefCell<LocalTree>);

impl Drop for LocalSlot {
    fn drop(&mut self) {
        self.0.borrow_mut().drain_into(&mut global().lock());
    }
}

thread_local! {
    static LOCAL: LocalSlot = LocalSlot(RefCell::new(LocalTree::new()));
}

/// Process-wide aggregate: an enable gate plus the merged path table.
#[derive(Debug)]
pub struct Profiler {
    enabled: AtomicBool,
    merged: Mutex<BTreeMap<String, PathStat>>,
}

impl Profiler {
    fn new() -> Self {
        Profiler {
            enabled: AtomicBool::new(false),
            merged: Mutex::new(BTreeMap::new()),
        }
    }

    /// Turn the aggregate on or off. Spans already open keep their
    /// recording decision (made at entry).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether closing spans fold into the aggregate.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, PathStat>> {
        match self.merged.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Sorted copy of the merged rows (path → stat), leaving them in
    /// place.
    pub fn snapshot(&self) -> Vec<(String, PathStat)> {
        self.lock().iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Drain the merged rows, returning them sorted by path.
    pub fn take(&self) -> Vec<(String, PathStat)> {
        std::mem::take(&mut *self.lock()).into_iter().collect()
    }

    /// Clear all merged rows — the path tree and the span summary
    /// derived from it.
    pub fn reset(&self) {
        self.lock().clear();
    }
}

/// The process-wide aggregate every span folds into.
pub fn global() -> &'static Profiler {
    static GLOBAL: OnceLock<Profiler> = OnceLock::new();
    GLOBAL.get_or_init(Profiler::new)
}

/// Push a span onto this thread's stack; `None` when the TLS slot is
/// already gone (thread teardown), in which case the span records
/// nothing.
pub(crate) fn enter(name: &'static str, pin_to_root: bool) -> Option<u64> {
    LOCAL
        .try_with(|slot| slot.0.borrow_mut().enter(name, pin_to_root))
        .ok()
}

/// Pop the span opened by the matching [`enter`], folding `elapsed_ns`
/// into its node when `aggregate` was on at entry. Closing the
/// thread's outermost span merges its tree into the global table.
pub(crate) fn exit(elapsed_ns: u64, aggregate: bool) {
    let _ = LOCAL.try_with(|slot| {
        let mut tree = slot.0.borrow_mut();
        tree.exit(elapsed_ns, aggregate);
        if aggregate && tree.stack.is_empty() {
            tree.drain_into(&mut global().lock());
        }
    });
}

/// Spans open on this thread (0 outside all spans).
pub fn depth() -> u64 {
    LOCAL
        .try_with(|slot| slot.0.borrow().stack.len() as u64)
        .unwrap_or(0)
}

/// Merge this thread's accumulated stats into the global table now
/// (threads merge automatically at exit; the main thread calls this
/// before reading [`Profiler::snapshot`]).
pub fn flush_thread() {
    let _ = LOCAL.try_with(|slot| slot.0.borrow_mut().drain_into(&mut global().lock()));
}

/// Per-span-name summary of merged rows, sorted by name: a row's name
/// is its path's last component; counts and totals add across paths,
/// the max is the largest.
pub fn summarize(rows: &[(String, PathStat)]) -> Vec<SpanStat> {
    let mut by_name: BTreeMap<&str, PathStat> = BTreeMap::new();
    for (path, st) in rows {
        let name = path.rsplit('/').next().unwrap_or(path);
        by_name.entry(name).or_default().add(st);
    }
    by_name
        .into_iter()
        .map(|(name, st)| SpanStat {
            name: name.to_owned(),
            count: st.count,
            total_ns: st.total_ns,
            max_ns: st.max_ns,
        })
        .collect()
}

/// [`summarize`] over the current merged rows, after flushing this
/// thread.
pub fn summary() -> Vec<SpanStat> {
    flush_thread();
    summarize(&global().snapshot())
}

/// Resolve sorted `(path, stat)` rows into tree nodes with self time.
/// Input order does not matter; output is sorted so that every parent
/// precedes its children (lexicographic path order with `/` treated as
/// the separator gives exactly that).
pub fn resolve_tree(rows: &[(String, PathStat)]) -> Vec<ProfileNode> {
    let mut nodes: Vec<ProfileNode> = rows
        .iter()
        .map(|(path, st)| ProfileNode {
            path: path.clone(),
            depth: path.matches('/').count(),
            total_ns: st.total_ns,
            self_ns: st.total_ns,
            count: st.count,
        })
        .collect();
    nodes.sort_by(|a, b| a.path.cmp(&b.path));
    let index: BTreeMap<String, usize> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (n.path.clone(), i))
        .collect();
    for i in 0..nodes.len() {
        if let Some(cut) = nodes[i].path.rfind('/') {
            if let Some(&p) = index.get(&nodes[i].path[..cut]) {
                let child_total = nodes[i].total_ns;
                nodes[p].self_ns = nodes[p].self_ns.saturating_sub(child_total);
            }
        }
    }
    nodes
}

/// Indented text flame summary of a resolved tree: one line per node
/// with total/self milliseconds, entry count, and the node's share of
/// its root's total.
pub fn render_flame(nodes: &[ProfileNode]) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("== profile (self-time tree) ==\n");
    if nodes.is_empty() {
        s.push_str("  (no spans recorded)\n");
        return s;
    }
    let _ = writeln!(
        s,
        "  {:44} {:>10} {:>10} {:>8} {:>6}",
        "phase", "total_ms", "self_ms", "count", "pct"
    );
    // Root totals for percentage attribution.
    let mut root_total: BTreeMap<&str, u64> = BTreeMap::new();
    for n in nodes {
        if n.depth == 0 {
            root_total.insert(n.path.as_str(), n.total_ns.max(1));
        }
    }
    for n in nodes {
        let root = n.path.split('/').next().unwrap_or("");
        let denom = root_total.get(root).copied().unwrap_or(1) as f64;
        let pct = 100.0 * n.total_ns as f64 / denom;
        let name = n.path.rsplit('/').next().unwrap_or(&n.path);
        let label = format!("{}{}", "  ".repeat(n.depth), name);
        let _ = writeln!(
            s,
            "  {:44} {:>10.3} {:>10.3} {:>8} {:>5.1}%",
            label,
            n.total_ns as f64 / 1e6,
            n.self_ns as f64 / 1e6,
            n.count,
            pct
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{span, span_root};
    use std::time::Duration;

    /// Aggregate state is process-global; serialize tests touching it.
    static LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        match LOCK.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    fn rows_with_prefix(prefix: &str) -> Vec<(String, PathStat)> {
        flush_thread();
        global()
            .snapshot()
            .into_iter()
            .filter(|(p, _)| p == prefix || p.starts_with(&format!("{prefix}/")))
            .collect()
    }

    #[test]
    fn disabled_scopes_record_nothing() {
        let _g = locked();
        global().set_enabled(false);
        let outer = span("t_disabled");
        let inner = span("inner");
        std::thread::sleep(Duration::from_millis(1));
        assert!(
            inner.finish() > 0,
            "finish() times even with every sink off"
        );
        drop(outer);
        assert!(rows_with_prefix("t_disabled").is_empty());
        assert_eq!(depth(), 0);
    }

    #[test]
    fn nested_scopes_build_paths_and_hold_invariant() {
        let _g = locked();
        global().set_enabled(true);
        let mut child_ns = 0;
        {
            let _a = span("t_nest");
            assert_eq!(depth(), 1);
            for _ in 0..3 {
                let b = span("child");
                assert_eq!(depth(), 2);
                std::thread::sleep(Duration::from_millis(1));
                child_ns += b.finish();
            }
            let _c = span("other");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(depth(), 0);
        global().set_enabled(false);
        let rows = rows_with_prefix("t_nest");
        let tree = resolve_tree(&rows);
        let find = |p: &str| tree.iter().find(|n| n.path == p).expect(p);
        let (parent, child, other) = (find("t_nest"), find("t_nest/child"), find("t_nest/other"));
        assert_eq!(child.count, 3);
        assert_eq!(other.count, 1);
        // The caller's elapsed values and the tree's are one measurement.
        assert_eq!(child.total_ns, child_ns);
        // Invariant: Σ direct children total ≤ parent total, and
        // self = total − Σ children.
        assert!(child.total_ns + other.total_ns <= parent.total_ns);
        assert_eq!(
            parent.self_ns,
            parent.total_ns - child.total_ns - other.total_ns
        );
        assert!(render_flame(&tree).contains("  child"));
        let stats = summarize(&rows);
        let child_stat = stats.iter().find(|s| s.name == "child").expect("child");
        assert_eq!(child_stat.count, 3);
        assert!(child_stat.max_ns <= child_stat.total_ns && child_stat.max_ns > 0);
    }

    #[test]
    fn span_root_ignores_open_parents() {
        let _g = locked();
        global().set_enabled(true);
        {
            let _a = span("t_outer");
            let _w = span_root("t_pinned");
            assert_eq!(depth(), 2, "a pinned span still nests on the timeline");
            std::thread::sleep(Duration::from_millis(1));
        }
        global().set_enabled(false);
        let pinned = rows_with_prefix("t_pinned");
        assert_eq!(pinned.len(), 1, "pinned span must be a root: {pinned:?}");
        assert!(rows_with_prefix("t_outer")
            .iter()
            .all(|(p, _)| !p.contains("t_pinned")));
    }

    #[test]
    fn summary_sums_a_name_across_paths() {
        let rows = vec![
            (
                "a/x".to_owned(),
                PathStat {
                    total_ns: 40,
                    count: 2,
                    max_ns: 30,
                },
            ),
            (
                "b/c/x".to_owned(),
                PathStat {
                    total_ns: 50,
                    count: 1,
                    max_ns: 50,
                },
            ),
        ];
        let stats = summarize(&rows);
        assert_eq!(
            stats,
            vec![SpanStat {
                name: "x".into(),
                count: 3,
                total_ns: 90,
                max_ns: 50
            }]
        );
    }

    #[test]
    fn worker_threads_merge_on_exit() {
        let _g = locked();
        global().set_enabled(true);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _w = span_root("t_worker");
                    std::thread::sleep(Duration::from_millis(1));
                });
            }
        });
        global().set_enabled(false);
        // Each worker's outermost span merged its tree as it closed,
        // before `thread::scope` returned.
        let rows = rows_with_prefix("t_worker");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1.count, 2, "both workers merged: {rows:?}");
    }

    #[test]
    fn flame_renders_empty_tree() {
        let flame = render_flame(&[]);
        assert!(flame.contains("no spans"));
    }
}
