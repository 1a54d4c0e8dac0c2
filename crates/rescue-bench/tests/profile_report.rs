//! Integration test: the span aggregate captures a real multi-threaded
//! ATPG run — the expected phase paths appear, worker spans from the
//! fault-sim shards merge in under the root (so the path set is
//! thread-count-invariant), the tree invariant (the sum of direct
//! children's total time never exceeds the parent's total) holds on
//! live data, not just synthetic spans, and the ATPG phase timers, the
//! tree and the trace file's timeline are one measurement.

use rescue_core::atpg::{Atpg, AtpgConfig, AtpgRun};
use rescue_core::model::{build_pipeline, ModelParams, Variant};
use rescue_core::netlist::scan::insert_scan;
use rescue_obs::json::{self, JsonValue};
use rescue_obs::profile::{self, PathStat, ProfileNode};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

/// The aggregate and the timeline are process-global; the tests here
/// take turns.
static AGGREGATE: Mutex<()> = Mutex::new(());

/// Run one tiny-model ATPG at `threads` workers with the aggregate on
/// and a trace sink open on the global tracer; return the run, the
/// profile rows and the trace file's events.
fn traced_atpg(threads: usize) -> (AtpgRun, Vec<(String, PathStat)>, Vec<JsonValue>) {
    let prof = profile::global();
    profile::flush_thread();
    prof.reset();
    prof.set_enabled(true);
    let path = std::env::temp_dir().join(format!(
        "rescue-profile-report-{threads}-{}.json",
        std::process::id()
    ));
    let path = path.to_str().expect("utf-8 temp path").to_owned();
    rescue_obs::global()
        .open_sink(&path, "profile_report")
        .expect("trace sink opens");

    let model = build_pipeline(&ModelParams::tiny(), Variant::Rescue);
    let scanned = insert_scan(&model.netlist).expect("model has state");
    let cfg = AtpgConfig {
        threads,
        ..AtpgConfig::default()
    };
    let run = Atpg::new(&scanned, cfg)
        .expect("scan design is well-formed")
        .run()
        .expect("atpg run");
    assert!(run.stats.vectors > 0);

    prof.set_enabled(false);
    rescue_obs::global()
        .close_sink()
        .expect("trace sink closes");
    profile::flush_thread();
    let text = std::fs::read_to_string(&path).expect("trace file readable");
    let _ = std::fs::remove_file(&path);
    let events = match json::parse(&text).expect("trace file is JSON") {
        JsonValue::Arr(events) => events,
        other => panic!("trace file is not an array: {other:?}"),
    };
    (run, prof.take(), events)
}

fn profiled_atpg(threads: usize) -> Vec<ProfileNode> {
    profile::resolve_tree(&traced_atpg(threads).1)
}

#[test]
fn atpg_run_produces_a_consistent_profile_tree() {
    let _g = AGGREGATE.lock().unwrap_or_else(|p| p.into_inner());
    let tree = profiled_atpg(2);
    let paths: Vec<&str> = tree.iter().map(|n| n.path.as_str()).collect();

    // Phase spans from the engine, and the worker span pinned to the
    // root regardless of which thread (or how many) ran it.
    for expected in ["atpg.run", "atpg.run/podem", "atpg.run/fsim", "fsim.worker"] {
        assert!(
            paths.contains(&expected),
            "missing profile path {expected:?} in {paths:?}"
        );
    }

    // Tree invariant on live data: direct children never account for
    // more time than their parent, and self + children == total.
    for node in &tree {
        let child_sum: u64 = tree
            .iter()
            .filter(|c| {
                c.path
                    .rfind('/')
                    .map(|cut| &c.path[..cut])
                    .is_some_and(|parent| parent == node.path)
            })
            .map(|c| c.total_ns)
            .sum();
        assert!(
            child_sum <= node.total_ns,
            "{}: children total {child_sum}ns exceeds parent total {}ns",
            node.path,
            node.total_ns
        );
        assert_eq!(
            node.self_ns + child_sum,
            node.total_ns,
            "{}: self + children != total",
            node.path
        );
    }

    // The run span actually nests its sub-phases (non-zero count and
    // attributed time).
    let atpg = tree.iter().find(|n| n.path == "atpg.run").unwrap();
    assert!(atpg.count >= 1);
    assert!(atpg.total_ns > 0);
}

#[test]
fn profile_paths_and_phase_counts_do_not_depend_on_threads() {
    let _g = AGGREGATE.lock().unwrap_or_else(|p| p.into_inner());
    // Entry counts of every path outside the worker spans: how often
    // each phase ran. Paths at or under a `.worker` span fire once per
    // spawned worker, so only their presence is thread-invariant.
    let counts = |tree: &[ProfileNode]| -> BTreeMap<String, u64> {
        tree.iter()
            .filter(|n| !n.path.split('/').any(|name| name.ends_with(".worker")))
            .map(|n| (n.path.clone(), n.count))
            .collect()
    };
    let paths = |tree: &[ProfileNode]| -> BTreeSet<String> {
        tree.iter().map(|n| n.path.clone()).collect()
    };
    let one = profiled_atpg(1);
    let two = profiled_atpg(2);
    assert_eq!(paths(&one), paths(&two));
    assert_eq!(counts(&one), counts(&two));
    assert!(counts(&one).contains_key("atpg.run/podem"));
}

#[test]
fn atpg_timing_profile_and_timeline_are_one_measurement() {
    let _g = AGGREGATE.lock().unwrap_or_else(|p| p.into_inner());
    let (run, rows, events) = traced_atpg(2);
    let node_total = |path: &str| -> u64 {
        rows.iter()
            .find(|(p, _)| p == path)
            .unwrap_or_else(|| panic!("no profile path {path:?}"))
            .1
            .total_ns
    };
    // Each phase timer is the sum of the same `finish()` values the
    // tree folded in, so they agree exactly, not approximately.
    let t = &run.metrics.timing;
    assert_eq!(t.generate_ns, node_total("atpg.run/podem"));
    assert_eq!(t.compact_ns, node_total("atpg.run/compact"));
    assert_eq!(t.fsim_ns, node_total("atpg.run/fsim"));
    assert_eq!(t.total_ns, node_total("atpg.run"));

    let mut recorded: BTreeMap<String, u64> = BTreeMap::new();
    for e in &events {
        if e.get("ph").and_then(JsonValue::as_str) == Some("X") {
            let name = e.get("name").and_then(JsonValue::as_str).expect("name");
            *recorded.entry(name.to_owned()).or_default() += 1;
        }
    }
    let summarized: BTreeMap<String, u64> = profile::summarize(&rows)
        .into_iter()
        .map(|s| (s.name, s.count))
        .collect();
    assert_eq!(recorded, summarized);
    assert!(recorded.get("fsim.worker").is_some_and(|&n| n > 0));
}
