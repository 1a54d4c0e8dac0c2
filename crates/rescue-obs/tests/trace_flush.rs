//! Crash-resilience tests for the trace sink: a run that dies mid-span
//! must still leave a file that parses as a trace-event array once the
//! optional closing `]` is appended, and a sink that cannot write must
//! say so. Kept in its own integration binary because one test opens a
//! sink (and a panic hook) on the process-global tracer.

use rescue_obs::json::{self, JsonValue};
use rescue_obs::Tracer;
use std::path::PathBuf;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rescue-trace-{tag}-{}.json", std::process::id()))
}

/// The events of a trace file that may still be open or cut short: drop
/// a torn last line, close the array if the sink did not, and parse.
fn parse_prefix(path: &PathBuf) -> Vec<JsonValue> {
    let mut text = std::fs::read_to_string(path).expect("trace file readable");
    text.truncate(text.rfind('\n').map_or(0, |i| i + 1));
    if !text.ends_with("]\n") {
        text.push(']');
    }
    match json::parse(&text) {
        Ok(JsonValue::Arr(events)) => events,
        other => panic!("trace prefix is not an array: {other:?}\n{text}"),
    }
}

#[test]
fn dropping_a_tracer_flushes_its_sink() {
    let path = temp_path("drop");
    {
        let t = Tracer::new();
        t.open_sink(path.to_str().unwrap(), "drop").expect("sink");
        // Fewer events than the periodic-flush threshold: only the drop
        // can get these to disk.
        t.event("begin", &[("k", "v")]);
        t.counter("c", 1.5);
        let _s = t.span("work");
    }
    // The drop closed the array: the file parses as it stands.
    let text = std::fs::read_to_string(&path).unwrap();
    let events = json::parse(&text).expect("closed trace parses");
    assert_eq!(events.as_arr().map(<[_]>::len), Some(4), "{text}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn periodic_flush_yields_parseable_prefix_without_any_explicit_flush() {
    let path = temp_path("periodic");
    let t = Tracer::new();
    t.open_sink(path.to_str().unwrap(), "periodic")
        .expect("sink");
    for i in 0..100 {
        t.event("tick", &[("i", &i.to_string())]);
    }
    // No flush, no drop: the every-32-events policy must have pushed
    // the metadata event and at least 95 ticks to disk already.
    let events = parse_prefix(&path);
    assert!(events.len() >= 96, "only {} events flushed", events.len());
    drop(t);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn killing_a_run_mid_span_leaves_parseable_jsonl() {
    let path = temp_path("panic");
    let tracer = rescue_obs::trace::global();
    tracer
        .open_sink(path.to_str().unwrap(), "panic")
        .expect("sink");
    let result = std::thread::Builder::new()
        .name("doomed".to_owned())
        .spawn(|| {
            let t = rescue_obs::trace::global();
            for i in 0..5 {
                t.event("progress", &[("i", &i.to_string())]);
            }
            let _mid = t.span("never.closed");
            panic!("simulated mid-run crash");
        })
        .expect("spawn")
        .join();
    assert!(result.is_err(), "the doomed thread must panic");
    // The panic hook flushed the buffered events; the file is an open
    // array of whole events even though the run died inside a span.
    let events = parse_prefix(&path);
    let progress = events
        .iter()
        .filter(|v| v.get("name").and_then(JsonValue::as_str) == Some("progress"))
        .count();
    assert_eq!(progress, 5, "progress events missing from crash trace");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_sink_that_cannot_write_reports_the_error() {
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    let t = Tracer::new();
    t.open_sink("/dev/full", "full").expect("/dev/full opens");
    t.event("lost", &[]);
    t.close_sink().expect_err("writes to /dev/full fail");
}
