//! The trace-event encoding: one Chrome trace-event JSON object per
//! span, point event and counter sample, as the tracer's sink
//! ([`crate::trace`]) streams them. The file loads in `chrome://tracing`
//! and [ui.perfetto.dev](https://ui.perfetto.dev):
//!
//! ```json
//! [
//! {"name":"process_name","ph":"M","pid":1,"args":{"name":"table3"}}
//! ,{"name":"atpg.run","cat":"span","ph":"X","ts":12.5,"dur":8121.75,"pid":1,"tid":1,"args":{"depth":0}}
//! ,{"name":"atpg.coverage","ph":"C","ts":900,"pid":1,"tid":1,"args":{"value":0.42}}
//! ]
//! ```
//!
//! Spans become complete (`"X"`) events, point events become instants
//! (`"i"`), and counter samples become counter (`"C"`) events, which
//! Perfetto renders as counter tracks — the IPC, queue-occupancy, and
//! coverage-so-far timelines. Each thread is its own `tid` track.
//! Timestamps are microseconds (the format's unit) relative to the
//! tracer epoch.

use crate::json::JsonObj;

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// The metadata event naming the process `title` in the Perfetto UI.
pub(crate) fn process_name(title: &str) -> String {
    let mut args = JsonObj::new();
    args.str("name", title);
    let mut o = JsonObj::new();
    o.str("name", "process_name")
        .str("ph", "M")
        .u64("pid", 1)
        .raw("args", &args.finish());
    o.finish()
}

/// A closed span: a complete (`"X"`) event.
pub(crate) fn span(name: &str, ts_ns: u64, dur_ns: u64, depth: u64, tid: u64) -> String {
    let mut args = JsonObj::new();
    args.u64("depth", depth);
    let mut o = JsonObj::new();
    o.str("name", name)
        .str("cat", "span")
        .str("ph", "X")
        .f64("ts", us(ts_ns))
        .f64("dur", us(dur_ns))
        .u64("pid", 1)
        .u64("tid", tid)
        .raw("args", &args.finish());
    o.finish()
}

/// A point event: a thread-scoped instant (`"i"`) carrying `fields` as
/// string args.
pub(crate) fn instant(name: &str, ts_ns: u64, tid: u64, fields: &[(&str, &str)]) -> String {
    let mut args = JsonObj::new();
    for (k, v) in fields {
        args.str(k, v);
    }
    let mut o = JsonObj::new();
    o.str("name", name)
        .str("cat", "event")
        .str("ph", "i")
        .str("s", "t")
        .f64("ts", us(ts_ns))
        .u64("pid", 1)
        .u64("tid", tid)
        .raw("args", &args.finish());
    o.finish()
}

/// A counter sample: one point (`"C"`) on the `name` counter track.
pub(crate) fn counter(name: &str, ts_ns: u64, value: f64, tid: u64) -> String {
    let mut args = JsonObj::new();
    args.f64("value", value);
    let mut o = JsonObj::new();
    o.str("name", name)
        .str("ph", "C")
        .f64("ts", us(ts_ns))
        .u64("pid", 1)
        .u64("tid", tid)
        .raw("args", &args.finish());
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, JsonValue};
    use crate::trace::Tracer;

    /// The events of a closed sink file, which must be one JSON array.
    fn sink_events(tag: &str, fill: impl FnOnce(&Tracer)) -> Vec<JsonValue> {
        let path =
            std::env::temp_dir().join(format!("rescue-perfetto-{tag}-{}.json", std::process::id()));
        let t = Tracer::new();
        t.open_sink(path.to_str().unwrap(), "unit \"test\"")
            .expect("sink");
        fill(&t);
        t.close_sink().expect("sink closes cleanly");
        let text = std::fs::read_to_string(&path).expect("trace readable");
        let _ = std::fs::remove_file(&path);
        match json::parse(&text).expect("trace must be valid JSON") {
            JsonValue::Arr(events) => events,
            other => panic!("trace is not an array: {other:?}"),
        }
    }

    fn sample(t: &Tracer) {
        let _s = t.span("atpg.run");
        t.event("flush", &[("block", "3")]);
        t.counter("atpg.coverage", 0.42);
    }

    /// The schema contract: the document parses, and every trace event
    /// carries the fields its phase requires (Perfetto rejects
    /// documents violating these).
    #[test]
    fn rendered_document_satisfies_trace_event_schema() {
        let events = sink_events("schema", sample);
        assert_eq!(
            events[0].get("name").and_then(JsonValue::as_str),
            Some("process_name")
        );
        let mut seen_x = 0;
        let mut seen_i = 0;
        let mut seen_c = 0;
        for e in &events {
            let ph = e.get("ph").and_then(JsonValue::as_str).expect("ph");
            assert!(e.get("name").and_then(JsonValue::as_str).is_some());
            assert!(e.get("pid").and_then(JsonValue::as_int).is_some());
            if ph == "M" {
                continue; // metadata: no timestamp required
            }
            let ts = e.get("ts").and_then(JsonValue::as_f64).expect("ts");
            assert!(ts >= 0.0);
            assert!(e.get("tid").and_then(JsonValue::as_int).is_some());
            match ph {
                "X" => {
                    assert!(e.get("dur").and_then(JsonValue::as_f64).unwrap() >= 0.0);
                    seen_x += 1;
                }
                "i" => {
                    assert_eq!(e.get("s").and_then(JsonValue::as_str), Some("t"));
                    seen_i += 1;
                }
                "C" => {
                    let args = e.get("args").expect("counter args");
                    assert!(args.get("value").and_then(JsonValue::as_f64).is_some());
                    seen_c += 1;
                }
                other => panic!("unexpected phase {other:?}"),
            }
        }
        assert_eq!((seen_x, seen_i, seen_c), (1, 1, 1));
    }

    #[test]
    fn timestamps_are_microseconds() {
        let v = json::parse(&span("atpg.run", 1_500, 2_000_000, 0, 1)).unwrap();
        assert_eq!(v.get("ts").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("dur").unwrap().as_f64(), Some(2000.0));
    }

    /// The field order the CI greps match on.
    #[test]
    fn events_keep_their_field_order() {
        assert_eq!(
            span("podem", 1_000, 2_000, 1, 3),
            r#"{"name":"podem","cat":"span","ph":"X","ts":1,"dur":2,"pid":1,"tid":3,"args":{"depth":1}}"#
        );
        assert_eq!(
            instant("fig9.sims", 0, 1, &[("k", "v")]),
            r#"{"name":"fig9.sims","cat":"event","ph":"i","s":"t","ts":0,"pid":1,"tid":1,"args":{"k":"v"}}"#
        );
        assert_eq!(
            counter("atpg.coverage_so_far", 500, 0.5, 2),
            r#"{"name":"atpg.coverage_so_far","ph":"C","ts":0.5,"pid":1,"tid":2,"args":{"value":0.5}}"#
        );
    }

    #[test]
    fn empty_trace_converts_to_valid_document() {
        let events = sink_events("empty", |_| {});
        // Only the process_name metadata event.
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0]
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(JsonValue::as_str),
            Some("unit \"test\"")
        );
    }

    /// Two counter tracks with the same name on different threads must
    /// stay distinct: the format keys tracks by (name, tid), so each
    /// thread's samples carry that thread's id.
    #[test]
    fn duplicate_counter_track_names_keep_distinct_tids() {
        let events = sink_events("dup", |t| {
            t.counter("queue_len", 3.0);
            std::thread::scope(|s| {
                s.spawn(|| t.counter("queue_len", 7.0));
            });
        });
        let counters: Vec<(i128, f64)> = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("C"))
            .map(|e| {
                (
                    e.get("tid").and_then(JsonValue::as_int).unwrap(),
                    e.get("args")
                        .unwrap()
                        .get("value")
                        .and_then(JsonValue::as_f64)
                        .unwrap(),
                )
            })
            .collect();
        assert_eq!(counters.len(), 2);
        assert_ne!(counters[0].0, counters[1].0, "{counters:?}");
        assert_eq!((counters[0].1, counters[1].1), (3.0, 7.0));
    }

    /// A live tracer's spans, events and counters land in the sink as
    /// they happen, in close order.
    #[test]
    fn live_tracer_records_render() {
        let events = sink_events("live", sample);
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(JsonValue::as_str))
            .collect();
        assert_eq!(phases, vec!["M", "i", "C", "X"]);
    }
}
