//! Export traces in the Chrome trace-event JSON format, loadable in
//! `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev).
//!
//! Two inputs are accepted: the tracer's in-memory
//! [`TraceRecord`] buffer (the live path used by the `--trace-perfetto`
//! flag), and a span/event/counter JSONL document previously written by
//! the `--trace-json` sink ([`from_jsonl`], the offline converter).
//! Either way the output is one JSON object:
//!
//! ```json
//! {"displayTimeUnit":"ms","traceEvents":[
//!   {"name":"process_name","ph":"M","pid":1,"args":{"name":"table3"}},
//!   {"name":"atpg.run","cat":"span","ph":"X","ts":12.5,"dur":8121.75,"pid":1,"tid":1},
//!   {"name":"atpg.coverage","ph":"C","ts":900.0,"pid":1,"tid":1,"args":{"value":0.42}}
//! ]}
//! ```
//!
//! Spans become complete (`"X"`) events, point events become instants
//! (`"i"`), and counter samples become counter (`"C"`) events, which
//! Perfetto renders as counter tracks — the IPC, queue-occupancy, and
//! coverage-so-far timelines. Timestamps are microseconds (the format's
//! unit) relative to the tracer epoch.

use crate::json::{self, JsonObj, JsonValue};
use crate::trace::TraceRecord;
use std::collections::BTreeSet;

/// Render records as a complete Chrome trace-event JSON document titled
/// `title` (shown as the process name in the Perfetto UI).
pub fn render(title: &str, records: &[TraceRecord]) -> String {
    let mut events: Vec<String> = Vec::with_capacity(records.len() + 4);
    {
        let mut args = JsonObj::new();
        args.str("name", title);
        let mut o = JsonObj::new();
        o.str("name", "process_name")
            .str("ph", "M")
            .u64("pid", 1)
            .raw("args", &args.finish());
        events.push(o.finish());
    }
    let tids: BTreeSet<u64> = records
        .iter()
        .map(|r| match r {
            TraceRecord::Span { tid, .. }
            | TraceRecord::Event { tid, .. }
            | TraceRecord::Counter { tid, .. } => *tid,
        })
        .collect();
    for tid in tids {
        let mut args = JsonObj::new();
        args.str("name", &format!("thread {tid}"));
        let mut o = JsonObj::new();
        o.str("name", "thread_name")
            .str("ph", "M")
            .u64("pid", 1)
            .u64("tid", tid)
            .raw("args", &args.finish());
        events.push(o.finish());
    }
    for r in records {
        events.push(render_record(r));
    }
    let mut doc = JsonObj::new();
    doc.str("displayTimeUnit", "ms")
        .raw("traceEvents", &json::array(&events));
    doc.finish()
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

fn render_record(r: &TraceRecord) -> String {
    match r {
        TraceRecord::Span {
            name,
            ts_ns,
            dur_ns,
            depth,
            tid,
        } => {
            let mut args = JsonObj::new();
            args.u64("depth", *depth);
            let mut o = JsonObj::new();
            o.str("name", name)
                .str("cat", "span")
                .str("ph", "X")
                .f64("ts", us(*ts_ns))
                .f64("dur", us(*dur_ns))
                .u64("pid", 1)
                .u64("tid", *tid)
                .raw("args", &args.finish());
            o.finish()
        }
        TraceRecord::Event {
            name,
            ts_ns,
            tid,
            fields,
        } => {
            let mut args = JsonObj::new();
            for (k, v) in fields {
                args.str(k, v);
            }
            let mut o = JsonObj::new();
            o.str("name", name)
                .str("cat", "event")
                .str("ph", "i")
                .str("s", "t")
                .f64("ts", us(*ts_ns))
                .u64("pid", 1)
                .u64("tid", *tid)
                .raw("args", &args.finish());
            o.finish()
        }
        TraceRecord::Counter {
            name,
            ts_ns,
            value,
            tid,
        } => {
            let mut args = JsonObj::new();
            args.f64("value", *value);
            let mut o = JsonObj::new();
            o.str("name", name)
                .str("ph", "C")
                .f64("ts", us(*ts_ns))
                .u64("pid", 1)
                .u64("tid", *tid)
                .raw("args", &args.finish());
            o.finish()
        }
    }
}

/// Convert a `--trace-json` JSONL document into trace-event JSON.
///
/// Blank lines are skipped; a malformed line or an unknown `type` is an
/// error naming the line number — with one exception: a JSON *parse*
/// failure on the final non-blank line is treated as a torn tail (the
/// process was killed mid-write, e.g. inside a still-open span) and the
/// line is dropped, so a kill-mid-span trace still converts. A line
/// that parses but is semantically wrong (unknown `type`, missing
/// field) errors wherever it appears. Lines written before the `tid`
/// field existed default to thread 1.
pub fn from_jsonl(title: &str, jsonl: &str) -> Result<String, String> {
    let lines: Vec<(usize, &str)> = jsonl
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .collect();
    let mut records = Vec::new();
    for (pos, &(lineno, line)) in lines.iter().enumerate() {
        let v = match json::parse(line) {
            Ok(v) => v,
            Err(_) if pos + 1 == lines.len() => break, // torn final write
            Err(e) => return Err(format!("line {}: {e}", lineno + 1)),
        };
        records.push(record_of_line(&v).map_err(|e| format!("line {}: {e}", lineno + 1))?);
    }
    Ok(render(title, &records))
}

fn record_of_line(v: &JsonValue) -> Result<TraceRecord, String> {
    let get_str = |k: &str| {
        v.get(k)
            .and_then(JsonValue::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("missing string field {k:?}"))
    };
    let get_u64 = |k: &str| {
        v.get(k)
            .and_then(JsonValue::as_int)
            .map(|i| i as u64)
            .ok_or_else(|| format!("missing integer field {k:?}"))
    };
    let tid = v.get("tid").and_then(JsonValue::as_int).unwrap_or(1) as u64;
    match get_str("type")?.as_str() {
        "span" => Ok(TraceRecord::Span {
            name: get_str("name")?,
            ts_ns: get_u64("ts_ns")?,
            dur_ns: get_u64("dur_ns")?,
            depth: get_u64("depth")?,
            tid,
        }),
        "event" => {
            let fields = match v {
                JsonValue::Obj(kvs) => kvs
                    .iter()
                    .filter(|(k, _)| {
                        !matches!(k.as_str(), "type" | "name" | "ts_ns" | "depth" | "tid")
                    })
                    .filter_map(|(k, val)| val.as_str().map(|s| (k.clone(), s.to_owned())))
                    .collect(),
                _ => Vec::new(),
            };
            Ok(TraceRecord::Event {
                name: get_str("name")?,
                ts_ns: get_u64("ts_ns")?,
                tid,
                fields,
            })
        }
        "counter" => Ok(TraceRecord::Counter {
            name: get_str("name")?,
            ts_ns: get_u64("ts_ns")?,
            value: v
                .get("value")
                .and_then(JsonValue::as_f64)
                .ok_or("missing numeric field \"value\"")?,
            tid,
        }),
        other => Err(format!("unknown record type {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord::Span {
                name: "atpg.run".into(),
                ts_ns: 1_500,
                dur_ns: 2_000_000,
                depth: 0,
                tid: 1,
            },
            TraceRecord::Event {
                name: "flush".into(),
                ts_ns: 900_000,
                tid: 1,
                fields: vec![("block".into(), "3".into())],
            },
            TraceRecord::Counter {
                name: "atpg.coverage".into(),
                ts_ns: 950_000,
                value: 0.42,
                tid: 2,
            },
        ]
    }

    /// The schema contract behind the acceptance criterion: the document
    /// parses, and every trace event carries the fields its phase
    /// requires (Perfetto rejects documents violating these).
    #[test]
    fn rendered_document_satisfies_trace_event_schema() {
        let doc = render("unit \"test\"", &sample_records());
        let v = json::parse(&doc).expect("trace must be valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(JsonValue::as_arr)
            .expect("traceEvents array");
        assert!(events.len() >= sample_records().len());
        let mut seen_x = 0;
        let mut seen_i = 0;
        let mut seen_c = 0;
        for e in events {
            let ph = e.get("ph").and_then(JsonValue::as_str).expect("ph");
            assert!(e.get("name").and_then(JsonValue::as_str).is_some());
            assert!(e.get("pid").and_then(JsonValue::as_int).is_some());
            match ph {
                "M" => continue, // metadata: no timestamp required
                _ => {
                    let ts = e.get("ts").and_then(JsonValue::as_f64).expect("ts");
                    assert!(ts >= 0.0);
                }
            }
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
        let doc = render("t", &sample_records());
        let v = json::parse(&doc).unwrap();
        let events = v.get("traceEvents").and_then(JsonValue::as_arr).unwrap();
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .unwrap();
        assert_eq!(span.get("ts").unwrap().as_f64(), Some(1.5));
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(2000.0));
    }

    #[test]
    fn jsonl_conversion_round_trips() {
        let jsonl = concat!(
            "{\"type\":\"span\",\"name\":\"a\",\"ts_ns\":10,\"dur_ns\":20,\"depth\":0,\"tid\":1}\n",
            "\n",
            "{\"type\":\"event\",\"name\":\"e\",\"ts_ns\":15,\"depth\":1,\"tid\":1,\"k\":\"v\"}\n",
            "{\"type\":\"counter\",\"name\":\"c\",\"ts_ns\":18,\"value\":2.5,\"tid\":1}\n",
        );
        let doc = from_jsonl("conv", jsonl).expect("converts");
        let v = json::parse(&doc).unwrap();
        let events = v.get("traceEvents").and_then(JsonValue::as_arr).unwrap();
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(JsonValue::as_str))
            .filter(|p| *p != "M")
            .collect();
        assert_eq!(phases, vec!["X", "i", "C"]);
        // The event's extra field survives into args.
        let inst = events
            .iter()
            .find(|e| e.get("ph").and_then(JsonValue::as_str) == Some("i"))
            .unwrap();
        assert_eq!(
            inst.get("args")
                .unwrap()
                .get("k")
                .and_then(JsonValue::as_str),
            Some("v")
        );
    }

    #[test]
    fn jsonl_conversion_reports_bad_lines() {
        // Semantic errors (valid JSON, wrong shape) error anywhere —
        // including on the last line.
        let err = from_jsonl("t", "{\"type\":\"mystery\"}").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        // A parse failure that is NOT the final line is a real error.
        let jsonl = concat!(
            "not json\n",
            "{\"type\":\"counter\",\"name\":\"c\",\"ts_ns\":1,\"value\":1,\"tid\":1}\n",
        );
        let err = from_jsonl("t", jsonl).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn empty_trace_converts_to_valid_document() {
        for input in ["", "\n\n  \n"] {
            let doc = from_jsonl("empty", input).expect("empty trace converts");
            let v = json::parse(&doc).expect("valid JSON");
            let events = v.get("traceEvents").and_then(JsonValue::as_arr).unwrap();
            // Only the process_name metadata event remains.
            assert_eq!(events.len(), 1, "{doc}");
            assert_eq!(
                events[0].get("name").and_then(JsonValue::as_str),
                Some("process_name")
            );
        }
        let doc = render("empty", &[]);
        assert!(json::parse(&doc).is_ok());
    }

    /// A process killed mid-span leaves a JSONL file whose enclosing
    /// span was never written and whose final line may be torn. The
    /// converter must keep every intact record and drop only the torn
    /// tail.
    #[test]
    fn kill_mid_span_trace_converts_dropping_torn_tail() {
        let jsonl = concat!(
            "{\"type\":\"span\",\"name\":\"inner\",\"ts_ns\":10,\"dur_ns\":20,\"depth\":1,\"tid\":1}\n",
            "{\"type\":\"counter\",\"name\":\"cov\",\"ts_ns\":25,\"value\":0.5,\"tid\":1}\n",
            "{\"type\":\"event\",\"name\":\"progre", // torn mid-write at kill
        );
        let doc = from_jsonl("killed", jsonl).expect("torn tail tolerated");
        let v = json::parse(&doc).unwrap();
        let events = v.get("traceEvents").and_then(JsonValue::as_arr).unwrap();
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(JsonValue::as_str))
            .filter(|p| *p != "M")
            .collect();
        assert_eq!(phases, vec!["X", "C"], "{doc}");
    }

    /// Two counter tracks with the same name on different threads must
    /// stay distinct (same name + same tid would merge in the UI; the
    /// converter keys tracks by (name, tid) as the format requires).
    #[test]
    fn duplicate_counter_track_names_keep_distinct_tids() {
        let records = vec![
            TraceRecord::Counter {
                name: "queue_len".into(),
                ts_ns: 100,
                value: 3.0,
                tid: 1,
            },
            TraceRecord::Counter {
                name: "queue_len".into(),
                ts_ns: 120,
                value: 7.0,
                tid: 2,
            },
        ];
        let doc = render("dup", &records);
        let v = json::parse(&doc).unwrap();
        let events = v.get("traceEvents").and_then(JsonValue::as_arr).unwrap();
        let counters: Vec<(&str, i128, f64)> = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("C"))
            .map(|e| {
                (
                    e.get("name").and_then(JsonValue::as_str).unwrap(),
                    e.get("tid").and_then(JsonValue::as_int).unwrap(),
                    e.get("args")
                        .unwrap()
                        .get("value")
                        .and_then(JsonValue::as_f64)
                        .unwrap(),
                )
            })
            .collect();
        assert_eq!(
            counters,
            vec![("queue_len", 1, 3.0), ("queue_len", 2, 7.0)],
            "{doc}"
        );
        // Both tids got thread_name metadata.
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some("thread_name"))
            .filter_map(|e| {
                e.get("args")
                    .unwrap()
                    .get("name")
                    .and_then(JsonValue::as_str)
            })
            .collect();
        assert_eq!(names, vec!["thread 1", "thread 2"]);
    }

    /// A tracer wired for recording produces records that render into a
    /// schema-valid document end to end.
    #[test]
    fn live_tracer_records_render() {
        let t = crate::trace::Tracer::new();
        t.set_record(true);
        {
            let _s = t.span("outer");
            t.counter("cov", 0.5);
            t.event("mark", &[("x", "1")]);
        }
        let records = t.take_records();
        assert_eq!(records.len(), 3);
        let doc = render("live", &records);
        assert!(json::parse(&doc).is_ok());
        // Buffer drained.
        assert!(t.take_records().is_empty());
    }
}
