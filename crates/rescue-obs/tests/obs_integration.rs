//! Integration tests for the tracer: span nesting, the trace sink
//! (one parseable event object per line), and the report's JSON
//! document.
//!
//! The sandbox has no serde, so validation uses a minimal recursive
//! descent JSON parser defined at the bottom of this file.

use rescue_obs::profile;
use rescue_obs::trace::Tracer;
use rescue_obs::{HistogramSnapshot, Report, SpanStat};
use std::sync::Mutex;

/// The span aggregate is process-global; serialize the tests that turn
/// it on.
static AGGREGATE: Mutex<()> = Mutex::new(());

fn summary_of(names: &[&str]) -> Vec<SpanStat> {
    profile::summary()
        .into_iter()
        .filter(|s| names.contains(&s.name.as_str()))
        .collect()
}

#[test]
fn disabled_tracer_records_nothing() {
    let _g = AGGREGATE.lock().unwrap_or_else(|p| p.into_inner());
    profile::global().set_enabled(false);
    let t = Tracer::new();
    {
        let _a = t.span("off.outer");
        let _b = t.span("off.inner");
        assert_eq!(profile::depth(), 0);
    }
    assert!(summary_of(&["off.outer", "off.inner"]).is_empty());
}

#[test]
fn span_nesting_depths_and_summary() {
    let _g = AGGREGATE.lock().unwrap_or_else(|p| p.into_inner());
    profile::global().set_enabled(true);
    let t = Tracer::new();
    assert_eq!(profile::depth(), 0);
    {
        let _a = t.span("nest.outer");
        assert_eq!(profile::depth(), 1);
        for _ in 0..3 {
            let _b = t.span("nest.inner");
            assert_eq!(profile::depth(), 2);
        }
        assert_eq!(profile::depth(), 1);
    }
    assert_eq!(profile::depth(), 0);
    profile::global().set_enabled(false);

    let summary = summary_of(&["nest.outer", "nest.inner"]);
    assert_eq!(summary.len(), 2);
    let inner = summary.iter().find(|s| s.name == "nest.inner").unwrap();
    let outer = summary.iter().find(|s| s.name == "nest.outer").unwrap();
    assert_eq!(inner.count, 3);
    assert_eq!(outer.count, 1);
    // The outer span was open for at least as long as its longest child.
    assert!(outer.max_ns >= inner.max_ns);
    assert!(inner.total_ns >= inner.max_ns);
}

#[test]
fn jsonl_sink_one_object_per_line() {
    let path = std::env::temp_dir().join(format!("rescue_obs_trace_{}.json", std::process::id()));
    let path_s = path.to_str().unwrap();

    let t = Tracer::new();
    t.open_sink(path_s, "sink").unwrap();
    {
        let _a = t.span("phase.one");
        let _b = t.span("phase.\"two\"\n"); // name needing escapes
        t.event("checkpoint", &[("k", "v"), ("newline", "a\nb")]);
    }
    t.close_sink().unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    // `[`, one event per line (the metadata event, the event, two
    // spans), each after the first led by its comma, then `]`.
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 6, "{text:?}");
    assert_eq!((lines[0], lines[5]), ("[", "]"));
    let objects: Vec<Vec<(String, json::Value)>> = lines[1..5]
        .iter()
        .enumerate()
        .map(|(i, line)| {
            let body = if i == 0 {
                *line
            } else {
                line.strip_prefix(',').expect("comma")
            };
            match json::parse(body).unwrap_or_else(|e| panic!("bad line {line:?}: {e}")) {
                json::Value::Object(o) => o,
                other => panic!("line is not an object: {other:?}"),
            }
        })
        .collect();
    let field = |o: &[(String, json::Value)], k: &str| {
        o.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone())
    };
    let ph = |o: &[(String, json::Value)]| match field(o, "ph") {
        Some(json::Value::Str(s)) => s,
        other => panic!("no ph: {other:?}"),
    };
    let phases: Vec<String> = objects.iter().map(|o| ph(o)).collect();
    assert_eq!(phases, ["M", "i", "X", "X"]);
    let args = |o: &[(String, json::Value)]| match field(o, "args") {
        Some(json::Value::Object(a)) => a,
        other => panic!("no args: {other:?}"),
    };
    assert_eq!(
        field(&args(&objects[1]), "newline"),
        Some(json::Value::Str("a\nb".into()))
    );
    // Spans close inner-first, so the first span is the inner one at
    // depth 1 and the second the outer at depth 0.
    assert_eq!(
        field(&objects[2], "name"),
        Some(json::Value::Str("phase.\"two\"\n".into()))
    );
    assert_eq!(
        field(&args(&objects[2]), "depth"),
        Some(json::Value::Num(1.0))
    );
    assert_eq!(
        field(&args(&objects[3]), "depth"),
        Some(json::Value::Num(0.0))
    );
    for o in &objects[1..] {
        for k in ["name", "ph", "ts", "pid", "tid"] {
            assert!(field(o, k).is_some(), "missing {k}");
        }
    }
}

#[test]
fn report_json_is_parseable() {
    let mut r = Report::new("test \"quoted\"");
    let mut h = HistogramSnapshot::default();
    h.record(3);
    h.record(300);
    r.section("sec.a")
        .u64("u", 7)
        .i64("i", -7)
        .f64("f", 0.25)
        .f64("nan", f64::NAN)
        .str("s", "x\ny")
        .hist("h", h);
    {
        let _g = AGGREGATE.lock().unwrap_or_else(|p| p.into_inner());
        profile::global().set_enabled(true);
        {
            let _s = rescue_obs::span("report.p");
        }
        profile::global().set_enabled(false);
        r.add_spans(summary_of(&["report.p"]));
    }
    assert_eq!(r.spans.len(), 1);

    let doc = r.to_json();
    let v = json::parse(&doc).unwrap_or_else(|e| panic!("bad report json: {e}\n{doc}"));
    let obj = match v {
        json::Value::Object(o) => o,
        _ => panic!("not an object"),
    };
    for field in ["title", "sections", "spans"] {
        assert!(obj.iter().any(|(k, _)| k == field), "missing {field}");
    }
    // NaN must serialize as null, not poison the document.
    assert!(doc.contains("\"nan\":null"));
}

/// Minimal JSON parser for validation: values, objects with duplicate
/// keys kept in order, numbers as f64.
mod json {
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Object(Vec<(String, Value)>),
    }

    pub fn parse(s: &str) -> Result<Value, String> {
        let b = s.as_bytes();
        let mut i = 0;
        let v = value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing bytes at {i}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
            *i += 1;
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Result<Value, String> {
        skip_ws(b, i);
        match b.get(*i) {
            Some(b'{') => object(b, i),
            Some(b'[') => array(b, i),
            Some(b'"') => Ok(Value::Str(string(b, i)?)),
            Some(b't') => lit(b, i, "true", Value::Bool(true)),
            Some(b'f') => lit(b, i, "false", Value::Bool(false)),
            Some(b'n') => lit(b, i, "null", Value::Null),
            Some(_) => number(b, i),
            None => Err("unexpected end".into()),
        }
    }

    fn lit(b: &[u8], i: &mut usize, word: &str, v: Value) -> Result<Value, String> {
        if b[*i..].starts_with(word.as_bytes()) {
            *i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {i}"))
        }
    }

    fn number(b: &[u8], i: &mut usize) -> Result<Value, String> {
        let start = *i;
        while *i < b.len() && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *i += 1;
        }
        std::str::from_utf8(&b[start..*i])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at {start}"))
    }

    fn string(b: &[u8], i: &mut usize) -> Result<String, String> {
        if b.get(*i) != Some(&b'"') {
            return Err(format!("expected string at {i}"));
        }
        *i += 1;
        let mut out = Vec::new();
        while let Some(&c) = b.get(*i) {
            *i += 1;
            match c {
                b'"' => {
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                b'\\' => {
                    let esc = *b.get(*i).ok_or("bad escape")?;
                    *i += 1;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0c),
                        b'u' => {
                            let hex = std::str::from_utf8(b.get(*i..*i + 4).ok_or("short \\u")?)
                                .map_err(|e| e.to_string())?;
                            *i += 4;
                            let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            let ch = char::from_u32(cp).ok_or("bad codepoint")?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                        }
                        _ => return Err(format!("bad escape \\{}", esc as char)),
                    }
                }
                c => out.push(c),
            }
        }
        Err("unterminated string".into())
    }

    fn array(b: &[u8], i: &mut usize) -> Result<Value, String> {
        *i += 1; // [
        let mut items = Vec::new();
        skip_ws(b, i);
        if b.get(*i) == Some(&b']') {
            *i += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(value(b, i)?);
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b']') => {
                    *i += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected , or ] at {i}")),
            }
        }
    }

    fn object(b: &[u8], i: &mut usize) -> Result<Value, String> {
        *i += 1; // {
        let mut fields = Vec::new();
        skip_ws(b, i);
        if b.get(*i) == Some(&b'}') {
            *i += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            skip_ws(b, i);
            let k = string(b, i)?;
            skip_ws(b, i);
            if b.get(*i) != Some(&b':') {
                return Err(format!("expected : at {i}"));
            }
            *i += 1;
            fields.push((k, value(b, i)?));
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b'}') => {
                    *i += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected , or }} at {i}")),
            }
        }
    }
}
