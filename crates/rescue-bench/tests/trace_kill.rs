//! A run killed mid-flight leaves a usable trace: `--trace-perfetto`
//! streams trace events as they happen, so the file of a `fig9` killed
//! with SIGKILL (no panic hook, no drop) parses as a trace-event array
//! once a torn last line is dropped and the optional closing `]` is
//! appended — the same check the CI `test` job makes.

use rescue_obs::json::{self, JsonValue};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn a_killed_run_leaves_a_parseable_trace_prefix() {
    let path = std::env::temp_dir().join(format!("rescue-trace-kill-{}.json", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_fig9"))
        .args(["--quick", "--threads", "1", "--trace-perfetto"])
        .arg(&path)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("fig9 starts");
    // Kill once a few periodic flushes have reached the disk.
    let deadline = Instant::now() + Duration::from_secs(120);
    while std::fs::metadata(&path).map_or(0, |m| m.len()) < 64 * 1024 {
        assert!(Instant::now() < deadline, "fig9 wrote no trace");
        assert!(child.try_wait().unwrap().is_none(), "fig9 ended early");
        std::thread::sleep(Duration::from_millis(20));
    }
    child.kill().expect("kill fig9");
    child.wait().expect("reap fig9");

    let mut text = std::fs::read_to_string(&path).expect("trace readable");
    let _ = std::fs::remove_file(&path);
    assert!(!text.ends_with("]\n"), "the killed run closed its trace");
    text.truncate(text.rfind('\n').expect("whole lines") + 1);
    text.push(']');
    let events = match json::parse(&text) {
        Ok(JsonValue::Arr(events)) => events,
        other => panic!("killed trace is not an array: {other:?}"),
    };
    assert_eq!(
        events[0].get("name").and_then(JsonValue::as_str),
        Some("process_name")
    );
    assert!(
        events[1..].iter().all(|e| matches!(
            e.get("ph").and_then(JsonValue::as_str),
            Some("X" | "i" | "C")
        )),
        "every event after the metadata is a span, instant or counter"
    );
    assert!(events.len() > 100, "only {} events", events.len());
}
