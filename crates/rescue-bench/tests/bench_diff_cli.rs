//! End-to-end tests of the `bench-diff` binary: exit 0 on an unchanged
//! run, 1 when a counter is perturbed or varied across `--repeat` runs,
//! 2 on unusable input.

use std::path::PathBuf;
use std::process::Command;

const DOC: &str = r#"{"title":"all","sections":[
  {"name":"table3.rescue.podem","metrics":{"detected":1234,"aborted":3}},
  {"name":"table3.rescue.coverage","metrics":{"targetable":1237,"detected":1234,
     "final_coverage":0.9975748585287,"curve_points":57}},
  {"name":"table3.rescue.timing","metrics":{"fsim_ms":812.25}}],
 "spans":[{"name":"table3","count":1,"total_ns":9000000,"max_ns":9000000}]}"#;

fn write_doc(name: &str, body: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-diff-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, body).unwrap();
    path
}

fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench-diff"))
        .args(args)
        .output()
        .expect("bench-diff runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unchanged_run_exits_zero() {
    let a = write_doc("base_eq.json", DOC);
    let b = write_doc("cur_eq.json", DOC);
    let (code, stdout, _) = run(&[a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("0 failed"), "{stdout}");
}

#[test]
fn perturbed_counter_exits_nonzero_and_names_the_metric() {
    let a = write_doc("base_pert.json", DOC);
    let b = write_doc(
        "cur_pert.json",
        &DOC.replace("\"detected\":1234", "\"detected\":1233"),
    );
    let (code, stdout, stderr) = run(&[a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{stdout}{stderr}");
    assert!(stdout.contains("detected"), "{stdout}");
    assert!(stdout.contains("FAIL"), "{stdout}");
    assert!(stderr.contains("regression"), "{stderr}");
}

#[test]
fn wall_clock_drift_alone_does_not_gate() {
    let a = write_doc("base_time.json", DOC);
    let b = write_doc("cur_time.json", &DOC.replace("812.25", "1650.5"));
    let (code, stdout, _) = run(&[a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("info"), "{stdout}");
}

/// A `--repeat 3` document: `rescue_bench::stats::merge_reports` over
/// three runs whose timing always varies and whose `detected` count
/// varies when `flaky`.
fn repeated_doc(flaky: bool) -> String {
    use rescue_obs::Report;
    let runs: Vec<Report> = [(1234, 790.5), (1234, 812.25), (1233, 905.0)]
        .into_iter()
        .map(|(detected, fsim_ms)| {
            let mut r = Report::new("all");
            r.section("table3.rescue.podem")
                .u64("detected", if flaky { detected } else { 1234 })
                .u64("aborted", 3);
            r.section("table3.rescue.timing").f64("fsim_ms", fsim_ms);
            r
        })
        .collect();
    rescue_bench::stats::merge_reports(&runs).to_json()
}

#[test]
fn stats_are_informational_without_the_gate_flag() {
    // Only the timing varied across the repeats: an `info` row, exit 0.
    let a = write_doc("base_rep.json", &repeated_doc(false));
    let b = write_doc("cur_rep.json", &repeated_doc(false));
    let (code, stdout, _) = run(&[a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("info"), "{stdout}");
}

#[test]
fn counter_varied_across_repeats_exits_one() {
    let a = write_doc("base_scalar.json", DOC);
    let b = write_doc("cur_flaky.json", &repeated_doc(true));
    let (code, stdout, stderr) = run(&[a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{stdout}{stderr}");
    assert!(stdout.contains("table3.rescue.podem.detected"), "{stdout}");
    assert!(stdout.contains("varied across --repeat runs"), "{stdout}");
}

#[test]
fn removed_speed_gate_flags_are_usage_errors() {
    let a = write_doc("base_flags.json", DOC);
    for flag in ["--stats-gate", "--time-tolerance-pct"] {
        let (code, _, stderr) = run(&[a.to_str().unwrap(), a.to_str().unwrap(), flag]);
        assert_eq!(code, Some(2), "{flag}: {stderr}");
        assert!(stderr.contains("unknown flag"), "{stderr}");
    }
}

#[test]
fn unusable_input_exits_two() {
    let a = write_doc("base_ok.json", DOC);
    let junk = write_doc("junk.json", "not json at all");
    let (code, _, stderr) = run(&[a.to_str().unwrap(), junk.to_str().unwrap()]);
    assert_eq!(code, Some(2), "{stderr}");

    let (code, _, _) = run(&[a.to_str().unwrap(), "/nonexistent/nope.json"]);
    assert_eq!(code, Some(2));

    let (code, _, stderr) = run(&[a.to_str().unwrap()]);
    assert_eq!(code, Some(2), "{stderr}");
}
