//! Every bench binary rejects a `--…` argument it does not know with
//! exit code 2 before doing any work, so a typo cannot silently change
//! what runs.

use std::process::Command;

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("unknown-flags-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn misspelled_quick_exits_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .arg("--quik")
        .output()
        .expect("table1 runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --quik"), "{stderr}");
    assert!(out.stdout.is_empty(), "table1 printed its table anyway");
}

#[test]
fn removed_history_flag_exits_two_before_any_work() {
    let dir = scratch_dir("all");
    let out = Command::new(env!("CARGO_BIN_EXE_all"))
        .args(["--quick", "--history", "x"])
        .current_dir(&dir)
        .output()
        .expect("all runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --history"), "{stderr}");
    assert!(out.stdout.is_empty(), "all printed results anyway");
    assert!(!dir.join("BENCH_metrics.json").exists());
    assert!(!dir.join("x").exists());
}

#[test]
fn known_flags_still_run() {
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--quick", "--repeat", "1"])
        .output()
        .expect("table1 runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty());
}
