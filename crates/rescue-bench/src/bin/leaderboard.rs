//! Render the bench-run history as a gate-evals/sec leaderboard.
//!
//! Usage: `leaderboard [BENCH_history.jsonl] [--md PATH] [--json PATH]`
//!
//! Reads the append-only history written by the bench binaries'
//! `--history` flag (default path `BENCH_history.jsonl`), prints the
//! markdown leaderboard — chronological throughput trajectory plus
//! per-mode and per-lane-width standings — to stdout, and optionally writes it as
//! markdown (`--md`) and/or a JSON document (`--json`). Exit codes:
//! 0 = rendered, 2 = usage error, missing/unreadable history, or a
//! history file with no valid records.

use rescue_bench::history::parse_history;
use rescue_bench::leaderboard::{render_json, render_markdown};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<&str> = None;
    let mut md_out: Option<&str> = None;
    let mut json_out: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--md" => {
                i += 1;
                md_out = Some(args.get(i).map(String::as_str).unwrap_or_else(|| {
                    usage("--md expects a path");
                }));
            }
            "--json" => {
                i += 1;
                json_out = Some(args.get(i).map(String::as_str).unwrap_or_else(|| {
                    usage("--json expects a path");
                }));
            }
            flag if flag.starts_with("--") => usage(&format!("unknown flag {flag}")),
            p if path.is_none() => path = Some(p),
            _ => usage("expected at most one history path"),
        }
        i += 1;
    }
    let path = path.unwrap_or("BENCH_history.jsonl");

    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read history {path}: {e}");
        std::process::exit(2);
    });
    let records = parse_history(&text).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(2);
    });
    if records.is_empty() {
        eprintln!("error: {path} contains no history records");
        std::process::exit(2);
    }

    let md = render_markdown(&records);
    print!("{md}");
    if let Some(p) = md_out {
        if let Err(e) = std::fs::write(p, &md) {
            eprintln!("error: cannot write {p}: {e}");
            std::process::exit(2);
        }
        eprintln!("wrote markdown leaderboard {p}");
    }
    if let Some(p) = json_out {
        if let Err(e) = std::fs::write(p, render_json(&records)) {
            eprintln!("error: cannot write {p}: {e}");
            std::process::exit(2);
        }
        eprintln!("wrote JSON leaderboard {p}");
    }
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!("usage: leaderboard [BENCH_history.jsonl] [--md PATH] [--json PATH]");
    std::process::exit(2);
}
