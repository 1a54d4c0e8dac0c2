//! Render the bench-run history (`BENCH_history.jsonl`) as a
//! gate-evals/sec leaderboard for the PPSFP fault-sim kernel: the
//! chronological throughput trajectory, the best headline throughput
//! per mode, and the width-scaling standings across the lane-width
//! sweep, as markdown and JSON.
//!
//! Quick and full runs are scored separately (a `--quick` circuit is a
//! different workload), and records missing the kernel throughput
//! metrics (e.g. a `table3`-only run) appear in the trajectory but not
//! in the standings. Metrics a record carries that the leaderboard no
//! longer ranks (older records' per-kernel bucket/heap rates) are
//! ignored.

use crate::history::HistoryRecord;
use rescue_obs::json::{self, JsonObj};
use std::fmt::Write as _;

/// One standings row: the best recorded headline throughput
/// (`ppsfp_evals_per_sec`) in one mode (quick or full).
#[derive(Clone, Debug, PartialEq)]
pub struct Standing {
    /// `"quick"` or `"full"`.
    pub mode: String,
    /// Best gate-evals/sec recorded.
    pub best_evals_per_sec: f64,
    /// SHA of the record holder.
    pub sha: String,
    /// Date of the record holder.
    pub date: String,
}

/// One width-scaling row: the best recorded throughput at one lane
/// width in one mode.
#[derive(Clone, Debug, PartialEq)]
pub struct WidthStanding {
    /// Patterns per pass: 64, 256 or 512.
    pub width: u64,
    /// `"quick"` or `"full"`.
    pub mode: String,
    /// Best gate-evals/sec recorded at this width.
    pub best_evals_per_sec: f64,
    /// SHA of the record holder.
    pub sha: String,
    /// Date of the record holder.
    pub date: String,
}

/// The headline throughput metric the standings rank.
const HEADLINE: &str = "ppsfp_evals_per_sec";

/// The lane widths (patterns per pass) of the width sweep.
const WIDTHS: [u64; 3] = [64, 256, 512];

fn width_metric(width: u64) -> String {
    format!("ppsfp_w{width}_evals_per_sec")
}

fn best_metric<'a>(
    records: &'a [HistoryRecord],
    metric: &str,
    quick: bool,
) -> Option<(f64, &'a HistoryRecord)> {
    records
        .iter()
        .filter(|r| r.quick == quick)
        .filter_map(|r| r.metric(metric).map(|v| (v, r)))
        .max_by(|a, b| a.0.total_cmp(&b.0))
}

/// Compute the best headline throughput per mode (full, then quick).
pub fn standings(records: &[HistoryRecord]) -> Vec<Standing> {
    let mut out: Vec<Standing> = Vec::new();
    for (mode, quick) in [("full", false), ("quick", true)] {
        if let Some((v, r)) = best_metric(records, HEADLINE, quick) {
            out.push(Standing {
                mode: mode.to_owned(),
                best_evals_per_sec: v,
                sha: r.sha.clone(),
                date: r.date.clone(),
            });
        }
    }
    out
}

/// Compute best-per-width standings (`ppsfp_w{width}_evals_per_sec`
/// history metrics), sorted by width, then mode.
pub fn width_standings(records: &[HistoryRecord]) -> Vec<WidthStanding> {
    let mut out: Vec<WidthStanding> = Vec::new();
    for width in WIDTHS {
        let metric = width_metric(width);
        for (mode, quick) in [("full", false), ("quick", true)] {
            if let Some((v, r)) = best_metric(records, &metric, quick) {
                out.push(WidthStanding {
                    width,
                    mode: mode.to_owned(),
                    best_evals_per_sec: v,
                    sha: r.sha.clone(),
                    date: r.date.clone(),
                });
            }
        }
    }
    out
}

fn short_sha(sha: &str) -> &str {
    &sha[..sha.len().min(7)]
}

fn mevals(v: f64) -> String {
    format!("{:.2}", v / 1e6)
}

/// Render the markdown leaderboard: trajectory table (chronological),
/// standings, and a latest-vs-best delta line.
pub fn render_markdown(records: &[HistoryRecord]) -> String {
    let mut s = String::from("# Rescue gate-evals/sec leaderboard\n\n");
    if records.is_empty() {
        s.push_str(
            "_No history records yet. Run a bench binary with `--history BENCH_history.jsonl`._\n",
        );
        return s;
    }
    let mut ordered: Vec<&HistoryRecord> = records.iter().collect();
    ordered.sort_by_key(|r| r.unix_secs);

    s.push_str("## Trajectory\n\n");
    s.push_str(
        "| date | sha | title | threads | mode | best Mevals/s \
         | w64 Mevals/s | w256 Mevals/s | w512 Mevals/s |\n",
    );
    s.push_str("|---|---|---|---:|---|---:|---:|---:|---:|\n");
    for r in &ordered {
        let cell = |name: &str| r.metric(name).map_or("–".to_owned(), mevals);
        let _ = writeln!(
            s,
            "| {} | `{}` | {} | {} | {} | {} | {} | {} | {} |",
            r.date,
            short_sha(&r.sha),
            r.title,
            r.threads,
            if r.quick { "quick" } else { "full" },
            cell(HEADLINE),
            cell(&width_metric(64)),
            cell(&width_metric(256)),
            cell(&width_metric(512)),
        );
    }

    let st = standings(records);
    if !st.is_empty() {
        s.push_str("\n## Standings (best recorded)\n\n");
        s.push_str("| mode | best Mevals/s | sha | date |\n");
        s.push_str("|---|---:|---|---|\n");
        for row in &st {
            let _ = writeln!(
                s,
                "| {} | {} | `{}` | {} |",
                row.mode,
                mevals(row.best_evals_per_sec),
                short_sha(&row.sha),
                row.date,
            );
        }
    }

    let wst = width_standings(records);
    if !wst.is_empty() {
        s.push_str("\n## Width scaling (best recorded per lane width)\n\n");
        s.push_str("| patterns/pass | mode | best Mevals/s | sha | date |\n");
        s.push_str("|---:|---|---:|---|---|\n");
        for row in &wst {
            let _ = writeln!(
                s,
                "| {} | {} | {} | `{}` | {} |",
                row.width,
                row.mode,
                mevals(row.best_evals_per_sec),
                short_sha(&row.sha),
                row.date,
            );
        }
    }

    // Latest-vs-best headline throughput in the latest record's mode.
    if let Some(latest) = ordered.last() {
        if let Some(now) = latest.metric(HEADLINE) {
            let mode = if latest.quick { "quick" } else { "full" };
            if let Some(best) = st
                .iter()
                .find(|r| r.mode == mode)
                .map(|r| r.best_evals_per_sec)
            {
                let _ = writeln!(
                    s,
                    "\nLatest throughput is {} Mevals/s — {:.1}% of the {} record.",
                    mevals(now),
                    100.0 * now / best.max(1e-12),
                    mode,
                );
            }
        }
    }
    s
}

/// Render the JSON leaderboard document: `{"records": [...],
/// "standings": [...], "width_standings": [...], "latest": {...}}`.
pub fn render_json(records: &[HistoryRecord]) -> String {
    let mut ordered: Vec<&HistoryRecord> = records.iter().collect();
    ordered.sort_by_key(|r| r.unix_secs);
    let recs: Vec<String> = ordered.iter().map(|r| r.to_json()).collect();
    let st: Vec<String> = standings(records)
        .iter()
        .map(|row| {
            let mut o = JsonObj::new();
            o.str("mode", &row.mode)
                .f64("best_evals_per_sec", row.best_evals_per_sec)
                .str("sha", &row.sha)
                .str("date", &row.date);
            o.finish()
        })
        .collect();
    let wst: Vec<String> = width_standings(records)
        .iter()
        .map(|row| {
            let mut o = JsonObj::new();
            o.u64("width", row.width)
                .str("mode", &row.mode)
                .f64("best_evals_per_sec", row.best_evals_per_sec)
                .str("sha", &row.sha)
                .str("date", &row.date);
            o.finish()
        })
        .collect();
    let mut o = JsonObj::new();
    o.raw("records", &json::array(&recs))
        .raw("standings", &json::array(&st))
        .raw("width_standings", &json::array(&wst));
    if let Some(latest) = ordered.last() {
        o.raw("latest", &latest.to_json());
    }
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{parse_history, utc_date};

    /// A record with the headline rate and the per-width sweep rates
    /// (w256 = 0.8 × headline, w512 = headline).
    fn rec(sha: &str, secs: u64, quick: bool, best: f64) -> HistoryRecord {
        let mut metrics = vec![
            (HEADLINE.to_owned(), best),
            (width_metric(64), 2e6),
            (width_metric(256), best * 0.8),
            (width_metric(512), best),
        ];
        metrics.sort_by(|a, b| a.0.cmp(&b.0));
        HistoryRecord {
            sha: sha.to_owned(),
            date: utc_date(secs),
            unix_secs: secs,
            title: "all".to_owned(),
            threads: 4,
            quick,
            metrics,
        }
    }

    /// A record from before the width sweep: per-kernel rates only.
    fn kernel_matrix_rec(sha: &str, secs: u64, quick: bool) -> HistoryRecord {
        HistoryRecord {
            sha: sha.to_owned(),
            date: utc_date(secs),
            unix_secs: secs,
            title: "all".to_owned(),
            threads: 4,
            quick,
            metrics: vec![
                ("bucket_evals_per_sec".to_owned(), 9e6),
                ("heap_evals_per_sec".to_owned(), 5e6),
                ("kernel_speedup".to_owned(), 1.8),
            ],
        }
    }

    #[test]
    fn standings_split_by_mode_and_pick_best() {
        let records = vec![
            rec("aaaaaaa1", 100, true, 2e6),
            rec("bbbbbbb2", 200, true, 3e6),
            rec("ccccccc3", 300, false, 9e6),
            // Per-kernel rates of older records never rank.
            kernel_matrix_rec("ddddddd4", 400, false),
        ];
        let st = standings(&records);
        assert_eq!(st.len(), 2);
        let quick = st.iter().find(|r| r.mode == "quick").unwrap();
        assert_eq!(quick.best_evals_per_sec, 3e6);
        assert_eq!(quick.sha, "bbbbbbb2");
        let full = st.iter().find(|r| r.mode == "full").unwrap();
        assert_eq!(full.best_evals_per_sec, 9e6);
        assert_eq!(full.sha, "ccccccc3");
    }

    #[test]
    fn markdown_contains_trajectory_and_standings() {
        let records = vec![
            rec("aaaaaaa1", 100, true, 2e6),
            rec("bbbbbbb2", 200, true, 3e6),
        ];
        let md = render_markdown(&records);
        assert!(md.contains("## Trajectory"), "{md}");
        assert!(md.contains("## Standings"), "{md}");
        assert!(md.contains("`aaaaaaa`"), "{md}");
        assert!(md.contains("3.00"), "{md}");
        assert!(md.contains("Latest throughput"), "{md}");
        assert!(!md.contains("bucket") && !md.contains("heap"), "{md}");
    }

    #[test]
    fn markdown_handles_empty_history() {
        let md = render_markdown(&[]);
        assert!(md.contains("No history records"), "{md}");
    }

    #[test]
    fn width_standings_pick_best_per_matrix_cell() {
        let records = vec![
            rec("aaaaaaa1", 100, false, 6e6),
            rec("bbbbbbb2", 200, false, 8e6),
            // A pre-sweep record contributes nothing to width rows.
            kernel_matrix_rec("ccccccc3", 300, false),
        ];
        let wst = width_standings(&records);
        let w512 = wst
            .iter()
            .find(|r| r.width == 512 && r.mode == "full")
            .unwrap();
        assert_eq!(w512.best_evals_per_sec, 8e6);
        assert_eq!(w512.sha, "bbbbbbb2");
        let w256 = wst.iter().find(|r| r.width == 256).unwrap();
        assert_eq!(w256.best_evals_per_sec, 8e6 * 0.8);
        assert_eq!(wst.len(), 3, "one full-mode row per width");
    }

    #[test]
    fn markdown_and_json_include_width_standings() {
        let records = vec![rec("aaaaaaa1", 100, false, 6e6)];
        let md = render_markdown(&records);
        assert!(md.contains("## Width scaling"), "{md}");
        assert!(md.contains("| 512 | full | 6.00 |"), "{md}");
        let v = rescue_obs::json::parse(&render_json(&records)).expect("valid JSON");
        let wst = v.get("width_standings").and_then(|w| w.as_arr()).unwrap();
        assert_eq!(wst.len(), 3, "w64 + w256 + w512");
    }

    #[test]
    fn json_document_round_trips_records() {
        let records = vec![rec("aaaaaaa1", 100, true, 2e6)];
        let doc = render_json(&records);
        let v = rescue_obs::json::parse(&doc).expect("valid JSON");
        let recs = v.get("records").and_then(|r| r.as_arr()).unwrap();
        assert_eq!(recs.len(), 1);
        assert!(v.get("standings").is_some());
        assert!(v.get("latest").is_some());
        // The embedded records parse back through the history parser.
        let line = records[0].to_json();
        assert_eq!(parse_history(&line).unwrap(), records);
    }

    /// The committed history still carries records with per-kernel
    /// bucket/heap fields; they must render, and only the surviving
    /// PPSFP metrics may rank.
    #[test]
    fn committed_history_renders() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_history.jsonl");
        let text = std::fs::read_to_string(path).expect("committed history");
        let records = parse_history(&text).expect("committed history parses");
        assert!(records
            .iter()
            .any(|r| r.metric("bucket_evals_per_sec").is_some()));
        let md = render_markdown(&records);
        assert!(md.contains("## Trajectory"), "{md}");
        assert!(md.contains("## Width scaling"), "{md}");
        let v = rescue_obs::json::parse(&render_json(&records)).expect("valid JSON");
        assert!(v.get("width_standings").is_some());
    }
}
