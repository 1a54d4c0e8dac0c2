//! Append-only run history: one JSONL record per bench run (git SHA,
//! UTC date, mode, and the median of every tracked performance metric),
//! feeding the `leaderboard` binary's gate-evals/sec trajectory.
//!
//! The file (`BENCH_history.jsonl` by convention, written via the
//! `--history <path>` flag) is append-only so records from different
//! commits and machines accumulate; [`parse_history`] tolerates a torn
//! final line (a run killed mid-append) but errors on corruption
//! anywhere else.

use rescue_obs::json::{self, JsonObj, JsonValue};
use rescue_obs::report::{Report, Value};
use std::path::{Path, PathBuf};

/// One historical bench run.
#[derive(Clone, Debug, PartialEq)]
pub struct HistoryRecord {
    /// Git commit SHA at run time (`"unknown"` outside a checkout).
    pub sha: String,
    /// UTC calendar date, `YYYY-MM-DD`.
    pub date: String,
    /// Seconds since the Unix epoch at record time.
    pub unix_secs: u64,
    /// Report title (the binary name: `all`, `table3`, `fsim_kernel`).
    pub title: String,
    /// Fault-simulation worker count the run used.
    pub threads: u64,
    /// Whether the run was `--quick`.
    pub quick: bool,
    /// Tracked metric medians, name → value (name-sorted).
    pub metrics: Vec<(String, f64)>,
}

/// The `(section, key)` pairs a history record tracks, with the dotted
/// name they are recorded under. Leaderboard standings are driven by
/// the `fsim_kernel.*_evals_per_sec` entries.
const TRACKED: &[(&str, &str, &str)] = &[
    ("fsim_kernel", "ppsfp_evals_per_sec", "ppsfp_evals_per_sec"),
    (
        "fsim_kernel.ppsfp.w64",
        "evals_per_sec",
        "ppsfp_w64_evals_per_sec",
    ),
    (
        "fsim_kernel.ppsfp.w256",
        "evals_per_sec",
        "ppsfp_w256_evals_per_sec",
    ),
    (
        "fsim_kernel.ppsfp.w512",
        "evals_per_sec",
        "ppsfp_w512_evals_per_sec",
    ),
    ("fsim_kernel.parallel", "atpg_1t_ms", "atpg_1t_ms"),
    ("fsim_kernel.parallel", "atpg_nt_ms", "atpg_nt_ms"),
    ("obs.overhead", "overhead_pct", "obs_overhead_pct"),
    (
        "obs.overhead",
        "profiler_overhead_pct",
        "profiler_overhead_pct",
    ),
];

/// Numeric view of a report value: scalars directly, stats objects by
/// their median.
fn metric_value(v: &Value) -> Option<f64> {
    match v {
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        Value::F64(x) => Some(*x),
        Value::Stats(st) => Some(st.median),
        Value::Str(_) | Value::Hist(_) => None,
    }
}

impl HistoryRecord {
    /// Build a record from a finished report. `unix_secs` comes from
    /// the system clock ([`std::time::SystemTime`]); the SHA from the
    /// enclosing git checkout.
    pub fn from_report(report: &Report, threads: usize, quick: bool) -> HistoryRecord {
        let unix_secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        let mut metrics: Vec<(String, f64)> = TRACKED
            .iter()
            .filter_map(|(sec, key, name)| {
                report
                    .get(sec, key)
                    .and_then(metric_value)
                    .map(|v| ((*name).to_owned(), v))
            })
            .collect();
        metrics.sort_by(|a, b| a.0.cmp(&b.0));
        HistoryRecord {
            sha: git_head_sha(Path::new(".")).unwrap_or_else(|| "unknown".to_owned()),
            date: utc_date(unix_secs),
            unix_secs,
            title: report.title.clone(),
            threads: threads as u64,
            quick,
            metrics,
        }
    }

    /// Render as one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut metrics = JsonObj::new();
        for (k, v) in &self.metrics {
            metrics.f64(k, *v);
        }
        let mut o = JsonObj::new();
        o.str("sha", &self.sha)
            .str("date", &self.date)
            .u64("unix_secs", self.unix_secs)
            .str("title", &self.title)
            .u64("threads", self.threads)
            .bool("quick", self.quick)
            .raw("metrics", &metrics.finish());
        o.finish()
    }

    fn of_json(v: &JsonValue) -> Result<HistoryRecord, String> {
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
        let quick = matches!(v.get("quick"), Some(JsonValue::Bool(true)));
        let mut metrics: Vec<(String, f64)> = match v.get("metrics") {
            Some(JsonValue::Obj(kvs)) => kvs
                .iter()
                .filter_map(|(k, mv)| mv.as_f64().map(|x| (k.clone(), x)))
                .collect(),
            _ => return Err("missing object field \"metrics\"".to_owned()),
        };
        metrics.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(HistoryRecord {
            sha: get_str("sha")?,
            date: get_str("date")?,
            unix_secs: get_u64("unix_secs")?,
            title: get_str("title")?,
            threads: get_u64("threads")?,
            quick,
            metrics,
        })
    }

    /// The tracked metric named `name`, if recorded.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }
}

/// Parse a history document (JSONL). Blank lines are skipped; a JSON
/// parse failure on the final non-blank line is treated as a torn
/// append and dropped; any other malformed line is an error naming the
/// line number.
pub fn parse_history(jsonl: &str) -> Result<Vec<HistoryRecord>, String> {
    let lines: Vec<(usize, &str)> = jsonl
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .collect();
    let mut out = Vec::with_capacity(lines.len());
    for (pos, &(lineno, line)) in lines.iter().enumerate() {
        let v = match json::parse(line) {
            Ok(v) => v,
            Err(_) if pos + 1 == lines.len() => break, // torn final append
            Err(e) => return Err(format!("line {}: {e}", lineno + 1)),
        };
        out.push(HistoryRecord::of_json(&v).map_err(|e| format!("line {}: {e}", lineno + 1))?);
    }
    Ok(out)
}

/// Append one record to `path` (created if missing).
pub fn append_record(path: &str, rec: &HistoryRecord) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{}", rec.to_json())
}

/// Resolve the current git HEAD commit SHA by reading `.git` directly
/// (no `git` subprocess): follows `HEAD` → `refs/...` → `packed-refs`.
/// Searches upward from `start` a few levels, returning `None` outside
/// a checkout.
pub fn git_head_sha(start: &Path) -> Option<String> {
    let mut dir: PathBuf = start.canonicalize().ok()?;
    for _ in 0..6 {
        let git = dir.join(".git");
        if git.is_dir() {
            return sha_of_git_dir(&git);
        }
        if !dir.pop() {
            break;
        }
    }
    None
}

fn sha_of_git_dir(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    if let Some(refname) = head.strip_prefix("ref: ") {
        let refname = refname.trim();
        if let Ok(sha) = std::fs::read_to_string(git.join(refname)) {
            return valid_sha(sha.trim());
        }
        // Ref may only exist packed.
        let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
        for line in packed.lines() {
            if let Some(sha) = line.strip_suffix(refname) {
                if let Some(s) = valid_sha(sha.trim()) {
                    return Some(s);
                }
            }
        }
        return None;
    }
    valid_sha(head) // detached HEAD
}

fn valid_sha(s: &str) -> Option<String> {
    (s.len() >= 7 && s.bytes().all(|b| b.is_ascii_hexdigit())).then(|| s.to_owned())
}

/// UTC calendar date (`YYYY-MM-DD`) for a Unix timestamp, via the
/// days-from-civil inverse (Howard Hinnant's algorithm) — no time-zone
/// tables, which is exact for UTC.
pub fn utc_date(unix_secs: u64) -> String {
    let days = (unix_secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(sha: &str, secs: u64, w64: f64) -> HistoryRecord {
        HistoryRecord {
            sha: sha.to_owned(),
            date: utc_date(secs),
            unix_secs: secs,
            title: "all".to_owned(),
            threads: 4,
            quick: true,
            metrics: vec![
                ("ppsfp_evals_per_sec".to_owned(), w64 * 2.0),
                ("ppsfp_w64_evals_per_sec".to_owned(), w64),
            ],
        }
    }

    #[test]
    fn utc_date_known_values() {
        assert_eq!(utc_date(0), "1970-01-01");
        assert_eq!(utc_date(86_399), "1970-01-01");
        assert_eq!(utc_date(86_400), "1970-01-02");
        assert_eq!(utc_date(1_000_000_000), "2001-09-09");
        assert_eq!(utc_date(1_754_611_200), "2025-08-08");
    }

    #[test]
    fn record_round_trips_through_json() {
        let r = rec("abc1234", 1_000_000_000, 5e6);
        let parsed = parse_history(&format!("{}\n", r.to_json())).unwrap();
        assert_eq!(parsed, vec![r]);
    }

    #[test]
    fn parse_tolerates_torn_final_line_only() {
        let good = rec("abc1234", 100, 1.0).to_json();
        let doc = format!("{good}\n{{\"sha\":\"tor");
        let parsed = parse_history(&doc).unwrap();
        assert_eq!(parsed.len(), 1);
        // A torn line that is NOT final is corruption.
        let doc = format!("{{\"sha\":\"tor\n{good}\n");
        let err = parse_history(&doc).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        // A semantically invalid record errors even at the end.
        let doc = format!("{good}\n{{\"sha\":\"x\"}}");
        assert!(parse_history(&doc).is_err());
    }

    #[test]
    fn from_report_extracts_stats_medians() {
        use rescue_obs::report::RobustStats;
        let mut report = Report::new("fsim_kernel");
        report.section("fsim_kernel").stats(
            "ppsfp_evals_per_sec",
            RobustStats::from_samples(&[1e6, 2e6, 3e6]),
        );
        report.section("obs.overhead").f64("overhead_pct", 1.5);
        let r = HistoryRecord::from_report(&report, 2, false);
        assert_eq!(r.metric("ppsfp_evals_per_sec"), Some(2e6));
        assert_eq!(r.metric("obs_overhead_pct"), Some(1.5));
        assert_eq!(r.threads, 2);
        assert!(!r.quick);
        assert_eq!(r.title, "fsim_kernel");
    }

    #[test]
    fn git_sha_resolves_in_this_repo() {
        // The test runs inside the repo checkout; the SHA must resolve
        // and look like hex. (Falls back cleanly outside a checkout.)
        if let Some(sha) = git_head_sha(Path::new(env!("CARGO_MANIFEST_DIR"))) {
            assert!(sha.len() >= 7, "{sha}");
            assert!(sha.bytes().all(|b| b.is_ascii_hexdigit()), "{sha}");
        }
    }
}
