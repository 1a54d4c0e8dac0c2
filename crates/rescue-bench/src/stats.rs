//! Merging repeated-run reports into one statistically honest report
//! (the `--repeat N` mode).
//!
//! Each of the N measured runs produces a full [`Report`]; this module
//! folds them per `(section, key)`:
//!
//! * values identical across every run (detected-fault counts, vector
//!   counts — anything deterministic) stay plain scalars, so the
//!   exact-integer rules in `bench-diff` keep gating them and a
//!   `--repeat 1` run produces byte-compatible output;
//! * values that vary become [`Value::Stats`] — median/MAD/min/max/IQR
//!   over the N samples. `bench-diff` reports those as `info` on
//!   wall-clock and other informational paths and fails them
//!   everywhere else: a deterministic counter that varied is a
//!   nondeterminism bug, not noise;
//! * strings and histograms keep the first run's value (histograms are
//!   deterministic here; a varying histogram would already fail the
//!   scalar counters feeding it).

use rescue_obs::report::{Report, RobustStats, Section, Value};

/// Merge `runs` (all produced by the same benchmark body) into one
/// report. Section and key order follow the first run; keys missing
/// from some run are merged over the runs that have them. Span tables
/// are left empty — the caller attaches per-run averaged spans
/// separately.
///
/// # Panics
///
/// Panics if `runs` is empty.
pub fn merge_reports(runs: &[Report]) -> Report {
    let first = runs.first().expect("merge_reports needs at least one run");
    if runs.len() == 1 {
        return first.clone();
    }
    let mut out = Report::new(&first.title);
    for sec in &first.sections {
        let mut merged = Section {
            name: sec.name.clone(),
            entries: Vec::new(),
        };
        for (key, v0) in &sec.entries {
            let all: Vec<&Value> = runs.iter().filter_map(|r| r.get(&sec.name, key)).collect();
            merged.entries.push((key.clone(), merge_values(v0, &all)));
        }
        out.sections.push(merged);
    }
    out
}

/// Merge one key's values across runs (see the module docs for rules).
fn merge_values(first: &Value, all: &[&Value]) -> Value {
    match first {
        Value::U64(_) | Value::I64(_) | Value::F64(_) => {
            let identical = all.windows(2).all(|w| values_equal(w[0], w[1]));
            if identical {
                first.clone()
            } else {
                let samples: Vec<f64> = all.iter().filter_map(|v| as_f64(v)).collect();
                Value::Stats(RobustStats::from_samples(&samples))
            }
        }
        Value::Str(_) | Value::Hist(_) | Value::Stats(_) => first.clone(),
    }
}

fn values_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        // Bit-equality for floats: a deterministic metric reproduces
        // exactly; anything else is measurement noise.
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(fsim_ms: f64, faults: u64) -> Report {
        let mut r = Report::new("t");
        r.section("kern")
            .u64("faults", faults)
            .f64("fsim_ms", fsim_ms)
            .str("mode", "quick");
        r
    }

    #[test]
    fn identical_values_stay_scalars() {
        let merged = merge_reports(&[run(5.0, 10), run(5.0, 10), run(5.0, 10)]);
        assert_eq!(merged.get("kern", "faults"), Some(&Value::U64(10)));
        assert_eq!(merged.get("kern", "fsim_ms"), Some(&Value::F64(5.0)));
        assert_eq!(
            merged.get("kern", "mode"),
            Some(&Value::Str("quick".into()))
        );
    }

    #[test]
    fn varying_values_become_stats() {
        let merged = merge_reports(&[run(4.0, 10), run(5.0, 10), run(9.0, 10)]);
        assert_eq!(merged.get("kern", "faults"), Some(&Value::U64(10)));
        match merged.get("kern", "fsim_ms") {
            Some(Value::Stats(st)) => {
                assert_eq!(st.n, 3);
                assert_eq!(st.median, 5.0);
                assert_eq!(st.min, 4.0);
                assert_eq!(st.max, 9.0);
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn varying_integers_become_stats_too() {
        let mut a = Report::new("t");
        a.section("s").u64("evals", 100);
        let mut b = Report::new("t");
        b.section("s").u64("evals", 104);
        let merged = merge_reports(&[a, b]);
        match merged.get("s", "evals") {
            Some(Value::Stats(st)) => assert_eq!(st.median, 102.0),
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn single_run_is_identity() {
        let r = run(5.0, 10);
        assert_eq!(merge_reports(std::slice::from_ref(&r)), r);
    }
}
