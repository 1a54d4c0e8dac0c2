//! Prometheus text exposition (version 0.0.4) rendering for the
//! `/metrics` endpoint.
//!
//! Pure functions over plain-data snapshots — no I/O, no globals — so
//! the exact bytes served by [`crate::server::TelemetryServer`] are
//! golden-testable. After `rescue_uptime_seconds`, families render
//! sorted by name: registry counters (`live.atpg.vectors` becomes
//! `rescue_live_atpg_vectors_total`), then histograms (log₂ buckets
//! become cumulative `_bucket{le="..."}` series).

use crate::metrics::{HistogramSnapshot, RegistrySnapshot};
use std::fmt::Write as _;

/// Prefix applied to every exported family name.
const PREFIX: &str = "rescue_";

/// Sanitize a dotted metric name into a Prometheus metric name: every
/// character outside `[a-zA-Z0-9_:]` becomes `_`, and a leading digit
/// gets an underscore prefix.
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        match c {
            'a'..='z' | 'A'..='Z' | '_' | ':' => out.push(c),
            '0'..='9' => {
                if i == 0 {
                    out.push('_');
                }
                out.push(c);
            }
            _ => out.push('_'),
        }
    }
    out
}

/// Escape a `# HELP` text or label value: backslash, newline, and (for
/// label values) double quote.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '"' => out.push_str("\\\""),
            c => out.push(c),
        }
    }
    out
}

fn family(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {}", escape(help));
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn histogram(out: &mut String, name: &str, h: &HistogramSnapshot) {
    family(out, name, "Log2-bucket histogram.", "histogram");
    let mut cumulative = 0u64;
    for (i, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        cumulative += c;
        let _ = writeln!(
            out,
            "{name}_bucket{{le=\"{}\"}} {cumulative}",
            HistogramSnapshot::bucket_limit(i)
        );
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
    let _ = writeln!(out, "{name}_sum {}", h.sum);
    let _ = writeln!(out, "{name}_count {}", h.count);
}

/// Render one full exposition document from the telemetry uptime and
/// a registry snapshot. The snapshot is already sorted by name and the
/// output preserves that ordering, so two scrapes of an idle process
/// differ only in the uptime line.
pub fn render(uptime_ns: u64, reg: &RegistrySnapshot) -> String {
    let mut out = String::new();
    family(
        &mut out,
        "rescue_uptime_seconds",
        "Seconds since telemetry started.",
        "gauge",
    );
    let _ = writeln!(
        &mut out,
        "rescue_uptime_seconds {}",
        crate::json::fmt_f64(uptime_ns as f64 / 1e9)
    );
    for (name, v) in &reg.counters {
        let base = format!("{PREFIX}{}_total", sanitize(name));
        let help = crate::live::help(name).unwrap_or("Registry counter.");
        family(&mut out, &base, help, "counter");
        let _ = writeln!(&mut out, "{base} {v}");
    }
    for (name, h) in &reg.histograms {
        histogram(&mut out, &format!("{PREFIX}{}", sanitize(name)), h);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_maps_dots_and_leading_digits() {
        assert_eq!(sanitize("atpg.faults_classified"), "atpg_faults_classified");
        assert_eq!(sanitize("3sat"), "_3sat");
        assert_eq!(sanitize("a-b c"), "a_b_c");
        assert_eq!(sanitize("ok_name:x9"), "ok_name:x9");
    }

    #[test]
    fn escape_help_text() {
        assert_eq!(escape("a\\b\nc\"d"), "a\\\\b\\nc\\\"d");
    }
}
