//! End-of-run report assembly: a human-readable breakdown for stderr and
//! a machine-readable JSON document (the `BENCH_metrics.json` artifact).

use crate::json::{self, JsonObj};
use crate::metrics::HistogramSnapshot;
use crate::trace::SpanStat;
use std::fmt::Write as _;

/// Robust summary statistics over repeated measurements of one metric
/// (the `--repeat N` bench mode). Median/MAD/IQR rather than mean/σ so
/// a single scheduler hiccup cannot drag the summary.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RobustStats {
    /// Number of samples.
    pub n: u64,
    /// Sample median (linear-interpolation quantile).
    pub median: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Interquartile range (q75 − q25, linear interpolation).
    pub iqr: f64,
}

impl RobustStats {
    /// Summarize `samples` (empty input yields all-zero stats).
    pub fn from_samples(samples: &[f64]) -> RobustStats {
        if samples.is_empty() {
            return RobustStats::default();
        }
        let mut s: Vec<f64> = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let median = quantile(&s, 0.5);
        let mut dev: Vec<f64> = s.iter().map(|x| (x - median).abs()).collect();
        dev.sort_by(f64::total_cmp);
        RobustStats {
            n: samples.len() as u64,
            median,
            mad: quantile(&dev, 0.5),
            min: s[0],
            max: s[s.len() - 1],
            iqr: quantile(&s, 0.75) - quantile(&s, 0.25),
        }
    }
}

/// Linear-interpolation quantile of an ascending-sorted, non-empty
/// slice (`q` in `[0, 1]`).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// One metric value inside a report section.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Free-form string.
    Str(String),
    /// Histogram snapshot.
    Hist(HistogramSnapshot),
    /// Robust statistics over repeated runs.
    Stats(RobustStats),
}

/// A named group of metrics (one engine or phase).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Section {
    /// Section name (e.g. `"table3.baseline.podem"`).
    pub name: String,
    /// Ordered (key, value) entries.
    pub entries: Vec<(String, Value)>,
}

impl Section {
    /// Append an unsigned integer entry.
    pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.entries.push((k.to_owned(), Value::U64(v)));
        self
    }

    /// Append a signed integer entry.
    pub fn i64(&mut self, k: &str, v: i64) -> &mut Self {
        self.entries.push((k.to_owned(), Value::I64(v)));
        self
    }

    /// Append a float entry.
    pub fn f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.entries.push((k.to_owned(), Value::F64(v)));
        self
    }

    /// Append a string entry.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.entries.push((k.to_owned(), Value::Str(v.to_owned())));
        self
    }

    /// Append a histogram entry.
    pub fn hist(&mut self, k: &str, v: HistogramSnapshot) -> &mut Self {
        self.entries.push((k.to_owned(), Value::Hist(v)));
        self
    }

    /// Append a robust-statistics entry.
    pub fn stats(&mut self, k: &str, v: RobustStats) -> &mut Self {
        self.entries.push((k.to_owned(), Value::Stats(v)));
        self
    }
}

/// A full run report: titled sections plus the span-timing table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// Report title (the binary/run name).
    pub title: String,
    /// Metric sections in insertion order.
    pub sections: Vec<Section>,
    /// Aggregated span timings.
    pub spans: Vec<SpanStat>,
}

impl Report {
    /// An empty report titled `title`.
    pub fn new(title: &str) -> Self {
        Report {
            title: title.to_owned(),
            ..Report::default()
        }
    }

    /// The section named `name`, created at the end if absent.
    pub fn section(&mut self, name: &str) -> &mut Section {
        if let Some(i) = self.sections.iter().position(|s| s.name == name) {
            return &mut self.sections[i];
        }
        self.sections.push(Section {
            name: name.to_owned(),
            entries: Vec::new(),
        });
        self.sections.last_mut().expect("just pushed")
    }

    /// Attach span summaries (typically [`crate::profile::summarize`]).
    pub fn add_spans(&mut self, spans: Vec<SpanStat>) {
        self.spans.extend(spans);
    }

    /// The value at `section`/`key`, if present.
    pub fn get(&self, section: &str, key: &str) -> Option<&Value> {
        self.sections
            .iter()
            .find(|s| s.name == section)?
            .entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Human-readable rendering for stderr.
    pub fn render_text(&self) -> String {
        let mut s = format!("== {} metrics ==\n", self.title);
        for sec in &self.sections {
            let _ = writeln!(s, "[{}]", sec.name);
            for (k, v) in &sec.entries {
                match v {
                    Value::U64(v) => {
                        let _ = writeln!(s, "  {k:32} {v}");
                    }
                    Value::I64(v) => {
                        let _ = writeln!(s, "  {k:32} {v}");
                    }
                    Value::F64(v) => {
                        let _ = writeln!(s, "  {k:32} {v:.4}");
                    }
                    Value::Str(v) => {
                        let _ = writeln!(s, "  {k:32} {v}");
                    }
                    Value::Hist(h) => {
                        let _ = writeln!(s, "  {k:32} {}", h.render());
                    }
                    Value::Stats(st) => {
                        let _ = writeln!(
                            s,
                            "  {k:32} {:.4} ±{:.4} (n={}, min={:.4}, iqr={:.4})",
                            st.median, st.mad, st.n, st.min, st.iqr
                        );
                    }
                }
            }
        }
        if !self.spans.is_empty() {
            let _ = writeln!(s, "[spans]");
            let _ = writeln!(
                s,
                "  {:40} {:>8} {:>12} {:>12}",
                "name", "count", "total_ms", "max_ms"
            );
            for sp in &self.spans {
                let _ = writeln!(
                    s,
                    "  {:40} {:>8} {:>12.3} {:>12.3}",
                    sp.name,
                    sp.count,
                    sp.total_ns as f64 / 1e6,
                    sp.max_ns as f64 / 1e6
                );
            }
        }
        s
    }

    /// Machine-readable JSON rendering (`BENCH_metrics.json`).
    ///
    /// Schema: `{"title", "sections": [{"name", "metrics": {key:
    /// value|histogram-object|stats-object}}], "spans": [{"name",
    /// "count", "total_ns", "max_ns"}]}` where a histogram value is
    /// `{"count", "sum", "min", "max", "mean", "buckets": [u64]}` and a
    /// stats value (from `--repeat N`) is `{"n", "median", "mad",
    /// "min", "max", "iqr"}`.
    pub fn to_json(&self) -> String {
        let sections: Vec<String> = self
            .sections
            .iter()
            .map(|sec| {
                let mut metrics = JsonObj::new();
                for (k, v) in &sec.entries {
                    match v {
                        Value::U64(v) => metrics.u64(k, *v),
                        Value::I64(v) => metrics.i64(k, *v),
                        Value::F64(v) => metrics.f64(k, *v),
                        Value::Str(v) => metrics.str(k, v),
                        Value::Hist(h) => {
                            let mut ho = JsonObj::new();
                            ho.u64("count", h.count)
                                .u64("sum", h.sum)
                                .u64("min", h.min)
                                .u64("max", h.max)
                                .f64("mean", h.mean())
                                .arr_u64("buckets", &h.buckets);
                            metrics.raw(k, &ho.finish())
                        }
                        Value::Stats(st) => {
                            let mut so = JsonObj::new();
                            so.u64("n", st.n)
                                .f64("median", st.median)
                                .f64("mad", st.mad)
                                .f64("min", st.min)
                                .f64("max", st.max)
                                .f64("iqr", st.iqr);
                            metrics.raw(k, &so.finish())
                        }
                    };
                }
                let mut o = JsonObj::new();
                o.str("name", &sec.name).raw("metrics", &metrics.finish());
                o.finish()
            })
            .collect();
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|sp| {
                let mut o = JsonObj::new();
                o.str("name", &sp.name)
                    .u64("count", sp.count)
                    .u64("total_ns", sp.total_ns)
                    .u64("max_ns", sp.max_ns);
                o.finish()
            })
            .collect();
        let mut o = JsonObj::new();
        o.str("title", &self.title)
            .raw("sections", &json::array(&sections))
            .raw("spans", &json::array(&spans));
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn robust_stats_from_odd_sample_count() {
        let st = RobustStats::from_samples(&[3.0, 1.0, 2.0]);
        assert_eq!(st.n, 3);
        assert_eq!(st.median, 2.0);
        assert_eq!(st.mad, 1.0);
        assert_eq!(st.min, 1.0);
        assert_eq!(st.max, 3.0);
        assert_eq!(st.iqr, 1.0);
    }

    #[test]
    fn robust_stats_interpolates_even_counts() {
        let st = RobustStats::from_samples(&[1.0, 2.0, 3.0, 10.0]);
        assert_eq!(st.median, 2.5);
        // Deviations: 1.5, 0.5, 0.5, 7.5 → sorted 0.5 0.5 1.5 7.5,
        // median = (0.5 + 1.5) / 2 = 1.0.
        assert_eq!(st.mad, 1.0);
        assert!((st.iqr - 3.0).abs() < 1e-12, "iqr={}", st.iqr);
    }

    #[test]
    fn robust_stats_empty_and_single() {
        assert_eq!(RobustStats::from_samples(&[]), RobustStats::default());
        let one = RobustStats::from_samples(&[4.5]);
        assert_eq!(one.median, 4.5);
        assert_eq!(one.mad, 0.0);
        assert_eq!(one.iqr, 0.0);
    }

    #[test]
    fn stats_value_renders_json_and_text() {
        let mut r = Report::new("t");
        r.section("s")
            .stats("fsim_ms", RobustStats::from_samples(&[10.0, 11.0, 12.0]));
        let js = r.to_json();
        assert!(js.contains("\"median\""), "{js}");
        assert!(js.contains("\"mad\""), "{js}");
        let txt = r.render_text();
        assert!(txt.contains("±"), "{txt}");
        assert!(matches!(r.get("s", "fsim_ms"), Some(Value::Stats(_))));
        assert!(r.get("s", "missing").is_none());
        assert!(r.get("missing", "fsim_ms").is_none());
    }
}
