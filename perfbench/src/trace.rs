//! In-memory spans for the traced run.
//!
//! A span is recorded around each public call the traced replay makes
//! into a layer: name, start, end, parent span and, for a served job,
//! the request id. Spans stay in memory and are written out once, as
//! JSON lines, when the run ends; the per-layer metrics and the
//! self-time table are derived from them.

use rescue_obs::json::JsonObj;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub req: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Thread-safe span store; worker threads pass parent ids explicitly.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Allocate a span id before the span ends, so children can name
    /// it as their parent.
    pub fn open(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span with a pre-allocated id.
    pub fn close(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        req: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            name,
            req,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span store lock").push(span);
    }

    /// Run `f` inside a span; `f` receives the span's id.
    pub fn span<R>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce(u64) -> R) -> R {
        let id = self.open();
        let start = Instant::now();
        let r = f(id);
        self.close(id, name, parent, None, start, Instant::now());
        r
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store lock").clone()
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Total duration (ms) of every span called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Self time per span name (ms): each span's duration minus the
    /// part of it its children cover. Children of one span never
    /// overlap except across worker threads, where the union is used.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for s in &spans {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Write every span, then the self-time table, as JSON lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for s in self.spans() {
            let mut o = JsonObj::new();
            o.str("type", "span")
                .str("name", s.name)
                .u64("id", s.id)
                .u64("start_ns", s.start_ns)
                .u64("end_ns", s.end_ns);
            if let Some(p) = s.parent {
                o.u64("parent", p);
            }
            if let Some(r) = s.req {
                o.u64("req", r);
            }
            text.push_str(&o.finish());
            text.push('\n');
        }
        for (name, ms) in self.self_ms() {
            let mut o = JsonObj::new();
            o.str("type", "self_time").str("name", name).f64("ms", ms);
            text.push_str(&o.finish());
            text.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// Run `f` inside a top-level span when tracing, plainly otherwise.
pub fn maybe<R>(tr: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => t.span(name, None, |_| f()),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::default();
        let base = t.t0;
        let at = |ms| base + Duration::from_millis(ms);
        t.close(1, "parent", None, None, at(0), at(10));
        t.close(2, "child", Some(1), None, at(1), at(4));
        // Overlapping worker-thread children count once.
        t.close(3, "child", Some(1), None, at(3), at(6));
        t.close(4, "grandchild", Some(2), Some(7), at(1), at(2));
        let own = t.self_ms();
        assert!((own["parent"] - 5.0).abs() < 1e-9, "{own:?}");
        assert!((own["child"] - 5.0).abs() < 1e-9, "{own:?}");
        assert!((own["grandchild"] - 1.0).abs() < 1e-9, "{own:?}");
        assert!((t.total_ms("child") - 6.0).abs() < 1e-9);
    }
}
