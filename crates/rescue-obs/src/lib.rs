//! Zero-dependency observability substrate for the Rescue engines.
//!
//! The paper's evaluation is driven by long engine loops — PODEM over
//! ~10⁴ collapsed faults, bit-parallel fault simulation, cycle-level
//! pipeline simulation — and this crate is the measurement layer those
//! loops report through:
//!
//! * [`metrics`] — typed counters, gauges, and log₂-bucket histograms
//!   cheap enough (one relaxed atomic op) to live in the PODEM inner
//!   loop, plus the name-keyed [`metrics::Registry`] of counters and
//!   histograms that the telemetry endpoints serve;
//! * [`trace`] — [`span`], the one timing primitive: a guard that
//!   reads the clock once at open and once at close and hands that
//!   elapsed value to the profile tree, the timeline (an optional JSONL
//!   sink and in-memory records for Perfetto) and the caller. A process
//!   global ([`trace::global`]) lets deep engine code open spans without
//!   threading a handle through every API;
//! * [`report`] — a [`report::Report`] builder that renders a
//!   human-readable end-of-run breakdown and a machine-readable JSON
//!   document (the `BENCH_metrics.json` artifact);
//! * [`coverage`] — per-vector coverage provenance for the ATPG loop: a
//!   [`coverage::CoverageRecorder`] turns first-detection events into a
//!   deterministic [`coverage::CoverageCurve`] with per-component
//!   attribution, serializable as CSV and JSON;
//! * [`perfetto`] — converts traces (live records or `--trace-json`
//!   JSONL) into Chrome trace-event JSON for `chrome://tracing` /
//!   [ui.perfetto.dev](https://ui.perfetto.dev), including counter
//!   tracks;
//! * [`json`] — the hand-rolled JSON serializer and parser behind the
//!   sinks, the Perfetto converter, and `bench-diff` (the build
//!   environment is offline, so no serde);
//! * [`live`] — the twelve `live.*` engine-progress counters, held in
//!   the global registry, and the [`live::ProgressMeter`] that mirrors
//!   progress as JSONL frames and Perfetto counter tracks;
//! * [`profile`] — the span aggregate: closed spans fold into a
//!   per-thread path tree, merged across worker threads, rendered as
//!   `profile.*` report sections, a text flame summary, and the
//!   per-name span summary;
//! * [`prometheus`] — pure renderer for the Prometheus text exposition
//!   served at `/metrics`;
//! * [`http`] — reusable hand-rolled HTTP/1.1 machinery on `std::net`:
//!   request parsing with hard limits, path normalization, `HEAD`
//!   handling, and a threaded listener with a connection cap — shared
//!   by the telemetry server and the `rescue-serve` job daemon;
//! * [`server`] — [`server::TelemetryServer`], the telemetry endpoint
//!   serving `/metrics`, `/snapshot.json`, and `/healthz` on its own
//!   thread via [`http::HttpServer`];
//! * [`rng`] — a seedable SplitMix64 generator replacing the `rand`
//!   crate everywhere in the workspace.
//!
//! # Example
//!
//! ```
//! use rescue_obs::metrics::{Counter, Histogram};
//!
//! let backtracks = Counter::new();
//! let per_fault = Histogram::new();
//! for fault in 0..100u64 {
//!     let n = fault % 7; // backtracks this fault took
//!     backtracks.add(n);
//!     per_fault.record(n);
//! }
//! assert_eq!(backtracks.get(), (0..100u64).map(|f| f % 7).sum());
//! assert_eq!(per_fault.snapshot().count, 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coverage;
pub mod http;
pub mod json;
pub mod live;
pub mod metrics;
pub mod perfetto;
pub mod profile;
pub mod prometheus;
pub mod report;
pub mod rng;
pub mod server;
pub mod trace;

pub use coverage::{CoverageCurve, CoverageRecorder};
pub use live::{EngineCounters, ProgressMeter};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use report::{Report, RobustStats};
pub use rng::SplitMix64;
pub use server::TelemetryServer;
pub use trace::{counter, global, span, span_root, SpanGuard, SpanStat, TraceRecord, Tracer};
