//! Cycle-level out-of-order superscalar timing simulator — the modified
//! SimpleScalar of the paper's Section 5.
//!
//! The engine is trace-driven: it consumes
//! [`TraceInstr`](rescue_workloads::TraceInstr) streams and models the
//! structural timing the paper's IPC results depend on:
//!
//! * a compacting issue queue per type (int / fp) with speculative wakeup,
//!   oldest-first selection, and L1-miss issue replay,
//! * the five Rescue modifications of §5: separate queues and active
//!   list; +2-cycle misprediction penalty (shift stages); cycle-split
//!   inter-segment compaction with 4-entry temporary buffers; an extra
//!   cycle of issue-queue occupancy and an extra squash cycle on L1
//!   misses (the post-issue shift stage); and the independent per-half
//!   selection with overcommit replay,
//! * degraded configurations driven by a fault map: frontend width,
//!   queue halving, LSQ halving, and backend-group map-out (§4.1.3).
//!
//! # Example
//!
//! ```
//! use rescue_pipesim::{simulate, CoreConfig, Policy, SimConfig};
//! use rescue_workloads::{BenchmarkProfile, TraceGenerator};
//!
//! let cfg = SimConfig::paper(Policy::Rescue);
//! let prof = BenchmarkProfile::by_name("gzip").unwrap();
//! let trace = TraceGenerator::new(&prof, 1);
//! let result = simulate(&cfg, &CoreConfig::healthy(), trace, 20_000);
//! assert!(result.ipc() > 0.3 && result.ipc() < 4.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod result;

pub use config::{CoreConfig, Policy, ReplayPolicy, Resources, SimConfig};
pub use engine::{simulate, TraceSummary};
pub use result::{SimResult, IPC_WINDOW_CYCLES};
