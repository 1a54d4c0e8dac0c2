//! ATPG-as-a-service: a zero-external-deps job server for the Rescue
//! engines.
//!
//! The ROADMAP's north star is the Rescue flow as a long-running
//! service rather than one-shot binaries. This crate is that serving
//! layer: a hand-rolled HTTP/1.1 daemon (on [`rescue_obs::http`],
//! `std::net` only) that accepts netlist/ATPG/fault-sim/lint jobs as
//! POSTed text netlists ([`rescue_netlist::text`]) plus a JSON config
//! line, runs them on the persistent in-process engine state, and
//! streams progress back as JSONL.
//!
//! What makes it a *service* rather than a CGI wrapper:
//!
//! * **content-addressed caching** ([`cache`]) — the FNV/SplitMix
//!   content hash of the netlist text keys a bounded LRU of prepared
//!   designs (scan-inserted netlist, [`Levelized`] view,
//!   collapsed fault list, and a PODEM outcome memo its ATPG jobs
//!   share), and `(netlist, config)` keys a result cache, so a
//!   repeated identical job skips the engines entirely;
//!   [`rescue_atpg::Atpg::run_memoized`] guarantees the reuse is
//!   bit-identical to a cold run;
//! * **admission control** ([`server`]) — a bounded worker pool plus
//!   wait queue; excess jobs shed immediately with `429`;
//! * **one telemetry surface** — the job endpoints are mounted next to
//!   the rescue-obs `/metrics`, `/snapshot.json` and `/healthz`
//!   routes, so the `serve.*` counters (cache hits, jobs, latency)
//!   and the engine counters are scraped together;
//! * **a byte-identity contract** ([`job`]) — every job ends with one
//!   canonical `{"type":"result",...}` line that is a deterministic
//!   function of (netlist, config); the CLI `rescue-serve run`
//!   produces the same bytes, and the e2e tests pin it.
//!
//! [`Levelized`]: rescue_netlist::Levelized
//!
//! # Example
//!
//! ```
//! use rescue_serve::{JobConfig, JobKind};
//!
//! let cfg = JobConfig::parse(r#"{"kind":"atpg","fill_seed":7}"#).unwrap();
//! assert_eq!(cfg.kind, JobKind::Atpg);
//! assert_eq!(cfg.fill_seed, 7);
//! // Identical configs hash identically (the result-cache key)…
//! assert_eq!(cfg.config_hash(), cfg.config_hash());
//! // …and thread count is a datapath knob, so it shares the entry.
//! let threads = JobConfig::parse(r#"{"kind":"atpg","fill_seed":7,"threads":4}"#).unwrap();
//! assert_eq!(cfg.config_hash(), threads.config_hash());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod job;
pub mod server;

pub use cache::{Design, LruCache, NetlistCounts, ServeCaches};
pub use job::{run_job, JobConfig, JobKind};
pub use server::{JobServer, ServeOptions};
