//! Intra-cycle logic independence (ICI): the formal core of the Rescue
//! paper (Schuchman & Vijaykumar, ISCA 2005), Section 3.
//!
//! A design is modeled as a directed graph of **logic components** whose
//! edges are either *combinational* (the reader sees the writer's output
//! within the same clock cycle) or *latched* (the value crosses a pipeline
//! latch, arriving one cycle later).
//!
//! The **ICI rule**: a scan-detectable fault can be attributed to one and
//! only one member of a component set if and only if there is no
//! combinational communication among the members. Components connected by
//! combinational edges collapse into *super-components* — the finest
//! granularity conventional scan test can isolate faults to.
//!
//! The crate implements the rule ([`LcGraph::super_components`],
//! [`LcGraph::check_isolation`]) and the paper's three transformations
//! that restore ICI where it is violated:
//!
//! * **cycle splitting** ([`LcGraph::cycle_split`]) — latch a set of
//!   combinational edges, trading a cycle of latency,
//! * **logic privatization** ([`LcGraph::privatize`]) — replicate a shared
//!   component so reader groups get private copies, trading area,
//! * **dependence rotation** ([`LcGraph::rotate_dependence`]) — move the
//!   pipeline latch around a single-stage loop so the troublesome
//!   combination point lands behind the latch, trading nothing within the
//!   cycle but changing *which* violation must then be fixed.
//!
//! # Example: the paper's Figure 3
//!
//! ```
//! use rescue_ici::{EdgeKind, LcGraph};
//!
//! let mut g = LcGraph::new();
//! let lcx = g.add_component("LCX", 1.0);
//! let lcy = g.add_component("LCY", 1.0);
//! let lcz = g.add_component("LCZ", 1.0);
//! g.add_edge(lcx, lcy, EdgeKind::Combinational);
//! g.add_edge(lcx, lcz, EdgeKind::Combinational);
//!
//! // LCY and LCZ both read LCX in-cycle: one super-component.
//! assert_eq!(g.super_components().len(), 1);
//!
//! // Cycle splitting (Figure 3b) restores full isolation.
//! let mut split = g.clone();
//! let edges: Vec<_> = split.edges_from(lcx).map(|e| e.id).collect();
//! split.cycle_split(&edges);
//! assert_eq!(split.super_components().len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod examples;
mod graph;
mod transform;

pub use analysis::{IsolationReport, Violation};
pub use examples::{figure3a, figure4a, issue_stage_graph};
pub use graph::{EdgeId, EdgeKind, EdgeRef, LcEdge, LcGraph, LcId, LcNode};
pub use transform::{PrivatizeError, RotateError, TransformLog, TransformStep};
