//! Gate-level netlist substrate for the Rescue reproduction.
//!
//! This crate provides the circuit representation that stands in for the
//! paper's Verilog model: combinational gates, D flip-flops, primary
//! inputs/outputs, and the bookkeeping the Rescue experiments need on top
//! of a plain netlist:
//!
//! * every gate and flip-flop carries an **ICI component label** (the
//!   microarchitectural logic component it belongs to, in the sense of the
//!   paper's Section 3),
//! * flip-flops can be replaced by **muxed-flip-flop scan cells** stitched
//!   into a scan chain ([`scan::insert_scan`]),
//! * the **stuck-at fault universe** can be enumerated and collapsed
//!   ([`fault`]),
//! * circuits can be simulated two-valued and **64-way bit-parallel**
//!   ([`sim`]), which is what the ATPG fault simulator builds on,
//! * a **levelized packed view** ([`levelized`]) flattens the gate graph
//!   into level-ordered CSR arrays, built once per netlist and shared
//!   immutably across fault-simulation worker threads,
//! * circuits serialize to and parse from a **line-based text format**
//!   ([`text`]) — the wire format of the `rescue-serve` job server —
//!   and carry a structural **content hash** ([`hash`]) used as the
//!   server's design/result cache key,
//! * one **three-valued evaluator** ([`threeval`]) serves PODEM, the
//!   lint stuck-net rule and the static implication engine.
//!
//! # Example
//!
//! ```
//! use rescue_netlist::NetlistBuilder;
//!
//! let mut b = NetlistBuilder::new();
//! let lcx = b.component("LCX");
//! b.set_component(lcx);
//! let a = b.input("a");
//! let c = b.input("c");
//! let x = b.and2(a, c);
//! let q = b.dff(x, "state");
//! b.output(q, "out");
//! let netlist = b.finish().expect("well-formed circuit");
//! assert_eq!(netlist.num_gates(), 1);
//! assert_eq!(netlist.num_dffs(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod error;
pub mod fault;
pub mod hash;
pub mod levelized;
mod netlist;
pub mod scan;
pub mod sim;
pub mod text;
pub mod threeval;
pub mod verilog;

pub use builder::{DffHandle, NetlistBuilder};
pub use error::BuildError;
pub use fault::{Fault, FaultSite, StuckAt};
pub use hash::{fnv1a64, Fnv64};
pub use levelized::Levelized;
pub use netlist::{ComponentId, Dff, DffId, Driver, Gate, GateId, GateKind, NetId, Netlist};
pub use scan::{MultiScanNetlist, ScanChain, ScanNetlist};
pub use sim::{PatternBlock, SimOutput, WideBlock};
pub use threeval::V3;
pub use verilog::{to_verilog, VerilogOptions};
