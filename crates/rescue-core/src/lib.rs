//! Rescue: a Rust reproduction of *"Rescue: A Microarchitecture for
//! Testability and Defect Tolerance"* (Schuchman & Vijaykumar, ISCA 2005).
//!
//! This facade crate wires the substrates together and exposes one driver
//! per experiment in the paper's evaluation:
//!
//! | Paper artifact | Driver |
//! |---|---|
//! | Table 1 (system parameters) | [`experiments::table1`] |
//! | Table 2 (areas) | [`experiments::table2`] |
//! | Table 3 (scan chain data) | [`experiments::table3`], one [`experiments::AtpgDesign`] per design |
//! | §6.1 fault isolation (6000 faults) | [`experiments::isolation`], replaying a design's Table 3 vectors |
//! | Figure 8 (IPC degradation) | [`experiments::fig8`] |
//! | Figure 9 (YAT vs technology) | [`experiments::fig9`] |
//!
//! The individual substrates are re-exported for direct use:
//! [`netlist`], [`atpg`], [`ici`], [`model`], [`pipesim`], [`workloads`],
//! [`yield_model`].
//!
//! # Example
//!
//! ```
//! use rescue_core::experiments;
//!
//! // A reduced-size Figure 8 sweep (three benchmarks, short traces).
//! let rows = experiments::fig8(&experiments::Fig8Params {
//!     n_instr: 5_000,
//!     seed: 1,
//!     benchmarks: Some(vec!["gzip".into(), "mcf".into(), "swim".into()]),
//!     ..Default::default()
//! });
//! assert_eq!(rows.len(), 3);
//! for row in &rows {
//!     assert!(row.rescue_ipc <= row.baseline_ipc * 1.02);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rescue_arrays as arrays;
pub use rescue_atpg as atpg;
pub use rescue_ici as ici;
pub use rescue_model as model;
pub use rescue_netlist as netlist;
pub use rescue_pipesim as pipesim;
pub use rescue_workloads as workloads;
pub use rescue_yield as yield_model;

pub mod experiments;
pub mod render;
