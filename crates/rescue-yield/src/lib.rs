//! Yield modeling for the Rescue paper's Section 5–6 evaluation:
//! technology/defect scaling (EQ 1), the Table 2 area model, the
//! negative-binomial (gamma-mixed Poisson) configuration distribution
//! with ITRS clustering (α = 2), and yield-adjusted throughput
//! (EQ 2 / EQ 3).
//!
//! The crate is pure math — IPC values for degraded configurations are
//! supplied by the caller (the timing simulator lives in
//! `rescue-pipesim`; the facade crate wires them together). Degraded
//! cores are identified by a [`ClassCounts`] array: how many groups of
//! each of the six redundant resource classes survive.
//!
//! # Example
//!
//! ```
//! use rescue_yield::{Scenario, TechNode};
//!
//! let sc = Scenario::pwp_stagnates_at_90nm();
//! // Defect density doubles with each transistor-area halving after
//! // stagnation.
//! let d90 = sc.fault_density(TechNode::NM90);
//! let d65 = sc.fault_density(TechNode::NM65);
//! assert!(d65 / d90 > 1.8 && d65 / d90 < 2.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod area;
mod mixture;
mod monte;
mod tech;
mod yat;

pub use area::{AreaModel, RescueAreas, Table2Row};
pub use mixture::{gamma_mixture_integrate, ConfigProb};
pub use monte::{monte_carlo_yat, MonteRng};
pub use tech::{Scenario, TechNode};
pub use yat::{
    relative_yat, relative_yat_batch, relative_yat_self_healing, ClassCounts, YatInputs, YatPoint,
    NUM_CLASSES,
};
