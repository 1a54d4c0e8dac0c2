//! Error types for netlist construction.

use std::error::Error;
use std::fmt;

/// Error produced when finalizing a [`crate::NetlistBuilder`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// A gate was created with an input-count its kind does not allow.
    BadArity {
        /// Kind of the offending gate.
        kind: String,
        /// Number of inputs supplied.
        arity: usize,
    },
    /// The combinational logic contains a cycle (no latch on a feedback
    /// path). The offending net is named.
    CombinationalLoop(String),
    /// The circuit has no primary outputs and no flip-flops, so nothing is
    /// observable.
    NothingObservable,
    /// A flip-flop created with `dff_feedback` was never connected.
    UnconnectedDff(String),
    /// An n-ary gate constructor was given zero inputs.
    EmptyGate {
        /// Kind of the offending gate.
        kind: String,
    },
    /// Two buses that must be equal-width were not.
    WidthMismatch {
        /// Operation that required matching widths.
        what: &'static str,
        /// Width of the first operand.
        left: usize,
        /// Width of the second operand.
        right: usize,
    },
    /// A `dff_feedback` handle was connected twice.
    DoubleConnectedDff(String),
    /// Logic was added before any component was set on the builder.
    NoActiveComponent,
    /// `set_component` was called with a component id not declared on
    /// this builder.
    UnknownComponent(String),
    /// Scan insertion was requested on a netlist without flip-flops.
    NoState,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::BadArity { kind, arity } => {
                write!(f, "gate kind {kind} cannot take {arity} inputs")
            }
            BuildError::CombinationalLoop(net) => {
                write!(f, "combinational loop through net {net}")
            }
            BuildError::NothingObservable => {
                write!(f, "circuit has no outputs and no flip-flops")
            }
            BuildError::UnconnectedDff(name) => {
                write!(f, "flip-flop {name} was never connected to a D input")
            }
            BuildError::EmptyGate { kind } => {
                write!(f, "n-ary {kind} gate needs at least one input")
            }
            BuildError::WidthMismatch { what, left, right } => {
                write!(f, "{what} width mismatch: {left} vs {right}")
            }
            BuildError::DoubleConnectedDff(name) => {
                write!(f, "flip-flop {name} connected twice")
            }
            BuildError::NoActiveComponent => {
                write!(f, "set_component must be called before adding logic")
            }
            BuildError::UnknownComponent(c) => {
                write!(f, "component {c} was not declared on this builder")
            }
            BuildError::NoState => {
                write!(f, "cannot insert scan into a netlist without flip-flops")
            }
        }
    }
}

impl Error for BuildError {}
