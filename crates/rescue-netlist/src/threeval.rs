//! Three-valued logic (0, 1, X): the one gate evaluator shared by PODEM,
//! the lint stuck-net rule and the static implication engine.
//!
//! PODEM represents the classical five-valued D-algebra (0, 1, X, D, D̄)
//! as a *pair* of three-valued values — one for the good machine, one
//! for the faulty machine. `D` is `(1, 0)`, `D̄` is `(0, 1)`.
//!
//! [`eval_gate_v3`] sees values only. Constant propagation over a
//! netlist also knows the wiring, which can fix an output no value
//! assignment reaches: [`wired_constant`] covers that case. PODEM keeps
//! the value-only call, because a pin fault breaks the wiring identity
//! in the faulty machine.

use crate::GateKind;

/// A three-valued logic value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum V3 {
    /// Logic 0.
    Zero,
    /// Logic 1.
    One,
    /// Unassigned / unknown.
    X,
}

impl V3 {
    /// Build from a bool.
    pub fn from_bool(b: bool) -> V3 {
        if b {
            V3::One
        } else {
            V3::Zero
        }
    }

    /// The known boolean value, if any.
    pub fn to_bool(self) -> Option<bool> {
        match self {
            V3::Zero => Some(false),
            V3::One => Some(true),
            V3::X => None,
        }
    }

    /// Three-valued AND.
    pub fn and(self, other: V3) -> V3 {
        match (self, other) {
            (V3::Zero, _) | (_, V3::Zero) => V3::Zero,
            (V3::One, V3::One) => V3::One,
            _ => V3::X,
        }
    }

    /// Three-valued OR.
    pub fn or(self, other: V3) -> V3 {
        match (self, other) {
            (V3::One, _) | (_, V3::One) => V3::One,
            (V3::Zero, V3::Zero) => V3::Zero,
            _ => V3::X,
        }
    }

    /// Three-valued XOR.
    pub fn xor(self, other: V3) -> V3 {
        match (self, other) {
            (V3::X, _) | (_, V3::X) => V3::X,
            (a, b) => V3::from_bool(a != b),
        }
    }
}

impl From<Option<bool>> for V3 {
    fn from(v: Option<bool>) -> V3 {
        v.map_or(V3::X, V3::from_bool)
    }
}

impl std::ops::Not for V3 {
    type Output = V3;

    /// Three-valued complement.
    fn not(self) -> V3 {
        match self {
            V3::Zero => V3::One,
            V3::One => V3::Zero,
            V3::X => V3::X,
        }
    }
}

/// Evaluate a gate over three-valued inputs.
pub fn eval_gate_v3(kind: GateKind, inputs: &[V3]) -> V3 {
    match kind {
        GateKind::Const0 => V3::Zero,
        GateKind::Const1 => V3::One,
        GateKind::Buf => inputs[0],
        GateKind::Not => !inputs[0],
        GateKind::And => inputs.iter().fold(V3::One, |a, &b| a.and(b)),
        GateKind::Nand => !inputs.iter().fold(V3::One, |a, &b| a.and(b)),
        GateKind::Or => inputs.iter().fold(V3::Zero, |a, &b| a.or(b)),
        GateKind::Nor => !inputs.iter().fold(V3::Zero, |a, &b| a.or(b)),
        GateKind::Xor => inputs.iter().fold(V3::Zero, |a, &b| a.xor(b)),
        GateKind::Xnor => !inputs.iter().fold(V3::Zero, |a, &b| a.xor(b)),
        GateKind::Mux => match inputs[0] {
            V3::Zero => inputs[1],
            V3::One => inputs[2],
            V3::X => {
                if inputs[1] == inputs[2] && inputs[1] != V3::X {
                    inputs[1]
                } else {
                    V3::X
                }
            }
        },
    }
}

/// The controlling value of a gate kind, if it has one (an input at this
/// value fixes the output regardless of other inputs).
pub fn controlling_value(kind: GateKind) -> Option<bool> {
    match kind {
        GateKind::And | GateKind::Nand => Some(false),
        GateKind::Or | GateKind::Nor => Some(true),
        _ => None,
    }
}

/// The output a gate's wiring alone fixes, whatever its pin values: an
/// XOR/XNOR whose pins are an even number of copies of one net is
/// constant 0/1. `pins` are the gate's input net ids in pin order.
pub fn wired_constant(kind: GateKind, pins: &[u32]) -> Option<bool> {
    let even_copies =
        pins.len() >= 2 && pins.len().is_multiple_of(2) && pins.windows(2).all(|w| w[0] == w[1]);
    match kind {
        GateKind::Xor if even_copies => Some(false),
        GateKind::Xnor if even_copies => Some(true),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v3_tables() {
        assert_eq!(V3::Zero.and(V3::X), V3::Zero);
        assert_eq!(V3::One.and(V3::X), V3::X);
        assert_eq!(V3::One.or(V3::X), V3::One);
        assert_eq!(V3::Zero.or(V3::X), V3::X);
        assert_eq!(V3::X.xor(V3::One), V3::X);
        assert_eq!(V3::One.xor(V3::One), V3::Zero);
        assert_eq!((!V3::X), V3::X);
    }

    #[test]
    fn mux_with_unknown_select() {
        // Same data on both legs: select does not matter.
        assert_eq!(
            eval_gate_v3(GateKind::Mux, &[V3::X, V3::One, V3::One]),
            V3::One
        );
        assert_eq!(
            eval_gate_v3(GateKind::Mux, &[V3::X, V3::One, V3::Zero]),
            V3::X
        );
    }

    /// Precise completion semantics of a three-valued tuple: substitute
    /// every boolean completion for the `X` positions and evaluate the
    /// boolean gate. Returns the common result if all completions
    /// agree, otherwise `V3::X`.
    fn completion_semantics(kind: GateKind, inputs: &[V3]) -> V3 {
        use crate::sim::eval_bool;
        let x_positions: Vec<usize> = inputs
            .iter()
            .enumerate()
            .filter(|(_, v)| **v == V3::X)
            .map(|(i, _)| i)
            .collect();
        let mut results = Vec::new();
        for combo in 0..(1u32 << x_positions.len()) {
            let mut bools: Vec<bool> = inputs
                .iter()
                .map(|v| v.to_bool().unwrap_or(false))
                .collect();
            for (bit, &pos) in x_positions.iter().enumerate() {
                bools[pos] = combo >> bit & 1 == 1;
            }
            results.push(eval_bool(kind, &bools));
        }
        if results.iter().all(|&r| r == results[0]) {
            V3::from_bool(results[0])
        } else {
            V3::X
        }
    }

    /// Enumerate all `3^arity` input tuples for one kind and check the
    /// three-valued evaluation against the exhaustive completion
    /// semantics. This is the full X-propagation table: a result may be
    /// `X` only when two completions really disagree, and every known
    /// result must match what all completions produce.
    fn check_kind_exhaustively(kind: GateKind, arity: usize) {
        let vals = [V3::Zero, V3::One, V3::X];
        for tuple in 0..3usize.pow(arity as u32) {
            let mut t = tuple;
            let inputs: Vec<V3> = (0..arity)
                .map(|_| {
                    let v = vals[t % 3];
                    t /= 3;
                    v
                })
                .collect();
            let got = eval_gate_v3(kind, &inputs);
            let want = completion_semantics(kind, &inputs);
            assert_eq!(got, want, "{kind:?} over {inputs:?}");
        }
    }

    /// All gate kinds × all {0,1,X} input combinations, table-style.
    /// N-ary kinds are checked at both their minimum arity and a wider
    /// one, so multi-input X masking (e.g. `and(X, 0, X)`) is covered.
    #[test]
    fn x_propagation_is_exact_for_every_kind() {
        check_kind_exhaustively(GateKind::Const0, 0);
        check_kind_exhaustively(GateKind::Const1, 0);
        check_kind_exhaustively(GateKind::Buf, 1);
        check_kind_exhaustively(GateKind::Not, 1);
        for kind in [
            GateKind::And,
            GateKind::Or,
            GateKind::Xor,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xnor,
        ] {
            check_kind_exhaustively(kind, 2);
            check_kind_exhaustively(kind, 3);
            check_kind_exhaustively(kind, 4);
        }
        check_kind_exhaustively(GateKind::Mux, 3);
    }

    /// Spot-check rows of the table that PODEM's backtrace logic leans
    /// on: a controlling value beats an X, a non-controlling value does
    /// not.
    #[test]
    fn controlling_values_dominate_x() {
        for kind in [GateKind::And, GateKind::Or, GateKind::Nand, GateKind::Nor] {
            let c = V3::from_bool(controlling_value(kind).unwrap());
            let non_c = !c;
            let forced = eval_gate_v3(kind, &[c, V3::X]);
            assert_ne!(forced, V3::X, "{kind:?}: controlling input decides");
            assert_eq!(
                eval_gate_v3(kind, &[non_c, V3::X]),
                V3::X,
                "{kind:?}: non-controlling input leaves the output unknown"
            );
        }
        // XOR-family gates have no controlling value: any X poisons.
        for kind in [GateKind::Xor, GateKind::Xnor] {
            assert_eq!(controlling_value(kind), None);
            for v in [V3::Zero, V3::One] {
                assert_eq!(eval_gate_v3(kind, &[v, V3::X]), V3::X);
            }
        }
    }

    #[test]
    fn wiring_fixes_even_parity_over_one_net_only() {
        assert_eq!(wired_constant(GateKind::Xor, &[3, 3]), Some(false));
        assert_eq!(wired_constant(GateKind::Xnor, &[3, 3, 3, 3]), Some(true));
        // Odd copies pass the net through; mixed nets are free.
        assert_eq!(wired_constant(GateKind::Xor, &[3, 3, 3]), None);
        assert_eq!(wired_constant(GateKind::Xor, &[3, 4, 3, 4]), None);
        assert_eq!(wired_constant(GateKind::And, &[3, 3]), None);
        assert_eq!(wired_constant(GateKind::Mux, &[1, 3, 3]), None);
    }

    #[test]
    fn v3_gate_eval_matches_bool_on_known_values() {
        use crate::sim::eval_bool;
        let kinds = [
            GateKind::And,
            GateKind::Or,
            GateKind::Xor,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xnor,
        ];
        for kind in kinds {
            for a in [false, true] {
                for b in [false, true] {
                    let v = eval_gate_v3(kind, &[V3::from_bool(a), V3::from_bool(b)]);
                    assert_eq!(v.to_bool(), Some(eval_bool(kind, &[a, b])));
                }
            }
        }
    }
}
