//! Property-based tests for the ATPG stack, driven by a seeded
//! [`SplitMix64`] case generator (the sandbox has no `proptest`).

use rescue_atpg::{merge_cubes, Podem, PodemConfig, PodemResult, TestCube, V3};
use rescue_netlist::{
    Fault, GateId, Levelized, NetId, Netlist, NetlistBuilder, PatternBlock, StuckAt,
};
use rescue_obs::SplitMix64;

/// PODEM with every primary input free and default limits.
fn unconstrained_podem(n: &Netlist) -> Podem<'_> {
    let free = vec![None; n.inputs().len()];
    Podem::new(n, &Levelized::new(n), free, PodemConfig::default())
}

/// Random gate picks, the shape `random_circuit` consumes.
fn random_picks(rng: &mut SplitMix64, lo: usize, hi: usize) -> Vec<(u8, u16, u16)> {
    let len = lo + rng.below(hi - lo);
    (0..len)
        .map(|_| {
            (
                rng.next_u64() as u8,
                rng.next_u64() as u16,
                rng.next_u64() as u16,
            )
        })
        .collect()
}

/// Random two-component DAG circuit with a couple of flops.
fn random_circuit(picks: &[(u8, u16, u16)]) -> Netlist {
    let mut b = NetlistBuilder::new();
    b.enter_component("lc0");
    let mut nets: Vec<NetId> = (0..4).map(|i| b.input(&format!("i{i}"))).collect();
    for (k, &(kind, a, c)) in picks.iter().enumerate() {
        if k == picks.len() / 2 {
            b.enter_component("lc1");
        }
        let x = nets[a as usize % nets.len()];
        let y = nets[c as usize % nets.len()];
        let out = match kind % 7 {
            0 => b.and2(x, y),
            1 => b.or2(x, y),
            2 => b.xor2(x, y),
            3 => b.nand2(x, y),
            4 => b.nor2(x, y),
            5 => b.not(x),
            _ => {
                let s = nets[(a as usize + 1) % nets.len()];
                b.mux(s, x, y)
            }
        };
        nets.push(out);
    }
    let tail = nets.len();
    let q0 = b.dff(nets[tail - 1], "q0");
    b.output(q0, "o0");
    if tail >= 2 {
        let q1 = b.dff(nets[tail - 2], "q1");
        b.output(q1, "o1");
    }
    b.finish().unwrap()
}

/// Fill a cube's don't-cares with a fixed polarity.
fn fill(cube: &TestCube, polarity: bool) -> PatternBlock {
    let f = |v: &V3| match v {
        V3::One => u64::MAX,
        V3::Zero => 0,
        V3::X => {
            if polarity {
                u64::MAX
            } else {
                0
            }
        }
    };
    PatternBlock {
        inputs: cube.inputs.iter().map(f).collect(),
        state: cube.state.iter().map(f).collect(),
    }
}

/// Whether `fault` is detected (any observation point differs) under the
/// reference full-resimulation model.
fn detected(n: &Netlist, block: &PatternBlock, fault: Fault) -> bool {
    let good = n.simulate(block);
    let bad = n.simulate_faulty(block, fault);
    n.dffs()
        .iter()
        .any(|d| good.nets[d.d().index()] != bad.nets[d.d().index()])
        || n.outputs()
            .iter()
            .any(|(_, net)| good.nets[net.index()] != bad.nets[net.index()])
}

/// PODEM soundness: every generated cube detects its target fault, for
/// any fill of the don't-care bits.
#[test]
fn podem_cubes_detect_their_faults() {
    let mut rng = SplitMix64::new(0xa791);
    for _ in 0..64 {
        let picks = random_picks(&mut rng, 2, 24);
        let n = random_circuit(&picks);
        let faults = n.collapse_faults();
        let fault = {
            let mut f = faults[rng.below(faults.len())];
            f.stuck_at = if rng.next_bool() {
                StuckAt::One
            } else {
                StuckAt::Zero
            };
            f
        };
        let podem = unconstrained_podem(&n);
        if let PodemResult::Test(cube) = podem.generate(fault) {
            for polarity in [false, true] {
                let block = fill(&cube, polarity);
                assert!(
                    detected(&n, &block, fault),
                    "cube with fill={polarity} misses {fault}"
                );
            }
        }
    }
}

/// PODEM completeness on small circuits: exhaustive simulation and PODEM
/// agree on testability (no Aborted cases at this size).
#[test]
fn podem_untestable_faults_really_are() {
    let mut rng = SplitMix64::new(0xa792);
    for _ in 0..64 {
        let picks = random_picks(&mut rng, 2, 10);
        let n = random_circuit(&picks);
        let faults = n.collapse_faults();
        let fault = faults[rng.below(faults.len())];
        let podem = unconstrained_podem(&n);
        if podem.generate(fault) == PodemResult::Untestable {
            // Exhaustively try every input/state assignment (4 PIs + <=2
            // flops => at most 64 patterns: one block).
            let n_in = n.inputs().len();
            let n_ff = n.num_dffs();
            let total = n_in + n_ff;
            if total > 6 {
                continue;
            }
            let mut inputs = vec![0u64; n_in];
            let mut state = vec![0u64; n_ff];
            for pattern in 0..(1u64 << total) {
                for (i, w) in inputs.iter_mut().enumerate() {
                    if (pattern >> i) & 1 == 1 {
                        *w |= 1 << pattern;
                    }
                }
                for (i, w) in state.iter_mut().enumerate() {
                    if (pattern >> (n_in + i)) & 1 == 1 {
                        *w |= 1 << pattern;
                    }
                }
            }
            let block = PatternBlock { inputs, state };
            assert!(
                !detected(&n, &block, fault),
                "PODEM said untestable but exhaustive simulation detects {fault}"
            );
        }
    }
}

/// Cube merging is sound: a merged cube still detects both original
/// target faults.
#[test]
fn merged_cubes_detect_both_faults() {
    let mut rng = SplitMix64::new(0xa793);
    for _ in 0..64 {
        let picks = random_picks(&mut rng, 4, 24);
        let n = random_circuit(&picks);
        let faults = n.collapse_faults();
        let f1 = faults[rng.below(faults.len())];
        let f2 = faults[rng.below(faults.len())];
        if f1 == f2 {
            continue;
        }
        let podem = unconstrained_podem(&n);
        let (PodemResult::Test(c1), PodemResult::Test(c2)) =
            (podem.generate(f1), podem.generate(f2))
        else {
            continue;
        };
        if let Some(merged) = merge_cubes(&c1, &c2) {
            for polarity in [false, true] {
                let block = fill(&merged, polarity);
                assert!(detected(&n, &block, f1), "merged cube misses {f1}");
                assert!(detected(&n, &block, f2), "merged cube misses {f2}");
            }
        }
    }
}

#[test]
fn merge_cube_basics() {
    let a = TestCube {
        inputs: vec![V3::One, V3::X],
        state: vec![V3::X],
    };
    let b = TestCube {
        inputs: vec![V3::X, V3::Zero],
        state: vec![V3::One],
    };
    let m = merge_cubes(&a, &b).expect("compatible");
    assert_eq!(m.inputs, vec![V3::One, V3::Zero]);
    assert_eq!(m.state, vec![V3::One]);

    let c = TestCube {
        inputs: vec![V3::Zero, V3::X],
        state: vec![V3::X],
    };
    assert!(merge_cubes(&a, &c).is_none(), "conflicting bit 0");
}

/// GateId is part of the public fault API; keep an explicit smoke check
/// that pin faults on generated circuits behave.
#[test]
fn pin_fault_on_first_gate_is_testable() {
    let n = random_circuit(&[(0, 0, 1), (1, 2, 3)]);
    let podem = unconstrained_podem(&n);
    let fault = Fault::pin(GateId::from_index(0), 0, StuckAt::One);
    match podem.generate(fault) {
        PodemResult::Test(cube) => {
            let block = fill(&cube, false);
            assert!(detected(&n, &block, fault));
        }
        PodemResult::Untestable => {}
        PodemResult::Aborted => panic!("tiny circuit must not abort"),
    }
}
