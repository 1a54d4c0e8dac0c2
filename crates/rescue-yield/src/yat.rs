//! Yield-adjusted throughput (EQ 2 / EQ 3): combine the configuration
//! distribution with per-configuration IPC.

use crate::area::{AreaModel, RescueAreas};
use crate::mixture::{gamma_mixture_integrate, gamma_mixture_integrate_many, ConfigProb};
use crate::tech::{Scenario, TechNode};

/// Number of redundant resource classes.
pub const NUM_CLASSES: usize = 6;

/// Surviving groups per class, in [`crate::area::CLASS_NAMES`] order
/// (`[frontend, int IQ, fp IQ, LSQ, int backend, fp backend]`); each entry
/// is 1 or 2.
pub type ClassCounts = [u8; NUM_CLASSES];

/// All 64 live configurations.
pub fn all_class_counts() -> Vec<ClassCounts> {
    let mut v = Vec::with_capacity(64);
    for bits in 0..64u32 {
        let mut c = [2u8; NUM_CLASSES];
        for (i, item) in c.iter_mut().enumerate() {
            if bits & (1 << i) != 0 {
                *item = 1;
            }
        }
        v.push(c);
    }
    v
}

/// IPC inputs for the YAT computation, normalized or absolute (the output
/// is normalized internally).
pub struct YatInputs<'a> {
    /// Full-core IPC of the conventional (baseline-policy) design.
    pub ipc_baseline: f64,
    /// IPC of the Rescue design in a given degraded configuration
    /// (all-2s = fault-free Rescue, which is already a few percent below
    /// `ipc_baseline`).
    pub ipc_rescue: &'a dyn Fn(ClassCounts) -> f64,
}

/// Relative YAT of one (scenario, node, growth) point: all values are
/// normalized to a chip with 100% yield and no degraded cores
/// (`cores × ipc_baseline`).
#[derive(Clone, Copy, Debug)]
pub struct YatPoint {
    /// Cores fabricated per chip.
    pub cores: usize,
    /// No redundancy at all: a single fault kills the whole chip.
    pub none: f64,
    /// Core sparing: each fault kills at most one core.
    pub core_sparing: f64,
    /// Rescue on top of core sparing.
    pub rescue: f64,
}

/// Compute the relative YAT point (paper EQ 2 / EQ 3).
///
/// Clustering: all cores on a chip share the gamma mixing value, so the
/// per-chip expectation is taken *inside* the mixture integral.
pub fn relative_yat(
    scenario: &Scenario,
    node: TechNode,
    growth: f64,
    inputs: &YatInputs<'_>,
) -> YatPoint {
    relative_yat_batch(scenario, node, growth, std::slice::from_ref(inputs), false)[0]
}

/// [`relative_yat`] with the §7 self-healing-array extension applied to
/// the Rescue series (chipkill shrinks; see
/// [`AreaModel::rescue_with_self_healing_arrays`]).
pub fn relative_yat_self_healing(
    scenario: &Scenario,
    node: TechNode,
    growth: f64,
    inputs: &YatInputs<'_>,
) -> YatPoint {
    relative_yat_batch(scenario, node, growth, std::slice::from_ref(inputs), true)[0]
}

/// [`relative_yat`] (or, with `self_healing`,
/// [`relative_yat_self_healing`]) of every IPC input at one point, each
/// bit-identical to the one-input call. The quadratures of the `none`
/// and `core_sparing` series and, at every quadrature node, the
/// configuration probabilities do not depend on the IPCs, so they are
/// computed once for all inputs.
pub fn relative_yat_batch(
    scenario: &Scenario,
    node: TechNode,
    growth: f64,
    inputs: &[YatInputs<'_>],
    self_healing: bool,
) -> Vec<YatPoint> {
    let cores = scenario.cores_per_chip(node, growth);
    let density = scenario.fault_density(node);
    let shrink = scenario.core_shrink(node, growth);

    let baseline = AreaModel::baseline();
    let rescue: RescueAreas = if self_healing {
        baseline.rescue_with_self_healing_arrays()
    } else {
        baseline.rescue()
    };

    // Fault rates (λ = area × density) at this node.
    let lam_core_baseline = baseline.total_mm2() * shrink * density;
    let lam_chipkill = rescue.chipkill_mm2 * shrink * density;
    let lam_group: Vec<f64> = (0..NUM_CLASSES)
        .map(|i| rescue.group_mm2(i) * shrink * density)
        .collect();

    let configs = all_class_counts();
    // Pre-fetch IPCs once.
    let ipcs: Vec<Vec<f64>> = inputs
        .iter()
        .map(|input| configs.iter().map(|&c| (input.ipc_rescue)(c)).collect())
        .collect();

    let alpha = scenario.alpha;
    let n = cores as f64;

    // --- No redundancy: whole chip must be fault-free. Use the larger of
    // the baseline core areas for all cores.
    let none = gamma_mixture_integrate(alpha, |x| (-(n * lam_core_baseline) * x).exp());

    // --- Core sparing: expected fraction of fault-free cores.
    let core_sparing = gamma_mixture_integrate(alpha, |x| (-(lam_core_baseline) * x).exp());

    // --- Rescue: per-core expected IPC across configurations, normalized
    // by the baseline IPC.
    let mut probs = [0.0; 64];
    let rescue_rel = gamma_mixture_integrate_many(alpha, inputs.len(), |x, out| {
        let kill_ok = (-(lam_chipkill) * x).exp();
        // Every config draws each class's survival probability from
        // these twelve values: evaluate them once per point, not once
        // per config. The products below multiply the same values in
        // the same order, so the sum is unchanged to the bit.
        let survive: [[f64; 2]; NUM_CLASSES] = std::array::from_fn(|i| {
            [1, 2].map(|k| ConfigProb::groups_survive(lam_group[i] * x, k))
        });
        for (p, cfg) in probs.iter_mut().zip(&configs) {
            *p = kill_ok;
            for (s, &k) in survive.iter().zip(cfg) {
                *p *= s[usize::from(k) - 1];
            }
        }
        for ((v, input), ipcs) in out.iter_mut().zip(inputs).zip(&ipcs) {
            let mut e = 0.0;
            for (&p, &ipc) in probs.iter().zip(ipcs) {
                e += p * ipc;
            }
            *v = e / input.ipc_baseline;
        }
    });

    rescue_rel
        .into_iter()
        .map(|rescue| YatPoint {
            cores,
            none,
            core_sparing,
            rescue,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_healing_arrays_raise_rescue_yat() {
        let sc = Scenario::pwp_stagnates_at_90nm();
        let f = |c: ClassCounts| -> f64 {
            let lost = c.iter().filter(|&&k| k == 1).count() as f64;
            0.96 * (1.0 - 0.12 * lost)
        };
        let inputs = YatInputs {
            ipc_baseline: 1.0,
            ipc_rescue: &f,
        };
        let plain = relative_yat(&sc, TechNode::NM18, 1.3, &inputs);
        let inputs = YatInputs {
            ipc_baseline: 1.0,
            ipc_rescue: &f,
        };
        let healed = relative_yat_self_healing(&sc, TechNode::NM18, 1.3, &inputs);
        assert!(healed.rescue > plain.rescue);
        // The CS and none series use the baseline core: unchanged.
        assert!((healed.core_sparing - plain.core_sparing).abs() < 1e-12);
    }

    fn flat_inputs(rescue_ipc: f64) -> (f64, Box<dyn Fn(ClassCounts) -> f64>) {
        (1.0, Box::new(move |_| rescue_ipc))
    }

    /// The Rescue series of one input the way it was computed before
    /// inputs were batched: one quadrature whose integrand multiplies out
    /// every configuration's probability and weighs it by its IPC.
    fn unbatched_rescue(
        scenario: &Scenario,
        node: TechNode,
        growth: f64,
        input: &YatInputs<'_>,
        self_healing: bool,
    ) -> f64 {
        let density = scenario.fault_density(node);
        let shrink = scenario.core_shrink(node, growth);
        let baseline = AreaModel::baseline();
        let rescue = if self_healing {
            baseline.rescue_with_self_healing_arrays()
        } else {
            baseline.rescue()
        };
        let lam_chipkill = rescue.chipkill_mm2 * shrink * density;
        let lam_group: Vec<f64> = (0..NUM_CLASSES)
            .map(|i| rescue.group_mm2(i) * shrink * density)
            .collect();
        let configs = all_class_counts();
        let ipcs: Vec<f64> = configs.iter().map(|&c| (input.ipc_rescue)(c)).collect();
        gamma_mixture_integrate(scenario.alpha, |x| {
            let kill_ok = (-(lam_chipkill) * x).exp();
            let survive: [[f64; 2]; NUM_CLASSES] = std::array::from_fn(|i| {
                [1, 2].map(|k| ConfigProb::groups_survive(lam_group[i] * x, k))
            });
            let mut e = 0.0;
            for (cfg, &ipc) in configs.iter().zip(&ipcs) {
                let mut p = kill_ok;
                for (s, &k) in survive.iter().zip(cfg) {
                    p *= s[usize::from(k) - 1];
                }
                e += p * ipc;
            }
            e / input.ipc_baseline
        })
    }

    /// Over seeded random IPC maps, every batched point equals the
    /// one-input call, and its Rescue value the unbatched quadrature, to
    /// the bit.
    #[test]
    fn batched_points_equal_the_one_input_calls_bit_for_bit() {
        let mut rng = crate::MonteRng::new(0x5eed);
        let maps: Vec<(f64, Vec<f64>)> = (0..5)
            .map(|_| {
                let base = 0.5 + 2.0 * rng.uniform();
                (base, (0..64).map(|_| 0.2 + 2.0 * rng.uniform()).collect())
            })
            .collect();
        let lookups: Vec<Box<dyn Fn(ClassCounts) -> f64>> = maps
            .iter()
            .map(|(_, ipcs)| {
                let ipcs = ipcs.clone();
                let configs = all_class_counts();
                Box::new(move |c: ClassCounts| ipcs[configs.iter().position(|&k| k == c).unwrap()])
                    as Box<dyn Fn(ClassCounts) -> f64>
            })
            .collect();
        let inputs: Vec<YatInputs<'_>> = maps
            .iter()
            .zip(&lookups)
            .map(|((base, _), f)| YatInputs {
                ipc_baseline: *base,
                ipc_rescue: f.as_ref(),
            })
            .collect();
        for sc in [
            Scenario::pwp_stagnates_at_90nm(),
            Scenario::pwp_stagnates_at_65nm(),
        ] {
            for node in TechNode::figure9_nodes() {
                for growth in [1.0, 1.3] {
                    for healing in [false, true] {
                        let batch = relative_yat_batch(&sc, node, growth, &inputs, healing);
                        for (got, input) in batch.iter().zip(&inputs) {
                            let want = if healing {
                                relative_yat_self_healing(&sc, node, growth, input)
                            } else {
                                relative_yat(&sc, node, growth, input)
                            };
                            let unbatched = unbatched_rescue(&sc, node, growth, input, healing);
                            assert_eq!(got.rescue.to_bits(), unbatched.to_bits());
                            assert_eq!(got.cores, want.cores);
                            for (g, w) in [
                                (got.none, want.none),
                                (got.core_sparing, want.core_sparing),
                                (got.rescue, want.rescue),
                            ] {
                                assert_eq!(g.to_bits(), w.to_bits());
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sixty_four_configs() {
        assert_eq!(all_class_counts().len(), 64);
    }

    #[test]
    fn zero_defects_gives_perfect_relative_yat() {
        let mut sc = Scenario::pwp_stagnates_at_90nm();
        sc.base_density = 0.0;
        let (b, f) = flat_inputs(0.96);
        let inputs = YatInputs {
            ipc_baseline: b,
            ipc_rescue: &f,
        };
        let p = relative_yat(&sc, TechNode::NM90, 1.3, &inputs);
        assert!((p.none - 1.0).abs() < 1e-6);
        assert!((p.core_sparing - 1.0).abs() < 1e-6);
        // Rescue pays its fault-free IPC cost even with no defects.
        assert!((p.rescue - 0.96).abs() < 1e-6);
    }

    #[test]
    fn ordering_none_below_cs_below_one() {
        let sc = Scenario::pwp_stagnates_at_90nm();
        let (b, f) = flat_inputs(0.96);
        let inputs = YatInputs {
            ipc_baseline: b,
            ipc_rescue: &f,
        };
        let p = relative_yat(&sc, TechNode::NM32, 1.3, &inputs);
        assert!(p.none < p.core_sparing);
        assert!(p.core_sparing < 1.0);
        assert!(p.cores > 1);
    }

    #[test]
    fn rescue_wins_at_high_defect_density() {
        // At 18 nm with 90nm-stagnated PWP, Rescue must beat core sparing
        // even though its fault-free IPC is 4% lower.
        let sc = Scenario::pwp_stagnates_at_90nm();
        // Degradation-aware IPC: each lost class costs 15%.
        let f = |c: ClassCounts| -> f64 {
            let lost = c.iter().filter(|&&k| k == 1).count() as f64;
            0.96 * (1.0 - 0.15 * lost)
        };
        let inputs = YatInputs {
            ipc_baseline: 1.0,
            ipc_rescue: &f,
        };
        let p = relative_yat(&sc, TechNode::NM18, 1.3, &inputs);
        assert!(
            p.rescue > p.core_sparing,
            "rescue {} must beat CS {} at 18nm",
            p.rescue,
            p.core_sparing
        );
    }

    #[test]
    fn yield_at_90nm_matches_itrs_target() {
        let sc = Scenario::pwp_stagnates_at_90nm();
        let (b, f) = flat_inputs(1.0);
        let inputs = YatInputs {
            ipc_baseline: b,
            ipc_rescue: &f,
        };
        let p = relative_yat(&sc, TechNode::NM90, 1.3, &inputs);
        // One 140mm² core; the fault-relevant area is 96/140 of it, so the
        // no-redundancy relative YAT must be above the 83% whole-chip
        // target but below 1.
        assert!(p.none > 0.83 && p.none < 0.95, "none = {}", p.none);
    }
}
