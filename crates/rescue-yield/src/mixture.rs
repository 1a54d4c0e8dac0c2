//! The negative-binomial clustering model as a gamma-mixed Poisson
//! process, and per-configuration probabilities.
//!
//! The ITRS negative binomial yield `Y = (1 + A·D/α)^(-α)` arises from a
//! Poisson process whose rate is modulated by a Gamma(α, mean 1) mixing
//! variable `x` — the clustering. Expected values of any quantity that is
//! a product of per-region survival probabilities are integrals over the
//! mixing density (the paper's EQ 2), which this module evaluates with
//! composite Simpson quadrature.

/// Integrate `f` against the Gamma(α, mean 1) density.
///
/// Accurate to ~1e-8 for smooth integrands with α = 2 (the density decays
/// like `x e^{-2x}`; mass beyond the cutoff is negligible).
pub fn gamma_mixture_integrate(alpha: f64, f: impl Fn(f64) -> f64) -> f64 {
    gamma_mixture_integrate_many(alpha, 1, |x, out| out[0] = f(x))[0]
}

/// Integrate `k` integrands at once: `f(x, out)` writes the value of
/// each at `x` into `out[..k]`. Every integral adds the same terms in
/// the same order as [`gamma_mixture_integrate`] of that integrand alone,
/// so each result is bit-identical to it, while work shared by the
/// integrands is done once per quadrature node.
pub fn gamma_mixture_integrate_many(
    alpha: f64,
    k: usize,
    mut f: impl FnMut(f64, &mut [f64]),
) -> Vec<f64> {
    let pdf = |x: f64| -> f64 {
        // Gamma(shape α, scale 1/α), mean 1.
        let ln = alpha * alpha.ln() + (alpha - 1.0) * x.ln() - alpha * x - ln_gamma(alpha);
        ln.exp()
    };
    // Composite Simpson on [0, cutoff].
    let cutoff = 12.0f64.max(40.0 / alpha);
    let n = 2000usize; // even
    let h = cutoff / n as f64;
    let mut sums = vec![0.0; k];
    let mut vals = vec![0.0; k];
    for i in 0..=n {
        let x = i as f64 * h;
        let w = if i == 0 || i == n {
            1.0
        } else if i % 2 == 1 {
            4.0
        } else {
            2.0
        };
        let p = if x == 0.0 { 0.0 } else { pdf(x) };
        f(x, &mut vals);
        for (sum, &v) in sums.iter_mut().zip(&vals) {
            *sum += w * p * v;
        }
    }
    for sum in &mut sums {
        *sum = *sum * h / 3.0;
    }
    sums
}

/// Log-gamma via the Lanczos approximation (sufficient accuracy for the
/// small α used here).
fn ln_gamma(x: f64) -> f64 {
    // Lanczos g=7, n=9 coefficients.
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Per-class survival probabilities at a fixed mixing value.
#[derive(Clone, Copy, Debug)]
pub struct ConfigProb;

impl ConfigProb {
    /// Probability that exactly `k` of the 2 groups of a class survive,
    /// when each group independently survives with probability
    /// `exp(-lambda_group)`.
    pub fn groups_survive(lambda_group: f64, k: u8) -> f64 {
        let p = (-lambda_group).exp();
        match k {
            2 => p * p,
            1 => 2.0 * p * (1.0 - p),
            0 => (1.0 - p) * (1.0 - p),
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixture_of_one_is_one() {
        let v = gamma_mixture_integrate(2.0, |_| 1.0);
        assert!((v - 1.0).abs() < 1e-6, "got {v}");
    }

    #[test]
    fn mixture_mean_is_one() {
        let v = gamma_mixture_integrate(2.0, |x| x);
        assert!((v - 1.0).abs() < 1e-6, "got {v}");
    }

    #[test]
    fn negative_binomial_yield_recovered() {
        // E[e^{-λx}] over Gamma(α) mixing = (1 + λ/α)^{-α}.
        for lam in [0.05, 0.2, 1.0, 3.0] {
            let emp = gamma_mixture_integrate(2.0, |x| (-lam * x).exp());
            let closed = (1.0 + lam / 2.0).powf(-2.0);
            assert!((emp - closed).abs() < 1e-6, "λ={lam}: {emp} vs {closed}");
        }
    }

    #[test]
    fn ln_gamma_known_values() {
        assert!((ln_gamma(1.0) - 0.0).abs() < 1e-10);
        assert!((ln_gamma(2.0) - 0.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-9);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-9);
    }

    #[test]
    fn group_survival_probabilities_sum_to_one() {
        for lam in [0.0, 0.1, 2.0] {
            let s: f64 = (0..=2).map(|k| ConfigProb::groups_survive(lam, k)).sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }
}
