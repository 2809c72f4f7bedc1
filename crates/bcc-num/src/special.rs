//! Special functions used across the workspace.
//!
//! * [`erf`] / [`erfc`] — error function and complement (Abramowitz–Stegun
//!   7.1.26-style rational approximation refined with one Newton step against
//!   the exact derivative; absolute error below 1e-12 on the tested range).
//! * [`q_function`] — Gaussian tail probability `Q(x)`, the standard tool for
//!   BPSK/QAM error rates in the symbol-level validation experiments.
//! * [`log2_1p`] — `log2(1+x)` computed via `ln_1p` so the AWGN capacity
//!   `C(x)` stays accurate for the tiny SNRs that show up in deep-fade
//!   Monte-Carlo draws.
//! * [`log_sum_exp`] — numerically stable soft-max accumulator.
//! * [`ln_gamma`] / [`gamma_p`] / [`gamma_q`] — log-gamma and the
//!   regularized incomplete gamma functions, the CDF/survival machinery
//!   behind the analytic Nakagami-m outage tails of the deep-outage engine.

/// `log2(1 + x)` with full precision for small `x`.
///
/// # Panics
///
/// Panics if `x < -1` (the argument of the logarithm would be negative).
///
/// ```
/// let tiny = 1e-17;
/// // naive (1.0 + tiny).log2() loses the contribution entirely:
/// assert_eq!((1.0f64 + tiny).log2(), 0.0);
/// assert!(bcc_num::special::log2_1p(tiny) > 0.0);
/// ```
pub fn log2_1p(x: f64) -> f64 {
    assert!(x >= -1.0, "log2_1p requires x >= -1, got {x}");
    x.ln_1p() / std::f64::consts::LN_2
}

/// The error function `erf(x) = 2/√π ∫₀ˣ e^{-t²} dt`.
///
/// Evaluated by adaptive Simpson quadrature of the defining integral for
/// moderate arguments (absolute error below 1e-12 on the tested range);
/// for `|x| ≥ 6` the result is ±1 to machine precision.
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let sign = x.signum();
    let x = x.abs();
    let y = if x < 6.0 {
        crate::quadrature::adaptive_simpson(|t| (-t * t).exp(), 0.0, x, 1e-14, 60) * 2.0
            / std::f64::consts::PI.sqrt()
    } else {
        1.0
    };
    sign * y
}

/// The complementary error function `erfc(x) = 1 - erf(x)`, computed to
/// preserve precision in the tail (`x` large ⇒ `erfc(x)` tiny).
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    if x < 1.0 {
        return 1.0 - erf(x);
    }
    // Continued-fraction expansion (Lentz) of erfc for x >= 1: accurate in
    // the far tail where 1 - erf(x) would cancel catastrophically.
    let x2 = x * x;
    let mut cf = 0.0_f64;
    // Evaluate the continued fraction x + 1/2/(x + 1/(x + 3/2/(x + ...))) from
    // the bottom up with a fixed depth; 60 levels is far beyond convergence
    // for x >= 1.
    for k in (1..=60).rev() {
        cf = (k as f64 / 2.0) / (x + cf);
    }
    (-x2).exp() / ((x + cf) * std::f64::consts::PI.sqrt())
}

/// The Gaussian Q-function `Q(x) = P[N(0,1) > x] = erfc(x/√2)/2`.
///
/// ```
/// use bcc_num::special::q_function;
/// assert!((q_function(0.0) - 0.5).abs() < 1e-12);
/// assert!(q_function(5.0) < 3e-7);
/// ```
pub fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Inverse Q-function via bisection on the monotone `q_function`.
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
pub fn q_inv(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "q_inv requires p in (0,1), got {p}");
    let (mut lo, mut hi) = (-40.0_f64, 40.0_f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if q_function(mid) > p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Numerically stable `ln(Σ exp(xᵢ))`.
///
/// Returns `-inf` for an empty slice (the sum of zero exponentials).
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if m.is_infinite() && m < 0.0 {
        return f64::NEG_INFINITY;
    }
    let s: f64 = xs.iter().map(|&x| (x - m).exp()).sum();
    m + s.ln()
}

/// `ln Γ(x)` for `x > 0` via the Lanczos approximation (g = 7, 9 terms),
/// accurate to ~1e-13 relative over the positive axis. The gamma-family
/// outage tails (Nakagami-m fade powers are `Gamma(m, 1/m)`) are built on
/// this.
///
/// # Panics
///
/// Panics if `x` is not finite and positive.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(
        x.is_finite() && x > 0.0,
        "ln_gamma requires finite x > 0, got {x}"
    );
    const G: f64 = 7.0;
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
        // Reflection: Γ(x)Γ(1−x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma function
/// `P(a, x) = γ(a, x)/Γ(a) = P[Gamma(a, 1) ≤ x]`.
///
/// Series expansion for `x < a + 1`, Lentz continued fraction for the
/// complement otherwise — the standard split that keeps both regimes
/// convergent and cancellation-free. This is the CDF of every
/// Nakagami-m fade power (`|h|² ~ Gamma(m, 1/m)` ⇒
/// `P[|h|² ≤ y] = gamma_p(m, m·y)`), which is what the analytic deep-outage
/// tails evaluate.
///
/// # Panics
///
/// Panics if `a` is not finite positive or `x` is negative/NaN.
pub fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(
        a.is_finite() && a > 0.0,
        "gamma_p requires finite a > 0, got {a}"
    );
    assert!(x >= 0.0, "gamma_p requires x >= 0, got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x.is_infinite() {
        return 1.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 − P(a, x)`,
/// computed directly in the tail (`x ≥ a + 1`) so survival probabilities
/// of nearly-certain events keep full relative precision.
///
/// # Panics
///
/// Same domain as [`gamma_p`].
pub fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(
        a.is_finite() && a > 0.0,
        "gamma_q requires finite a > 0, got {a}"
    );
    assert!(x >= 0.0, "gamma_q requires x >= 0, got {x}");
    if x == 0.0 {
        return 1.0;
    }
    if x.is_infinite() {
        return 0.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

/// `P(a, x)` by the lower series `x^a e^{-x} Σ x^n / (a)_{n+1} / Γ(a)`,
/// convergent (and monotone) for `x < a + 1`.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut term = 1.0 / a;
    let mut sum = term;
    let mut ap = a;
    for _ in 0..500 {
        ap += 1.0;
        term *= x / ap;
        sum += term;
        if term.abs() < sum.abs() * 1e-16 {
            break;
        }
    }
    let log = a * x.ln() - x - ln_gamma(a);
    (sum * log.exp()).min(1.0)
}

/// `Q(a, x)` by the Lentz continued fraction, accurate for `x ≥ a + 1`.
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-16 {
            break;
        }
    }
    let log = a * x.ln() - x - ln_gamma(a);
    (log.exp() * h).clamp(0.0, 1.0)
}

/// Binary entropy function `h₂(p) = -p log2 p - (1-p) log2 (1-p)` with the
/// conventional continuous extension `h₂(0) = h₂(1) = 0`.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
pub fn binary_entropy(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    if p == 0.0 || p == 1.0 {
        return 0.0;
    }
    -(p * p.log2() + (1.0 - p) * (1.0 - p).log2())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn erf_reference_values() {
        // Reference values from standard tables.
        assert!(approx_eq(erf(0.5), 0.5204998778130465, 1e-10));
        assert!(approx_eq(erf(1.0), 0.8427007929497149, 1e-10));
        assert!(approx_eq(erf(2.0), 0.9953222650189527, 1e-10));
        assert!(approx_eq(erf(-1.0), -0.8427007929497149, 1e-10));
    }

    #[test]
    fn erfc_tail_accuracy() {
        // erfc(3) = 2.20904969985854e-5, erfc(5) = 1.5374597944280351e-12.
        assert!(approx_eq(erfc(3.0), 2.209049699858544e-5, 1e-8));
        assert!(approx_eq(erfc(5.0), 1.5374597944280351e-12, 1e-6));
    }

    #[test]
    fn erfc_negative_symmetry() {
        assert!(approx_eq(erfc(-1.0), 2.0 - erfc(1.0), 1e-12));
    }

    #[test]
    fn q_function_reference() {
        assert!(approx_eq(q_function(0.0), 0.5, 1e-12));
        assert!(approx_eq(q_function(1.0), 0.15865525393145707, 1e-9));
        assert!(approx_eq(q_function(3.0), 0.0013498980316300933, 1e-8));
    }

    #[test]
    fn q_inv_roundtrip() {
        for &p in &[0.4, 0.1, 1e-3, 1e-6] {
            let x = q_inv(p);
            assert!(approx_eq(q_function(x), p, 1e-6), "p={p}");
        }
    }

    #[test]
    fn log2_1p_matches_naive_for_moderate_x() {
        for &x in &[0.1, 1.0, 9.0, 1e4] {
            assert!(approx_eq(log2_1p(x), (1.0 + x).log2(), 1e-12));
        }
    }

    #[test]
    fn log2_1p_small_argument() {
        let x = 1e-14;
        assert!(approx_eq(log2_1p(x), x / std::f64::consts::LN_2, 1e-3));
    }

    #[test]
    fn log_sum_exp_stability() {
        // Would overflow naively.
        let v = log_sum_exp(&[1000.0, 1000.0]);
        assert!(approx_eq(v, 1000.0 + 2f64.ln(), 1e-12));
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn binary_entropy_properties() {
        assert_eq!(binary_entropy(0.0), 0.0);
        assert_eq!(binary_entropy(1.0), 0.0);
        assert!(approx_eq(binary_entropy(0.5), 1.0, 1e-12));
        assert!(approx_eq(binary_entropy(0.11), binary_entropy(0.89), 1e-12));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn binary_entropy_rejects_bad_probability() {
        let _ = binary_entropy(1.5);
    }

    #[test]
    fn ln_gamma_reference_values() {
        // Γ(1) = Γ(2) = 1, Γ(1/2) = √π, Γ(5) = 24, Γ(10) = 362880.
        assert!(approx_eq(ln_gamma(1.0), 0.0, 1e-12));
        assert!(approx_eq(ln_gamma(2.0), 0.0, 1e-12));
        assert!(approx_eq(
            ln_gamma(0.5),
            0.5 * std::f64::consts::PI.ln(),
            1e-12
        ));
        assert!(approx_eq(ln_gamma(5.0), 24.0f64.ln(), 1e-12));
        assert!(approx_eq(ln_gamma(10.0), 362880.0f64.ln(), 1e-12));
        // Reflection branch: Γ(0.25) = 3.6256099082219083...
        assert!(approx_eq(
            ln_gamma(0.25),
            3.625_609_908_221_908_f64.ln(),
            1e-11
        ));
    }

    #[test]
    fn gamma_p_exponential_special_case() {
        // a = 1: P(1, x) = 1 − e^{−x} exactly, in both evaluation regimes.
        for &x in &[1e-8_f64, 0.3, 1.0, 1.9, 2.5, 10.0, 50.0] {
            let exact = -(-x).exp_m1();
            assert!(
                approx_eq(gamma_p(1.0, x), exact, 1e-12),
                "P(1,{x}) = {} vs {exact}",
                gamma_p(1.0, x)
            );
        }
    }

    #[test]
    fn gamma_p_erlang_closed_form() {
        // Integer a = 3: P(3, x) = 1 − e^{−x}(1 + x + x²/2).
        for &x in &[0.5_f64, 2.0, 3.5, 8.0, 20.0] {
            let exact = 1.0 - (-x).exp() * (1.0 + x + 0.5 * x * x);
            assert!(
                approx_eq(gamma_p(3.0, x), exact, 1e-11),
                "P(3,{x}) = {} vs {exact}",
                gamma_p(3.0, x)
            );
        }
    }

    #[test]
    fn gamma_p_q_complementary_and_monotone() {
        for &a in &[0.5, 1.0, 2.5, 7.0] {
            let mut last = -1.0;
            for &x in &[0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 12.0, f64::INFINITY] {
                let p = gamma_p(a, x);
                let q = gamma_q(a, x);
                assert!(approx_eq(p + q, 1.0, 1e-10), "a={a} x={x}: {p} + {q}");
                assert!(p >= last, "P must be monotone in x");
                last = p;
            }
        }
    }

    #[test]
    fn gamma_p_deep_tail_keeps_relative_precision() {
        // Half-Gaussian power (a = 1/2) deep in the lower tail:
        // P(1/2, x) = erf(√x), tiny but far above f64 underflow.
        let x = 1e-12_f64;
        let exact = erf(x.sqrt());
        let got = gamma_p(0.5, x);
        assert!(
            (got / exact - 1.0).abs() < 1e-9,
            "P(0.5, 1e-12) = {got} vs erf = {exact}"
        );
        // Upper tail: Q(1/2, x) = erfc(√x) stays accurate where 1 − P would
        // cancel to zero.
        let q = gamma_q(0.5, 40.0);
        let exact_q = erfc(40.0f64.sqrt());
        assert!((q / exact_q - 1.0).abs() < 1e-6, "{q} vs {exact_q}");
    }
}
