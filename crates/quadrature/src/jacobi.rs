//! Gauss–Jacobi quadrature with weight `(1 - x)^alpha` on `[-1, 1]`.
//!
//! The collapsed-coordinate (Duffy) map from the square to the triangle
//! introduces a `(1 - x)` Jacobian factor; absorbing it into a Gauss–Jacobi
//! rule with `alpha = 1` keeps triangle rules exact with the minimum point
//! count. Only integer `alpha >= 0` (and `beta = 0`) is supported — exactly
//! what the triangle construction needs.

use crate::gauss::GaussLegendre;

/// An `n`-point Gauss–Jacobi rule for `∫ (1-x)^alpha f(x) dx` on `[-1, 1]`,
/// exact when `f` is a polynomial of degree at most `2n - 1`.
#[derive(Debug, Clone)]
pub struct GaussJacobi {
    nodes: Vec<f64>,
    weights: Vec<f64>,
}

/// Evaluates the Jacobi polynomial `P_n^{(alpha, 0)}` at `x` by the
/// three-term recurrence.
pub fn jacobi(n: usize, alpha: u32, x: f64) -> f64 {
    let a = alpha as f64;
    let b = 0.0f64;
    if n == 0 {
        return 1.0;
    }
    let mut p_prev = 1.0;
    let mut p = (a + 1.0) + (a + b + 2.0) * (x - 1.0) / 2.0;
    for k in 2..=n {
        let kf = k as f64;
        let c1 = 2.0 * kf * (kf + a + b) * (2.0 * kf + a + b - 2.0);
        let c2 = (2.0 * kf + a + b - 1.0)
            * ((2.0 * kf + a + b) * (2.0 * kf + a + b - 2.0) * x + a * a - b * b);
        let c3 = 2.0 * (kf + a - 1.0) * (kf + b - 1.0) * (2.0 * kf + a + b);
        let p_next = (c2 * p - c3 * p_prev) / c1;
        p_prev = p;
        p = p_next;
    }
    p
}

/// Finds all `n` roots of `P_n^{(alpha, 0)}` in `(-1, 1)` by interlacing
/// bisection: the roots of `P_k` strictly interlace those of `P_{k-1}`
/// augmented with the interval endpoints.
fn jacobi_roots(n: usize, alpha: u32) -> Vec<f64> {
    let mut roots: Vec<f64> = Vec::with_capacity(n);
    for k in 1..=n {
        let mut brackets = Vec::with_capacity(k + 1);
        brackets.push(-1.0);
        brackets.extend_from_slice(&roots);
        brackets.push(1.0);
        let mut next = Vec::with_capacity(k);
        for w in brackets.windows(2) {
            let (mut lo, mut hi) = (w[0], w[1]);
            let flo = jacobi(k, alpha, lo);
            // Bisection: the sign of P_k alternates between consecutive
            // brackets because exactly one root lies in each interval.
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                let fm = jacobi(k, alpha, mid);
                if (fm > 0.0) == (flo > 0.0) {
                    lo = mid;
                } else {
                    hi = mid;
                }
                if hi - lo < 1e-16 {
                    break;
                }
            }
            next.push(0.5 * (lo + hi));
        }
        roots = next;
    }
    roots
}

impl GaussJacobi {
    /// Builds the `n`-point rule for weight `(1 - x)^alpha`.
    ///
    /// Weights are recovered by requiring exactness on the Legendre basis
    /// `P_0 .. P_{n-1}` (a well-conditioned dense solve for the small `n`
    /// used in practice).
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn new(n: usize, alpha: u32) -> Self {
        assert!(n >= 1, "Gauss-Jacobi rule needs at least one point");
        let nodes = jacobi_roots(n, alpha);

        // Moments of the Legendre basis against the Jacobi weight, computed
        // exactly with a Gauss-Legendre rule of sufficient strength.
        let aux = GaussLegendre::with_strength(n - 1 + alpha as usize);
        let mut rhs = vec![0.0; n];
        for (k, r) in rhs.iter_mut().enumerate() {
            *r = aux.integrate(|x| (1.0 - x).powi(alpha as i32) * crate::gauss::legendre(k, x).0);
        }
        let mut matrix = vec![0.0; n * n];
        for k in 0..n {
            for (i, &x) in nodes.iter().enumerate() {
                matrix[k * n + i] = crate::gauss::legendre(k, x).0;
            }
        }
        let weights = crate::linalg::solve_dense(&mut matrix, &mut rhs, n)
            .expect("Gauss-Jacobi weight system is nonsingular");

        Self { nodes, weights }
    }

    /// Smallest rule exact for polynomial factors of the given degree.
    pub fn with_strength(degree: usize, alpha: u32) -> Self {
        Self::new(degree / 2 + 1, alpha)
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the rule has no points (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Nodes on `(-1, 1)`, ascending.
    #[inline]
    pub fn nodes(&self) -> &[f64] {
        &self.nodes
    }

    /// Weights (positive; sum to `∫ (1-x)^alpha dx = 2^{alpha+1}/(alpha+1)`).
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl GaussJacobi {
        /// Approximates `∫ (1-x)^alpha f(x) dx` over `[-1, 1]`; exact for
        /// polynomial `f` of degree `<= 2n - 1`.
        fn integrate<F: FnMut(f64) -> f64>(&self, mut f: F) -> f64 {
            self.nodes
                .iter()
                .zip(&self.weights)
                .map(|(&x, &w)| w * f(x))
                .sum()
        }
    }

    /// Reference: integral of (1-x)^alpha x^k over [-1,1] by high-order
    /// Gauss-Legendre (exact for polynomials).
    fn reference(alpha: u32, k: u32) -> f64 {
        GaussLegendre::with_strength((alpha + k) as usize)
            .integrate(|x| (1.0 - x).powi(alpha as i32) * x.powi(k as i32))
    }

    #[test]
    fn alpha_zero_matches_gauss_legendre() {
        let gj = GaussJacobi::new(5, 0);
        let gl = GaussLegendre::new(5);
        for (a, b) in gj.nodes().iter().zip(gl.nodes()) {
            assert!((a - b).abs() < 1e-12);
        }
        for (a, b) in gj.weights().iter().zip(gl.weights()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn exactness_alpha_one() {
        for n in 1..=10usize {
            let rule = GaussJacobi::new(n, 1);
            for k in 0..=(2 * n - 1) as u32 {
                let got = rule.integrate(|x| x.powi(k as i32));
                let want = reference(1, k);
                assert!((got - want).abs() < 1e-12, "n={n} k={k}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn exactness_alpha_two() {
        let rule = GaussJacobi::new(6, 2);
        for k in 0..=11u32 {
            let got = rule.integrate(|x| x.powi(k as i32));
            assert!((got - reference(2, k)).abs() < 1e-12);
        }
    }

    #[test]
    fn weights_positive_sum_correct() {
        for alpha in 0..=2u32 {
            for n in [1usize, 3, 8] {
                let rule = GaussJacobi::new(n, alpha);
                assert!(rule.weights().iter().all(|&w| w > 0.0));
                let s: f64 = rule.weights().iter().sum();
                let want = 2f64.powi(alpha as i32 + 1) / (alpha as f64 + 1.0);
                assert!((s - want).abs() < 1e-12, "alpha={alpha} n={n}");
            }
        }
    }

    #[test]
    fn nodes_interior_and_sorted() {
        let rule = GaussJacobi::new(9, 1);
        let x = rule.nodes();
        assert!(x.windows(2).all(|w| w[0] < w[1]));
        assert!(x.iter().all(|&v| v > -1.0 && v < 1.0));
    }

    #[test]
    fn jacobi_polynomial_known_value() {
        // P_1^{(1,0)}(x) = 2 + 3(x-1)/2 = (3x + 1)/2.
        for &x in &[-0.7, 0.0, 0.3, 0.9] {
            assert!((jacobi(1, 1, x) - (3.0 * x + 1.0) / 2.0).abs() < 1e-14);
        }
    }
}
