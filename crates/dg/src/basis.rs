//! The orthonormal Dubiner modal basis on the reference triangle.
//!
//! Reference element: `{(u, v) : u >= 0, v >= 0, u + v <= 1}`. The basis is
//! the collapsed-coordinate Jacobi construction
//!
//! ```text
//! phi_ij(u, v) = N_ij * P_i(a) * ((1 - b)/2)^i * P_j^{(2i+1,0)}(b),
//! a = 2u/(1 - v) - 1,  b = 2v - 1,
//! ```
//!
//! which is a polynomial of total degree `i + j` and orthogonal over the
//! reference triangle. Normalization constants `N_ij` are computed once by
//! exact quadrature so that the basis is orthonormal; a monomial expansion of
//! every mode is also precomputed (exact interpolation of a known-degree
//! polynomial).

use ustencil_quadrature::gauss::legendre;
use ustencil_quadrature::jacobi::jacobi;
use ustencil_quadrature::linalg::solve_dense;
use ustencil_quadrature::TriangleRule;

/// An orthonormal modal basis of total degree `p` on the reference triangle.
#[derive(Debug, Clone)]
pub struct DubinerBasis {
    p: usize,
    /// Mode index pairs `(i, j)` in storage order.
    modes: Vec<(usize, usize)>,
    /// Normalization constants making each mode unit-norm.
    norms: Vec<f64>,
    /// Monomial expansion of each mode over `u^a v^b` (same exponent order
    /// as `modes`), row-major `[mode][monomial]`.
    monomial: Vec<f64>,
    /// Exponents `(a, b)` of the monomial basis used by `monomial`.
    exponents: Vec<(usize, usize)>,
}

impl DubinerBasis {
    /// Builds the basis of total degree `p`.
    pub fn new(p: usize) -> Self {
        let mut modes = Vec::new();
        for i in 0..=p {
            for j in 0..=(p - i) {
                modes.push((i, j));
            }
        }
        let n = modes.len();

        // Normalize by exact quadrature of each mode's square.
        let rule = TriangleRule::with_strength(2 * p + 2);
        let mut norms = vec![1.0; n];
        for (m, &(i, j)) in modes.iter().enumerate() {
            let sq = rule.integrate_ref(|u, v| {
                let e = eval_raw(i, j, u, v);
                e * e
            });
            norms[m] = 1.0 / sq.sqrt();
        }

        // Monomial expansion: interpolate each mode on a unisolvent lattice.
        let mut exponents = Vec::with_capacity(n);
        for a in 0..=p {
            for b in 0..=(p - a) {
                exponents.push((a, b));
            }
        }
        // Warped interior lattice (strictly inside, avoids the collapsed
        // vertex) is unisolvent for total-degree polynomials.
        let mut nodes = Vec::with_capacity(n);
        let pf = p as f64;
        for a in 0..=p {
            for b in 0..=(p - a) {
                let u = (a as f64 + 1.0 / 3.0) / (pf + 1.0);
                let v = (b as f64 + 1.0 / 3.0) / (pf + 1.0);
                nodes.push((u, v));
            }
        }
        let mut monomial = vec![0.0; n * n];
        for (m, &(i, j)) in modes.iter().enumerate() {
            let mut vand = vec![0.0; n * n];
            let mut rhs = vec![0.0; n];
            for (r, &(u, v)) in nodes.iter().enumerate() {
                for (c, &(a, b)) in exponents.iter().enumerate() {
                    vand[r * n + c] = u.powi(a as i32) * v.powi(b as i32);
                }
                rhs[r] = norms[m] * eval_raw(i, j, u, v);
            }
            let coeffs =
                solve_dense(&mut vand, &mut rhs, n).expect("interpolation lattice is unisolvent");
            monomial[m * n..(m + 1) * n].copy_from_slice(&coeffs);
        }

        Self {
            p,
            modes,
            norms,
            monomial,
            exponents,
        }
    }

    /// The polynomial degree.
    #[inline]
    pub fn degree(&self) -> usize {
        self.p
    }

    /// Number of modes, `(p + 1)(p + 2)/2`.
    #[inline]
    pub fn n_modes(&self) -> usize {
        self.modes.len()
    }

    /// Evaluates mode `m` at reference coordinates `(u, v)`.
    #[inline]
    pub fn eval_mode(&self, m: usize, u: f64, v: f64) -> f64 {
        let (i, j) = self.modes[m];
        self.norms[m] * eval_raw(i, j, u, v)
    }

    /// Evaluates all modes at `(u, v)` into `out` (length `n_modes`).
    pub fn eval_all(&self, u: f64, v: f64, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.n_modes());
        for (m, o) in out.iter_mut().enumerate() {
            *o = self.eval_mode(m, u, v);
        }
    }

    /// Evaluates the modal expansion `sum_m coeffs[m] * phi_m(u, v)`.
    pub fn eval_expansion(&self, coeffs: &[f64], u: f64, v: f64) -> f64 {
        debug_assert_eq!(coeffs.len(), self.n_modes());
        coeffs
            .iter()
            .enumerate()
            .map(|(m, &c)| c * self.eval_mode(m, u, v))
            .sum()
    }

    /// The monomial coefficients of mode `m` over the exponent basis
    /// returned by [`Self::monomial_exponents`].
    pub fn monomial_coefficients(&self, m: usize) -> &[f64] {
        let n = self.n_modes();
        &self.monomial[m * n..(m + 1) * n]
    }

    /// Exponent pairs `(a, b)` of the monomial basis `u^a v^b`.
    pub fn monomial_exponents(&self) -> &[(usize, usize)] {
        &self.exponents
    }
}

/// Unnormalized Dubiner mode `(i, j)` at `(u, v)`.
#[inline]
fn eval_raw(i: usize, j: usize, u: f64, v: f64) -> f64 {
    let b = 2.0 * v - 1.0;
    let one_minus_v = 1.0 - v;
    // Collapsed coordinate; the (1-v)^i factor cancels the singularity, so
    // any finite value of `a` works at the apex when i > 0, and for i == 0
    // the Legendre factor is constant.
    let a = if one_minus_v.abs() < 1e-14 {
        -1.0
    } else {
        2.0 * u / one_minus_v - 1.0
    };
    let pa = legendre(i, a).0;
    let scale = one_minus_v.powi(i as i32); // ((1-b)/2)^i = (1-v)^i
    let pb = jacobi(j, (2 * i + 1) as u32, b);
    pa * scale * pb
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_count() {
        for p in 0..=4 {
            let basis = DubinerBasis::new(p);
            assert_eq!(basis.n_modes(), (p + 1) * (p + 2) / 2);
        }
    }

    #[test]
    fn orthonormality() {
        for p in 1..=3usize {
            let basis = DubinerBasis::new(p);
            let rule = TriangleRule::with_strength(2 * p + 2);
            let n = basis.n_modes();
            for m1 in 0..n {
                for m2 in 0..n {
                    let ip = rule.integrate_ref(|u, v| {
                        basis.eval_mode(m1, u, v) * basis.eval_mode(m2, u, v)
                    });
                    let want = if m1 == m2 { 1.0 } else { 0.0 };
                    assert!((ip - want).abs() < 1e-11, "p={p} <{m1},{m2}> = {ip}");
                }
            }
        }
    }

    #[test]
    fn first_mode_is_constant() {
        let basis = DubinerBasis::new(2);
        // phi_0 = 1/sqrt(area) = sqrt(2) on the unit triangle.
        let expected = 2f64.sqrt();
        for &(u, v) in &[(0.1, 0.1), (0.5, 0.25), (0.0, 0.0), (0.9, 0.05)] {
            assert!((basis.eval_mode(0, u, v) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn monomial_expansion_matches_direct_evaluation() {
        for p in 1..=3usize {
            let basis = DubinerBasis::new(p);
            for m in 0..basis.n_modes() {
                let coeffs = basis.monomial_coefficients(m);
                for &(u, v) in &[(0.05f64, 0.05f64), (0.3, 0.4), (0.7, 0.2), (0.0, 0.95)] {
                    let via_monomials: f64 = coeffs
                        .iter()
                        .zip(basis.monomial_exponents())
                        .map(|(c, &(a, b))| c * u.powi(a as i32) * v.powi(b as i32))
                        .sum();
                    let direct = basis.eval_mode(m, u, v);
                    assert!(
                        (via_monomials - direct).abs() < 1e-9,
                        "p={p} m={m} at ({u},{v}): {via_monomials} vs {direct}"
                    );
                }
            }
        }
    }

    #[test]
    fn apex_evaluation_is_finite() {
        let basis = DubinerBasis::new(3);
        for m in 0..basis.n_modes() {
            let val = basis.eval_mode(m, 0.0, 1.0);
            assert!(val.is_finite(), "mode {m} at apex: {val}");
        }
    }

    #[test]
    fn expansion_evaluation() {
        let basis = DubinerBasis::new(1);
        let coeffs = [1.0, 0.5, -0.25];
        let got = basis.eval_expansion(&coeffs, 0.3, 0.3);
        let want: f64 = (0..3)
            .map(|m| coeffs[m] * basis.eval_mode(m, 0.3, 0.3))
            .sum();
        assert_eq!(got, want);
    }
}
