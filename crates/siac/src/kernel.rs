//! The 1D SIAC convolution kernel.

use crate::bspline::BSpline;
use ustencil_quadrature::linalg::solve_dense;

/// The SIAC kernel `K^{2k+1, k+1}`: `2k + 1` central B-splines of order
/// `k + 1` on a unit-spaced node lattice, with coefficients solving the
/// moment conditions so that convolution reproduces polynomials of degree
/// `<= 2k`.
///
/// The kernel is *compiled* into a piecewise-polynomial table over its
/// `3k + 1` unit cells: evaluation is a cell lookup plus a Horner step, and
/// the cells are exactly the stencil lattice of the paper's Figure 5 — no
/// quadrature sub-interval ever straddles a kernel breakpoint.
#[derive(Debug, Clone)]
pub struct Kernel1d {
    k: usize,
    /// Left end of the support, `-(3k+1)/2`.
    lo: f64,
    /// Piecewise polynomial in the local cell coordinate `t ∈ [0, 1]`,
    /// row-major `[cell][degree]`, `k + 1` coefficients per cell.
    pp: Vec<f64>,
}

impl Kernel1d {
    /// The symmetric kernel for smoothness parameter `k` (equal to the dG
    /// polynomial degree in the paper's setup).
    ///
    /// ```
    /// use ustencil_siac::Kernel1d;
    /// let kernel = Kernel1d::symmetric(1);
    /// // The classic K^{3,2} coefficients are (-1/12, 7/6, -1/12); at 0
    /// // only the centre hat is non-zero, so K(0) = 7/6.
    /// assert!((kernel.eval(0.0) - 7.0 / 6.0).abs() < 1e-12);
    /// // Even, and supported on the 3k + 1 = 4 unit cells of [-2, 2].
    /// assert!((kernel.eval(0.75) - kernel.eval(-0.75)).abs() < 1e-12);
    /// assert_eq!(kernel.support(), (-2.0, 2.0));
    /// ```
    pub fn symmetric(k: usize) -> Self {
        let spline = BSpline::new(k as u32 + 1);
        let (nodes, coeffs) = spline_coefficients(k);

        // Compile the piecewise polynomial: interpolate K on k+1 points per
        // unit cell (K restricted to a cell is a degree-k polynomial).
        let n_cells = 3 * k + 1;
        let lo = -((3 * k + 1) as f64) / 2.0;
        let deg = k + 1;
        let mut pp = vec![0.0; n_cells * deg];
        let direct = |x: f64| -> f64 {
            nodes
                .iter()
                .zip(&coeffs)
                .map(|(&xg, &c)| c * spline.eval(x - xg))
                .sum()
        };
        for cell in 0..n_cells {
            let x0 = lo + cell as f64;
            let mut vand = vec![0.0; deg * deg];
            let mut vals = vec![0.0; deg];
            for row in 0..deg {
                // Interior sample points avoid breakpoint ambiguity.
                let t = (row as f64 + 0.5) / deg as f64;
                for (col, v) in vand[row * deg..(row + 1) * deg].iter_mut().enumerate() {
                    *v = t.powi(col as i32);
                }
                vals[row] = direct(x0 + t);
            }
            let local =
                solve_dense(&mut vand, &mut vals, deg).expect("cell interpolation is unisolvent");
            pp[cell * deg..(cell + 1) * deg].copy_from_slice(&local);
        }

        Self { k, lo, pp }
    }

    /// Smoothness parameter `k`.
    #[inline]
    pub fn smoothness(&self) -> usize {
        self.k
    }

    /// Number of unit cells of the support, `3k + 1`.
    #[inline]
    pub fn n_cells(&self) -> usize {
        3 * self.k + 1
    }

    /// Support interval `[lo, hi]` in kernel coordinates.
    #[inline]
    pub fn support(&self) -> (f64, f64) {
        (self.lo, self.lo + self.n_cells() as f64)
    }

    /// The compiled piecewise-polynomial table, row-major `[cell][degree]`
    /// with `k + 1` coefficients per unit cell — the raw form lane-batched
    /// evaluators gather from ([`eval`](Self::eval) is the scalar reference
    /// reading of the same table).
    #[inline]
    pub fn piecewise_table(&self) -> &[f64] {
        &self.pp
    }

    /// Kernel value at `x` (kernel coordinates, i.e. physical offset / `h`).
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        let rel = x - self.lo;
        if rel < 0.0 {
            return 0.0;
        }
        let cell = rel as usize;
        if cell >= self.n_cells() {
            return 0.0;
        }
        let t = rel - cell as f64;
        let deg = self.k + 1;
        let poly = &self.pp[cell * deg..(cell + 1) * deg];
        // Horner in the local coordinate.
        let mut acc = poly[deg - 1];
        for &c in poly[..deg - 1].iter().rev() {
            acc = acc * t + c;
        }
        acc
    }
}

/// The lattice nodes `x_γ = -k + γ` and the B-spline coefficients `c_γ` of
/// the smoothness-`k` kernel, solved from its moment conditions.
fn spline_coefficients(k: usize) -> (Vec<f64>, Vec<f64>) {
    let r = 2 * k;
    let spline = BSpline::new(k as u32 + 1);
    let nodes: Vec<f64> = (0..=r).map(|g| -(r as f64) / 2.0 + g as f64).collect();

    // Raw B-spline moments mu_i = ∫ t^i ψ(t) dt.
    let mu: Vec<f64> = (0..=r as u32).map(|i| spline.moment(i)).collect();

    // Moments of each shifted spline: m_j(x_γ) = Σ_i C(j,i) x_γ^{j-i} μ_i.
    let n = r + 1;
    let mut matrix = vec![0.0; n * n];
    let mut rhs = vec![0.0; n];
    rhs[0] = 1.0;
    for j in 0..n {
        for (g, &xg) in nodes.iter().enumerate() {
            let mut m = 0.0;
            let mut binom = 1.0;
            for (i, &mui) in mu.iter().enumerate().take(j + 1) {
                m += binom * xg.powi((j - i) as i32) * mui;
                binom *= (j - i) as f64 / (i + 1) as f64;
            }
            matrix[j * n + g] = m;
        }
    }
    let coeffs = solve_dense(&mut matrix, &mut rhs, n).expect("SIAC moment system is nonsingular");
    (nodes, coeffs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustencil_quadrature::GaussLegendre;

    impl Kernel1d {
        /// Exact `j`-th kernel moment, cell-by-cell Gauss integration.
        fn moment(&self, j: u32) -> f64 {
            let rule = GaussLegendre::with_strength(j as usize + self.k);
            (0..self.n_cells())
                .map(|c| {
                    let a = self.lo + c as f64;
                    rule.integrate_on(a, a + 1.0, |x| x.powi(j as i32) * self.eval(x))
                })
                .sum()
        }

        /// Derivative `K'(x)` of the kernel, from the compiled piecewise
        /// polynomial (exact inside each lattice cell; breakpoint values take
        /// the right-hand limit, irrelevant under integration).
        ///
        /// Used for SIAC *derivative recovery*: filtering a dG field against
        /// `K'` yields an accurate derivative even though the raw field is
        /// discontinuous — integrating by parts,
        /// `d/dx u*(x) = -(1/h) ∫ K'(s) u(x + h s) ds`.
        #[inline]
        pub(crate) fn eval_deriv(&self, x: f64) -> f64 {
            let rel = x - self.lo;
            if rel < 0.0 {
                return 0.0;
            }
            let cell = rel as usize;
            if cell >= self.n_cells() {
                return 0.0;
            }
            let t = rel - cell as f64;
            let deg = self.k + 1;
            let poly = &self.pp[cell * deg..(cell + 1) * deg];
            // Horner on the derivative coefficients d_i = (i+1) * c_{i+1}.
            let mut acc = 0.0;
            for (i, &c) in poly.iter().enumerate().skip(1).rev() {
                acc = acc * t + i as f64 * c;
            }
            acc
        }

        /// Slow reference evaluation straight from the B-spline definition.
        fn eval_direct(&self, x: f64) -> f64 {
            let spline = BSpline::new(self.k as u32 + 1);
            let (nodes, coeffs) = spline_coefficients(self.k);
            nodes
                .iter()
                .zip(&coeffs)
                .map(|(&xg, &c)| c * spline.eval(x - xg))
                .sum()
        }
    }

    #[test]
    fn known_coefficients_for_k1() {
        // Classic K^{3,2} coefficients: (-1/12, 7/6, -1/12).
        let kernel = Kernel1d::symmetric(1);
        let (_, c) = spline_coefficients(kernel.smoothness());
        assert!((c[0] + 1.0 / 12.0).abs() < 1e-12, "{c:?}");
        assert!((c[1] - 7.0 / 6.0).abs() < 1e-12, "{c:?}");
        assert!((c[2] + 1.0 / 12.0).abs() < 1e-12, "{c:?}");
    }

    #[test]
    fn k0_kernel_is_box() {
        let kernel = Kernel1d::symmetric(0);
        assert_eq!(kernel.n_cells(), 1);
        assert!((kernel.eval(0.0) - 1.0).abs() < 1e-13);
        assert_eq!(kernel.eval(0.6), 0.0);
    }

    #[test]
    fn moment_conditions_hold() {
        for k in 0..=3usize {
            let kernel = Kernel1d::symmetric(k);
            assert!(
                (kernel.moment(0) - 1.0).abs() < 1e-11,
                "k={k} mass {}",
                kernel.moment(0)
            );
            for j in 1..=(2 * k as u32) {
                assert!(
                    kernel.moment(j).abs() < 1e-10,
                    "k={k} moment {j} = {}",
                    kernel.moment(j)
                );
            }
        }
    }

    #[test]
    fn symmetric_kernel_is_even() {
        for k in 1..=3usize {
            let kernel = Kernel1d::symmetric(k);
            for i in 1..60 {
                let x = i as f64 * 0.08;
                assert!(
                    (kernel.eval(x) - kernel.eval(-x)).abs() < 1e-11,
                    "k={k} x={x}"
                );
            }
            // Coefficient symmetry c_γ = c_{r-γ}.
            let (_, c) = spline_coefficients(kernel.smoothness());
            for g in 0..c.len() {
                assert!((c[g] - c[c.len() - 1 - g]).abs() < 1e-11);
            }
        }
    }

    #[test]
    fn compiled_form_matches_direct_evaluation() {
        for k in 0..=3usize {
            let kernel = Kernel1d::symmetric(k);
            let (lo, hi) = kernel.support();
            let n = 200;
            for i in 0..n {
                // Skip breakpoints (left/right limit ambiguity).
                let x = lo + (hi - lo) * (i as f64 + 0.37) / n as f64;
                let fast = kernel.eval(x);
                let slow = kernel.eval_direct(x);
                assert!((fast - slow).abs() < 1e-10, "k={k} x={x}: {fast} vs {slow}");
            }
        }
    }

    #[test]
    fn support_width_is_3k_plus_1() {
        for k in 0..=3usize {
            let kernel = Kernel1d::symmetric(k);
            let (lo, hi) = kernel.support();
            assert!((hi - lo - (3 * k + 1) as f64).abs() < 1e-15);
            assert!((lo + hi).abs() < 1e-15, "symmetric support centered");
            assert_eq!(kernel.eval(hi + 0.01), 0.0);
            assert_eq!(kernel.eval(lo - 0.01), 0.0);
        }
    }

    #[test]
    fn convolution_reproduces_polynomials() {
        // u*(x) = ∫ K(s) u(x + h s) ds must equal u(x) for deg(u) <= 2k.
        let h = 0.37;
        for k in 1..=3usize {
            let kernel = Kernel1d::symmetric(k);
            let rule = GaussLegendre::with_strength(3 * k + 2);
            for deg in 0..=(2 * k) {
                let u = |y: f64| (y - 0.3).powi(deg as i32);
                let x = 0.85;
                let mut acc = 0.0;
                for c in 0..kernel.n_cells() {
                    let a = kernel.support().0 + c as f64;
                    acc += rule.integrate_on(a, a + 1.0, |s| kernel.eval(s) * u(x + h * s));
                }
                assert!(
                    (acc - u(x)).abs() < 1e-10,
                    "k={k} deg={deg}: {acc} vs {}",
                    u(x)
                );
            }
        }
    }

    #[test]
    fn degree_2k_plus_1_is_not_reproduced() {
        // Tightness: one degree past the guarantee fails.
        let k = 1;
        let kernel = Kernel1d::symmetric(k);
        let rule = GaussLegendre::with_strength(3 * k + 4);
        let h = 0.5;
        let u = |y: f64| y.powi(2 * k as i32 + 2); // even power: no parity rescue
        let x = 0.8;
        let mut acc = 0.0;
        for c in 0..kernel.n_cells() {
            let a = kernel.support().0 + c as f64;
            acc += rule.integrate_on(a, a + 1.0, |s| kernel.eval(s) * u(x + h * s));
        }
        assert!((acc - u(x)).abs() > 1e-6);
    }

    #[test]
    fn derivative_matches_finite_differences() {
        for k in 1..=3usize {
            let kernel = Kernel1d::symmetric(k);
            let (lo, hi) = kernel.support();
            let fd_h = 1e-6;
            for i in 0..60 {
                // Interior sample points away from breakpoints.
                let x = lo + (hi - lo) * (i as f64 + 0.43) / 60.0;
                let frac = (x - lo).fract();
                if !(1e-3..=1.0 - 1e-3).contains(&frac) {
                    continue;
                }
                let fd = (kernel.eval(x + fd_h) - kernel.eval(x - fd_h)) / (2.0 * fd_h);
                let got = kernel.eval_deriv(x);
                assert!(
                    (got - fd).abs() < 1e-5 * (1.0 + fd.abs()),
                    "k={k} x={x}: {got} vs {fd}"
                );
            }
        }
    }

    #[test]
    fn derivative_integrates_to_zero_and_recovers_mass() {
        // ∫K' = 0 (K vanishes at the support ends) and ∫ x K'(x) dx = -1
        // (integration by parts against ∫K = 1).
        for k in 1..=3usize {
            let kernel = Kernel1d::symmetric(k);
            let rule = GaussLegendre::with_strength(k + 2);
            let (lo, _) = kernel.support();
            let mut m0 = 0.0;
            let mut m1 = 0.0;
            for c in 0..kernel.n_cells() {
                let a = lo + c as f64;
                m0 += rule.integrate_on(a, a + 1.0, |x| kernel.eval_deriv(x));
                m1 += rule.integrate_on(a, a + 1.0, |x| x * kernel.eval_deriv(x));
            }
            assert!(m0.abs() < 1e-10, "k={k}: ∫K' = {m0}");
            assert!((m1 + 1.0).abs() < 1e-10, "k={k}: ∫xK' = {m1}");
        }
    }
}
