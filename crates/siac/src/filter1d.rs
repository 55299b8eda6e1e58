//! A complete 1D SIAC filter over line data — the setting in which the
//! post-processor is usually introduced (Section 2.2's one-dimensional
//! formula), kept here both as executable documentation of the method and
//! as an independent cross-check of the 2D tensor-product machinery.
//!
//! The 1D "mesh" is a periodic partition of `[0, 1]` into intervals; the dG
//! field stores Legendre modal coefficients per interval; filtering applies
//! `u*(x) = (1/h) ∫ K((y - x)/h) u(y) dy` with exact per-piece Gauss
//! integration (split at both kernel breaks and element boundaries). The
//! whole module is test code: nothing outside its tests evaluates a line
//! field.

use ustencil_quadrature::gauss::legendre;
use ustencil_quadrature::GaussLegendre;

/// A periodic 1D dG field on `[0, 1]`: `n` uniform intervals, Legendre
/// modal coefficients of degree `p` per interval (orthonormal on the
/// reference interval `[-1, 1]`).
#[derive(Debug, Clone)]
pub struct LineField {
    p: usize,
    n: usize,
    coeffs: Vec<f64>,
}

/// Orthonormal Legendre basis value: `sqrt((2m+1)/2) P_m(r)` on `[-1, 1]`.
#[inline]
fn phi(m: usize, r: f64) -> f64 {
    ((2 * m + 1) as f64 / 2.0).sqrt() * legendre(m, r).0
}

impl LineField {
    /// L2-projects `f` onto the degree-`p` dG space over `n` uniform
    /// intervals.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn project<F: Fn(f64) -> f64>(n: usize, p: usize, f: F, extra_strength: usize) -> Self {
        assert!(n > 0, "need at least one interval");
        let rule = GaussLegendre::with_strength(2 * p + extra_strength);
        let h = 1.0 / n as f64;
        let mut coeffs = vec![0.0; n * (p + 1)];
        for e in 0..n {
            let x0 = e as f64 * h;
            let c = &mut coeffs[e * (p + 1)..(e + 1) * (p + 1)];
            for (&r, &w) in rule.nodes().iter().zip(rule.weights()) {
                let x = x0 + 0.5 * (r + 1.0) * h;
                let fx = f(x) * w;
                for (m, cm) in c.iter_mut().enumerate() {
                    *cm += fx * phi(m, r);
                }
            }
        }
        Self { p, n, coeffs }
    }

    /// Polynomial degree.
    #[inline]
    pub fn degree(&self) -> usize {
        self.p
    }

    /// Interval width.
    #[inline]
    pub fn h(&self) -> f64 {
        1.0 / self.n as f64
    }

    /// Evaluates the (discontinuous) field at `x ∈ [0, 1)`; the periodic
    /// extension is used outside.
    pub fn eval(&self, x: f64) -> f64 {
        let xw = x - x.floor();
        let h = self.h();
        let e = ((xw / h) as usize).min(self.n - 1);
        let r = 2.0 * (xw - e as f64 * h) / h - 1.0;
        let c = &self.coeffs[e * (self.p + 1)..(e + 1) * (self.p + 1)];
        c.iter().enumerate().map(|(m, &cm)| cm * phi(m, r)).sum()
    }

    /// L2 error against `f` over `[0, 1]`.
    pub fn l2_error<F: Fn(f64) -> f64>(&self, f: F, extra_strength: usize) -> f64 {
        let rule = GaussLegendre::with_strength(2 * self.p + extra_strength);
        let h = self.h();
        let mut acc = 0.0;
        for e in 0..self.n {
            let x0 = e as f64 * h;
            acc += 0.5
                * h
                * rule.integrate(|r| {
                    let x = x0 + 0.5 * (r + 1.0) * h;
                    let d = self.eval(x) - f(x);
                    d * d
                });
        }
        acc.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Kernel1d;

    /// Applies the SIAC kernel to a periodic 1D dG field at one point, with
    /// exact integration: the convolution integral is split at every kernel
    /// break *and* every element boundary, so each Gauss panel sees a single
    /// polynomial.
    fn filter_point(field: &LineField, kernel: &Kernel1d, h: f64, x: f64) -> f64 {
        // u*(x) = ∫ K(s) u(x + h s) ds over the kernel support.
        let (lo, hi) = kernel.support();
        // Breakpoints in s: kernel cell edges and element boundaries mapped to
        // s = (y - x)/h.
        let mut breaks: Vec<f64> = (0..=kernel.n_cells()).map(|c| lo + c as f64).collect();
        let eh = field.h();
        // Element boundaries y = k * eh intersecting [x + h*lo, x + h*hi].
        let y_lo = x + h * lo;
        let y_hi = x + h * hi;
        let k0 = (y_lo / eh).floor() as i64;
        let k1 = (y_hi / eh).ceil() as i64;
        for k in k0..=k1 {
            let s = (k as f64 * eh - x) / h;
            if s > lo && s < hi {
                breaks.push(s);
            }
        }
        breaks.sort_by(f64::total_cmp);
        breaks.dedup_by(|a, b| (*a - *b).abs() < 1e-14);

        // Panel degree: kernel piece (degree k) times field piece (degree p).
        let rule = GaussLegendre::with_strength(kernel.smoothness() + field.degree());
        breaks
            .windows(2)
            .map(|w| rule.integrate_on(w[0], w[1], |s| kernel.eval(s) * field.eval(x + h * s)))
            .sum()
    }

    /// Filters the field at a uniform lattice of `m` sample points, returning
    /// `(x_i, u*(x_i))` pairs.
    fn filter_uniform(field: &LineField, kernel: &Kernel1d, h: f64, m: usize) -> Vec<(f64, f64)> {
        (0..m)
            .map(|i| {
                let x = (i as f64 + 0.5) / m as f64;
                (x, filter_point(field, kernel, h, x))
            })
            .collect()
    }

    /// SIAC **derivative recovery**: the derivative of the filtered solution,
    /// `(u*)'(x) = -(1/h) ∫ K'(s) u(x + h s) ds` (integration by parts; the
    /// kernel vanishes at its support ends). This extracts an accurate
    /// derivative from a *discontinuous* dG field, whose raw elementwise
    /// derivative is an order less accurate and undefined at interfaces.
    fn filter_derivative_point(field: &LineField, kernel: &Kernel1d, h: f64, x: f64) -> f64 {
        let (lo, hi) = kernel.support();
        let mut breaks: Vec<f64> = (0..=kernel.n_cells()).map(|c| lo + c as f64).collect();
        let eh = field.h();
        let y_lo = x + h * lo;
        let y_hi = x + h * hi;
        let k0 = (y_lo / eh).floor() as i64;
        let k1 = (y_hi / eh).ceil() as i64;
        for k in k0..=k1 {
            let s = (k as f64 * eh - x) / h;
            if s > lo && s < hi {
                breaks.push(s);
            }
        }
        breaks.sort_by(f64::total_cmp);
        breaks.dedup_by(|a, b| (*a - *b).abs() < 1e-14);

        let rule = GaussLegendre::with_strength(kernel.smoothness() + field.degree());
        let sum: f64 = breaks
            .windows(2)
            .map(|w| {
                rule.integrate_on(w[0], w[1], |s| kernel.eval_deriv(s) * field.eval(x + h * s))
            })
            .sum();
        -sum / h
    }

    const TAU: f64 = std::f64::consts::TAU;

    #[test]
    fn projection_reproduces_polynomials() {
        let f = |x: f64| 1.0 - 3.0 * x + x * x;
        let field = LineField::project(7, 2, f, 0);
        for i in 0..50 {
            let x = i as f64 / 50.0;
            assert!((field.eval(x) - f(x)).abs() < 1e-12, "x={x}");
        }
        assert!(field.l2_error(f, 2) < 1e-13);
    }

    #[test]
    fn projection_converges_at_p_plus_one() {
        let f = |x: f64| (TAU * x).sin();
        for p in 1..=2usize {
            let e1 = LineField::project(8, p, f, 6).l2_error(f, 6);
            let e2 = LineField::project(16, p, f, 6).l2_error(f, 6);
            let rate = (e1 / e2).log2();
            assert!(rate > p as f64 + 0.7, "p={p} rate {rate}");
        }
    }

    #[test]
    fn filtering_is_exact_on_global_polynomials() {
        // Projection of a degree-<=p polynomial is the polynomial itself;
        // the kernel reproduces up to degree 2p; so filtering is exact at
        // interior points.
        for p in 1..=3usize {
            let f = move |x: f64| match p {
                1 => 0.5 + x,
                2 => 0.5 + x - 0.3 * x * x,
                _ => 0.5 + x - 0.3 * x * x + 0.1 * x * x * x,
            };
            let field = LineField::project(20, p, f, 0);
            let kernel = Kernel1d::symmetric(p);
            let h = field.h();
            // Stay far enough from 0/1 that the stencil doesn't wrap (the
            // field is globally polynomial, not periodic).
            let half_support = (3 * p + 1) as f64 / 2.0 * h;
            for &x in &[0.4, 0.5, 0.55] {
                assert!(half_support < 0.35);
                let got = filter_point(&field, &kernel, h, x);
                assert!((got - f(x)).abs() < 1e-10, "p={p} x={x}: {got} vs {}", f(x));
            }
        }
    }

    #[test]
    fn siac_superconvergence_in_1d() {
        // The classic result: dG projection error is O(h^{p+1}) but the
        // filtered error at points is O(h^{2p+1}) on uniform periodic
        // meshes.
        let f = |x: f64| (TAU * x).sin();
        let p = 1;
        let kernel = Kernel1d::symmetric(p);
        let mut filtered = Vec::new();
        let mut raw = Vec::new();
        for n in [16usize, 32] {
            let field = LineField::project(n, p, f, 6);
            raw.push(field.l2_error(f, 6));
            let samples = filter_uniform(&field, &kernel, field.h(), 4 * n);
            let rms = (samples
                .iter()
                .map(|&(x, v)| (v - f(x)).powi(2))
                .sum::<f64>()
                / samples.len() as f64)
                .sqrt();
            filtered.push(rms);
        }
        let raw_rate = (raw[0] / raw[1]).log2();
        let fil_rate = (filtered[0] / filtered[1]).log2();
        assert!(raw_rate > 1.6 && raw_rate < 2.4, "raw rate {raw_rate}");
        assert!(
            fil_rate > 2.6,
            "superconvergence: expected ~{} got {fil_rate}",
            2 * p + 1
        );
        assert!(filtered[1] < raw[1], "filtering must reduce error");
    }

    #[test]
    fn derivative_recovery_is_exact_on_polynomials() {
        // (u*)' of a projected polynomial of degree <= 2k equals u' exactly
        // at interior points: differentiate the reproduction identity.
        let p = 2;
        let f = |x: f64| 0.5 + x - 0.3 * x * x;
        let df = |x: f64| 1.0 - 0.6 * x;
        let field = LineField::project(20, p, f, 0);
        let kernel = Kernel1d::symmetric(p);
        let h = field.h();
        for &x in &[0.4, 0.5, 0.6] {
            let got = filter_derivative_point(&field, &kernel, h, x);
            assert!((got - df(x)).abs() < 1e-9, "x={x}: {got} vs {}", df(x));
        }
    }

    #[test]
    fn derivative_recovery_beats_raw_derivative_on_sine() {
        // The raw dG derivative of a P1 field is piecewise constant (first
        // order); the recovered derivative converges much faster.
        let f = |x: f64| (TAU * x).sin();
        let df = |x: f64| TAU * (TAU * x).cos();
        let p = 1;
        let kernel = Kernel1d::symmetric(p);
        let mut errs = Vec::new();
        for n in [16usize, 32] {
            let field = LineField::project(n, p, f, 6);
            let h = field.h();
            let m = 4 * n;
            let rms = ((0..m)
                .map(|i| {
                    let x = (i as f64 + 0.5) / m as f64;
                    (filter_derivative_point(&field, &kernel, h, x) - df(x)).powi(2)
                })
                .sum::<f64>()
                / m as f64)
                .sqrt();
            errs.push(rms);
        }
        let rate = (errs[0] / errs[1]).log2();
        assert!(
            rate > 1.8,
            "recovered-derivative rate {rate} (errs {errs:?})"
        );
        // Raw P1 derivative error is O(h) and roughly TAU^2*h in magnitude;
        // the recovered one must be far below it on the finer mesh.
        let raw_scale = TAU * TAU / 32.0;
        assert!(
            errs[1] < raw_scale / 5.0,
            "recovered {} should beat raw-derivative scale {}",
            errs[1],
            raw_scale
        );
    }

    #[test]
    fn filtered_constant_is_constant() {
        let field = LineField::project(9, 1, |_| 4.0, 0);
        let kernel = Kernel1d::symmetric(1);
        for &x in &[0.0, 0.13, 0.5, 0.99] {
            let got = filter_point(&field, &kernel, field.h(), x);
            assert!((got - 4.0).abs() < 1e-11, "x={x}: {got}");
        }
    }

    #[test]
    fn periodic_wrap_in_1d() {
        // A periodic sine filtered right at the boundary uses the wrap; the
        // result should be as accurate as in the middle.
        let f = |x: f64| (TAU * x).sin() + 1.0;
        let field = LineField::project(32, 2, f, 6);
        let kernel = Kernel1d::symmetric(2);
        let h = field.h();
        let err_boundary = (filter_point(&field, &kernel, h, 0.01) - f(0.01)).abs();
        let err_middle = (filter_point(&field, &kernel, h, 0.51) - f(0.51)).abs();
        assert!(
            err_boundary < 100.0 * err_middle + 1e-12,
            "boundary {err_boundary:e} vs middle {err_middle:e}"
        );
    }
}
