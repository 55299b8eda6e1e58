//! Central B-splines.

use ustencil_quadrature::GaussLegendre;

/// The central B-spline `ψ^{(n)}` of order `n` (polynomial degree `n - 1`),
/// supported on `[-n/2, n/2]` with unit integral.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BSpline {
    order: u32,
}

impl BSpline {
    /// B-spline of the given order (`>= 1`).
    ///
    /// # Panics
    /// Panics for order 0.
    pub fn new(order: u32) -> Self {
        assert!(order >= 1, "B-spline order must be at least 1");
        Self { order }
    }

    /// Polynomial degree of each piece.
    #[inline]
    pub fn degree(&self) -> u32 {
        self.order - 1
    }

    /// Half-width of the support: the spline vanishes outside
    /// `[-order/2, order/2]`.
    #[inline]
    pub fn support_radius(&self) -> f64 {
        self.order as f64 / 2.0
    }

    /// Evaluates `ψ^{(n)}(x)` by the central Cox–de Boor recurrence
    ///
    /// `(n-1) ψ_n(x) = (x + n/2) ψ_{n-1}(x + 1/2) + (n/2 - x) ψ_{n-1}(x - 1/2)`.
    ///
    /// Pieces meet with half-open `[lo, hi)` semantics, so breakpoint values
    /// take the right-hand limit (irrelevant under integration).
    pub fn eval(&self, x: f64) -> f64 {
        eval_rec(self.order, x)
    }

    /// The `order + 1` breakpoints of the piecewise polynomial:
    /// `-n/2, -n/2 + 1, ..., n/2`.
    pub fn breakpoints(&self) -> Vec<f64> {
        let half = self.support_radius();
        (0..=self.order).map(|j| -half + j as f64).collect()
    }

    /// Exact `j`-th moment `∫ x^j ψ(x) dx`, integrated piece by piece with
    /// Gauss rules of sufficient strength.
    pub fn moment(&self, j: u32) -> f64 {
        let rule = GaussLegendre::with_strength((j + self.degree()) as usize);
        let breaks = self.breakpoints();
        breaks
            .windows(2)
            .map(|w| rule.integrate_on(w[0], w[1], |x| x.powi(j as i32) * self.eval(x)))
            .sum()
    }
}

fn eval_rec(order: u32, x: f64) -> f64 {
    if order == 1 {
        // Indicator of [-1/2, 1/2).
        return if (-0.5..0.5).contains(&x) { 1.0 } else { 0.0 };
    }
    let n = order as f64;
    let half = n / 2.0;
    if !(-half..half).contains(&x) {
        return 0.0;
    }
    ((x + half) * eval_rec(order - 1, x + 0.5) + (half - x) * eval_rec(order - 1, x - 0.5))
        / (n - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_one_is_box() {
        let b = BSpline::new(1);
        assert_eq!(b.eval(0.0), 1.0);
        assert_eq!(b.eval(0.49), 1.0);
        assert_eq!(b.eval(0.51), 0.0);
        assert_eq!(b.eval(-0.5), 1.0); // half-open left-closed
        assert_eq!(b.eval(0.5), 0.0);
    }

    #[test]
    fn order_two_is_hat() {
        let b = BSpline::new(2);
        assert!((b.eval(0.0) - 1.0).abs() < 1e-15);
        assert!((b.eval(0.5) - 0.5).abs() < 1e-15);
        assert!((b.eval(-0.75) - 0.25).abs() < 1e-15);
        assert_eq!(b.eval(1.0), 0.0);
        assert_eq!(b.eval(-1.1), 0.0);
    }

    #[test]
    fn order_three_known_values() {
        // Quadratic B-spline: ψ(0) = 3/4, ψ(±1) = 1/8.
        let b = BSpline::new(3);
        assert!((b.eval(0.0) - 0.75).abs() < 1e-15);
        assert!((b.eval(1.0) - 0.125).abs() < 1e-14);
        assert!((b.eval(-1.0) - 0.125).abs() < 1e-14);
        assert_eq!(b.eval(1.5), 0.0);
    }

    #[test]
    fn unit_integral_for_all_orders() {
        for order in 1..=6 {
            let b = BSpline::new(order);
            assert!(
                (b.moment(0) - 1.0).abs() < 1e-13,
                "order {order}: {}",
                b.moment(0)
            );
        }
    }

    #[test]
    fn odd_moments_vanish_by_symmetry() {
        for order in 1..=5 {
            let b = BSpline::new(order);
            for j in [1u32, 3, 5] {
                assert!(b.moment(j).abs() < 1e-13, "order {order} moment {j}");
            }
        }
    }

    #[test]
    fn second_moment_is_order_over_twelve() {
        // Var of the sum of n independent U(-1/2, 1/2) is n/12.
        for order in 1..=5u32 {
            let b = BSpline::new(order);
            let want = order as f64 / 12.0;
            assert!(
                (b.moment(2) - want).abs() < 1e-13,
                "order {order}: {} vs {want}",
                b.moment(2)
            );
        }
    }

    #[test]
    fn symmetry_of_evaluation() {
        for order in 1..=5 {
            let b = BSpline::new(order);
            for i in 1..40 {
                let x = i as f64 * 0.07;
                assert!(
                    (b.eval(x) - b.eval(-x)).abs() < 1e-14,
                    "order {order} x={x}"
                );
            }
        }
    }

    #[test]
    fn support_and_breakpoints() {
        let b = BSpline::new(4);
        assert_eq!(b.support_radius(), 2.0);
        assert_eq!(b.breakpoints(), vec![-2.0, -1.0, 0.0, 1.0, 2.0]);
        assert_eq!(b.eval(2.0), 0.0);
        assert!(b.eval(1.999) > 0.0);
    }

    #[test]
    fn partition_of_unity_on_integer_shifts() {
        // Central B-splines shifted by integers sum to 1 — for even orders
        // at every x, for odd orders at x shifted by 1/2 alignment too; test
        // even order on generic points.
        let b = BSpline::new(4);
        for i in 0..20 {
            let x = -1.0 + i as f64 * 0.1;
            let sum: f64 = (-5..=5).map(|s| b.eval(x - s as f64)).sum();
            assert!((sum - 1.0).abs() < 1e-13, "x={x} sum={sum}");
        }
    }

    #[test]
    #[should_panic(expected = "order must be at least 1")]
    fn zero_order_panics() {
        let _ = BSpline::new(0);
    }
}
