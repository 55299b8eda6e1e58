//! Quadrature over triangles via collapsed (Duffy) coordinates.

use crate::gauss::GaussLegendre;
use crate::jacobi::GaussJacobi;

/// A quadrature rule over the reference unit triangle
/// `{(u, v) : u >= 0, v >= 0, u + v <= 1}`.
///
/// Constructed as the tensor product of a Gauss–Legendre rule in the
/// collapsed direction and a Gauss–Jacobi (`alpha = 1`) rule that absorbs the
/// Duffy Jacobian `(1 - t)`, so a rule of strength `d` integrates every
/// polynomial of total degree `<= d` exactly with `(d/2 + 1)^2` points.
#[derive(Debug, Clone)]
pub struct TriangleRule {
    strength: usize,
    /// Reference coordinates `(u, v)` of each quadrature point.
    points: Vec<(f64, f64)>,
    /// Reference weights; sum to the reference area `1/2`.
    weights: Vec<f64>,
}

impl TriangleRule {
    /// Builds the smallest collapsed-coordinate rule exact for total degree
    /// `strength`.
    pub fn with_strength(strength: usize) -> Self {
        let gl = GaussLegendre::with_strength(strength);
        let gj = GaussJacobi::with_strength(strength, 1);
        let mut points = Vec::with_capacity(gl.len() * gj.len());
        let mut weights = Vec::with_capacity(gl.len() * gj.len());
        for (&xt, &wt) in gj.nodes().iter().zip(gj.weights()) {
            // t in [0, 1]; Jacobi weight (1 - x) already accounts for the
            // Duffy factor (1 - t) = (1 - x)/2.
            let t = 0.5 * (1.0 + xt);
            for (&xs, &ws) in gl.nodes().iter().zip(gl.weights()) {
                let s = 0.5 * (1.0 + xs);
                // u = s (1 - t), v = t maps the square onto the triangle.
                points.push((s * (1.0 - t), t));
                // d(u,v) = (1-t) ds dt; ds = dxs/2, dt = dxt/2, and the
                // (1-t) = (1-xt)/2 factor lives inside the Jacobi weight wt,
                // contributing an extra 1/2.
                weights.push(ws * wt * 0.125);
            }
        }
        Self {
            strength,
            points,
            weights,
        }
    }

    /// The total polynomial degree integrated exactly.
    #[inline]
    pub fn strength(&self) -> usize {
        self.strength
    }

    /// Number of quadrature points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the rule has no points (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Reference-triangle points `(u, v)`.
    #[inline]
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Reference weights (positive; sum to `1/2`).
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Integrates `f(u, v)` over the reference triangle.
    pub fn integrate_ref<F: FnMut(f64, f64) -> f64>(&self, mut f: F) -> f64 {
        self.points
            .iter()
            .zip(&self.weights)
            .map(|(&(u, v), &w)| w * f(u, v))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustencil_geometry::{Point2, Triangle};

    impl TriangleRule {
        /// Integrates `f(x, y)` over an arbitrary physical triangle by
        /// mapping the reference rule through the element's affine map.
        fn integrate_physical<F: FnMut(f64, f64) -> f64>(&self, tri: &Triangle, mut f: F) -> f64 {
            let jac = tri.jacobian().abs();
            if jac == 0.0 {
                return 0.0;
            }
            let sum: f64 = self
                .points
                .iter()
                .zip(&self.weights)
                .map(|(&(u, v), &w)| {
                    let p = tri.map_from_unit(u, v);
                    w * f(p.x, p.y)
                })
                .sum();
            // Reference weights carry the reference measure; the affine map
            // scales area by |J| (reference triangle area embedded in
            // weights).
            sum * jac
        }
    }

    /// Exact integral of `u^i v^j` over the reference unit triangle:
    /// `i! j! / (i + j + 2)!`.
    fn exact_monomial(i: u32, j: u32) -> f64 {
        fn fact(n: u32) -> f64 {
            (1..=n).map(|k| k as f64).product()
        }
        fact(i) * fact(j) / fact(i + j + 2)
    }

    #[test]
    fn weights_sum_to_reference_area() {
        for d in 0..12 {
            let rule = TriangleRule::with_strength(d);
            let s: f64 = rule.weights().iter().sum();
            assert!((s - 0.5).abs() < 1e-13, "strength {d}: {s}");
        }
    }

    #[test]
    fn points_inside_reference_triangle() {
        let rule = TriangleRule::with_strength(9);
        for &(u, v) in rule.points() {
            assert!(u >= 0.0 && v >= 0.0 && u + v <= 1.0 + 1e-14);
        }
    }

    #[test]
    fn exactness_on_monomials() {
        for d in 0..=10usize {
            let rule = TriangleRule::with_strength(d);
            for i in 0..=d as u32 {
                for j in 0..=(d as u32 - i) {
                    let got = rule.integrate_ref(|u, v| u.powi(i as i32) * v.powi(j as i32));
                    let want = exact_monomial(i, j);
                    assert!(
                        (got - want).abs() < 1e-14,
                        "d={d} i={i} j={j}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn physical_constant_integral_is_area() {
        let tri = Triangle::new(
            Point2::new(1.0, 1.0),
            Point2::new(4.0, 2.0),
            Point2::new(2.0, 5.0),
        );
        let rule = TriangleRule::with_strength(2);
        let got = rule.integrate_physical(&tri, |_, _| 1.0);
        assert!((got - tri.area()).abs() < 1e-13);
    }

    #[test]
    fn physical_linear_integral() {
        // Integral of x over the unit right triangle = 1/6.
        let tri = Triangle::new(
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.0, 1.0),
        );
        let rule = TriangleRule::with_strength(1);
        let got = rule.integrate_physical(&tri, |x, _| x);
        assert!((got - 1.0 / 6.0).abs() < 1e-14);
    }

    #[test]
    fn physical_polynomial_invariance_under_vertex_permutation() {
        let a = Point2::new(0.3, 0.1);
        let b = Point2::new(1.2, 0.4);
        let c = Point2::new(0.7, 1.5);
        let f = |x: f64, y: f64| 3.0 * x * x * y - 2.0 * y * y + x + 1.0;
        let rule = TriangleRule::with_strength(3);
        let i1 = rule.integrate_physical(&Triangle::new(a, b, c), f);
        let i2 = rule.integrate_physical(&Triangle::new(b, c, a), f);
        let i3 = rule.integrate_physical(&Triangle::new(c, a, b), f);
        let i4 = rule.integrate_physical(&Triangle::new(a, c, b), f); // flipped
        assert!((i1 - i2).abs() < 1e-13);
        assert!((i1 - i3).abs() < 1e-13);
        assert!((i1 - i4).abs() < 1e-13);
    }

    #[test]
    fn degenerate_triangle_integrates_to_zero() {
        let tri = Triangle::new(
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(2.0, 2.0),
        );
        let rule = TriangleRule::with_strength(4);
        assert_eq!(rule.integrate_physical(&tri, |x, y| x + y), 0.0);
    }

    #[test]
    fn point_count_matches_formula() {
        for d in [0usize, 1, 2, 5, 9] {
            let rule = TriangleRule::with_strength(d);
            let n = d / 2 + 1;
            assert_eq!(rule.len(), n * n);
        }
    }
}
