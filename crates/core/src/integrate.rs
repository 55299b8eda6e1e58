//! The shared integration kernel: exact evaluation of one element's
//! contribution to one stencil.
//!
//! Both evaluation schemes reduce to the same primitive (Eq. 2): clip each
//! stencil lattice square against (an image of) a mesh triangle, fan-
//! triangulate the intersection, and integrate `K_h(p - center) * u(p)` over
//! every sub-triangle. Because lattice squares never straddle a kernel
//! breakpoint and the element polynomial has known degree, a fixed-strength
//! triangle rule makes each integral exact to rounding.

use ustencil_dg::{DgField, DubinerBasis};
use ustencil_geometry::{Aabb, Point2, Triangle, Vec2};
use ustencil_mesh::TriMesh;

/// Highest field degree the kernels hold: their stack-allocated mode arrays
/// and power tables are sized from it, and
/// [`ExecConfig::resolve`](crate::ExecConfig::resolve) rejects anything above.
pub const MAX_DEGREE: usize = 3;

/// Maximum modal coefficients supported without heap allocation: the
/// `(p + 1)(p + 2) / 2` modes of degree [`MAX_DEGREE`].
pub const MAX_MODES: usize = (MAX_DEGREE + 1) * (MAX_DEGREE + 2) / 2;

/// Per-element data gathered once and reused across integrations — the `ED`
/// of Algorithms 2 and 3. Holds the element geometry, the inverse affine
/// map, and the element polynomial in *reference monomial* form for cheap
/// evaluation.
#[derive(Debug, Clone, Copy)]
pub struct ElementData {
    /// Element geometry.
    pub tri: Triangle,
    /// Cached bounding box.
    pub bbox: Aabb,
    /// Monomial coefficients of the element polynomial over `u^a v^b`.
    mono: [f64; MAX_MODES],
    /// Inverse affine map rows: `(u, v) = M (p - origin)`.
    inv: [f64; 4],
    origin: Point2,
    n_modes: usize,
}

impl ElementData {
    /// Gathers element `e`'s data. The caller accounts the memory traffic
    /// (this is the load the per-element scheme amortizes).
    pub fn gather(mesh: &TriMesh, field: &DgField, basis: &DubinerBasis, e: usize) -> Self {
        let n_modes = basis.n_modes();
        let mut ed = Self::gather_geometry(mesh, e, n_modes);

        // Convert the modal expansion to reference monomials.
        for (m, &c) in field.element_coeffs(e).iter().enumerate() {
            for (slot, &mc) in ed
                .mono
                .iter_mut()
                .zip(basis.monomial_coefficients(m))
                .take(n_modes)
            {
                *slot += c * mc;
            }
        }
        ed
    }

    /// Gathers only element `e`'s geometry (polynomial left zero) — the
    /// plan compiler's variant, which keeps the quadrature symbolic and
    /// never touches field coefficients.
    pub fn gather_geometry(mesh: &TriMesh, e: usize, n_modes: usize) -> Self {
        debug_assert!(n_modes <= MAX_MODES);
        let tri = mesh.triangle(e);

        // Inverse affine map.
        let e1 = tri.b - tri.a;
        let e2 = tri.c - tri.a;
        let det = e1.cross(e2);
        let inv = [e2.y / det, -e2.x / det, -e1.y / det, e1.x / det];

        Self {
            tri,
            bbox: tri.aabb(),
            mono: [0.0; MAX_MODES],
            inv,
            origin: tri.a,
            n_modes,
        }
    }

    /// A placeholder value for pre-sized caches; never read before being
    /// overwritten by a real gather.
    pub(crate) fn placeholder() -> Self {
        Self {
            tri: Triangle::new(
                Point2::new(0.0, 0.0),
                Point2::new(1.0, 0.0),
                Point2::new(0.0, 1.0),
            ),
            bbox: Aabb::new(Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)),
            mono: [0.0; MAX_MODES],
            inv: [1.0, 0.0, 0.0, 1.0],
            origin: Point2::new(0.0, 0.0),
            n_modes: 0,
        }
    }

    /// Number of monomial slots in use.
    #[inline]
    pub fn n_modes(&self) -> usize {
        self.n_modes
    }

    /// The element-frame map: `(u, v) = inv · (p - origin)`.
    #[inline]
    pub(crate) fn ref_coords(&self) -> (Point2, &[f64; 4]) {
        (self.origin, &self.inv)
    }

    /// Contracts monomial-power sums against the element polynomial:
    /// `Σ_slot mono[slot] · sums[slot]`.
    #[inline]
    pub(crate) fn dot_mono(&self, sums: &[f64; MAX_MODES]) -> f64 {
        let mut acc = 0.0;
        for (&c, &s) in self.mono[..self.n_modes].iter().zip(sums) {
            acc += c * s;
        }
        acc
    }
}

/// The rule arithmetic of one stencil–element integration.
pub struct IntegrationCtx;

impl IntegrationCtx {
    /// Required rule strength for degree-`p` elements filtered at
    /// smoothness `k`: kernel bi-degree `2k` plus element degree `p`.
    pub const fn required_strength(k: usize, p: usize) -> usize {
        2 * k + p
    }
}

/// Estimated flops of one quadrature-point integrand evaluation.
#[inline]
pub const fn flops_per_quad_eval(k: usize, n_modes: usize) -> u64 {
    // Two 1D kernel Horner evaluations (2k flops each) + product/scale (4),
    // affine map (8), monomial sum (4 per mode), accumulate (2).
    (4 * k + 4 + 8 + 4 * n_modes + 2) as u64
}

/// Estimated flops of one Sutherland–Hodgman triangle/square clip.
#[inline]
pub const fn flops_per_clip() -> u64 {
    // 4 half-plane passes over <= 7 vertices, ~5 flops per vertex test plus
    // occasional intersection construction.
    4 * 7 * 5
}

/// The periodic shifts whose element images can intersect a support
/// rectangle that may overhang the unit square. Returns shifts `(sx, sy)`
/// with each component in `{-1, 0, 1}`; at most 4 when the support is
/// narrower than the domain.
pub fn needed_shifts(support: &ustencil_geometry::Rect) -> impl Iterator<Item = Vec2> + Clone {
    let xs = [
        Some(0.0),
        (support.x0 < 0.0).then_some(-1.0),
        (support.x1 > 1.0).then_some(1.0),
    ];
    let ys = [
        Some(0.0),
        (support.y0 < 0.0).then_some(-1.0),
        (support.y1 > 1.0).then_some(1.0),
    ];
    xs.into_iter()
        .flatten()
        .flat_map(move |sx| ys.into_iter().flatten().map(move |sy| Vec2::new(sx, sy)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{AccumulateSolution, QuadStage, StencilTraversal};
    use crate::metrics::Metrics;
    use ustencil_dg::project_l2;
    use ustencil_mesh::{generate_mesh, MeshClass};
    use ustencil_quadrature::{GaussLegendre, TriangleRule};
    use ustencil_siac::Stencil2d;

    impl ElementData {
        /// Evaluates the element polynomial at physical point `p` (which may lie
        /// outside the element; the polynomial extends globally).
        pub(crate) fn eval(&self, p: Point2, exps: &[(usize, usize)]) -> f64 {
            let d = p - self.origin;
            let u = self.inv[0] * d.x + self.inv[1] * d.y;
            let v = self.inv[2] * d.x + self.inv[3] * d.y;
            // Power tables up to `MAX_DEGREE` (degree <= 3).
            let up: [f64; MAX_DEGREE + 1] = [1.0, u, u * u, u * u * u];
            let vp: [f64; MAX_DEGREE + 1] = [1.0, v, v * v, v * v * v];
            let mut acc = 0.0;
            for (&c, &(a, b)) in self.mono[..self.n_modes].iter().zip(exps) {
                acc += c * up[a] * vp[b];
            }
            acc
        }
    }

    /// Integrates the stencil centered at `center` against the periodic
    /// image `tri + shift` of `elem` through a fresh traversal and staging
    /// buffer, returning the partial value and whether any lattice square
    /// truly intersected the element.
    fn integrate_element_stencil(
        trav: &StencilTraversal<'_>,
        center: Point2,
        elem: &ElementData,
        shift: Vec2,
        metrics: &mut Metrics,
    ) -> (f64, bool) {
        let mut stage = QuadStage::default();
        let mut sink = AccumulateSolution::new();
        let hit = trav.integrate_image(center, elem, shift, &mut stage, &mut sink, metrics);
        (sink.take(), hit)
    }

    #[test]
    fn element_data_eval_matches_field() {
        let mesh = generate_mesh(MeshClass::LowVariance, 60, 2);
        let f = |x: f64, y: f64| 1.0 + x - 2.0 * y + x * y;
        let field = project_l2(&mesh, 2, f, 0);
        let basis = field.basis().clone();
        for e in [0usize, 10, 30] {
            let ed = ElementData::gather(&mesh, &field, &basis, e);
            let tri = mesh.triangle(e);
            for &(u, v) in &[(0.2, 0.2), (0.5, 0.1), (0.1, 0.7)] {
                let p = tri.map_from_unit(u, v);
                let via_ed = ed.eval(p, basis.monomial_exponents());
                let via_field = field.eval_ref(e, u, v);
                assert!(
                    (via_ed - via_field).abs() < 1e-11,
                    "e={e}: {via_ed} vs {via_field}"
                );
            }
        }
    }

    /// The sum of integrals over all elements equals the full convolution,
    /// whose value for a constant field is the constant (kernel has unit
    /// mass).
    #[test]
    fn constant_field_convolves_to_itself() {
        let mesh = generate_mesh(MeshClass::LowVariance, 150, 6);
        let field = project_l2(&mesh, 1, |_, _| 2.5, 0);
        let basis = field.basis().clone();
        let k = 1;
        let h = mesh.max_edge_length();
        let stencil = Stencil2d::symmetric(k, h);
        let rule = TriangleRule::with_strength(IntegrationCtx::required_strength(k, 1));
        let trav =
            StencilTraversal::new(&stencil, &rule, basis.monomial_exponents(), basis.n_modes());

        let center = Point2::new(0.5, 0.5);
        let support = stencil.support_rect(center);
        let mut metrics = Metrics::default();
        let mut total = 0.0;
        for e in 0..mesh.n_triangles() {
            let ed = ElementData::gather(&mesh, &field, &basis, e);
            for shift in needed_shifts(&support) {
                let bb = Aabb::new(ed.bbox.min + shift, ed.bbox.max + shift);
                if support.intersects_aabb(&bb) {
                    total += integrate_element_stencil(&trav, center, &ed, shift, &mut metrics).0;
                }
            }
        }
        assert!(
            (total - 2.5).abs() < 1e-9,
            "convolution of constant: {total}"
        );
        assert!(metrics.subregions > 0);
        assert!(metrics.cell_clips >= metrics.subregions / 6);
    }

    /// Against a 1D-style reference: convolving a linear field reproduces it
    /// at interior points (degree 1 <= 2k).
    #[test]
    fn linear_field_reproduced_at_interior_point() {
        let mesh = generate_mesh(MeshClass::LowVariance, 200, 9);
        let f = |x: f64, y: f64| 0.3 + 1.7 * x - 0.9 * y;
        let field = project_l2(&mesh, 1, f, 0);
        let basis = field.basis().clone();
        let k = 1;
        let h = mesh.max_edge_length();
        let stencil = Stencil2d::symmetric(k, h);
        let rule = TriangleRule::with_strength(IntegrationCtx::required_strength(k, 1));
        let trav =
            StencilTraversal::new(&stencil, &rule, basis.monomial_exponents(), basis.n_modes());

        let center = Point2::new(0.47, 0.53);
        let support = stencil.support_rect(center);
        assert!(
            support.x0 > 0.0 && support.x1 < 1.0 && support.y0 > 0.0 && support.y1 < 1.0,
            "test point must be interior"
        );
        let mut metrics = Metrics::default();
        let mut total = 0.0;
        for e in 0..mesh.n_triangles() {
            let ed = ElementData::gather(&mesh, &field, &basis, e);
            if support.intersects_aabb(&ed.bbox) {
                total += integrate_element_stencil(&trav, center, &ed, Vec2::ZERO, &mut metrics).0;
            }
        }
        let want = f(center.x, center.y);
        assert!(
            (total - want).abs() < 1e-9,
            "reproduction failed: {total} vs {want}"
        );
    }

    #[test]
    fn needed_shifts_interior_is_identity_only() {
        let r = ustencil_geometry::Rect::new(0.2, 0.3, 0.6, 0.7);
        let shifts: Vec<Vec2> = needed_shifts(&r).collect();
        assert_eq!(shifts, vec![Vec2::ZERO]);
    }

    #[test]
    fn needed_shifts_corner_overhang() {
        let r = ustencil_geometry::Rect::new(-0.1, -0.2, 0.3, 0.2);
        let shifts: Vec<Vec2> = needed_shifts(&r).collect();
        assert_eq!(shifts.len(), 4);
        assert!(shifts.contains(&Vec2::new(-1.0, -1.0)));
        assert!(shifts.contains(&Vec2::ZERO));
    }

    #[test]
    fn disjoint_element_contributes_nothing() {
        let mesh = generate_mesh(MeshClass::LowVariance, 100, 3);
        let field = project_l2(&mesh, 1, |x, _| x, 0);
        let basis = field.basis().clone();
        let stencil = Stencil2d::symmetric(1, 0.01);
        let rule = TriangleRule::with_strength(3);
        let trav =
            StencilTraversal::new(&stencil, &rule, basis.monomial_exponents(), basis.n_modes());
        // Element far from the tiny stencil at the opposite corner.
        let e = (0..mesh.n_triangles())
            .find(|&e| mesh.centroid(e).distance(Point2::new(0.9, 0.9)) < 0.2)
            .unwrap();
        let ed = ElementData::gather(&mesh, &field, &basis, e);
        let mut metrics = Metrics::default();
        let (v, hit) =
            integrate_element_stencil(&trav, Point2::new(0.1, 0.1), &ed, Vec2::ZERO, &mut metrics);
        assert_eq!(v, 0.0);
        assert!(!hit);
    }

    /// Cross-check the 2D machinery against a semi-analytic 1D x 1D
    /// reference on a two-triangle mesh covering the square.
    #[test]
    fn matches_tensor_reference_on_simple_mesh() {
        // Field u(x, y) = x * y is bilinear; with p = 2 the projection is
        // exact, and the convolution tensor-factorizes:
        // u*(c) = (K_h * x)(cx) * (K_h * y)(cy) = cx * cy by reproduction.
        let mesh = generate_mesh(MeshClass::StructuredPattern, 2, 0);
        let field = project_l2(&mesh, 2, |x, y| x * y, 0);
        let basis = field.basis().clone();
        let k = 2;
        let h = 0.05; // small enough to stay interior
        let stencil = Stencil2d::symmetric(k, h);
        let rule = TriangleRule::with_strength(IntegrationCtx::required_strength(k, 2));
        let trav =
            StencilTraversal::new(&stencil, &rule, basis.monomial_exponents(), basis.n_modes());
        let center = Point2::new(0.45, 0.55);
        let support = stencil.support_rect(center);
        let mut metrics = Metrics::default();
        let mut total = 0.0;
        for e in 0..mesh.n_triangles() {
            let ed = ElementData::gather(&mesh, &field, &basis, e);
            if support.intersects_aabb(&ed.bbox) {
                total += integrate_element_stencil(&trav, center, &ed, Vec2::ZERO, &mut metrics).0;
            }
        }
        // Sanity: 1D reproduction verified independently via Gauss rules.
        let gl = GaussLegendre::with_strength(3 * k + 2);
        let kern = stencil.kernel();
        let mut conv_x = 0.0;
        for c in 0..kern.n_cells() {
            let a = kern.support().0 + c as f64;
            conv_x += gl.integrate_on(a, a + 1.0, |s| kern.eval(s) * (center.x + h * s));
        }
        assert!((conv_x - center.x).abs() < 1e-12);
        assert!(
            (total - center.x * center.y).abs() < 1e-9,
            "{total} vs {}",
            center.x * center.y
        );
    }
}
