//! The traversal driver: the one copy of the candidate-gather /
//! halo-shift / clip / fan-triangulate / quadrature loop.
//!
//! [`StencilTraversal`] owns the geometry pipeline of Eq. 2 — which lattice
//! squares a (shifted) element overlaps, the Sutherland–Hodgman clip, the
//! fan triangulation, and the quadrature staging — and hands every staged
//! element image to a [`ContributionSink`](super::ContributionSink). The
//! direct schemes and the plan compiler differ only in the sink they plug
//! in and in how they discover (point, element) pairs. There are two
//! discoveries: [`point_query`](StencilTraversal::point_query), the
//! paper's per-point baseline, and
//! [`element_query`](StencilTraversal::element_query), the per-element
//! scheme (and through it tiled execution, the rank runtime's push work
//! and the plan compiler).
//!
//! The innermost evaluation is cells-then-modes: all surviving
//! sub-triangles of one element image are staged into the
//! [`QuadStage`](super::QuadStage) first (with their Jacobians), then one
//! pass over the staged batch runs the whole per-node pipeline — unit-map,
//! SIAC kernel weight, element transform, monomial mode reduction —
//! lane-parallel across quadrature nodes on the vector ISAs.

use super::scratch::{QuadStage, ReduceCtx, RuleSoa, Scratch};
use super::sink::ContributionSink;
use crate::integrate::{flops_per_clip, flops_per_quad_eval, needed_shifts, ElementData};
use crate::metrics::Metrics;
use crate::simd::{SimdIsa, SimdPolicy};
use ustencil_geometry::{
    clip_slab_x, clip_slab_y, fan_triangulate, Aabb, Point2, Rect, Vec2, GEOM_EPS,
};
use ustencil_quadrature::TriangleRule;
use ustencil_siac::Stencil2d;
use ustencil_spatial::TriangleGrid;

/// The shared stencil-traversal driver. Holds everything constant across
/// integrations of one run; per-query mutable state lives in
/// [`Scratch`](super::Scratch) and the sink.
pub struct StencilTraversal<'a> {
    stencil: &'a Stencil2d,
    rule: &'a TriangleRule,
    exps: &'a [(usize, usize)],
    n_modes: usize,
    /// Lattice constants of `stencil`, resolved once: cell side, its
    /// reciprocal (the one `Stencil2d::eval` forms, so the deferred scalar
    /// kernel weighting reproduces its bits), cells per side, and the lower
    /// support bound in cells.
    h: f64,
    inv_h: f64,
    n_cells: usize,
    lo: f64,
    /// Modeled flops of one quadrature-point evaluation, precomputed.
    eval_flops: u64,
    /// Resolved ISA the staged mode reduction dispatches on.
    simd: SimdIsa,
    /// Zero-padded SoA copy of `rule`, precomputed for the vector arms.
    soa: RuleSoa,
}

impl<'a> StencilTraversal<'a> {
    /// Builds a driver for `n_modes` monomial slots with exponent table
    /// `exps` (the element basis's monomial exponents). The staged mode
    /// reduction dispatches on the host's widest SIMD ISA
    /// ([`SimdPolicy::Auto`]); use [`with_simd`](Self::with_simd) to pin a
    /// resolved ISA instead.
    pub fn new(
        stencil: &'a Stencil2d,
        rule: &'a TriangleRule,
        exps: &'a [(usize, usize)],
        n_modes: usize,
    ) -> Self {
        Self {
            stencil,
            rule,
            exps,
            n_modes,
            h: stencil.h(),
            inv_h: 1.0 / stencil.h(),
            n_cells: stencil.cells_per_side(),
            lo: stencil.kernel().support().0,
            eval_flops: flops_per_quad_eval(stencil.kernel().smoothness(), n_modes),
            simd: SimdPolicy::Auto.resolve(),
            soa: RuleSoa::new(rule),
        }
    }

    /// Pins the SIMD ISA of the staged mode reduction (callers resolve
    /// their [`SimdPolicy`] once per run and thread the result here).
    pub fn with_simd(mut self, isa: SimdIsa) -> Self {
        self.simd = isa;
        self
    }

    /// One gather-style query: center the stencil at `center`, walk the
    /// triangle hash grid's candidates, and integrate every periodic image
    /// that meets the support, feeding the sink. `elem_load_values` is the
    /// modeled memory traffic charged per candidate (the per-point scheme
    /// re-reads element data per pair).
    ///
    /// Counted: `cells_visited` from the hash-grid walk, and per candidate
    /// one `intersection_tests` and one `true_intersections` flag.
    #[allow(clippy::too_many_arguments)]
    pub fn point_query<S: ContributionSink>(
        &self,
        center: Point2,
        tri_grid: &TriangleGrid,
        gather: impl Fn(usize) -> ElementData,
        elem_load_values: u64,
        scratch: &mut Scratch,
        sink: &mut S,
        metrics: &mut Metrics,
    ) {
        let support = self.stencil.support_rect(center);
        let half_width = self.stencil.width() / 2.0;
        let Scratch {
            candidates,
            cache,
            stage,
        } = scratch;

        metrics.cells_visited += tri_grid.candidate_cells(center, half_width) as u64;
        candidates.clear();
        tri_grid.for_each_candidate(center, half_width, |id| candidates.push(id));

        // The periodic shifts depend on the query center only.
        let shifts = needed_shifts(&support);

        for &id in candidates.iter() {
            metrics.intersection_tests += 1;
            metrics.elem_data_loads += elem_load_values;
            let ed = cache.get_or_gather(id, &gather);
            let mut hit = false;
            for shift in shifts.clone() {
                let bb = Aabb::new(ed.bbox.min + shift, ed.bbox.max + shift);
                if support.intersects_aabb(&bb) {
                    hit |= self.image_into_sink(center, ed, shift, stage, sink, metrics);
                }
            }
            metrics.true_intersections += hit as u64;
        }
    }

    /// One scatter-style query (Algorithm 3): for every periodic image
    /// `elem + shift` that can meet a stencil (`p + σ` sees `T − σ`, Eq. 3),
    /// bbox-test the points `candidates(image_bb, half_width, out)` appends
    /// (as [`ustencil_spatial::PointGrid::candidates`]), integrate into the
    /// sink, and call `on_hit(point, shift, sink)` after each true
    /// intersection. Shifts are a point query's (zeros `+0.0`). Counted: per
    /// candidate, one `intersection_tests` and two `point_data_loads` (§3.4).
    #[allow(clippy::too_many_arguments)]
    pub fn element_query<S: ContributionSink>(
        &self,
        elem: &ElementData,
        points: &[Point2],
        candidates: impl Fn(&Aabb, f64, &mut Vec<u32>) -> usize,
        scratch: &mut Scratch,
        sink: &mut S,
        metrics: &mut Metrics,
        mut on_hit: impl FnMut(u32, Vec2, &mut S),
    ) {
        let (hw, bb) = (self.stencil.width() / 2.0, elem.bbox);
        let (found, stage) = (&mut scratch.candidates, &mut scratch.stage);
        let inflated = Rect::new(bb.min.x - hw, bb.min.y - hw, bb.max.x + hw, bb.max.y + hw);
        for sigma in needed_shifts(&inflated) {
            let shift = Vec2::new(0.0 - sigma.x, 0.0 - sigma.y);
            let image_bb = Aabb::new(bb.min + shift, bb.max + shift);
            found.clear();
            metrics.cells_visited += candidates(&image_bb, hw, found) as u64;
            for &id in found.iter() {
                metrics.intersection_tests += 1;
                metrics.point_data_loads += 2;
                let center = points[id as usize];
                if !self.stencil.support_rect(center).intersects_aabb(&image_bb) {
                    continue;
                }
                let hit = self.integrate_image(center, elem, shift, stage, sink, metrics);
                metrics.true_intersections += hit as u64;
                if hit {
                    on_hit(id, shift, sink);
                }
            }
        }
    }

    /// Integrates the stencil centered at `center` against the periodic
    /// image `elem + shift`, feeding the sink. Returns whether any lattice
    /// square truly intersected the image. This is the pair-level entry
    /// point of [`element_query`](Self::element_query); `point_query`
    /// funnels into the same body.
    ///
    /// The caller has already established that the shifted bounding box
    /// meets the stencil support, and accounts `true_intersections`
    /// itself.
    #[inline]
    pub fn integrate_image<S: ContributionSink>(
        &self,
        center: Point2,
        elem: &ElementData,
        shift: Vec2,
        stage: &mut QuadStage,
        sink: &mut S,
        metrics: &mut Metrics,
    ) -> bool {
        self.image_into_sink(center, elem, shift, stage, sink, metrics)
    }

    /// The single copy of the clip / fan-triangulate / quadrature loop.
    ///
    /// Stage 1 (cells): cut the shifted triangle to each overlapped lattice
    /// column once (the x-slab), then per lattice square cut its column's
    /// strip to the row (the y-slab) — the passes of a per-cell
    /// Sutherland–Hodgman clip in their order, so every polygon is that
    /// clip's bit for bit (DESIGN.md §10, "Lattice clip") — fan-triangulate,
    /// and stage every surviving sub-triangle with its Jacobian. Stage 2
    /// (modes): run the whole per-node pipeline — map each quadrature node
    /// to its physical point, apply the SIAC kernel weight `K_h`, transform
    /// to the element frame, and reduce to monomial-power sums — in one
    /// lane-parallel pass over the staged batch, handing the sums to the
    /// sink.
    fn image_into_sink<S: ContributionSink>(
        &self,
        center: Point2,
        elem: &ElementData,
        shift: Vec2,
        stage: &mut QuadStage,
        sink: &mut S,
        metrics: &mut Metrics,
    ) -> bool {
        let (h, n_cells, lo) = (self.h, self.n_cells, self.lo);
        let bbox = Aabb::new(elem.bbox.min + shift, elem.bbox.max + shift);

        // Lattice cell range overlapped by the shifted element's bbox. The
        // cast truncates toward zero and saturates (negative and NaN → 0):
        // it is `floor().max(0.0) as usize` for every quotient, without a
        // libm `floor` call per bound on baseline x86-64.
        let x_base = center.x + lo * h;
        let y_base = center.y + lo * h;
        let i0 = ((bbox.min.x - x_base) / h) as usize;
        let j0 = ((bbox.min.y - y_base) / h) as usize;
        if i0 >= n_cells || j0 >= n_cells {
            return false;
        }
        if bbox.max.x < x_base || bbox.max.y < y_base {
            return false;
        }
        let i1 = (((bbox.max.x - x_base) / h) as usize).min(n_cells - 1);
        let j1 = (((bbox.max.y - y_base) / h) as usize).min(n_cells - 1);

        let nq = self.rule.len() as u64;
        let (origin, inv) = elem.ref_coords();

        let image = elem.tri.translate(shift).to_polygon();
        stage.clear();
        let QuadStage { strips, subs, .. } = stage;
        strips.resize(i1 - i0 + 1, image);
        // Cell bounds are `Stencil2d::cell_rect`'s two expressions.
        for (i, strip) in (i0..).zip(strips.iter_mut()) {
            let x0 = center.x + (lo + i as f64) * h;
            clip_slab_x(strip, x0, x0 + h);
        }
        let mut any = false;
        for j in j0..=j1 {
            let y0 = center.y + (lo + j as f64) * h;
            for strip in strips.iter_mut() {
                metrics.cell_clips += 1;
                metrics.flops += flops_per_clip();
                // The last row cuts its strips in place, the others a copy.
                let mut copy;
                let poly = if j == j1 {
                    strip
                } else {
                    copy = *strip;
                    &mut copy
                };
                clip_slab_y(poly, y0, y0 + h);
                if poly.is_degenerate(GEOM_EPS) {
                    continue;
                }
                any = true;
                for sub in fan_triangulate(poly) {
                    // Work is accounted per sub-region even when the
                    // degenerate-jacobian guard skips its staging, matching
                    // the historical counter semantics.
                    metrics.subregions += 1;
                    metrics.quad_evals += nq;
                    metrics.flops += nq * self.eval_flops;
                    let jac = sub.jacobian().abs();
                    if jac == 0.0 {
                        continue;
                    }
                    subs.push((sub, jac));
                }
            }
        }
        if !stage.is_empty() {
            let sums = stage.mono_sums(&ReduceCtx {
                exps: self.exps,
                n_modes: self.n_modes,
                isa: self.simd,
                kernel: self.stencil.kernel(),
                rule: self.rule,
                soa: &self.soa,
                inv_h: self.inv_h,
                center,
                shift,
                origin,
                inv: *inv,
            });
            sink.absorb(elem, &sums);
        }
        any
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::AccumulateSolution;
    use ustencil_dg::project_l2;
    use ustencil_geometry::{clip_triangle_rect, Triangle};
    use ustencil_mesh::{generate_mesh, MeshClass};
    use ustencil_quadrature::TriangleRule;

    /// The staged SoA path must agree with the fused reference evaluation
    /// (`integrate_physical` over `K_h · u`) to rounding, and stage exactly
    /// the reference's sub-triangles — same order, same bits — at both
    /// smoothness levels and with elements up to two cells wide (images
    /// spanning three lattice columns or rows).
    #[test]
    fn staged_matches_fused_reference() {
        let mesh = generate_mesh(MeshClass::LowVariance, 120, 5);
        let field = project_l2(&mesh, 2, |x, y| 0.3 + x - 0.4 * y + x * y, 1);
        let basis = field.basis().clone();
        let exps = basis.monomial_exponents();
        for (k, h_factor) in [(2, 1.0), (1, 1.0), (2, 0.5), (1, 0.5)] {
            let stencil = Stencil2d::symmetric(k, h_factor * mesh.max_edge_length());
            let rule = TriangleRule::with_strength(
                crate::integrate::IntegrationCtx::required_strength(k, 2),
            );
            let trav = StencilTraversal::new(&stencil, &rule, exps, basis.n_modes());

            let center = Point2::new(0.5, 0.5);
            let mut stage = QuadStage::default();
            let mut metrics = Metrics::default();
            let mut ref_metrics = Metrics::default();
            let mut any_hit = 0u32;
            let mut widest = 0;
            for e in 0..mesh.n_triangles() {
                let ed = ElementData::gather(&mesh, &field, &basis, e);
                let mut sink = AccumulateSolution::new();
                let hit = trav.integrate_image(
                    center,
                    &ed,
                    Vec2::ZERO,
                    &mut stage,
                    &mut sink,
                    &mut metrics,
                );
                let staged = sink.take();
                // Fused reference: kernel × polynomial at each quadrature point.
                let (fused, ref_hit, ref_subs) =
                    fused_reference(&stencil, &rule, exps, center, &ed, &mut ref_metrics);
                assert_eq!(hit, ref_hit, "k {k}, element {e}");
                let tol = 1e-13 * fused.abs().max(1.0);
                assert!(
                    (staged - fused).abs() < tol,
                    "k {k}, element {e}: {staged} vs {fused}"
                );
                // A miss may return before the stage is cleared.
                if hit {
                    assert_eq!(stage.subs, ref_subs, "k {k}, element {e}");
                    widest = widest.max(stage.strips.len());
                } else {
                    assert!(ref_subs.is_empty(), "k {k}, element {e}");
                }
                any_hit += hit as u32;
            }
            assert!(any_hit > 0, "test must exercise intersecting elements");
            assert_eq!(widest, if h_factor < 1.0 { 3 } else { 2 });
            // Identical traversal ⇒ identical counters.
            assert_eq!(metrics.cell_clips, ref_metrics.cell_clips);
            assert_eq!(metrics.subregions, ref_metrics.subregions);
            assert_eq!(metrics.quad_evals, ref_metrics.quad_evals);
            assert_eq!(metrics.flops, ref_metrics.flops);
        }
    }

    /// The lattice indices are cast, not floored: the same index for every
    /// quotient, finite or not.
    #[test]
    fn saturating_cast_is_floor_clamped_at_zero() {
        let mut quotients = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            0.5,
            0.9999999999999999,
            1.0,
            1.0000000000000002,
            6.999999999999999,
            7.0,
            4503599627370495.5,
            1e19,
            1.8446744073709552e19,
            1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        quotients.extend(quotients.clone().iter().map(|q| -q));
        for q in quotients {
            assert_eq!(q as usize, q.floor().max(0.0) as usize, "{q}");
            assert_eq!(q as usize, q.floor() as usize, "{q}");
        }
    }

    /// The pre-refactor fused loop — one four-pass clip per lattice cell —
    /// kept in test code as the reference for the staged path: its value,
    /// its hit flag and the sub-triangles it integrates, in order.
    fn fused_reference(
        stencil: &Stencil2d,
        rule: &TriangleRule,
        exps: &[(usize, usize)],
        center: Point2,
        elem: &ElementData,
        metrics: &mut Metrics,
    ) -> (f64, bool, Vec<(Triangle, f64)>) {
        let h = stencil.h();
        let n_cells = stencil.cells_per_side();
        let (lo, _) = stencil.kernel().support();
        let shifted = elem.tri;
        let bbox = elem.bbox;
        let x_base = center.x + lo * h;
        let y_base = center.y + lo * h;
        let i0 = (((bbox.min.x - x_base) / h).floor().max(0.0)) as usize;
        let j0 = (((bbox.min.y - y_base) / h).floor().max(0.0)) as usize;
        let mut subs = Vec::new();
        if i0 >= n_cells || j0 >= n_cells {
            return (0.0, false, subs);
        }
        if bbox.max.x < x_base || bbox.max.y < y_base {
            return (0.0, false, subs);
        }
        let i1 = ((((bbox.max.x - x_base) / h).floor()) as usize).min(n_cells - 1);
        let j1 = ((((bbox.max.y - y_base) / h).floor()) as usize).min(n_cells - 1);
        let nq = rule.len() as u64;
        let eval_flops = flops_per_quad_eval(stencil.kernel().smoothness(), elem.n_modes());
        let mut total = 0.0;
        let mut any = false;
        for j in j0..=j1 {
            for i in i0..=i1 {
                let cell = stencil.cell_rect(center, i, j);
                metrics.cell_clips += 1;
                metrics.flops += flops_per_clip();
                let poly = clip_triangle_rect(&shifted, &cell);
                if poly.is_degenerate(GEOM_EPS) {
                    continue;
                }
                any = true;
                for sub in fan_triangulate(&poly) {
                    metrics.subregions += 1;
                    metrics.quad_evals += nq;
                    metrics.flops += nq * eval_flops;
                    total += integrate_physical(rule, &sub, |x, y| {
                        let p = Point2::new(x, y);
                        stencil.eval(center, p) * elem.eval(p, exps)
                    });
                    let jac = sub.jacobian().abs();
                    if jac != 0.0 {
                        subs.push((sub, jac));
                    }
                }
            }
        }
        (total, any, subs)
    }

    /// `rule` mapped through `tri`'s affine map: the integral of `f` over
    /// the physical triangle.
    fn integrate_physical<F>(rule: &TriangleRule, tri: &Triangle, mut f: F) -> f64
    where
        F: FnMut(f64, f64) -> f64,
    {
        let jac = tri.jacobian().abs();
        if jac == 0.0 {
            return 0.0;
        }
        let sum: f64 = rule
            .points()
            .iter()
            .zip(rule.weights())
            .map(|(&(u, v), &w)| {
                let p = tri.map_from_unit(u, v);
                w * f(p.x, p.y)
            })
            .sum();
        sum * jac
    }
}
