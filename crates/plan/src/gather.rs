//! The per-point gather compile, kept as the bitwise reference of the
//! scatter compile (`compile.rs`): per row, the loop of
//! `StencilTraversal::point_query` over the triangle grid's candidates,
//! each candidate's images summed in shift order and transformed once if
//! any of them hit.

use ustencil_core::integrate::{needed_shifts, ElementData, MAX_MODES};
use ustencil_core::kernel::{ContributionSink, QuadStage, StencilTraversal};
use ustencil_core::{ExecConfig, Metrics};
use ustencil_dg::DubinerBasis;
use ustencil_geometry::{Aabb, Point2};
use ustencil_mesh::TriMesh;
use ustencil_spatial::{Boundary, TriangleGrid};

/// Compiles one row per point of `points` by point queries, as flat CSR
/// arrays `(row_ptr, cols, weights)`.
pub(crate) fn gather_rows(
    mesh: &TriMesh,
    points: &[Point2],
    degree: usize,
    options: &ExecConfig,
) -> (Vec<u64>, Vec<u32>, Vec<f64>) {
    let basis = DubinerBasis::new(degree);
    let setup = options.resolve(mesh, degree);
    let tri_grid = TriangleGrid::build(mesh, Boundary::Periodic);
    let n_modes = basis.n_modes();
    let trav = StencilTraversal::new(
        &setup.stencil,
        &setup.rule,
        basis.monomial_exponents(),
        n_modes,
    )
    .with_simd(setup.isa);
    let (mut stage, mut metrics) = (QuadStage::default(), Metrics::default());
    let (mut row_ptr, mut cols, mut weights) = (vec![0u64], Vec::new(), Vec::new());
    let mut candidates = Vec::new();
    for &center in points {
        let support = setup.stencil.support_rect(center);
        candidates.clear();
        let half_width = setup.stencil.width() / 2.0;
        tri_grid.for_each_candidate(center, half_width, |id| candidates.push(id));
        for &id in &candidates {
            let ed = ElementData::gather_geometry(mesh, id as usize, n_modes);
            let mut sink = SumImages([0.0; MAX_MODES]);
            let mut hit = false;
            for shift in needed_shifts(&support) {
                let bb = Aabb::new(ed.bbox.min + shift, ed.bbox.max + shift);
                if support.intersects_aabb(&bb) {
                    hit |= trav.integrate_image(
                        center,
                        &ed,
                        shift,
                        &mut stage,
                        &mut sink,
                        &mut metrics,
                    );
                }
            }
            if hit {
                // Monomial → modal: the transpose of the basis change
                // `ElementData::gather` applies to coefficients.
                cols.push(id);
                for m in 0..n_modes {
                    let mc = basis.monomial_coefficients(m);
                    let mut w = 0.0;
                    for (slot, &c) in mc.iter().enumerate().take(n_modes) {
                        w += c * sink.0[slot];
                    }
                    weights.push(w);
                }
            }
        }
        row_ptr.push(cols.len() as u64);
    }
    (row_ptr, cols, weights)
}

/// Sums a candidate's monomial sums across its periodic images.
struct SumImages([f64; MAX_MODES]);

impl ContributionSink for SumImages {
    fn absorb(&mut self, elem: &ElementData, mono_sums: &[f64; MAX_MODES]) {
        for (w, s) in self.0.iter_mut().zip(mono_sums).take(elem.n_modes()) {
            *w += s;
        }
    }
}
