//! The per-point evaluation scheme (Algorithm 2).
//!
//! Iterate over grid points; for each, center the stencil and gather every
//! element whose image can intersect it through the triangle hash grid
//! (including the halo ring). Each gathered element's data is re-read for
//! every point that samples it — the access pattern whose cost the
//! per-element scheme removes.

use crate::grid_points::ComputationGrid;
use crate::integrate::ElementData;
use crate::kernel::{AccumulateSolution, Scratch, StencilTraversal};
use crate::metrics::Metrics;
use crate::probe::{timed, BlockStats, Probe};
use crate::simd::SimdIsa;
use rayon::prelude::*;
use ustencil_dg::DgField;
use ustencil_mesh::TriMesh;
use ustencil_quadrature::TriangleRule;
use ustencil_siac::Stencil2d;
use ustencil_spatial::TriangleGrid;

/// Inputs shared by every block of a per-point run.
pub struct PerPointRun<'a> {
    /// The mesh being sampled.
    pub mesh: &'a TriMesh,
    /// The dG field being filtered.
    pub field: &'a DgField,
    /// Evaluation points.
    pub grid: &'a ComputationGrid,
    /// The scaled stencil.
    pub stencil: &'a Stencil2d,
    /// Triangle hash grid over element centroids (periodic).
    pub tri_grid: &'a TriangleGrid,
    /// Exact triangle rule for the clipped sub-regions.
    pub rule: &'a TriangleRule,
    /// Resolved SIMD ISA of the quadrature reduction.
    pub simd: SimdIsa,
}

impl PerPointRun<'_> {
    /// Processes the half-open point range `[start, end)`, writing results
    /// into `values` (length `end - start`).
    fn run_block(
        &self,
        start: usize,
        end: usize,
        values: &mut [f64],
        probe: &mut Probe,
    ) -> Metrics {
        let mut metrics = Metrics::default();
        let basis = self.field.basis();
        let trav = StencilTraversal::new(
            self.stencil,
            self.rule,
            basis.monomial_exponents(),
            basis.n_modes(),
        )
        .with_simd(self.simd);
        // The per-point scheme reads the element data anew for every
        // (point, element) pair — no reuse across points is *modeled*, so
        // the full load is charged per candidate even though the scratch
        // cache elides repeat gathers in the implementation.
        let elem_values = Metrics::element_data_values(self.field.degree());
        let mut scratch = Scratch::new();
        let mut sink = AccumulateSolution::new();

        for (slot, i) in (start..end).enumerate() {
            let center = self.grid.points()[i];
            trav.point_query(
                center,
                self.tri_grid,
                |e| ElementData::gather(self.mesh, self.field, basis, e),
                elem_values,
                &mut scratch,
                &mut sink,
                &mut metrics,
                probe,
            );
            values[slot] = sink.take();
            metrics.solution_writes += 1;
        }
        // Untiled scheme: exactly one solution slot per grid point.
        metrics.partial_slots += (end - start) as u64;
        metrics
    }

    /// Runs the whole grid split into `n_blocks` contiguous blocks,
    /// optionally in parallel, returning the solution and per-block metrics.
    pub fn run(&self, n_blocks: usize, parallel: bool) -> (Vec<f64>, Vec<Metrics>) {
        let (values, stats) = self.run_instrumented(n_blocks, parallel, false);
        (values, BlockStats::metrics_of(&stats))
    }

    /// Like [`run`](Self::run), but returns full per-block stats (wall
    /// time, owned point counts, distribution probes). With
    /// `instrument = false` the probes stay disabled and the hot loop pays
    /// only its counter increments.
    pub fn run_instrumented(
        &self,
        n_blocks: usize,
        parallel: bool,
        instrument: bool,
    ) -> (Vec<f64>, Vec<BlockStats>) {
        let n = self.grid.len();
        let n_blocks = n_blocks.clamp(1, n.max(1));
        let bounds: Vec<(usize, usize)> = (0..n_blocks)
            .map(|b| (b * n / n_blocks, (b + 1) * n / n_blocks))
            .collect();

        let block = |s: usize, e: usize, slice: &mut [f64]| -> BlockStats {
            let mut probe = Probe::new(instrument);
            let (metrics, wall_ns) = timed(|| self.run_block(s, e, slice, &mut probe));
            BlockStats {
                metrics,
                wall_ns,
                elements: 0,
                points: (e - s) as u64,
                probe,
            }
        };

        let mut values = vec![0.0; n];
        // Split the output buffer along block boundaries so each block
        // owns its slice — race freedom by construction when parallel.
        let mut slices: Vec<&mut [f64]> = Vec::with_capacity(n_blocks);
        let mut rest = values.as_mut_slice();
        for &(s, e) in &bounds {
            let (head, tail) = rest.split_at_mut(e - s);
            slices.push(head);
            rest = tail;
        }
        let stats: Vec<BlockStats> = if parallel {
            bounds
                .par_iter()
                .zip(slices)
                .map(|(&(s, e), slice)| block(s, e, slice))
                .collect()
        } else {
            bounds
                .iter()
                .zip(slices)
                .map(|(&(s, e), slice)| block(s, e, slice))
                .collect()
        };
        (values, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrate::IntegrationCtx as Ctx;
    use ustencil_dg::project_l2;
    use ustencil_mesh::{generate_mesh, MeshClass};
    use ustencil_spatial::Boundary;

    fn setup(
        n_tri: usize,
        p: usize,
        seed: u64,
    ) -> (
        TriMesh,
        DgField,
        ComputationGrid,
        Stencil2d,
        TriangleGrid,
        TriangleRule,
    ) {
        let mesh = generate_mesh(MeshClass::LowVariance, n_tri, seed);
        let field = project_l2(&mesh, p, |x, y| 0.2 + x - 0.5 * y + x * y, 2);
        let grid = ComputationGrid::quadrature_points(&mesh, p);
        let stencil = Stencil2d::symmetric(p, mesh.max_edge_length());
        let tgrid = TriangleGrid::build(&mesh, Boundary::Periodic);
        let rule = TriangleRule::with_strength(Ctx::required_strength(p, p));
        (mesh, field, grid, stencil, tgrid, rule)
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let (mesh, field, grid, stencil, tgrid, rule) = setup(120, 1, 4);
        let run = PerPointRun {
            mesh: &mesh,
            field: &field,
            grid: &grid,
            stencil: &stencil,
            tri_grid: &tgrid,
            rule: &rule,
            simd: SimdIsa::Scalar,
        };
        let (seq, m_seq) = run.run(1, false);
        let (par, m_par) = run.run(7, true);
        for (a, b) in seq.iter().zip(&par) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        // Metrics totals must agree regardless of blocking.
        let t_seq = Metrics::sum(&m_seq);
        let t_par = Metrics::sum(&m_par);
        assert_eq!(t_seq.intersection_tests, t_par.intersection_tests);
        assert_eq!(t_seq.subregions, t_par.subregions);
        assert_eq!(t_seq.quad_evals, t_par.quad_evals);
    }

    #[test]
    fn constant_field_is_preserved_everywhere() {
        let (mesh, _, grid, stencil, tgrid, rule) = setup(150, 1, 7);
        let field = project_l2(&mesh, 1, |_, _| 1.75, 0);
        let run = PerPointRun {
            mesh: &mesh,
            field: &field,
            grid: &grid,
            stencil: &stencil,
            tri_grid: &tgrid,
            rule: &rule,
            simd: SimdIsa::Scalar,
        };
        let (values, _) = run.run(4, false);
        for (i, v) in values.iter().enumerate() {
            assert!(
                (v - 1.75).abs() < 1e-9,
                "point {i} ({:?}): {v}",
                grid.points()[i]
            );
        }
    }

    #[test]
    fn metrics_are_populated() {
        let (mesh, field, grid, stencil, tgrid, rule) = setup(80, 1, 2);
        let run = PerPointRun {
            mesh: &mesh,
            field: &field,
            grid: &grid,
            stencil: &stencil,
            tri_grid: &tgrid,
            rule: &rule,
            simd: SimdIsa::Scalar,
        };
        let (_, blocks) = run.run(2, false);
        let m = Metrics::sum(&blocks);
        assert!(m.intersection_tests > 0);
        assert!(m.true_intersections > 0);
        assert!(m.true_intersections <= m.intersection_tests);
        assert!(m.flops > m.quad_evals);
        assert_eq!(m.solution_writes, grid.len() as u64);
        assert_eq!(m.partial_slots, grid.len() as u64);
        // Per-point reads element data per test.
        assert_eq!(
            m.elem_data_loads,
            m.intersection_tests * Metrics::element_data_values(1)
        );
    }

    #[test]
    fn instrumented_run_populates_stats() {
        let (mesh, field, grid, stencil, tgrid, rule) = setup(100, 1, 6);
        let run = PerPointRun {
            mesh: &mesh,
            field: &field,
            grid: &grid,
            stencil: &stencil,
            tri_grid: &tgrid,
            rule: &rule,
            simd: SimdIsa::Scalar,
        };
        let (plain, metrics) = run.run(3, false);
        let (instr, stats) = run.run_instrumented(3, false, true);
        // Instrumentation must not change the numerics or the counters.
        assert_eq!(plain, instr);
        assert_eq!(metrics, BlockStats::metrics_of(&stats));
        let points: u64 = stats.iter().map(|s| s.points).sum();
        assert_eq!(points, grid.len() as u64);
        for s in &stats {
            assert!(s.wall_ns > 0, "per-block wall time must be measured");
            assert_eq!(s.elements, 0, "per-point blocks own points, not elements");
        }
        let probe = BlockStats::merged_probe(&stats);
        // One candidates sample per grid point, one sub-region sample per
        // candidate pair, quadrature samples bounded by the clip volume.
        assert_eq!(probe.candidates_per_query().count(), grid.len() as u64);
        let m = Metrics::sum(&BlockStats::metrics_of(&stats));
        assert_eq!(probe.candidates_per_query().sum(), m.intersection_tests);
        assert_eq!(probe.subregions_per_element().count(), m.intersection_tests);
        assert_eq!(probe.subregions_per_element().sum(), m.subregions);
        assert_eq!(probe.quad_points_per_integration().sum(), m.quad_evals);
        // Uninstrumented stats leave the probes empty.
        let (_, bare) = run.run_instrumented(3, false, false);
        assert!(BlockStats::merged_probe(&bare)
            .candidates_per_query()
            .is_empty());
    }
}
