//! The per-point evaluation scheme (Algorithm 2).
//!
//! Iterate over grid points; for each, center the stencil and gather every
//! element whose image can intersect it through the triangle hash grid
//! (including the halo ring). Each gathered element's data is re-read for
//! every point that samples it — the access pattern whose cost the
//! per-element scheme removes.

use crate::blocks::{map_slices, BlockStats};
use crate::config::{ExecConfig, KernelSetup};
use crate::grid_points::ComputationGrid;
use crate::integrate::ElementData;
use crate::kernel::{AccumulateSolution, Scratch, StencilTraversal};
use crate::metrics::Metrics;
use ustencil_dg::DgField;
use ustencil_mesh::TriMesh;
use ustencil_spatial::TriangleGrid;

/// Inputs shared by every block of a per-point run.
pub struct PerPointRun<'a> {
    /// The mesh being sampled.
    pub mesh: &'a TriMesh,
    /// The dG field being filtered.
    pub field: &'a DgField,
    /// Evaluation points.
    pub grid: &'a ComputationGrid,
    /// The resolved stencil, rule and SIMD ISA.
    pub setup: &'a KernelSetup,
    /// Triangle hash grid over element centroids (periodic).
    pub tri_grid: &'a TriangleGrid,
}

impl PerPointRun<'_> {
    /// Processes the half-open point range `[start, end)`, writing results
    /// into `values` (length `end - start`).
    fn run_block(&self, start: usize, end: usize, values: &mut [f64]) -> Metrics {
        let mut metrics = Metrics::default();
        let basis = self.field.basis();
        let trav = StencilTraversal::new(
            &self.setup.stencil,
            &self.setup.rule,
            basis.monomial_exponents(),
            basis.n_modes(),
        )
        .with_simd(self.setup.isa);
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
            );
            values[slot] = sink.take();
            metrics.solution_writes += 1;
        }
        // Untiled scheme: exactly one solution slot per grid point.
        metrics.partial_slots += (end - start) as u64;
        metrics
    }

    /// Runs the whole grid as `config.n_blocks` contiguous point blocks,
    /// returning the solution and per-block stats (wall time and owned
    /// point counts).
    pub fn run(&self, config: &ExecConfig) -> (Vec<f64>, Vec<BlockStats>) {
        let mut values = vec![0.0; self.grid.len()];
        let stats = map_slices(
            &mut values,
            config.n_blocks,
            config.parallel,
            |s, e, slice| BlockStats::measure(0, || ((), self.run_block(s, e, slice))).1,
        );
        (values, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::SimdPolicy;
    use ustencil_dg::project_l2;
    use ustencil_mesh::{generate_mesh, MeshClass};
    use ustencil_spatial::Boundary;

    struct Fixture {
        mesh: TriMesh,
        field: DgField,
        grid: ComputationGrid,
        setup: KernelSetup,
        tgrid: TriangleGrid,
    }

    fn setup(n_tri: usize, p: usize, seed: u64) -> Fixture {
        let mesh = generate_mesh(MeshClass::LowVariance, n_tri, seed);
        let field = project_l2(&mesh, p, |x, y| 0.2 + x - 0.5 * y + x * y, 2);
        let grid = ComputationGrid::quadrature_points(&mesh, p);
        // The small test meshes have long edges: shrink `h` until the
        // stencil fits the periodic domain.
        let h_factor = (0.99 / ((3 * p + 1) as f64 * mesh.max_edge_length())).min(1.0);
        let setup = ExecConfig {
            h_factor,
            ..config(16, false, false)
        }
        .resolve(&mesh, p);
        let tgrid = TriangleGrid::build(&mesh, Boundary::Periodic);
        Fixture {
            mesh,
            field,
            grid,
            setup,
            tgrid,
        }
    }

    fn config(n_blocks: usize, parallel: bool, instrument: bool) -> ExecConfig {
        ExecConfig {
            n_blocks,
            parallel,
            instrument,
            simd: SimdPolicy::Scalar,
            ..ExecConfig::default()
        }
    }

    fn run_of(f: &Fixture) -> PerPointRun<'_> {
        PerPointRun {
            mesh: &f.mesh,
            field: &f.field,
            grid: &f.grid,
            setup: &f.setup,
            tri_grid: &f.tgrid,
        }
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let f = setup(120, 1, 4);
        let run = run_of(&f);
        let (seq, s_seq) = run.run(&config(1, false, false));
        let t_seq = Metrics::sum(&BlockStats::metrics_of(&s_seq));
        // Every point is reduced on its own, so how the grid is cut into
        // blocks and who runs them cannot move a bit.
        for (n_blocks, parallel) in [(3, false), (7, true), (16, true)] {
            let (values, stats) = run.run(&config(n_blocks, parallel, false));
            assert_eq!(stats.len(), n_blocks);
            for (a, b) in seq.iter().zip(&values) {
                assert_eq!(a.to_bits(), b.to_bits(), "{n_blocks} blocks: {a} vs {b}");
            }
            // Metrics totals must agree regardless of blocking.
            assert_eq!(t_seq, Metrics::sum(&BlockStats::metrics_of(&stats)));
        }
    }

    #[test]
    fn constant_field_is_preserved_everywhere() {
        let mut f = setup(150, 1, 7);
        f.field = project_l2(&f.mesh, 1, |_, _| 1.75, 0);
        let (values, _) = run_of(&f).run(&config(4, false, false));
        for (i, v) in values.iter().enumerate() {
            assert!(
                (v - 1.75).abs() < 1e-9,
                "point {i} ({:?}): {v}",
                f.grid.points()[i]
            );
        }
    }

    #[test]
    fn metrics_are_populated() {
        let f = setup(80, 1, 2);
        let (_, blocks) = run_of(&f).run(&config(2, false, false));
        let m = Metrics::sum(&BlockStats::metrics_of(&blocks));
        assert!(m.intersection_tests > 0);
        assert!(m.true_intersections > 0);
        assert!(m.true_intersections <= m.intersection_tests);
        assert!(m.flops > m.quad_evals);
        assert_eq!(m.solution_writes, f.grid.len() as u64);
        assert_eq!(m.partial_slots, f.grid.len() as u64);
        // Per-point reads element data per test.
        assert_eq!(
            m.elem_data_loads,
            m.intersection_tests * Metrics::element_data_values(1)
        );
    }

    #[test]
    fn instrumented_run_populates_stats() {
        let f = setup(100, 1, 6);
        let run = run_of(&f);
        let (plain, bare) = run.run(&config(3, false, false));
        let (instr, stats) = run.run(&config(3, false, true));
        // Instrumentation must not change the numerics or the counters.
        assert_eq!(plain, instr);
        assert_eq!(
            BlockStats::metrics_of(&bare),
            BlockStats::metrics_of(&stats)
        );
        let points: u64 = stats.iter().map(|s| s.points).sum();
        assert_eq!(points, f.grid.len() as u64);
        for s in &stats {
            assert!(s.wall_ns > 0, "per-block wall time must be measured");
            assert_eq!(s.elements, 0, "per-point blocks own points, not elements");
        }
    }
}
