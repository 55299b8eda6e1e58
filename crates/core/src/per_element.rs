//! The per-element evaluation scheme with overlapped patch tiling
//! (Algorithm 3, Section 4).
//!
//! Iterate over mesh elements grouped into disjoint *patches*; gather each
//! element's data once, find every grid point whose stencil intersects the
//! element through the point hash grid, and scatter partial solutions into
//! the patch's private scratch space. A final reduction sums overlapping
//! partials — no synchronization between concurrently executing patches.

use crate::blocks::{self, BlockStats};
use crate::config::{ExecConfig, KernelSetup};
use crate::grid_points::ComputationGrid;
use crate::integrate::ElementData;
use crate::kernel::{AccumulateSolution, Scratch, StencilTraversal};
use crate::metrics::Metrics;
use ustencil_dg::DgField;
use ustencil_mesh::{Partition, TriMesh};
use ustencil_spatial::PointGrid;

/// Partial solutions of one patch: sparse `(point id, value)` pairs sorted
/// by id, plus the work counters of the patch's block.
#[derive(Debug, Clone)]
pub struct PatchResult {
    /// Sorted partial solutions.
    pub partials: Vec<(u32, f64)>,
    /// Work of this patch.
    pub metrics: Metrics,
}

/// Inputs shared by every patch of a per-element run.
pub struct PerElementRun<'a> {
    /// The mesh being iterated.
    pub mesh: &'a TriMesh,
    /// The dG field being filtered.
    pub field: &'a DgField,
    /// Evaluation points.
    pub grid: &'a ComputationGrid,
    /// The resolved stencil, rule and SIMD ISA.
    pub setup: &'a KernelSetup,
    /// Point hash grid (clamped boundary; periodic images are handled by
    /// explicit shift enumeration).
    pub point_grid: &'a PointGrid,
}

impl PerElementRun<'_> {
    /// Processes one patch of elements into its private scratch space,
    /// timing it.
    pub fn run_patch(&self, elements: &[u32]) -> (PatchResult, BlockStats) {
        BlockStats::measure(elements.len() as u64, || {
            let result = self.patch_body(elements);
            let metrics = result.metrics;
            (result, metrics)
        })
    }

    fn patch_body(&self, elements: &[u32]) -> PatchResult {
        let mut metrics = Metrics::default();
        let basis = self.field.basis();
        let trav = StencilTraversal::new(
            &self.setup.stencil,
            &self.setup.rule,
            basis.monomial_exponents(),
            basis.n_modes(),
        )
        .with_simd(self.setup.isa);
        let elem_values = Metrics::element_data_values(self.field.degree());
        let points = self.grid.points();

        // Dense accumulator: `slot[id]` is one past the point's position in
        // `partials` (0 = untouched), so a hit costs two indexed accesses
        // instead of a hash. Zeroing it is O(grid) per patch — negligible
        // against the ≈ 250 candidate tests every touched point costs.
        let mut slot = vec![0u32; points.len()];
        let mut partials: Vec<(u32, f64)> = Vec::new();
        let mut scratch = Scratch::new();
        let mut sink = AccumulateSolution::new();
        let mut writes = 0;

        for &e in elements {
            // Element data is gathered once and reused for every
            // integration over this element — the scheme's defining
            // data-reuse property.
            metrics.elem_data_loads += elem_values;
            let ed = ElementData::gather(self.mesh, self.field, basis, e as usize);
            let on_hit = |id: u32, _, sink: &mut AccumulateSolution| {
                let at = &mut slot[id as usize];
                if *at == 0 {
                    partials.push((id, 0.0));
                    *at = partials.len() as u32;
                }
                partials[*at as usize - 1].1 += sink.take();
                writes += 1;
            };
            trav.element_query(
                &ed,
                points,
                |bbox, hw, out| self.point_grid.candidates(bbox, hw, out),
                &mut scratch,
                &mut sink,
                &mut metrics,
                on_hit,
            );
        }
        metrics.solution_writes += writes;

        partials.sort_unstable_by_key(|&(id, _)| id);
        // The partials outlive the patch; their growth slack need not.
        partials.shrink_to_fit();
        metrics.partial_slots += partials.len() as u64;

        PatchResult { partials, metrics }
    }

    /// Evaluates every patch (on worker threads when `config.parallel`)
    /// without reducing, returning the partial solutions alongside full
    /// per-patch stats. This is the evaluation phase the engine wraps in
    /// its `eval` span; the reduction phase is [`reduce_patches`].
    pub fn run_patches(
        &self,
        partition: &Partition,
        config: &ExecConfig,
    ) -> (Vec<PatchResult>, Vec<BlockStats>) {
        let patches = partition.patches().collect();
        blocks::map(patches, config.parallel, |p| self.run_patch(p))
            .into_iter()
            .unzip()
    }
}

/// The reduction phase: sums every patch's partial solutions into the final
/// solution vector (Figure 7). Patches are reduced in patch order so the
/// result is deterministic.
pub fn reduce_patches(results: &[PatchResult], n_points: usize) -> Vec<f64> {
    let mut values = vec![0.0; n_points];
    for r in results {
        add_partials(&r.partials, &mut values);
    }
    values
}

/// Accumulates sparse `(point id, value)` partials into a dense output.
/// The shared primitive of [`reduce_patches`] and the distributed runtime's
/// per-rank local reduce — using the same accumulation (in the same partial
/// order) is what keeps the two paths bitwise identical.
#[inline]
pub fn add_partials(partials: &[(u32, f64)], out: &mut [f64]) {
    for &(id, v) in partials {
        out[id as usize] += v;
    }
}

/// Relative memory overhead of the tiling: total partial-solution slots over
/// the baseline one-slot-per-point storage (the Figure 8 quantity; 1.0 means
/// no overhead).
pub fn memory_overhead(block_metrics: &[Metrics], n_points: usize) -> f64 {
    let slots: u64 = block_metrics.iter().map(|m| m.partial_slots).sum();
    slots as f64 / n_points as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::SimdPolicy;
    use ustencil_dg::project_l2;
    use ustencil_mesh::{generate_mesh, partition_recursive_bisection, MeshClass};
    use ustencil_spatial::Boundary;

    impl PerElementRun<'_> {
        /// Runs all patches and reduces the partial solutions into the final
        /// grid-point values.
        fn run(&self, partition: &Partition, config: &ExecConfig) -> (Vec<f64>, Vec<BlockStats>) {
            let (results, stats) = self.run_patches(partition, config);
            (reduce_patches(&results, self.grid.len()), stats)
        }
    }

    struct Fixture {
        mesh: TriMesh,
        field: DgField,
        grid: ComputationGrid,
        setup: KernelSetup,
        pgrid: PointGrid,
    }

    fn config(parallel: bool, instrument: bool) -> ExecConfig {
        ExecConfig {
            parallel,
            instrument,
            simd: SimdPolicy::Scalar,
            ..ExecConfig::default()
        }
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
            ..config(false, false)
        }
        .resolve(&mesh, p);
        let pgrid =
            PointGrid::build_half_edge(grid.points(), mesh.max_edge_length(), Boundary::Clamped);
        Fixture {
            mesh,
            field,
            grid,
            setup,
            pgrid,
        }
    }

    fn run_of(f: &Fixture) -> PerElementRun<'_> {
        PerElementRun {
            mesh: &f.mesh,
            field: &f.field,
            grid: &f.grid,
            setup: &f.setup,
            point_grid: &f.pgrid,
        }
    }

    #[test]
    fn single_patch_matches_multi_patch() {
        let f = setup(120, 1, 4);
        let run = run_of(&f);
        let p1 = partition_recursive_bisection(&f.mesh, 1);
        let p8 = partition_recursive_bisection(&f.mesh, 8);
        let (v1, _) = run.run(&p1, &config(false, false));
        let (v8, m8) = run.run(&p8, &config(false, false));
        for (a, b) in v1.iter().zip(&v8) {
            assert!((a - b).abs() < 1e-11, "{a} vs {b}");
        }
        assert_eq!(m8.len(), 8);
    }

    #[test]
    fn parallel_matches_sequential() {
        let f = setup(100, 2, 9);
        let run = run_of(&f);
        let part = partition_recursive_bisection(&f.mesh, 6);
        let (seq, _) = run.run(&part, &config(false, false));
        let (par, _) = run.run(&part, &config(true, false));
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a, b, "parallel patch execution must be bitwise equal");
        }
    }

    #[test]
    fn constant_field_preserved() {
        let mut f = setup(150, 1, 7);
        f.field = project_l2(&f.mesh, 1, |_, _| -0.75, 0);
        let run = run_of(&f);
        let part = partition_recursive_bisection(&f.mesh, 4);
        let (values, _) = run.run(&part, &config(false, false));
        for v in &values {
            assert!((v + 0.75).abs() < 1e-9, "{v}");
        }
    }

    #[test]
    fn tiling_memory_overhead_exceeds_one_and_shrinks() {
        let f_small = setup(300, 1, 3);
        let run = run_of(&f_small);
        let part = partition_recursive_bisection(&f_small.mesh, 16);
        let (_, blocks) = run.run(&part, &config(false, false));
        let overhead_small = memory_overhead(&BlockStats::metrics_of(&blocks), f_small.grid.len());
        assert!(
            overhead_small > 1.0,
            "patches must overlap: {overhead_small}"
        );

        let f_large = setup(1200, 1, 3);
        let run = run_of(&f_large);
        let part = partition_recursive_bisection(&f_large.mesh, 16);
        let (_, blocks) = run.run(&part, &config(false, false));
        let overhead_large = memory_overhead(&BlockStats::metrics_of(&blocks), f_large.grid.len());
        assert!(
            overhead_large < overhead_small,
            "overhead must shrink with mesh size: {overhead_small} -> {overhead_large}"
        );
    }

    #[test]
    fn element_data_loaded_once_per_element() {
        let f = setup(90, 2, 5);
        let run = run_of(&f);
        let part = partition_recursive_bisection(&f.mesh, 3);
        let (_, blocks) = run.run(&part, &config(false, false));
        let m = Metrics::sum(&BlockStats::metrics_of(&blocks));
        assert_eq!(
            m.elem_data_loads,
            f.mesh.n_triangles() as u64 * Metrics::element_data_values(2)
        );
        assert_eq!(m.point_data_loads, 2 * m.intersection_tests);
    }

    #[test]
    fn instrumented_patches_carry_stats() {
        let f = setup(120, 1, 11);
        let run = run_of(&f);
        let part = partition_recursive_bisection(&f.mesh, 6);
        let (plain, bare) = run.run(&part, &config(false, false));
        let metrics = BlockStats::metrics_of(&bare);
        let (instr, stats) = run.run(&part, &config(false, true));
        assert_eq!(plain, instr, "instrumentation must not change values");
        assert_eq!(metrics, BlockStats::metrics_of(&stats));
        let elements: u64 = stats.iter().map(|s| s.elements).sum();
        assert_eq!(elements, f.mesh.n_triangles() as u64);
        for s in &stats {
            assert!(s.wall_ns > 0);
            assert_eq!(s.points, s.metrics.partial_slots);
        }
    }
}
