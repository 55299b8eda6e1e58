//! Workload construction and argument parsing for the `reproduce` binary.
//!
//! Every table and figure of the paper's Section 5 is regenerated by
//! `reproduce` (rows printed to stdout and indexed in EXPERIMENTS.md).
//! Timing is not this crate's job: the frame-loop benchmark under
//! `benchmark/` is the one surface performance is measured on.

#![deny(missing_docs)]

pub mod cli;

use ustencil_core::prelude::*;
use ustencil_dg::{project_l2, DgField};
use ustencil_mesh::{generate_mesh, MeshClass, MeshStats, TriMesh};

/// A fully constructed post-processing workload.
pub struct Workload {
    /// The mesh.
    pub mesh: TriMesh,
    /// Projected dG field of degree `p`.
    pub field: DgField,
    /// Evaluation grid (element quadrature points).
    pub grid: ComputationGrid,
    /// The mesh class used.
    pub class: MeshClass,
    /// Polynomial degree.
    pub p: usize,
}

/// The smooth test field the paper-style experiments filter:
/// `sin(2 pi x) cos(2 pi y) + 1/2`.
pub fn test_function(x: f64, y: f64) -> f64 {
    let tau = std::f64::consts::TAU;
    (tau * x).sin() * (tau * y).cos() + 0.5
}

impl Workload {
    /// Builds the standard workload: seeded mesh of `n_tri` triangles,
    /// degree-`p` projection of [`test_function`], quadrature-point grid.
    pub fn build(class: MeshClass, n_tri: usize, p: usize, seed: u64) -> Self {
        let mesh = generate_mesh(class, n_tri, seed);
        let field = project_l2(&mesh, p, test_function, 4);
        let grid = ComputationGrid::quadrature_points(&mesh, p);
        Self {
            mesh,
            field,
            grid,
            class,
            p,
        }
    }

    /// Largest `h_factor` keeping the stencil width within the periodic
    /// domain (1.0 when the mesh is fine enough, smaller on coarse or
    /// high-variance meshes).
    pub fn safe_h_factor(&self) -> f64 {
        let width = (3 * self.p + 1) as f64 * self.mesh.max_edge_length();
        if width <= 0.98 {
            1.0
        } else {
            0.98 / width
        }
    }

    /// Runs one scheme over this workload with `blocks` concurrent blocks.
    pub fn run(&self, scheme: Scheme, blocks: usize) -> Solution {
        PostProcessor::new(scheme)
            .blocks(blocks)
            .h_factor(self.safe_h_factor())
            .parallel(true)
            .run(&self.mesh, &self.field, &self.grid)
    }

    /// Like [`run`](Self::run), but with observability switched on: the
    /// returned [`Solution`] carries phase spans, per-patch wall times and
    /// distribution histograms, ready for
    /// [`RunRecord::from_solution`](ustencil_core::RunRecord::from_solution).
    /// `simd` picks the kernel dispatch policy (the harness forwards its
    /// `--simd` flag here).
    pub fn run_instrumented(&self, scheme: Scheme, blocks: usize, simd: SimdPolicy) -> Solution {
        PostProcessor::new(scheme)
            .blocks(blocks)
            .h_factor(self.safe_h_factor())
            .parallel(true)
            .instrument(true)
            .simd(simd)
            .run(&self.mesh, &self.field, &self.grid)
    }

    /// Mesh statistics (for reporting the realized element-size variance).
    pub fn stats(&self) -> MeshStats {
        MeshStats::compute(&self.mesh)
    }
}

/// The mesh-size ladder: the paper's 4k–1024k in full mode, a tractable
/// prefix by default (the evaluation host has two cores, not 8 GPUs).
pub fn triangle_ladder(full: bool) -> &'static [usize] {
    if full {
        &[4_000, 16_000, 64_000, 256_000, 1_024_000]
    } else {
        &[4_000, 16_000, 64_000]
    }
}

/// Human-readable size label ("500", "4k", "1024k").
pub fn size_label(n: usize) -> String {
    if n >= 1000 {
        format!("{}k", n / 1000)
    } else {
        n.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_builds_and_runs() {
        let w = Workload::build(MeshClass::LowVariance, 300, 1, 7);
        let sol = w.run(Scheme::PerElement, 4);
        assert_eq!(sol.values.len(), w.grid.len());
        assert!(sol.metrics.intersection_tests > 0);
    }

    #[test]
    fn instrumented_workload_carries_observability() {
        let w = Workload::build(MeshClass::LowVariance, 300, 1, 7);
        let sol = w.run_instrumented(Scheme::PerElement, 4, SimdPolicy::Auto);
        assert!(!sol.spans.is_empty());
        let probe = BlockStats::merged_probe(&sol.block_stats);
        assert!(probe.candidates_per_query().count() > 0);
    }

    #[test]
    fn safe_h_factor_guards_coarse_meshes() {
        let w = Workload::build(MeshClass::HighVariance, 150, 3, 7);
        let f = w.safe_h_factor();
        let width = (3 * w.p + 1) as f64 * w.mesh.max_edge_length() * f;
        assert!(width <= 1.0);
    }

    #[test]
    fn size_ladder() {
        assert_eq!(triangle_ladder(false).len(), 3);
        assert_eq!(triangle_ladder(true).len(), 5);
        assert_eq!(size_label(64_000), "64k");
        assert_eq!(size_label(500), "500");
    }
}
