//! Plan compilation: run the per-point discovery machinery once, folding
//! quadrature × kernel × basis into per-mode weights.
//!
//! The weight of entry `(point r, element e)` for mode `m` is (Eq. 2)
//!
//! ```text
//! w[r][e][m] = Σ_cells Σ_subtris |J| Σ_q ω_q · K_h(p_q - x_r) · φ_m(p_q)
//! ```
//!
//! where the cells are the stencil lattice squares clipped against (a
//! periodic image of) element `e`, the sub-triangles come from fan
//! triangulation of each clip polygon, and `φ_m` is evaluated through the
//! same monomial path the direct engine uses: accumulate monomial-power
//! sums `Σ ω_q K u^a v^b` first, then transform monomial → modal with the
//! basis change matrix once per entry. This mirrors `ElementData::eval`
//! term for term, so plan applies agree with direct evaluation to rounding.

use crate::plan::EvalPlan;
use std::time::Instant;
use ustencil_core::blocks::{self, block_bounds};
use ustencil_core::integrate::ElementData;
use ustencil_core::kernel::{AccumulateWeights, Scratch, StencilTraversal};
use ustencil_core::{BlockStats, ComputationGrid, ExecConfig, KernelSetup, Metrics, Probe};
use ustencil_dg::DubinerBasis;
use ustencil_mesh::TriMesh;
use ustencil_spatial::{Boundary, TriangleGrid};
use ustencil_trace::Tracer;

/// The [`ExecConfig`] a plan is compiled, patched and applied under, by
/// the name callers that build it as `CompileOptions { .. }` spell.
pub type CompileOptions = ExecConfig;

/// One block's share of the CSR arrays, concatenated by [`assemble_csr`].
pub(crate) struct BlockOut {
    /// Entries per row, for the row-pointer prefix sum.
    row_counts: Vec<u32>,
    cols: Vec<u32>,
    weights: Vec<f64>,
}

impl EvalPlan {
    /// Compiles a plan for degree-`degree` fields over `mesh`, evaluated at
    /// `grid`'s points.
    ///
    /// # Panics
    /// Panics when `options` does not
    /// [resolve](ustencil_core::ExecConfig::resolve) over `mesh` (the
    /// `(3k + 1) h <= 1` requirement and the degree limit, as in
    /// `PostProcessor::run`).
    pub fn compile(
        mesh: &TriMesh,
        grid: &ComputationGrid,
        degree: usize,
        options: &ExecConfig,
    ) -> EvalPlan {
        let start = Instant::now();
        let tracer = Tracer::new(options.instrument);
        let basis = DubinerBasis::new(degree);
        let n_modes = basis.n_modes();
        // Resolved once, so every block — and every patch recompile under
        // the same options — runs the same kernel on the same ISA.
        let setup = {
            let _span = tracer.span("setup.kernel");
            options.resolve(mesh, degree)
        };
        let tri_grid = {
            let _span = tracer.span("build.tri_grid");
            TriangleGrid::build(mesh, Boundary::Periodic)
        };
        let rows = RowCompiler {
            mesh,
            grid,
            basis: &basis,
            setup: &setup,
            tri_grid: &tri_grid,
        };
        let blocks = {
            let _span = tracer.span("compile.rows");
            rows.sweep(grid.len(), options, |s, e| s as u32..e as u32)
        };
        let (row_ptr, cols, weights) = {
            let _span = tracer.span("assemble.csr");
            assemble_csr(&blocks)
        };
        let build_metrics = Metrics::sum(blocks.iter().map(|(_, stats)| &stats.metrics));

        EvalPlan {
            degree,
            smoothness: setup.k,
            n_modes,
            n_elements: mesh.n_triangles(),
            h: setup.h,
            row_ptr,
            cols,
            weights,
            build_wall: start.elapsed(),
            build_spans: tracer.into_records(),
            build_metrics,
        }
    }
}

/// Everything the rows of one problem are compiled from. Both the full
/// compile and the incremental patch path (`crate::delta`) compile rows
/// through [`sweep`](Self::sweep), so a recompiled row replays exactly the
/// call sequence of its fresh-compile counterpart — the basis of the patch
/// path's bitwise guarantee.
pub(crate) struct RowCompiler<'a> {
    pub(crate) mesh: &'a TriMesh,
    pub(crate) grid: &'a ComputationGrid,
    pub(crate) basis: &'a DubinerBasis,
    pub(crate) setup: &'a KernelSetup,
    pub(crate) tri_grid: &'a TriangleGrid,
}

impl RowCompiler<'_> {
    /// Compiles `n` rows in `config.n_blocks` blocks; block `(s, e)`
    /// compiles the grid points `ids(s, e)` in that order.
    pub(crate) fn sweep<I: ExactSizeIterator<Item = u32>>(
        &self,
        n: usize,
        config: &ExecConfig,
        ids: impl Fn(usize, usize) -> I + Sync,
    ) -> Vec<(BlockOut, BlockStats)> {
        let bounds = block_bounds(n, config.n_blocks);
        blocks::map(bounds, config.parallel, |(s, e)| {
            BlockStats::measure(config.instrument, 0, |probe| self.block(ids(s, e), probe))
        })
    }

    /// Compiles one CSR row per entry of `points`.
    fn block(
        &self,
        points: impl ExactSizeIterator<Item = u32>,
        probe: &mut Probe,
    ) -> (BlockOut, Metrics) {
        let mut metrics = Metrics::default();
        let n_modes = self.basis.n_modes();
        let trav = StencilTraversal::new(
            &self.setup.stencil,
            &self.setup.rule,
            self.basis.monomial_exponents(),
            n_modes,
        )
        .with_simd(self.setup.isa);
        let n_rows = points.len();
        let mut row_counts = Vec::with_capacity(n_rows);
        let mut scratch = Scratch::new();
        let mut sink = AccumulateWeights::new(self.basis);

        for point in points {
            let center = self.grid.points()[point as usize];
            sink.begin_row();
            // Same traversal as a direct per-point query, but the weights
            // sink keeps the quadrature symbolic; no element coefficients
            // are read (`elem_load_values = 0`), only geometry is gathered.
            trav.point_query(
                center,
                self.tri_grid,
                |e| ElementData::gather_geometry(self.mesh, e, n_modes),
                0,
                &mut scratch,
                &mut sink,
                &mut metrics,
                probe,
            );
            row_counts.push(sink.row_entries());
            metrics.solution_writes += 1;
        }
        metrics.partial_slots += n_rows as u64;

        let (cols, weights) = sink.into_csr();
        let out = BlockOut {
            row_counts,
            cols,
            weights,
        };
        (out, metrics)
    }
}

/// Concatenates swept blocks into `(row_ptr, cols, weights)`.
pub(crate) fn assemble_csr(blocks: &[(BlockOut, BlockStats)]) -> (Vec<u64>, Vec<u32>, Vec<f64>) {
    let n_rows: usize = blocks.iter().map(|(b, _)| b.row_counts.len()).sum();
    let mut row_ptr = Vec::with_capacity(n_rows + 1);
    let mut cols = Vec::with_capacity(blocks.iter().map(|(b, _)| b.cols.len()).sum());
    let mut weights = Vec::with_capacity(blocks.iter().map(|(b, _)| b.weights.len()).sum());
    row_ptr.push(0u64);
    let mut acc = 0u64;
    for (b, _) in blocks {
        for &c in &b.row_counts {
            acc += c as u64;
            row_ptr.push(acc);
        }
        cols.extend_from_slice(&b.cols);
        weights.extend_from_slice(&b.weights);
    }
    (row_ptr, cols, weights)
}
