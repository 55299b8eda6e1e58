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
use rayon::prelude::*;
use std::time::Instant;
use ustencil_core::integrate::{ElementData, IntegrationCtx, MAX_MODES};
use ustencil_core::kernel::{AccumulateWeights, Scratch, StencilTraversal};
use ustencil_core::{BlockStats, ComputationGrid, Metrics, Probe, SimdIsa, SimdPolicy};
use ustencil_dg::DubinerBasis;
use ustencil_mesh::TriMesh;
use ustencil_quadrature::TriangleRule;
use ustencil_siac::Stencil2d;
use ustencil_spatial::{Boundary, TriangleGrid};
use ustencil_trace::Tracer;

/// Configuration of a plan compilation. Mirrors the relevant subset of
/// [`PostProcessor`](ustencil_core::PostProcessor) settings so a plan can
/// reproduce exactly the kernel/quadrature setup a direct run would use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompileOptions {
    /// Explicit kernel smoothness `k` (default: the field degree `p`).
    pub smoothness: Option<usize>,
    /// Kernel width factor, `h = h_factor * max_edge` (default 1.0).
    pub h_factor: f64,
    /// Concurrent point blocks during compilation (default 16).
    pub n_blocks: usize,
    /// Whether to compile blocks on worker threads (default true).
    pub parallel: bool,
    /// Whether to record phase spans and distribution probes (default
    /// false).
    pub instrument: bool,
    /// SIMD policy of the quadrature reduction during compilation (default
    /// [`SimdPolicy::Auto`]). The resolved ISA perturbs the compiled
    /// weights at the FMA-contraction level (`≤ 1e-12` relative), so it is
    /// part of the plan's content identity ([`PlanKey`](crate::PlanKey));
    /// [`SimdPolicy::Scalar`] reproduces pre-SIMD weights bitwise.
    pub simd: SimdPolicy,
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self {
            smoothness: None,
            h_factor: 1.0,
            n_blocks: 16,
            parallel: true,
            instrument: false,
            simd: SimdPolicy::Auto,
        }
    }
}

impl CompileOptions {
    /// Adopts the kernel/parallelism choices of a processor snapshot
    /// ([`PostProcessor::settings`](ustencil_core::PostProcessor::settings)).
    pub fn from_settings(s: &ustencil_core::ProcessorSettings) -> Self {
        Self {
            smoothness: s.smoothness,
            h_factor: s.h_factor,
            n_blocks: s.n_blocks,
            parallel: s.parallel,
            instrument: s.instrument,
            simd: s.simd,
        }
    }
}

/// One block's share of the CSR arrays, concatenated after the join. Also
/// the unit of row recompilation in the incremental patch path
/// (`crate::delta`), which compiles explicit point lists through the same
/// [`compile_block`] the full compile uses — identical per-row call
/// sequence, hence bit-identical rows.
pub(crate) struct BlockOut {
    /// Entries per row, for the row-pointer prefix sum.
    pub(crate) row_counts: Vec<u32>,
    pub(crate) cols: Vec<u32>,
    pub(crate) weights: Vec<f64>,
    pub(crate) stats: BlockStats,
}

impl EvalPlan {
    /// Compiles a plan for degree-`degree` fields over `mesh`, evaluated at
    /// `grid`'s points.
    ///
    /// # Panics
    /// Panics when the stencil is wider than the periodic unit domain (the
    /// `(3k + 1) h <= 1` requirement, as in `PostProcessor::run`) or the
    /// degree exceeds the engine's mode budget.
    pub fn compile(
        mesh: &TriMesh,
        grid: &ComputationGrid,
        degree: usize,
        options: &CompileOptions,
    ) -> EvalPlan {
        let start = Instant::now();
        let tracer = Tracer::new(options.instrument);
        let k = options.smoothness.unwrap_or(degree);
        let h = options.h_factor * mesh.max_edge_length();
        let basis = DubinerBasis::new(degree);
        let n_modes = basis.n_modes();
        assert!(n_modes <= MAX_MODES, "degree {degree} exceeds mode budget");
        // Resolve the SIMD policy once so every block — and every patch
        // recompile under the same options — runs the same reduction ISA.
        let simd_isa = options.simd.resolve();

        let (stencil, rule) = {
            let _span = tracer.span("setup.kernel");
            let stencil = Stencil2d::symmetric(k, h);
            assert!(
                stencil.width() <= 1.0 + 1e-12,
                "stencil width {} exceeds the periodic unit domain; \
                 use a larger mesh or a smaller h_factor",
                stencil.width()
            );
            let rule = TriangleRule::with_strength(IntegrationCtx::required_strength(k, degree));
            (stencil, rule)
        };
        let tri_grid = {
            let _span = tracer.span("build.tri_grid");
            TriangleGrid::build(mesh, Boundary::Periodic)
        };

        let n = grid.len();
        let n_blocks = options.n_blocks.clamp(1, n.max(1));
        let bounds: Vec<(usize, usize)> = (0..n_blocks)
            .map(|b| (b * n / n_blocks, (b + 1) * n / n_blocks))
            .collect();

        let block = |s: usize, e: usize| -> BlockOut {
            let block_start = Instant::now();
            let mut probe = Probe::new(options.instrument);
            let mut out = compile_block(
                mesh,
                grid,
                &basis,
                &stencil,
                &rule,
                &tri_grid,
                s as u32..e as u32,
                simd_isa,
                &mut probe,
            );
            out.stats.wall_ns = block_start.elapsed().as_nanos() as u64;
            out.stats.points = (e - s) as u64;
            out.stats.probe = probe;
            out
        };

        let blocks: Vec<BlockOut> = {
            let _span = tracer.span("compile.rows");
            if options.parallel {
                bounds.par_iter().map(|&(s, e)| block(s, e)).collect()
            } else {
                bounds.iter().map(|&(s, e)| block(s, e)).collect()
            }
        };

        let _span = tracer.span("assemble.csr");
        let nnz: usize = blocks.iter().map(|b| b.cols.len()).sum();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut cols = Vec::with_capacity(nnz);
        let mut weights = Vec::with_capacity(nnz * n_modes);
        row_ptr.push(0u64);
        let mut acc = 0u64;
        for b in &blocks {
            for &c in &b.row_counts {
                acc += c as u64;
                row_ptr.push(acc);
            }
            cols.extend_from_slice(&b.cols);
            weights.extend_from_slice(&b.weights);
        }
        drop(_span);
        let build_metrics = Metrics::sum(blocks.iter().map(|b| &b.stats.metrics));

        EvalPlan {
            degree,
            smoothness: k,
            n_modes,
            n_elements: mesh.n_triangles(),
            h,
            row_ptr,
            cols,
            weights,
            build_wall: start.elapsed(),
            build_spans: tracer.into_records(),
            build_metrics,
        }
    }
}

/// Compiles one CSR row per entry of `points` (grid point ids, in row
/// emission order), returning the block's CSR slices. Both the full compile
/// and the incremental patch path (`crate::delta`) funnel through this
/// function, so a recompiled row replays exactly the call sequence of its
/// fresh-compile counterpart — the basis of the patch path's bitwise
/// guarantee.
#[allow(clippy::too_many_arguments)]
pub(crate) fn compile_block(
    mesh: &TriMesh,
    grid: &ComputationGrid,
    basis: &DubinerBasis,
    stencil: &Stencil2d,
    rule: &TriangleRule,
    tri_grid: &TriangleGrid,
    points: impl ExactSizeIterator<Item = u32>,
    simd: SimdIsa,
    probe: &mut Probe,
) -> BlockOut {
    let mut metrics = Metrics::default();
    let n_modes = basis.n_modes();
    let trav =
        StencilTraversal::new(stencil, rule, basis.monomial_exponents(), n_modes).with_simd(simd);
    let n_rows = points.len();
    let mut row_counts = Vec::with_capacity(n_rows);
    let mut scratch = Scratch::new();
    let mut sink = AccumulateWeights::new(basis);

    for point in points {
        let center = grid.points()[point as usize];
        sink.begin_row();
        // Same traversal as a direct per-point query, but the weights sink
        // keeps the quadrature symbolic; no element coefficients are read
        // (`elem_load_values = 0`), only geometry is gathered.
        trav.point_query(
            center,
            tri_grid,
            |e| ElementData::gather_geometry(mesh, e, n_modes),
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
    BlockOut {
        row_counts,
        cols,
        weights,
        stats: BlockStats::bare(metrics),
    }
}
