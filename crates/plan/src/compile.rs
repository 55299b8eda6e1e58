//! Plan compilation the way the paper evaluates (Algorithm 3): discover
//! `(point, element)` pairs per element, fold quadrature × kernel × basis
//! into per-mode weights (Eq. 2, DESIGN.md §9), then assemble CSR rows.
//!
//! **Scatter, then assemble.** Elements are scattered in the
//! [`TriangleGrid`]'s storage order (cells row-major, then element id), in
//! blocks that are runs of it. Each element runs the per-element scheme's
//! discovery, [`StencilTraversal::element_query`], over a [`PointGrid`] of
//! the rows' points, and emits one entry per point it meets: its
//! monomial-power sums, transformed monomial → modal once. A block
//! counting-sorts its entries by row, and the blocks are concatenated row
//! by row, so each row holds its entries in storage order.
//!
//! **Bits.** An entry is one `(point, element)` integral with no
//! cross-element sum, integrated with the `(center, elem, shift)` a point
//! query would use, so every row is bitwise the per-point gather's (kept
//! as the reference in `gather.rs`) under two rules:
//!
//! * a pair met through several periodic images sums them in the order
//!   they were met ([`AccumulateWeights::finish_element`]); a pair met
//!   once keeps its image's sums, where the point query adds them to `0.0`
//!   — a zero's sign, which a transform summed from `0.0` never sees;
//! * a point query visits the triangle grid's cells from its window's
//!   origin `(x0, y0)`, so a row's storage order is rotated to it where the
//!   window wraps the periodic domain ([`RowCompiler::rotate_wrapped`]).

use crate::plan::{Chunk, EvalPlan, CHUNK_ROWS, OVERFLOW};
use std::sync::Arc;
use std::time::Instant;
use ustencil_core::blocks::{self, block_bounds};
use ustencil_core::integrate::ElementData;
use ustencil_core::kernel::{AccumulateWeights, Scratch, StencilTraversal};
use ustencil_core::{BlockStats, ComputationGrid, ExecConfig, KernelSetup, Metrics, Probe};
use ustencil_dg::DubinerBasis;
use ustencil_geometry::Point2;
use ustencil_mesh::TriMesh;
use ustencil_spatial::{Boundary, PointGrid, TriangleGrid};
use ustencil_trace::Tracer;

/// The [`ExecConfig`] a plan is compiled, patched and applied under, by
/// the name callers that build it as `CompileOptions { .. }` spell.
pub type CompileOptions = ExecConfig;

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
        let rows = RowCompiler::new(mesh, degree, options);
        let (chunks, build_metrics) = rows.compile(&rows.order, grid.points(), options, &tracer);
        EvalPlan {
            degree,
            smoothness: rows.setup.k,
            n_modes: rows.basis.n_modes(),
            n_elements: mesh.n_triangles(),
            h: rows.setup.h,
            isa: rows.setup.isa,
            chunks: chunks.into_iter().map(Arc::new).collect(),
            build_wall: start.elapsed(),
            build_spans: tracer.into_records(),
            build_metrics,
        }
    }
}

/// Everything the rows of one problem are compiled from: the full compile
/// and the patch path (`crate::delta`) scatter element lists over point
/// lists through [`compile`](Self::compile).
pub(crate) struct RowCompiler<'a> {
    mesh: &'a TriMesh,
    basis: DubinerBasis,
    pub(crate) setup: KernelSetup,
    tri_grid: TriangleGrid,
    /// Every element in the triangle grid's storage order.
    pub(crate) order: Vec<u32>,
    /// Each element's storage cell, `iy * n + ix`.
    cell_of: Vec<u32>,
}

impl<'a> RowCompiler<'a> {
    /// Resolves `options` once, so every block — and every patch recompile
    /// under the same options — runs the same kernel on the same ISA.
    pub(crate) fn new(mesh: &'a TriMesh, degree: usize, options: &ExecConfig) -> Self {
        let tri_grid = TriangleGrid::build(mesh, Boundary::Periodic);
        let (grid, mut order, mut cell_of) =
            (tri_grid.grid(), Vec::new(), vec![0; mesh.n_triangles()]);
        let n = grid.cells_per_side();
        for cell in 0..n * n {
            for &e in grid.cell_items(cell % n, cell / n) {
                order.push(e);
                cell_of[e as usize] = cell as u32;
            }
        }
        RowCompiler {
            mesh,
            basis: DubinerBasis::new(degree),
            setup: options.resolve(mesh, degree),
            tri_grid,
            order,
            cell_of,
        }
    }

    /// Element `e`'s place in storage order: its cell, then its id.
    #[inline]
    pub(crate) fn storage_key(&self, e: u32) -> u64 {
        (self.cell_of[e as usize] as u64) << 32 | e as u64
    }

    /// Compiles one row per entry of `points` (row `i` is the stencil
    /// centered at `points[i]`) from the entries of `elements`, a
    /// subsequence of [`order`](Self::order), scattered in
    /// `config.n_blocks` runs, into [`CHUNK_ROWS`]-row chunks.
    pub(crate) fn compile(
        &self,
        elements: &[u32],
        points: &[Point2],
        config: &ExecConfig,
        tracer: &Tracer,
    ) -> (Vec<Chunk>, Metrics) {
        let point_grid =
            PointGrid::build_half_edge(points, self.mesh.max_edge_length(), Boundary::Clamped);
        let blocks = {
            let _span = tracer.span("compile.rows");
            let bounds = block_bounds(elements.len(), config.n_blocks);
            blocks::map(bounds, config.parallel, |(s, e)| {
                BlockStats::measure(config.instrument, (e - s) as u64, |probe| {
                    self.block(&elements[s..e], points, &point_grid, probe)
                })
            })
        };
        let _span = tracer.span("assemble.csr");
        let metrics = Metrics::sum(blocks.iter().map(|(_, stats)| &stats.metrics));
        let (n_rows, nm) = (points.len(), self.basis.n_modes());
        // Each block's `starts` is a prefix sum over rows; so is their sum.
        let mut row_ptr = vec![0u64; n_rows + 1];
        for (b, _) in &blocks {
            row_ptr
                .iter_mut()
                .zip(&b.starts)
                .for_each(|(p, &s)| *p += s as u64);
        }
        // Each chunk's row starts begin as its row ends, the rows' cursors:
        // last block first, each row fills backwards from its end, so each
        // block is freed once copied and block 0 leaves each its start.
        let mut chunks: Vec<_> = (0..n_rows)
            .step_by(CHUNK_ROWS)
            .map(|s| {
                let ptr = &row_ptr[s..=(s + CHUNK_ROWS).min(n_rows)];
                let (first, last) = (ptr[0], ptr[ptr.len() - 1]);
                let local = |p: &u64| u32::try_from(p - first).expect(OVERFLOW);
                Chunk {
                    n_modes: nm,
                    row_ptr: ptr[1..].iter().chain([&last]).map(local).collect(),
                    cols: vec![0; (last - first) as usize],
                    weights: vec![0.0; (last - first) as usize * nm],
                }
            })
            .collect();
        for (i, (b, _)) in blocks.into_iter().enumerate().rev() {
            let items = chunks.iter_mut().enumerate().collect();
            blocks::map(items, config.parallel, |(c, chunk)| {
                // Backwards, so block 0 finds the next row's start final.
                for local in (0..chunk.rows()).rev() {
                    let r = c * CHUNK_ROWS + local;
                    let (lo, hi) = (b.starts[r] as usize, b.starts[r + 1] as usize);
                    chunk.row_ptr[local] -= (hi - lo) as u32;
                    let to = chunk.row_ptr[local] as usize;
                    chunk.cols[to..to + hi - lo].copy_from_slice(&b.cols[lo..hi]);
                    chunk.weights[to * nm..(to + hi - lo) * nm]
                        .copy_from_slice(&b.weights[lo * nm..hi * nm]);
                    if i == 0 {
                        let end = chunk.row_ptr[local + 1] as usize;
                        let row = (
                            &mut chunk.cols[to..end],
                            &mut chunk.weights[to * nm..end * nm],
                        );
                        self.rotate_wrapped(points[r], row);
                    }
                }
            });
        }
        (chunks, metrics)
    }

    /// Scatters one run of elements into entries, counting-sorted by row.
    fn block(
        &self,
        elements: &[u32],
        points: &[Point2],
        point_grid: &PointGrid,
        probe: &mut Probe,
    ) -> (BlockOut, Metrics) {
        let mut metrics = Metrics::default();
        let nm = self.basis.n_modes();
        let exps = self.basis.monomial_exponents();
        let trav = StencilTraversal::new(&self.setup.stencil, &self.setup.rule, exps, nm)
            .with_simd(self.setup.isa);
        let mut scratch = Scratch::new();
        let mut sink = AccumulateWeights::new(&self.basis);
        let mut cols = Vec::new();
        for &e in elements {
            // Geometry only: no coefficient is read (`elem_data_loads = 0`).
            let ed = ElementData::gather_geometry(self.mesh, e as usize, nm);
            let on_hit = |point, shift, sink: &mut AccumulateWeights| sink.hit(point, shift);
            let (scratch, metrics) = (&mut scratch, &mut metrics);
            trav.element_query(
                &ed, points, point_grid, scratch, &mut sink, metrics, probe, on_hit,
            );
            cols.resize(cols.len() + sink.finish_element(), e);
        }
        let (rows, weights) = sink.into_entries();
        metrics.solution_writes += rows.len() as u64;
        let out = BlockOut::sort_by_row(points.len(), nm, &rows, &cols, &weights);
        (out, metrics)
    }

    /// Rotates the row centered at `center` from storage order, sorted by
    /// cell `(iy, ix)`, into the order `TriangleGrid::for_each_candidate`
    /// visits cells: cell rows from the window's first, `y0`, on, then in
    /// each the columns from `x0` on. Both are stable rotations.
    pub(crate) fn rotate_wrapped(&self, center: Point2, row: (&mut [u32], &mut [f64])) {
        let (cols, weights) = row;
        let (grid, nm) = (self.tri_grid.grid(), self.basis.n_modes());
        let n = grid.cells_per_side();
        // `for_each_candidate`'s window, expression for expression.
        let reach = self.setup.stencil.width() / 2.0 + grid.cell_size();
        let (x0, xc) = grid.axis_span(center.x - reach, center.x + reach);
        let (y0, yc) = grid.axis_span(center.y - reach, center.y + reach);
        let cell = |cols: &[u32], k: usize| self.cell_of[cols[k] as usize] as usize;
        let rotate = |cols: &mut [u32], weights: &mut [f64], lo: usize, hi: usize, mid| {
            cols[lo..hi].rotate_left(mid);
            weights[lo * nm..hi * nm].rotate_left(mid * nm);
        };
        if y0 + yc > n {
            let below = (0..cols.len())
                .take_while(|&k| cell(cols, k) / n < y0)
                .count();
            rotate(cols, weights, 0, cols.len(), below);
        }
        let mut start = 0;
        while x0 + xc > n && start < cols.len() {
            let iy = cell(cols, start) / n;
            let end = (start..cols.len())
                .find(|&k| cell(cols, k) / n != iy)
                .unwrap_or(cols.len());
            let left = (start..end).take_while(|&k| cell(cols, k) % n < x0).count();
            rotate(cols, weights, start, end, left);
            start = end;
        }
    }
}

/// One block's entries by row: row `r` owns `cols[starts[r]..starts[r + 1]]`
/// (and `n_modes` weights each), in element order.
struct BlockOut {
    starts: Vec<u32>,
    cols: Vec<u32>,
    weights: Vec<f64>,
}

impl BlockOut {
    /// A stable counting sort of the entries `(rows[i], cols[i])` by row.
    fn sort_by_row(n_rows: usize, nm: usize, rows: &[u32], cols: &[u32], weights: &[f64]) -> Self {
        let mut starts = vec![0u32; n_rows + 1];
        for &r in rows {
            starts[r as usize + 1] += 1;
        }
        for r in 0..n_rows {
            starts[r + 1] += starts[r];
        }
        let mut next = starts[..n_rows].to_vec();
        let (mut out_cols, mut out_weights) = (vec![0; cols.len()], vec![0.0; weights.len()]);
        for (i, &r) in rows.iter().enumerate() {
            let at = next[r as usize] as usize;
            next[r as usize] += 1;
            out_cols[at] = cols[i];
            out_weights[at * nm..(at + 1) * nm].copy_from_slice(&weights[i * nm..(i + 1) * nm]);
        }
        BlockOut {
            starts,
            cols: out_cols,
            weights: out_weights,
        }
    }
}
