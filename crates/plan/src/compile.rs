//! Plan compilation the way the paper evaluates (Algorithm 3): discover
//! `(point, element)` pairs per element, fold quadrature × kernel × basis
//! into per-mode weights (Eq. 2, DESIGN.md §9), then assemble element
//! groups.
//!
//! **Scatter, then assemble.** Elements are scattered in the
//! [`TriangleGrid`]'s storage order (cells row-major, then element id), in
//! blocks that are runs of it. Each element runs the per-element scheme's
//! discovery, [`StencilTraversal::element_query`], over a [`PointGrid`] of
//! the rows' points, and emits one entry per point it meets: its
//! monomial-power sums, transformed monomial → modal once. A block
//! counting-sorts its entries by group ([`RowCompiler::layout`]); an
//! element's hits on a group are adjacent, so each is one column of it.
//! The blocks are concatenated group by group, so each group holds its
//! columns in storage order.
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
//!   window wraps the periodic domain. The rows of a group share one
//!   rotation ([`RowCompiler::layout`]), which is then the group's.

use crate::delta::NONE;
use crate::plan::{slot, Chunk, EvalPlan, CHUNK_ROWS, GROUP_ROWS, OVERFLOW};
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
        let owners = Some(grid.owners());
        let (chunks, build_metrics) =
            rows.compile(&rows.order, grid.points(), owners, options, &tracer);
        EvalPlan {
            degree,
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

    /// Cuts the rows centered at `points` into groups: runs of at most
    /// [`GROUP_ROWS`] consecutive rows of one chunk that share an owner in
    /// `owners` and whose candidate windows' hull spans at most the grid on
    /// each axis, cut greedily from each chunk's first row. Returns each
    /// group's first row, then `points.len()`, and each group's origin: per
    /// axis the hull's first cell where it wraps the periodic grid, else
    /// `0`. Inside the hull each row's window lies unwrapped, so storage
    /// order rotated to the origin ([`key`](Self::key)) keeps the order each
    /// row's point query visits cells in. Without `owners` every row is a
    /// group. The rule reads only the rows' points, owners and places, so a
    /// compile and a patch of one problem cut the same groups.
    pub(crate) fn layout(
        &self,
        points: &[Point2],
        owners: Option<&[u32]>,
    ) -> (Vec<u32>, Vec<[usize; 2]>) {
        let grid = self.tri_grid.grid();
        let n = grid.cells_per_side() as i64;
        // `for_each_candidate`'s window, expression for expression.
        let reach = self.setup.stencil.width() / 2.0 + grid.cell_size();
        // Per axis the hull `lo..hi`, in cells from the group's first cell.
        let origin = |hull: [(i64, i64, i64); 2]| {
            hull.map(|(a, lo, hi)| {
                let first = (a + lo).rem_euclid(n);
                (if first + hi - lo > n { first } else { 0 }) as usize
            })
        };
        let (mut starts, mut hulls) = (Vec::new(), Vec::new());
        for (r, p) in points.iter().enumerate() {
            let window = [p.x, p.y].map(|c| grid.axis_span(c - reach, c + reach));
            let s = starts.last().map_or(0, |&s| s as usize);
            let mut joined: [(i64, i64, i64); 2] = hulls.last().copied().unwrap_or_default();
            for ((a, lo, hi), (first, count)) in joined.iter_mut().zip(window) {
                // `first - a` the shorter way round: in `(-n / 2, n / 2]`.
                let d = first as i64 - *a + if (first as i64) < *a { n } else { 0 };
                let d = if 2 * d > n { d - n } else { d };
                (*lo, *hi) = ((*lo).min(d), (*hi).max(d + count as i64));
            }
            let joins = owners.is_some_and(|o| o[r] == o[s])
                && r % CHUNK_ROWS != 0
                && r - s < GROUP_ROWS
                && joined.iter().all(|&(_, lo, hi)| hi - lo <= n);
            if joins {
                *hulls.last_mut().unwrap() = joined;
            } else {
                starts.push(r as u32);
                hulls.push(window.map(|(first, count)| (first as i64, 0, count as i64)));
            }
        }
        starts.push(points.len() as u32);
        (starts, hulls.into_iter().map(origin).collect())
    }

    /// Element `e`'s place in the storage order rotated to `origin`: its
    /// cell's row and column counted from there, then its id.
    #[inline]
    pub(crate) fn key(&self, origin: [usize; 2], e: u32) -> u64 {
        let n = self.tri_grid.grid().cells_per_side();
        let cell = self.cell_of[e as usize] as usize;
        let cell = match origin {
            [0, 0] => cell,
            [x0, y0] => (cell / n + n - y0) % n * n + (cell % n + n - x0) % n,
        };
        (cell as u64) << 32 | e as u64
    }

    /// Compiles one row per entry of `points` (row `i` is the stencil
    /// centered at `points[i]`), grouped by [`layout`](Self::layout) over
    /// `owners`, from the entries of `elements`, a subsequence of
    /// [`order`](Self::order), scattered in `config.n_blocks` runs, into
    /// [`CHUNK_ROWS`]-row chunks.
    pub(crate) fn compile(
        &self,
        elements: &[u32],
        points: &[Point2],
        owners: Option<&[u32]>,
        config: &ExecConfig,
        tracer: &Tracer,
    ) -> (Vec<Chunk>, Metrics) {
        let point_grid =
            PointGrid::build_half_edge(points, self.mesh.max_edge_length(), Boundary::Clamped);
        let (layout, origins) = self.layout(points, owners);
        let mut of_row = vec![0; points.len()];
        for (k, rows) in layout.windows(2).enumerate() {
            of_row[rows[0] as usize..rows[1] as usize].fill(k as u32);
        }
        let blocks = {
            let _span = tracer.span("compile.rows");
            let bounds = block_bounds(elements.len(), config.n_blocks);
            blocks::map(bounds, config.parallel, |(s, e)| {
                BlockStats::measure(config.instrument, (e - s) as u64, |probe| {
                    let elements = &elements[s..e];
                    self.block(elements, points, &point_grid, &layout, &of_row, probe)
                })
            })
        };
        let _span = tracer.span("assemble.groups");
        let metrics = Metrics::sum(blocks.iter().map(|(_, stats)| &stats.metrics));
        let (n_rows, nm) = (points.len(), self.basis.n_modes());
        let first_group = |row: usize| layout.partition_point(|&s| (s as usize) < row.min(n_rows));
        // Each chunk's group offsets begin as its group ends, the groups'
        // cursors: last block first, each group fills backwards from its
        // end, so each block is freed once copied and block 0 leaves each
        // its start.
        let mut chunks: Vec<_> = (0..n_rows)
            .step_by(CHUNK_ROWS)
            .map(|lo| {
                let (mut chunk, mut cols, mut weights) = (Chunk::new(nm), 0, 0);
                (chunk.col_ptr, chunk.w_ptr) = (Vec::new(), Vec::new());
                for k in first_group(lo)..first_group(lo + CHUNK_ROWS) {
                    for (b, _) in &blocks {
                        let part = b.group(k);
                        (cols, weights) = (cols + part.cols.len(), weights + part.weights.len());
                    }
                    chunk.rows.push(layout[k + 1] - lo as u32);
                    chunk.col_ptr.push(u32::try_from(cols).expect(OVERFLOW));
                    chunk.w_ptr.push(u32::try_from(weights).expect(OVERFLOW));
                }
                chunk.col_ptr.push(u32::try_from(cols).expect(OVERFLOW));
                chunk.w_ptr.push(u32::try_from(weights).expect(OVERFLOW));
                (chunk.cols, chunk.present) = (vec![0; cols], vec![0; cols]);
                chunk.weights = vec![0.0; weights];
                chunk
            })
            .collect();
        for (i, (b, _)) in blocks.into_iter().enumerate().rev() {
            let items = chunks.iter_mut().enumerate().collect();
            blocks::map(items, config.parallel, |(c, chunk)| {
                let g0 = first_group(c * CHUNK_ROWS);
                // Backwards, so block 0 finds the next group's start final.
                for q in (0..chunk.n_groups()).rev() {
                    let part = b.group(g0 + q);
                    let (n, w) = (part.cols.len(), part.weights.len());
                    chunk.col_ptr[q] -= n as u32;
                    chunk.w_ptr[q] -= w as u32;
                    let (to, w_to) = (chunk.col_ptr[q] as usize, chunk.w_ptr[q] as usize);
                    chunk.cols[to..to + n].copy_from_slice(part.cols);
                    chunk.present[to..to + n].copy_from_slice(part.present);
                    chunk.weights[w_to..w_to + w].copy_from_slice(part.weights);
                    if i == 0 {
                        let (end, w_end) = (chunk.col_ptr[q + 1], chunk.w_ptr[q + 1]);
                        self.rotate(
                            origins[g0 + q],
                            &mut chunk.cols[to..end as usize],
                            &mut chunk.present[to..end as usize],
                            &mut chunk.weights[w_to..w_end as usize],
                        );
                    }
                }
                if i == 0 {
                    chunk.nnz = chunk.present.iter().map(|b| b.count_ones() as usize).sum();
                }
            });
        }
        (chunks, metrics)
    }

    /// Scatters one run of elements into entries, counting-sorted by group.
    fn block(
        &self,
        elements: &[u32],
        points: &[Point2],
        point_grid: &PointGrid,
        layout: &[u32],
        of_row: &[u32],
        probe: &mut Probe,
    ) -> (Chunk, Metrics) {
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
        let out = by_group(layout, of_row, nm, &rows, &cols, &weights);
        (out, metrics)
    }

    /// Rotates a group's columns from storage order, sorted by cell
    /// `(iy, ix)`, to the order starting at `origin` that its rows share
    /// ([`key`](Self::key)): cell rows from `y0` on, then in each the
    /// columns from `x0` on. Both are stable rotations; a column moves with
    /// its presence byte and its packed weights.
    fn rotate(
        &self,
        [x0, y0]: [usize; 2],
        cols: &mut [u32],
        present: &mut [u8],
        weights: &mut [f64],
    ) {
        let (n, len, nm) = (
            self.tri_grid.grid().cells_per_side(),
            cols.len(),
            self.basis.n_modes(),
        );
        let cell = |cols: &[u32], k: usize| self.cell_of[cols[k] as usize] as usize;
        // Rotates columns `lo..hi`, whose weights start at `from`, left by
        // `mid`; returns where the next column's weights start.
        let mut rotate = |cols: &mut [u32], lo: usize, hi: usize, mid: usize, from: usize| {
            let width =
                |cols: &[u8]| nm * cols.iter().map(|b| b.count_ones() as usize).sum::<usize>();
            let (ahead, all) = (width(&present[lo..lo + mid]), width(&present[lo..hi]));
            cols[lo..hi].rotate_left(mid);
            present[lo..hi].rotate_left(mid);
            weights[from..from + all].rotate_left(ahead);
            from + all
        };
        if y0 > 0 {
            let below = (0..len).take_while(|&k| cell(cols, k) / n < y0).count();
            rotate(cols, 0, len, below, 0);
        }
        let (mut start, mut from) = (0, 0);
        while x0 > 0 && start < len {
            let iy = cell(cols, start) / n;
            let end = (start..len).find(|&k| cell(cols, k) / n != iy);
            let end = end.unwrap_or(len);
            let left = (start..end).take_while(|&k| cell(cols, k) % n < x0).count();
            from = rotate(cols, start, end, left, from);
            start = end;
        }
    }
}

/// One block's entries as a chunk of every group (`layout`, `of_row` each
/// row's group), a stable counting sort of the entries `(rows[i], cols[i])`
/// by group: an element's entries are adjacent, so its hits on a group make
/// one column, and the group's columns keep element order. A first pass
/// lays out the columns and their presence bytes, which fix each column's
/// packed weights; a second writes the weights in place.
fn by_group(
    layout: &[u32],
    of_row: &[u32],
    nm: usize,
    rows: &[u32],
    cols: &[u32],
    weights: &[f64],
) -> Chunk {
    let n_groups = layout.len() - 1;
    let fit = |n: usize| u32::try_from(n).expect(OVERFLOW);
    let (mut last, mut n_cols) = (vec![NONE; n_groups], vec![0; n_groups]);
    for (&r, &e) in rows.iter().zip(cols) {
        let k = of_row[r as usize] as usize;
        n_cols[k] += (std::mem::replace(&mut last[k], e) != e) as usize;
    }
    let mut out = Chunk::new(nm);
    out.rows = layout.to_vec();
    for (k, n) in n_cols.into_iter().enumerate() {
        out.col_ptr.push(fit(out.col_ptr[k] as usize + n));
    }
    let c = out.col_ptr[n_groups] as usize;
    (out.cols, out.present) = (vec![0; c], vec![0; c]);
    // Per pass, the group and column each entry lands in, in turn.
    let cursor = |col_ptr: &[u32]| {
        let (mut next, mut last) = (col_ptr[..n_groups].to_vec(), vec![NONE; n_groups]);
        move |r: u32, e: u32| {
            let k = of_row[r as usize] as usize;
            next[k] += (std::mem::replace(&mut last[k], e) != e) as u32;
            (k, next[k] as usize - 1)
        }
    };
    let mut column = cursor(&out.col_ptr);
    for (&r, &e) in rows.iter().zip(cols) {
        let (k, j) = column(r, e);
        out.cols[j] = e;
        out.present[j] |= 1 << (r - layout[k]);
    }
    let mut at = Vec::with_capacity(c + 1);
    at.push(0);
    for &b in &out.present {
        at.push(at[at.len() - 1] + b.count_ones() as usize * nm);
    }
    out.w_ptr = out.col_ptr.iter().map(|&j| fit(at[j as usize])).collect();
    out.weights = vec![0.0; at[c]];
    let mut column = cursor(&out.col_ptr);
    for (i, (&r, &e)) in rows.iter().zip(cols).enumerate() {
        let (k, j) = column(r, e);
        for (m, &w) in weights[i * nm..(i + 1) * nm].iter().enumerate() {
            out.weights[at[j] + slot(out.present[j], (r - layout[k]) as usize, m)] = w;
        }
    }
    out
}
