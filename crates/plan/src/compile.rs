//! Plan compilation the way the paper evaluates (Algorithm 3): discover
//! `(point, element)` pairs per element, fold quadrature × kernel × basis
//! into per-mode weights (Eq. 2, DESIGN.md §9), and store them as element
//! groups.
//!
//! **Chunk by chunk.** Each [`CHUNK_ROWS`]-row chunk is compiled on its
//! own. The elements stored in the [`TriangleGrid`] cells its rows' windows
//! reach run, in storage order (cells row-major, then element id), the
//! per-element discovery [`StencilTraversal::element_query`] over the rows
//! reaching their cell, and emit one entry per row met: monomial sums. A
//! counting sort by group ([`RowCompiler::layout`]) writes them into the
//! chunk's exact-size arrays, transformed to modal as they are written; an
//! element's hits on a group are adjacent, so each is one column.
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
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Instant;
use ustencil_core::blocks::{self, block_bounds};
use ustencil_core::integrate::ElementData;
use ustencil_core::kernel::{AccumulateWeights, Scratch, StencilTraversal};
use ustencil_core::{ComputationGrid, ExecConfig, KernelSetup, Metrics};
use ustencil_dg::DubinerBasis;
use ustencil_geometry::Point2;
use ustencil_mesh::TriMesh;
use ustencil_spatial::{Boundary, TriangleGrid};
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
        let (chunks, build_metrics) = {
            let _span = tracer.span("compile.rows");
            rows.compile(None, grid.points(), Some(grid.owners()), options)
        };
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

/// Everything the rows of one problem are compiled from, by the full
/// compile and the patch path (`crate::delta`) alike.
pub(crate) struct RowCompiler<'a> {
    mesh: &'a TriMesh,
    basis: DubinerBasis,
    pub(crate) setup: KernelSetup,
    tri_grid: TriangleGrid,
    /// Each element's storage cell, `iy * n + ix`.
    cell_of: Vec<u32>,
}

impl<'a> RowCompiler<'a> {
    /// Resolves `options` once, so every block — and every patch recompile
    /// under the same options — runs the same kernel on the same ISA.
    pub(crate) fn new(mesh: &'a TriMesh, degree: usize, options: &ExecConfig) -> Self {
        let tri_grid = TriangleGrid::build(mesh, Boundary::Periodic);
        let (grid, mut cell_of) = (tri_grid.grid(), vec![0; mesh.n_triangles()]);
        let n = grid.cells_per_side();
        for cell in 0..n * n {
            for &e in grid.cell_items(cell % n, cell / n) {
                cell_of[e as usize] = cell as u32;
            }
        }
        RowCompiler {
            mesh,
            basis: DubinerBasis::new(degree),
            setup: options.resolve(mesh, degree),
            tri_grid,
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
    /// group (DESIGN.md §9: a compile and a patch cut the same groups).
    pub(crate) fn layout(
        &self,
        points: &[Point2],
        owners: Option<&[u32]>,
    ) -> (Vec<u32>, Vec<[usize; 2]>) {
        let n = self.tri_grid.grid().cells_per_side() as i64;
        // Per axis the hull `lo..hi`, in cells from the group's first cell.
        let origin = |hull: [(i64, i64, i64); 2]| {
            hull.map(|(a, lo, hi)| {
                let first = (a + lo).rem_euclid(n);
                (if first + hi - lo > n { first } else { 0 }) as usize
            })
        };
        let (mut starts, mut hulls) = (Vec::new(), Vec::new());
        for (r, p) in points.iter().enumerate() {
            let window = self.window(*p);
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
    /// `owners`, from the elements of `elements` (every element if `None`),
    /// into [`CHUNK_ROWS`]-row chunks.
    pub(crate) fn compile(
        &self,
        elements: Option<&[u32]>,
        points: &[Point2],
        owners: Option<&[u32]>,
        config: &ExecConfig,
    ) -> (Vec<Chunk>, Metrics) {
        let (layout, origins) = self.layout(points, owners);
        let (layout, origins) = (&layout[..], &origins[..]);
        let mut member = vec![elements.is_none(); self.mesh.n_triangles()];
        for &e in elements.unwrap_or_default() {
            member[e as usize] = true;
        }
        let (member, idle) = (&member[..], Mutex::new(Vec::new()));
        let (exps, nm) = (self.basis.monomial_exponents(), self.basis.n_modes());
        let trav = StencilTraversal::new(&self.setup.stencil, &self.setup.rule, exps, nm);
        let trav = trav.with_simd(self.setup.isa);
        let bounds = block_bounds(points.len().div_ceil(CHUNK_ROWS), config.n_blocks);
        // A chunk outlives the compile, so the calling thread allocates it
        // once a block has sized it, and the block fills it in place: the
        // plan then sits in the caller's allocator arena (glibc keeps one
        // per thread), where a patch allocates the chunks that replace it.
        let (orders, allocate) = mpsc::channel::<([usize; 3], mpsc::Sender<Chunk>)>();
        let blocks = thread::scope(|s| {
            let sweep = s.spawn(move || {
                blocks::map(bounds, config.parallel, |(first, end)| {
                    let mut spare = idle.lock().expect(POISONED).pop();
                    let block = spare.get_or_insert_with(|| Block {
                        sink: AccumulateWeights::new(&self.basis),
                        ..Block::default()
                    });
                    let (reply, sized) = mpsc::channel();
                    let order = |sizes| {
                        orders.send((sizes, reply.clone())).expect(POISONED);
                        sized.recv().expect(POISONED)
                    };
                    let chunks = (first..end).map(|c| {
                        let rows = c * CHUNK_ROWS..points.len().min((c + 1) * CHUNK_ROWS);
                        let group = |r| layout.partition_point(|&s| (s as usize) < r);
                        let (g0, g1) = (group(rows.start), group(rows.end));
                        let groups = (&layout[g0..=g1], &origins[g0..g1]);
                        self.chunk(block, &trav, &points[rows], member, groups, order)
                    });
                    let chunks: Vec<Chunk> = chunks.collect();
                    let metrics = std::mem::take(&mut block.metrics);
                    idle.lock().expect(POISONED).extend(spare);
                    (chunks, metrics)
                })
            });
            for ([groups, cols, weights], reply) in allocate {
                // Room for each array exactly; the block writes every page.
                let mut chunk = Chunk::default();
                chunk.rows.reserve_exact(groups + 1);
                chunk.col_ptr.reserve_exact(groups + 1);
                chunk.w_ptr.reserve_exact(groups + 1);
                chunk.cols.reserve_exact(cols);
                chunk.present.reserve_exact(cols);
                chunk.weights.reserve_exact(weights);
                _ = reply.send(chunk);
            }
            sweep.join().expect(POISONED)
        });
        let metrics = Metrics::sum(blocks.iter().map(|(_, metrics)| metrics));
        (blocks.into_iter().flat_map(|b| b.0).collect(), metrics)
    }

    /// Compiles the chunk of rows centered at `points` (groups from each of
    /// `starts` to the next, with `origins`) in `block`: each element of
    /// `member` stored in a cell a row's window reaches, in storage order,
    /// over the rows whose windows reach that cell, so every pair.
    fn chunk(
        &self,
        block: &mut Block,
        trav: &StencilTraversal,
        points: &[Point2],
        member: &[bool],
        (starts, origins): (&[u32], &[[usize; 2]]),
        order: impl FnOnce([usize; 3]) -> Chunk,
    ) -> Chunk {
        let (grid, nm) = (self.tri_grid.grid(), self.basis.n_modes());
        let n = grid.cells_per_side();
        block.reach.clear();
        for (r, &p) in points.iter().enumerate() {
            let [(x0, xc), (y0, yc)] = self.window(p);
            for c in (y0..y0 + yc).flat_map(|iy| (x0..x0 + xc).map(move |ix| iy % n * n + ix % n)) {
                block.reach.push((c as u32, r as u32));
            }
        }
        block.reach.sort_unstable();
        block.metrics.cells_visited += block.reach.len() as u64;
        let (scratch, sink, metrics) = (&mut block.scratch, &mut block.sink, &mut block.metrics);
        for cell in block.reach.chunk_by(|a, b| a.0 == b.0) {
            let items = grid.cell_items(cell[0].0 as usize % n, cell[0].0 as usize / n);
            for &e in items.iter().filter(|&&e| member[e as usize]) {
                // Geometry only: no coefficient is read.
                let ed = ElementData::gather_geometry(self.mesh, e as usize, nm);
                let on_hit = |row, shift, sink: &mut AccumulateWeights| sink.hit(row, shift);
                // Every row that can meet an element stored in this cell.
                let rows = |_: &_, _, out: &mut Vec<u32>| {
                    out.extend(cell.iter().map(|&(_, r)| r));
                    0
                };
                trav.element_query(&ed, points, rows, scratch, sink, metrics, on_hit);
                sink.finish_element(e);
            }
        }
        let (hit_rows, elements, sums) = block.sink.entries();
        block.metrics.solution_writes += hit_rows.len() as u64;
        block.of_row.clear();
        for (k, w) in starts.windows(2).enumerate() {
            block.of_row.resize((w[1] - starts[0]) as usize, k as u32);
        }
        // Each entry's group and column: an element's hits on a group make
        // one column, counted on a first pass and placed on a second.
        let column = |next: &mut [(u32, u32)], r: u32, e: u32| {
            let k = block.of_row[r as usize] as usize;
            let (j, last) = &mut next[k];
            *j += (std::mem::replace(last, e) != e) as u32;
            (k, *j as usize - 1)
        };
        block.next.clear();
        block.next.resize(origins.len(), (0, NONE));
        for (&r, &e) in hit_rows.iter().zip(elements) {
            column(&mut block.next, r, e);
        }
        let n_cols = block.next.iter().map(|&(j, _)| j as usize).sum();
        // An entry is one presence bit and `nm` weights.
        let mut chunk = order([origins.len(), n_cols, hit_rows.len() * nm]);
        (chunk.n_modes, chunk.nnz) = (nm, hit_rows.len());
        chunk.rows.extend(starts.iter().map(|&s| s - starts[0]));
        chunk.col_ptr.push(0);
        for (k, (j, last)) in block.next.iter_mut().enumerate() {
            chunk.col_ptr.push(chunk.col_ptr[k] + *j);
            (*j, *last) = (chunk.col_ptr[k], NONE);
        }
        chunk.cols.resize(n_cols, 0);
        chunk.present.resize(n_cols, 0);
        block.col_of.clear();
        for (&r, &e) in hit_rows.iter().zip(elements) {
            let (k, j) = column(&mut block.next, r, e);
            let row = r - chunk.rows[k];
            (chunk.cols[j], chunk.present[j]) = (e, chunk.present[j] | 1 << row);
            block.col_of.push((j as u32, row));
        }
        // The presence bytes fix each column's packed weights.
        let at = &mut block.at;
        at.clear();
        at.push(0);
        for &b in &chunk.present {
            at.push(at[at.len() - 1] + b.count_ones() as usize * nm);
        }
        let fit = |n: usize| u32::try_from(n).expect(OVERFLOW);
        let w_ptr = chunk.col_ptr.iter().map(|&j| fit(at[j as usize]));
        chunk.w_ptr.extend(w_ptr);
        chunk.weights.resize(hit_rows.len() * nm, 0.0);
        for (mono, &(j, row)) in sums.chunks_exact(nm).zip(&block.col_of) {
            let (at, bits) = (at[j as usize], chunk.present[j as usize]);
            for (m, w) in block.sink.modal(mono).enumerate() {
                chunk.weights[at + slot(bits, row as usize, m)] = w;
            }
        }
        for (k, &origin) in origins.iter().enumerate() {
            self.rotate(origin, &mut chunk, k);
        }
        block.sink.clear();
        chunk
    }

    /// Per axis `(first, count)`, the triangle-grid cells a point query at
    /// `p` walks: `for_each_candidate`'s window, expression for expression.
    fn window(&self, p: Point2) -> [(usize, usize); 2] {
        let grid = self.tri_grid.grid();
        let reach = self.setup.stencil.width() / 2.0 + grid.cell_size();
        [p.x, p.y].map(|c| grid.axis_span(c - reach, c + reach))
    }

    /// Rotates the columns of `chunk`'s group `k` from storage order, sorted
    /// by cell `(iy, ix)`, to the order starting at `origin` that its rows
    /// share ([`key`](Self::key)): cell rows from `y0` on, then in each the
    /// columns from `x0` on. Both are stable rotations; a column moves with
    /// its presence byte and its packed weights.
    fn rotate(&self, [x0, y0]: [usize; 2], chunk: &mut Chunk, k: usize) {
        let [c, w] = [&chunk.col_ptr, &chunk.w_ptr].map(|p| p[k] as usize..p[k + 1] as usize);
        let (cols, present) = (&mut chunk.cols[c.clone()], &mut chunk.present[c]);
        let (weights, len) = (&mut chunk.weights[w], cols.len());
        let (n, nm) = (self.tri_grid.grid().cells_per_side(), self.basis.n_modes());
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

/// Why a compile failed: a block panicked, or left a chunk unserved.
const POISONED: &str = "a compile block panicked";

/// A block's working set, chunk-sized, reused by its chunks and later blocks.
#[derive(Default)]
struct Block {
    scratch: Scratch,
    sink: AccumulateWeights,
    metrics: Metrics,
    /// `(cell, row)` for each triangle-grid cell of each row's window.
    reach: Vec<(u32, u32)>,
    /// Per row its group; per group its column count, then cursor, and the
    /// element it last met; per entry its column and row in its group; per
    /// column its weights.
    of_row: Vec<u32>,
    next: Vec<(u32, u32)>,
    col_of: Vec<(u32, u32)>,
    at: Vec<usize>,
}
