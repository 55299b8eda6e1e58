//! The compiled plan: a sparse operator over `(point, element)` pairs,
//! stored as shared row chunks of element groups.

use std::borrow::Borrow;
use std::sync::Arc;
use std::time::Duration;
use ustencil_core::{Metrics, PlanStats, SimdIsa};
use ustencil_trace::SpanRecord;

/// The `"scheme"` string plan-based runs carry in `RunReport` JSON.
///
/// Direct runs are labelled by [`Scheme::label`](ustencil_core::Scheme);
/// plan applies are a third execution strategy that reuses the report
/// schema, distinguished by this label.
pub const SCHEME_LABEL: &str = "plan";

/// Rows per [`Chunk`]: a splice shares the chunks a patch left alone, so
/// smaller chunks share more. 256 splices as fast as 64 and applies as
/// fast as flat storage (EXPERIMENTS.md "Incremental recompilation").
pub(crate) const CHUNK_ROWS: usize = 256;

/// Rows per group at most: the four quadrature points of a p = 1 element.
pub(crate) const GROUP_ROWS: usize = 4;

/// Why a chunk failed to build: its entries overflow its `u32` offsets.
pub(crate) const OVERFLOW: &str = "chunk entries overflow u32";

/// [`CHUNK_ROWS`] consecutive rows of a plan (fewer in the last chunk), cut
/// into element groups (DESIGN.md §9): group `k` holds local rows
/// `rows[k]..rows[k + 1]`, the union of their columns
/// `cols[col_ptr[k]..col_ptr[k + 1]]` in an order that keeps every row's,
/// a presence byte per column (bit `i`: the group's row `i` reads it), and
/// from `weights[w_ptr[k]]` on each column's weights in turn, packed:
/// mode-major over the rows its byte sets (mode `m` of the `i`-th of `b`
/// such rows at `m · b + i`), `nnz · n_modes` weights in all.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Chunk {
    pub(crate) n_modes: usize,
    pub(crate) rows: Vec<u32>,
    pub(crate) col_ptr: Vec<u32>,
    pub(crate) w_ptr: Vec<u32>,
    pub(crate) cols: Vec<u32>,
    pub(crate) present: Vec<u8>,
    pub(crate) weights: Vec<f64>,
    /// Stored `(row, element)` entries: the presence bits set.
    pub(crate) nnz: usize,
}

/// Group `k` of a [`Chunk`], its arrays sliced as the chunk's describe.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Group<'a> {
    pub(crate) rows: usize,
    pub(crate) n_modes: usize,
    pub(crate) cols: &'a [u32],
    pub(crate) present: &'a [u8],
    pub(crate) weights: &'a [f64],
}

impl<'a> Group<'a> {
    /// The columns row `i` reads, as positions in the group, in its order.
    pub(crate) fn entries(self, i: usize) -> impl Iterator<Item = usize> + 'a {
        let present = self.present;
        (0..present.len()).filter(move |&j| present[j] >> i & 1 != 0)
    }

    /// Every row's entries `(i, j)`, row by row.
    pub(crate) fn row_major(self) -> impl Iterator<Item = (usize, usize)> + 'a {
        (0..self.rows).flat_map(move |i| self.entries(i).map(move |j| (i, j)))
    }

    /// Each column's first weight: `n_modes` per presence bit before it.
    pub(crate) fn starts(self) -> impl Iterator<Item = usize> + 'a {
        let nm = self.n_modes;
        self.present.iter().scan(0, move |at, &b| {
            let start = *at;
            *at += b.count_ones() as usize * nm;
            Some(start)
        })
    }

    /// Row `i`'s weight for mode `m` of column `j`, whose weights start at
    /// `at` ([`starts`](Self::starts)).
    #[inline]
    pub(crate) fn weight(&self, at: usize, j: usize, i: usize, m: usize) -> f64 {
        debug_assert!(
            self.present[j] >> i & 1 != 0,
            "row {i} does not read column {j}"
        );
        self.weights[at + slot(self.present[j], i, m)]
    }
}

/// Where a column with presence byte `bits` keeps row `i`'s weight for mode
/// `m`, from its first weight: mode-major over the rows `bits` sets.
#[inline]
pub(crate) fn slot(bits: u8, i: usize, m: usize) -> usize {
    m * bits.count_ones() as usize + (bits & ((1 << i) - 1)).count_ones() as usize
}

impl Chunk {
    /// A chunk of no groups, to append groups to.
    pub(crate) fn new(n_modes: usize) -> Chunk {
        let (rows, col_ptr, w_ptr) = (vec![0], vec![0], vec![0]);
        Chunk {
            n_modes,
            rows,
            col_ptr,
            w_ptr,
            ..Chunk::default()
        }
    }

    /// A chunk of no groups with room for `groups` groups and the columns
    /// and weights of `sources`, whole.
    pub(crate) fn for_groups<'a>(
        n_modes: usize,
        groups: usize,
        sources: impl Iterator<Item = Group<'a>>,
    ) -> Chunk {
        let mut chunk = Chunk::new(n_modes);
        for offsets in [&mut chunk.rows, &mut chunk.col_ptr, &mut chunk.w_ptr] {
            offsets.reserve_exact(groups);
        }
        let room = |(c, w), g: Group<'_>| (c + g.cols.len(), w + g.weights.len());
        let (cols, weights) = sources.fold((0, 0), room);
        (chunk.cols, chunk.present) = (Vec::with_capacity(cols), Vec::with_capacity(cols));
        chunk.weights = Vec::with_capacity(weights);
        chunk
    }

    /// Appends `group`, whole, its columns mapped through `map`.
    pub(crate) fn push_group(&mut self, group: Group<'_>, map: impl Fn(u32) -> u32) {
        self.cols.extend(group.cols.iter().map(|&c| map(c)));
        self.present.extend_from_slice(group.present);
        self.weights.extend_from_slice(group.weights);
        self.end_group(group.rows);
    }

    /// Closes a group of `rows` rows over the columns appended since the
    /// last group closed.
    pub(crate) fn end_group(&mut self, rows: usize) {
        let from = *self.col_ptr.last().unwrap() as usize;
        self.nnz += self.present[from..]
            .iter()
            .map(|b| b.count_ones() as usize)
            .sum::<usize>();
        let fit = |n: usize| u32::try_from(n).expect(OVERFLOW);
        self.rows.push(fit(self.n_rows() + rows));
        self.col_ptr.push(fit(self.cols.len()));
        self.w_ptr.push(fit(self.weights.len()));
    }

    /// Rows held.
    #[inline]
    pub(crate) fn n_rows(&self) -> usize {
        *self.rows.last().unwrap() as usize
    }

    /// Groups held.
    #[inline]
    pub(crate) fn n_groups(&self) -> usize {
        self.rows.len() - 1
    }

    /// Group `k`.
    #[inline]
    pub(crate) fn group(&self, k: usize) -> Group<'_> {
        let (c0, c1) = (self.col_ptr[k] as usize, self.col_ptr[k + 1] as usize);
        let (w0, w1) = (self.w_ptr[k] as usize, self.w_ptr[k + 1] as usize);
        Group {
            rows: (self.rows[k + 1] - self.rows[k]) as usize,
            n_modes: self.n_modes,
            cols: &self.cols[c0..c1],
            present: &self.present[c0..c1],
            weights: &self.weights[w0..w1],
        }
    }

    /// Every group, in row order.
    pub(crate) fn groups(&self) -> impl Iterator<Item = Group<'_>> {
        (0..self.n_groups()).map(|k| self.group(k))
    }

    /// The group holding local row `r`, and `r`'s row in it.
    #[inline]
    pub(crate) fn group_of(&self, r: usize) -> (usize, usize) {
        let k = self.rows.partition_point(|&s| s as usize <= r) - 1;
        (k, r - self.rows[k] as usize)
    }
}

/// The group holding row `r` of chunks of [`CHUNK_ROWS`] rows, and `r`'s
/// row in it.
pub(crate) fn chunk_group<C: Borrow<Chunk>>(chunks: &[C], r: usize) -> (Group<'_>, usize) {
    let chunk = chunks[r / CHUNK_ROWS].borrow();
    let (k, i) = chunk.group_of(r % CHUNK_ROWS);
    (chunk.group(k), i)
}

/// A compiled evaluation plan: one row per output point, each a list of
/// `(element, weight[0..n_modes])` entries, the rows of one element stored
/// together as a group, held in chunks of 256 rows behind `Arc`s so a
/// patched plan shares the chunks its patch left alone with its base.
/// Weights absorb the entire geometric
/// pipeline (clipping, fan triangulation, quadrature, kernel values, basis
/// transform), so applying the plan never touches the mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalPlan {
    pub(crate) degree: usize,
    pub(crate) n_modes: usize,
    pub(crate) n_elements: usize,
    pub(crate) h: f64,
    /// The ISA the weights were reduced on, and a patch must run on.
    pub(crate) isa: SimdIsa,
    /// Row `r` is local row `r % CHUNK_ROWS` of chunk `r / CHUNK_ROWS`.
    pub(crate) chunks: Vec<Arc<Chunk>>,
    /// Wall-clock time of compilation.
    pub(crate) build_wall: Duration,
    /// Compilation phase spans (empty unless instrumented).
    pub(crate) build_spans: Vec<SpanRecord>,
    /// Work counters of the compilation pass.
    pub(crate) build_metrics: Metrics,
}

impl EvalPlan {
    /// Field polynomial degree the plan was compiled for, and so the
    /// kernel smoothness `k` baked into the weights.
    #[inline]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Modal coefficients per element, `(p + 1)(p + 2) / 2`.
    #[inline]
    pub fn n_modes(&self) -> usize {
        self.n_modes
    }

    /// Elements of the mesh the plan was compiled against.
    #[inline]
    pub fn n_elements(&self) -> usize {
        self.n_elements
    }

    /// Output rows (grid points).
    #[inline]
    pub fn rows(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |c| (self.chunks.len() - 1) * CHUNK_ROWS + c.n_rows())
    }

    /// Stored `(point, element)` entries.
    pub fn nnz(&self) -> usize {
        self.chunks.iter().map(|c| c.nnz).sum()
    }

    /// Column ids (the element each stored entry reads), concatenated
    /// across rows: what the bitwise plan comparisons (patched against
    /// fresh, `reproduce amr`'s cross-check) hold equal.
    pub fn cols(&self) -> impl Iterator<Item = u32> + '_ {
        let groups = self.chunks.iter().flat_map(|c| c.groups());
        groups.flat_map(|g| g.row_major().map(move |(_, j)| g.cols[j]))
    }

    /// In-memory size of the plan's arrays in bytes: its logical size,
    /// counting every chunk whether or not another plan shares it.
    pub fn bytes(&self) -> usize {
        let bytes = |c: &Arc<Chunk>| {
            let offsets = c.rows.len() + c.col_ptr.len() + c.w_ptr.len();
            4 * (offsets + c.cols.len()) + c.present.len() + 8 * c.weights.len()
        };
        self.chunks.iter().map(bytes).sum()
    }

    /// The stored weights as raw IEEE-754 bit patterns, row by row and
    /// entry-major. This is the bit-exactness surface: two plans evaluate
    /// identically iff their structure matches and these streams are equal.
    pub fn weights_bits(&self) -> impl Iterator<Item = u64> + '_ {
        self.chunks.iter().flat_map(|c| c.groups()).flat_map(|g| {
            let at: Vec<usize> = g.starts().collect();
            g.row_major().flat_map(move |(i, j)| {
                let at = at[j];
                (0..g.n_modes).map(move |m| g.weight(at, j, i, m).to_bits())
            })
        })
    }

    /// Wall-clock time spent compiling.
    #[inline]
    pub fn build_wall(&self) -> Duration {
        self.build_wall
    }

    /// Compilation phase spans (empty unless compiled with instrumentation).
    pub fn build_spans(&self) -> &[SpanRecord] {
        &self.build_spans
    }

    /// Work counters of the compilation pass (the one-time geometric cost
    /// the plan amortizes).
    #[inline]
    pub fn build_metrics(&self) -> &Metrics {
        &self.build_metrics
    }

    /// Size/timing stats in the shape `RunReport` serializes. `apply_ms` is
    /// zero here; [`EvalPlan::to_run_record`] fills it from a measured
    /// apply.
    pub fn stats(&self) -> PlanStats {
        PlanStats {
            rows: self.rows() as u64,
            nnz: self.nnz() as u64,
            n_modes: self.n_modes as u64,
            bytes: self.bytes() as u64,
            build_ms: self.build_wall.as_secs_f64() * 1e3,
            apply_ms: 0.0,
            delta: None,
        }
    }
}
