//! The compiled plan: a CSR sparse operator over `(point, element)` pairs,
//! stored as shared row chunks.

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

/// Why a chunk failed to build: its entries overflow its `u32` row starts.
pub(crate) const OVERFLOW: &str = "chunk entries overflow u32";

/// [`CHUNK_ROWS`] consecutive rows of a plan (fewer in the last chunk) in
/// CSR form: local row `r` owns entries `row_ptr[r]..row_ptr[r + 1]`;
/// entry `e` reads element `cols[e]` with the `n_modes` weights
/// `weights[e * n_modes..(e + 1) * n_modes]`, one per modal coefficient.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Chunk {
    pub(crate) n_modes: usize,
    pub(crate) row_ptr: Vec<u32>,
    pub(crate) cols: Vec<u32>,
    pub(crate) weights: Vec<f64>,
}

impl Chunk {
    /// A chunk of no rows, to append rows to, with room for `nnz` entries.
    pub(crate) fn with_capacity(n_modes: usize, nnz: usize) -> Chunk {
        Chunk {
            n_modes,
            row_ptr: vec![0],
            cols: Vec::with_capacity(nnz),
            weights: Vec::with_capacity(nnz * n_modes),
        }
    }

    /// Closes the row of the entries appended since the last row closed.
    pub(crate) fn end_row(&mut self) {
        self.row_ptr
            .push(u32::try_from(self.cols.len()).expect(OVERFLOW));
    }

    /// Rows held.
    #[inline]
    pub(crate) fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// The half-open entry range of local row `r`.
    #[inline]
    pub(crate) fn range(&self, r: usize) -> (usize, usize) {
        (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize)
    }

    /// Local row `r`'s columns and weights.
    #[inline]
    pub(crate) fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = self.range(r);
        let nm = self.n_modes;
        (&self.cols[lo..hi], &self.weights[lo * nm..hi * nm])
    }
}

/// Row `r`'s columns and weights, of rows stored [`CHUNK_ROWS`] a chunk.
pub(crate) fn chunk_row<C: Borrow<Chunk>>(chunks: &[C], r: usize) -> (&[u32], &[f64]) {
    chunks[r / CHUNK_ROWS].borrow().row(r % CHUNK_ROWS)
}

/// A compiled evaluation plan: one row per output point, each a list of
/// `(element, weight[0..n_modes])` entries, held in chunks of 256 rows
/// behind `Arc`s so a patched plan shares the chunks its patch left alone
/// with its base. Weights absorb the entire geometric
/// pipeline (clipping, fan triangulation, quadrature, kernel values, basis
/// transform), so applying the plan never touches the mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalPlan {
    pub(crate) degree: usize,
    pub(crate) smoothness: usize,
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
    /// Field polynomial degree the plan was compiled for.
    #[inline]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Kernel smoothness `k` baked into the weights.
    #[inline]
    pub fn smoothness(&self) -> usize {
        self.smoothness
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

    /// Kernel scale `h` baked into the weights.
    #[inline]
    pub fn h(&self) -> f64 {
        self.h
    }

    /// Stencil width `(3k + 1) h` of the compiled kernel.
    #[inline]
    pub fn stencil_width(&self) -> f64 {
        (3 * self.smoothness + 1) as f64 * self.h
    }

    /// Output rows (grid points).
    #[inline]
    pub fn rows(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |c| (self.chunks.len() - 1) * CHUNK_ROWS + c.rows())
    }

    /// Stored `(point, element)` entries.
    pub fn nnz(&self) -> usize {
        self.chunks.iter().map(|c| c.cols.len()).sum()
    }

    /// Column ids (the element each stored entry reads), concatenated
    /// across rows. The distributed runtime scans these to learn which
    /// non-owned elements a rank's rows reference — its halo set.
    pub fn cols(&self) -> impl Iterator<Item = u32> + '_ {
        self.chunks.iter().flat_map(|c| c.cols.iter().copied())
    }

    /// In-memory size of the plan's arrays in bytes: its logical size,
    /// counting every chunk whether or not another plan shares it.
    pub fn bytes(&self) -> usize {
        let bytes = |c: &Arc<Chunk>| 4 * (c.row_ptr.len() + c.cols.len()) + 8 * c.weights.len();
        self.chunks.iter().map(bytes).sum()
    }

    /// The stored weights as raw IEEE-754 bit patterns, entry-major. This
    /// is the bit-exactness surface: two plans evaluate identically iff
    /// their structure matches and these streams are equal.
    pub fn weights_bits(&self) -> impl Iterator<Item = u64> + '_ {
        self.chunks
            .iter()
            .flat_map(|c| c.weights.iter().map(|w| w.to_bits()))
    }

    /// The chunk holding row `r`, and `r`'s row in it.
    #[inline]
    pub(crate) fn locate(&self, r: usize) -> (&Chunk, usize) {
        (&self.chunks[r / CHUNK_ROWS], r % CHUNK_ROWS)
    }

    /// The element columns row `r` reads, in stored (execution) order:
    /// global element ids — the basis of the sharded runtime's
    /// interior/frontier row classification.
    #[inline]
    pub fn row_cols(&self, r: usize) -> &[u32] {
        chunk_row(&self.chunks, r).0
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
