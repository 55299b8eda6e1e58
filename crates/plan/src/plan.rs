//! The compiled plan: a CSR sparse operator over `(point, element)` pairs.

use std::time::Duration;
use ustencil_core::{Metrics, PlanStats};
use ustencil_trace::SpanRecord;

/// The `"scheme"` string plan-based runs carry in `RunReport` JSON.
///
/// Direct runs are labelled by [`Scheme::label`](ustencil_core::Scheme);
/// plan applies are a third execution strategy that reuses the report
/// schema, distinguished by this label.
pub const SCHEME_LABEL: &str = "plan";

/// A compiled evaluation plan.
///
/// CSR layout: output point `r` owns entries `row_ptr[r]..row_ptr[r + 1]`;
/// entry `e` references element `cols[e]` and carries `n_modes` weights at
/// `weights[e * n_modes..(e + 1) * n_modes]`, one per modal coefficient of
/// the field. Weights absorb the entire geometric pipeline (clipping, fan
/// triangulation, quadrature, kernel values, basis transform), so applying
/// the plan never touches the mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalPlan {
    pub(crate) degree: usize,
    pub(crate) smoothness: usize,
    pub(crate) n_modes: usize,
    pub(crate) n_elements: usize,
    pub(crate) h: f64,
    /// Row starts; `rows + 1` entries, `row_ptr[0] == 0`.
    pub(crate) row_ptr: Vec<u64>,
    /// Element index of each entry.
    pub(crate) cols: Vec<u32>,
    /// Entry-major weights, `nnz * n_modes` values.
    pub(crate) weights: Vec<f64>,
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
        self.row_ptr.len() - 1
    }

    /// Stored `(point, element)` entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// CSR column ids (the element each stored entry reads), concatenated
    /// across rows. The distributed runtime scans this to learn which
    /// non-owned elements a rank's rows reference — its halo set.
    #[inline]
    pub fn cols(&self) -> &[u32] {
        &self.cols
    }

    /// In-memory size of the CSR arrays in bytes.
    pub fn bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<u64>()
            + self.cols.len() * std::mem::size_of::<u32>()
            + self.weights.len() * std::mem::size_of::<f64>()
    }

    /// The stored weights as raw IEEE-754 bit patterns, entry-major. This
    /// is the bit-exactness surface: two plans evaluate identically iff
    /// their structure matches and these streams are equal.
    pub fn weights_bits(&self) -> impl Iterator<Item = u64> + '_ {
        self.weights.iter().map(|w| w.to_bits())
    }

    /// The half-open entry range of row `r`.
    #[inline]
    pub(crate) fn row_range(&self, r: usize) -> (usize, usize) {
        (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize)
    }

    /// The element columns row `r` reads, in stored (execution) order:
    /// global element ids — the basis of the sharded runtime's
    /// interior/frontier row classification.
    #[inline]
    pub fn row_cols(&self, r: usize) -> &[u32] {
        let (lo, hi) = self.row_range(r);
        &self.cols[lo..hi]
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
