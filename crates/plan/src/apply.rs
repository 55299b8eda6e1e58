//! Applying a compiled plan to dG fields: the SpMV-style hot loop.

use crate::plan::{Chunk, EvalPlan};
use std::time::{Duration, Instant};
use ustencil_core::blocks::{block_bounds, map_slices};
use ustencil_core::simd::{dispatch, Lanes, VectorKernel};
use ustencil_core::{BlockStats, ExecConfig, Metrics, Probe, SimdIsa, SimdRecord};
use ustencil_dg::DgField;
use ustencil_trace::{SpanRecord, Tracer};

/// Upper bound on modal coefficients per element supported by the
/// lane-accumulator row kernel (degree 6 ⇒ 28 modes, with headroom).
const MAX_MODES: usize = 32;

/// Result of applying a plan to one field.
#[derive(Debug, Clone)]
pub struct PlanSolution {
    /// Post-processed value at each grid point (one per plan row).
    pub values: Vec<f64>,
    /// Aggregated work counters of the apply.
    pub metrics: Metrics,
    /// Per-block stats (wall time, owned rows, entry-count probes).
    pub block_stats: Vec<BlockStats>,
    /// Phase spans of the apply (empty unless instrumented).
    pub spans: Vec<SpanRecord>,
    /// Wall-clock time of the apply.
    pub wall: Duration,
    /// SIMD dispatch summary: requested policy, resolved ISA, achieved
    /// fraction of nominal peak over this apply's wall time.
    pub simd: SimdRecord,
}

impl PlanSolution {
    /// Maximum absolute difference against another value vector (e.g. a
    /// direct [`Solution::values`](ustencil_core::Solution)).
    pub fn max_abs_diff(&self, other: &[f64]) -> f64 {
        self.values
            .iter()
            .zip(other)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl EvalPlan {
    /// Applies the plan to `field` with default options (16 blocks,
    /// parallel, uninstrumented).
    ///
    /// # Panics
    /// Panics when the field's degree or element count does not match the
    /// plan.
    pub fn apply(&self, field: &DgField) -> PlanSolution {
        self.apply_with(field, &ExecConfig::default())
    }

    /// Applies the plan to `field` under `options`' block count,
    /// parallelism, instrumentation and SIMD policy (the kernel the plan
    /// was compiled with is fixed in its weights).
    ///
    /// The row kernel dispatches on [`ExecConfig::simd`]:
    /// [`SimdPolicy::Scalar`](ustencil_core::SimdPolicy::Scalar) runs the
    /// pre-SIMD per-mode lane loop byte-for-byte (bitwise-stable against
    /// historical golden vectors), vector ISAs agree with it to ≤1e-12.
    ///
    /// ```
    /// use ustencil_core::{ComputationGrid, ExecConfig, SimdPolicy};
    /// use ustencil_dg::project_l2;
    /// use ustencil_mesh::{generate_mesh, MeshClass};
    /// use ustencil_plan::EvalPlan;
    ///
    /// let mesh = generate_mesh(MeshClass::LowVariance, 60, 9);
    /// let field = project_l2(&mesh, 1, |x, y| x - 0.5 * y, 0);
    /// let grid = ComputationGrid::quadrature_points(&mesh, 1);
    /// let opts = ExecConfig {
    ///     h_factor: 0.25,
    ///     parallel: false,
    ///     ..ExecConfig::default()
    /// };
    /// let plan = EvalPlan::compile(&mesh, &grid, 1, &opts);
    ///
    /// // The scalar policy is the bit-compatibility anchor: whatever ISA
    /// // `Auto` picks on this host, forcing Scalar reproduces the exact
    /// // pre-SIMD arithmetic, and the vector result stays within 1e-12.
    /// let scalar = plan.apply_with(&field, &ExecConfig {
    ///     simd: SimdPolicy::Scalar,
    ///     ..opts
    /// });
    /// let auto = plan.apply_with(&field, &opts);
    /// assert_eq!(scalar.simd.isa, "scalar");
    /// assert!(auto.max_abs_diff(&scalar.values) <= 1e-12);
    /// ```
    ///
    /// # Panics
    /// Panics when the field's degree or element count does not match the
    /// plan.
    pub fn apply_with(&self, field: &DgField, options: &ExecConfig) -> PlanSolution {
        self.check_field(field);
        let isa = options.simd.resolve();
        let start = Instant::now();
        let tracer = Tracer::new(options.instrument);

        let coeffs = field.coefficients();
        let mut values = vec![0.0; self.rows()];
        let block_stats = {
            let _span = tracer.span("apply.spmv");
            let block = |s, e, slice: &mut [f64]| {
                let body =
                    |probe: &mut Probe| ((), self.apply_block(s, e, coeffs, slice, isa, probe));
                BlockStats::measure(options.instrument, 0, body).1
            };
            map_slices(&mut values, options.n_blocks, options.parallel, block)
        };

        let wall = start.elapsed();
        let metrics = Metrics::sum(block_stats.iter().map(|s| &s.metrics));
        let simd = SimdRecord::measured(options.simd, isa, metrics.flops, wall.as_secs_f64());
        PlanSolution {
            values,
            metrics,
            block_stats,
            spans: tracer.into_records(),
            wall,
            simd,
        }
    }

    /// Applies only the named rows of the plan, writing row
    /// `r`'s value into `out[r]` and leaving every other slot untouched.
    /// Each named row runs the same per-row dot product as a full
    /// apply, so a partition of the rows into subset calls reproduces
    /// `apply_with`'s values *bitwise* — the property the distributed
    /// runtime's interior/frontier overlap split rests on. Rows are swept
    /// in the order given, chunked into at most `options.n_blocks` uniform
    /// blocks for per-block stats, under `options.simd`; counters sum
    /// exactly across a row partition. The sweep is sequential and
    /// unprobed whatever `options` says: rows scatter into `out`, so there
    /// is no contiguous slice to hand a worker.
    ///
    /// # Panics
    /// Panics when the field does not match the plan or `out` is not
    /// exactly [`rows`](EvalPlan::rows) long.
    pub fn apply_rows_into(
        &self,
        rows: &[u32],
        field: &DgField,
        out: &mut [f64],
        options: &ExecConfig,
    ) -> Vec<BlockStats> {
        self.check_field(field);
        assert_eq!(out.len(), self.rows(), "output buffer/plan row mismatch");
        if rows.is_empty() {
            return Vec::new();
        }
        let isa = options.simd.resolve();
        let coeffs = field.coefficients();
        block_bounds(rows.len(), options.n_blocks)
            .into_iter()
            .map(|(s, e)| {
                let body = |_: &mut Probe| {
                    let mut metrics = Metrics::default();
                    for &r in &rows[s..e] {
                        out[r as usize] = self.eval_row(r as usize, coeffs, isa, &mut metrics).0;
                    }
                    metrics.partial_slots += (e - s) as u64;
                    ((), metrics)
                };
                BlockStats::measure(false, 0, body).1
            })
            .collect()
    }

    fn check_field(&self, field: &DgField) {
        assert!(
            self.n_modes <= MAX_MODES,
            "plan exceeds the row kernel's {MAX_MODES}-mode lane budget"
        );
        assert_eq!(
            field.degree(),
            self.degree,
            "field degree does not match the plan"
        );
        assert_eq!(
            field.n_elements(),
            self.n_elements,
            "field element count does not match the plan"
        );
    }

    /// Evaluates rows `[start, end)` into `out` (length `end - start`).
    fn apply_block(
        &self,
        start: usize,
        end: usize,
        coeffs: &[f64],
        out: &mut [f64],
        isa: SimdIsa,
        probe: &mut Probe,
    ) -> Metrics {
        let mut metrics = Metrics::default();
        for (slot, r) in (start..end).enumerate() {
            let (value, entries) = self.eval_row(r, coeffs, isa, &mut metrics);
            out[slot] = value;
            // Row entries are this scheme's "candidates": the histogram
            // shows how many stored elements each output point reads.
            probe.record_candidates(entries);
        }
        metrics.partial_slots += (end - start) as u64;
        metrics
    }

    /// Row `r`'s value against `coeffs` and its entry count, its work
    /// counted into `metrics`.
    #[inline]
    fn eval_row(&self, r: usize, coeffs: &[f64], isa: SimdIsa, m: &mut Metrics) -> (f64, u64) {
        let (chunk, local) = self.locate(r);
        let (lo, hi) = chunk.range(local);
        let entries = (hi - lo) as u64;
        m.solution_writes += 1;
        m.elem_data_loads += entries * self.n_modes as u64;
        m.flops += 2 * entries * self.n_modes as u64;
        (chunk.row_dot(local, coeffs, isa), entries)
    }
}

impl Chunk {
    /// One row's dot product against `coeffs`, dispatched on the resolved
    /// SIMD ISA. The scalar body is byte-for-byte the historical per-mode
    /// lane kernel, so `SimdPolicy::Scalar` reproduces pre-SIMD results
    /// bitwise. The vector body keeps the same shape — independent per-mode
    /// accumulator chains, reduced in a fixed order at the end — so every
    /// ISA stays deterministic, while agreeing with the scalar body to
    /// rounding (`≤ 1e-12`).
    #[inline]
    fn row_dot(&self, r: usize, coeffs: &[f64], isa: SimdIsa) -> f64 {
        dispatch(isa, RowDot(self, r, coeffs))
    }

    /// The portable row kernel, accumulated in per-mode lanes. The lanes
    /// break the single-accumulator FMA dependency chain (the former
    /// hot-loop bottleneck: one serial add per mode-entry) into `n_modes`
    /// independent chains the CPU can overlap and auto-vectorize.
    #[inline]
    fn row_dot_scalar(&self, r: usize, coeffs: &[f64]) -> f64 {
        // Pick the narrowest lane array that holds n_modes, so the per-row
        // lane reset and reduction don't pay for unused slots. The branch
        // is perfectly predicted (n_modes is fixed per plan).
        match self.n_modes {
            1..=4 => self.row_dot_lanes::<4>(r, coeffs),
            5..=8 => self.row_dot_lanes::<8>(r, coeffs),
            9..=16 => self.row_dot_lanes::<16>(r, coeffs),
            _ => self.row_dot_lanes::<MAX_MODES>(r, coeffs),
        }
    }

    #[inline]
    fn row_dot_lanes<const L: usize>(&self, r: usize, coeffs: &[f64]) -> f64 {
        let nm = self.n_modes;
        debug_assert!(nm <= L);
        let (lo, hi) = self.range(r);
        let mut lane = [0.0f64; L];
        for e in lo..hi {
            let w = &self.weights[e * nm..(e + 1) * nm];
            let col = self.cols[e] as usize;
            let c = &coeffs[col * nm..col * nm + nm];
            for m in 0..nm {
                lane[m] += w[m] * c[m];
            }
        }
        lane[..nm].iter().sum()
    }

    /// The vector row kernel: the mode dimension is batched into blocks of
    /// `V::N` lanes, one accumulator vector per block (so the per-mode
    /// chains stay independent, exactly like the scalar lanes), with a
    /// fault-suppressing masked load for the `n_modes % V::N` tail. The
    /// whole entries loop is one body, instantiated inside `dispatch`'s
    /// `#[target_feature]` entry point — a feature-gated call per entry
    /// would block inlining and cost a dispatch-sized penalty per CSR
    /// entry.
    ///
    /// # Safety
    /// The CPU must support `V`'s instruction set.
    #[inline(always)]
    unsafe fn row_dot_vector<V: Lanes>(&self, r: usize, coeffs: &[f64]) -> f64 {
        let nm = self.n_modes;
        let (lo, hi) = self.range(r);
        debug_assert!(hi <= self.cols.len() && hi * nm <= self.weights.len());
        let full = nm / V::N;
        let rem = nm % V::N;
        // Sized for the narrowest register (4 lanes); `check_field` holds
        // `n_modes` to `MAX_MODES`, so `full` blocks always fit.
        let mut acc = [V::zero(); MAX_MODES / 4];
        let mut tail_acc = V::zero();
        let mask = V::mask_first(rem);
        for e in lo..hi {
            let col = self.cols[e] as usize;
            debug_assert!((col + 1) * nm <= coeffs.len());
            // SAFETY: entry `e` owns weights `[e·nm, (e + 1)·nm)` (a chunk
            // holds `n_modes` weights per column) and its column
            // `col < n_elements` owns that range of `coeffs`
            // (`check_field` matched the field to the plan); the blocks
            // read `full · V::N + rem = nm` values of each, the masked tail
            // touching nothing past them.
            let w = self.weights.as_ptr().add(e * nm);
            let c = coeffs.as_ptr().add(col * nm);
            for (b, a) in acc.iter_mut().enumerate().take(full) {
                *a = V::load(w.add(b * V::N)).fmadd(V::load(c.add(b * V::N)), *a);
            }
            if rem != 0 {
                let wv = V::load_masked(w.add(full * V::N), mask);
                let cv = V::load_masked(c.add(full * V::N), mask);
                tail_acc = wv.fmadd(cv, tail_acc);
            }
        }
        // Fixed-order reduction: block order, then `Lanes::hsum` within
        // each block — deterministic for a given ISA.
        let mut total = 0.0;
        for a in acc.iter().take(full) {
            total += a.hsum();
        }
        if rem != 0 {
            total += tail_acc.hsum();
        }
        total
    }
}

/// [`Chunk::row_dot`]'s two bodies for the chunk's row `.1` against the
/// coefficients `.2`, as [`dispatch`] takes them.
struct RowDot<'a>(&'a Chunk, usize, &'a [f64]);

impl VectorKernel for RowDot<'_> {
    type Output = f64;

    #[inline]
    fn scalar(self) -> f64 {
        self.0.row_dot_scalar(self.1, self.2)
    }

    #[inline(always)]
    unsafe fn lanes<V: Lanes>(self) -> f64 {
        self.0.row_dot_vector::<V>(self.1, self.2)
    }
}
