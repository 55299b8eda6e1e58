//! Applying a compiled plan to dG fields: the SpMV-style hot loop, one
//! element group at a time.

use crate::plan::{Chunk, EvalPlan, Group, CHUNK_ROWS, GROUP_ROWS};
use std::ops::Range;
use std::time::{Duration, Instant};
use ustencil_core::blocks::{self, block_bounds};
use ustencil_core::integrate::MAX_MODES;
use ustencil_core::simd::{dispatch, Lanes, VectorKernel};
use ustencil_core::{BlockStats, ExecConfig, Metrics, Probe, SimdRecord};
use ustencil_dg::DgField;
use ustencil_trace::{SpanRecord, Tracer};

/// A group's `(row, mode)` lanes, and room for the last register's past
/// them.
const LANE_SLOTS: usize = GROUP_ROWS * MAX_MODES + 8;

/// Registers one sweep over a group's columns keeps in flight.
const SWEEP_REGS: usize = 4;

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
    /// Each block is a run of whole chunks. The group kernel dispatches on
    /// [`ExecConfig::simd`]:
    /// [`SimdPolicy::Scalar`](ustencil_core::SimdPolicy::Scalar) runs the
    /// pre-SIMD per-mode lane loop byte-for-byte (bitwise-stable against
    /// historical golden vectors), vector ISAs agree with it to ≤1e-12.
    ///
    /// **Non-finite coefficients.** A group's row reads `0.0 ·` the
    /// coefficients of every column the group holds, so a NaN or infinite
    /// coefficient on element `e` makes non-finite every row of every group
    /// with a column on `e`, and no other row (DESIGN.md §12).
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
            let mut chunks = self.chunks.iter().zip(values.chunks_mut(CHUNK_ROWS));
            let cuts = block_bounds(self.chunks.len(), options.n_blocks).into_iter();
            let blocks = cuts.map(|(s, e)| chunks.by_ref().take(e - s).collect::<Vec<_>>());
            blocks::map(blocks.collect(), options.parallel, |block| {
                let body = |probe: &mut Probe| {
                    let mut metrics = Metrics::default();
                    for (chunk, out) in block {
                        dispatch(isa, GroupsDot(chunk, 0..chunk.n_groups(), coeffs, out));
                        self.count(chunk.n_rows(), chunk.nnz, &mut metrics);
                        // Row entries are this scheme's "candidates": the
                        // histogram shows how many elements each point reads.
                        if options.instrument {
                            let rows = chunk
                                .groups()
                                .flat_map(|g| (0..g.rows).map(move |i| g.entries(i).count()));
                            rows.for_each(|n| probe.record_candidates(n as u64));
                        }
                    }
                    ((), metrics)
                };
                BlockStats::measure(options.instrument, 0, body).1
            })
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

    fn check_field(&self, field: &DgField) {
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

    /// Counts the work of `rows` rows of `nnz` entries into `m`.
    fn count(&self, rows: usize, nnz: usize, m: &mut Metrics) {
        let (rows, loads) = (rows as u64, (nnz * self.n_modes) as u64);
        m.solution_writes += rows;
        m.partial_slots += rows;
        m.elem_data_loads += loads;
        m.flops += 2 * loads;
    }
}

/// The groups `.1` of the chunk `.0` against the coefficients `.2`, their
/// rows' values written to `.3` in order: one [`dispatch`] per run.
///
/// The portable body accumulates every `(row, mode)` lane over its row's
/// entries in stored order with an unfused multiply and add, then sums each
/// row's modes in order: byte-for-byte the historical per-row lane kernel,
/// so `SimdPolicy::Scalar` reproduces pre-SIMD results bitwise. The vector
/// body lays a group's `rows · n_modes` lanes, mode-major, over registers:
/// per column one column load and one coefficient load (spread over the
/// lanes by `splat` where a register holds one mode, else by `lookup`) feed
/// an unmasked FMA per register, each lane an independent chain in column
/// order. Each row then puts its modes into `V::N`-wide blocks padded with
/// `0.0` and sums their [`Lanes::hsum`]s from `0.0`: the historical row
/// kernel's reduction. In both, a column a row does not read adds
/// `0.0 · c` to a lane that started at `+0.0` and so never holds `−0.0`,
/// which leaves it unchanged: every ISA keeps its bits on finite input.
struct GroupsDot<'a>(&'a Chunk, Range<usize>, &'a [f64], &'a mut [f64]);

impl VectorKernel for GroupsDot<'_> {
    type Output = ();

    fn scalar(self) {
        let GroupsDot(chunk, groups, coeffs, mut out) = self;
        for group in groups.map(|k| chunk.group(k)) {
            let (g, nm) = (group.rows, group.n_modes);
            let mut lane = [0.0f64; GROUP_ROWS * MAX_MODES];
            for (w, &col) in group.weights.chunks_exact(g * nm).zip(group.cols) {
                let c = &coeffs[col as usize * nm..(col as usize + 1) * nm];
                for (m, &c) in c.iter().enumerate() {
                    for i in 0..g {
                        lane[m * g + i] += w[m * g + i] * c;
                    }
                }
            }
            for (i, v) in out[..g].iter_mut().enumerate() {
                *v = (0..nm).map(|m| lane[m * g + i]).sum();
            }
            out = &mut out[g..];
        }
    }

    #[inline(always)]
    unsafe fn lanes<V: Lanes>(self) {
        let GroupsDot(chunk, groups, coeffs, mut out) = self;
        let n = V::N;
        for group in groups.map(|k| chunk.group(k)) {
            let (g, nm) = (group.rows, group.n_modes);
            // The lanes' stores below rely on this bound.
            assert!((1..=GROUP_ROWS).contains(&g) && nm <= MAX_MODES);
            debug_assert_eq!(group.weights.len(), group.cols.len() * g * nm);
            debug_assert!(group.present.iter().all(|&b| b >> g == 0));
            let mut lanes = [0.0f64; LANE_SLOTS];
            for k0 in (0..(g * nm).div_ceil(n)).step_by(SWEEP_REGS) {
                if g == n {
                    group.sweep::<V, true>(coeffs, k0, &mut lanes);
                } else {
                    group.sweep::<V, false>(coeffs, k0, &mut lanes);
                }
            }
            for (i, v) in out[..g].iter_mut().enumerate() {
                *v = 0.0;
                for b in 0..nm.div_ceil(n) {
                    let mut block = [0.0f64; 8];
                    for (l, x) in block[..n].iter_mut().enumerate() {
                        if b * n + l < nm {
                            *x = lanes[(b * n + l) * g + i];
                        }
                    }
                    *v += V::load(block.as_ptr()).hsum();
                }
            }
            out = &mut out[g..];
        }
    }
}

impl Group<'_> {
    /// Accumulates the registers `k0..` (at most [`SWEEP_REGS`]) of the
    /// group's lanes over its columns into `lanes[k0 · V::N..]`: register
    /// `k`'s lane `l` is `(row, mode) = (p % rows, p / rows)` for
    /// `p = k · V::N + l`, its coefficients `splat` when `SPLAT` (a
    /// register per mode), else looked up.
    ///
    /// # Safety
    /// The CPU must support `V`'s instruction set, and every column must
    /// own `n_modes` coefficients of `coeffs`.
    #[inline(always)]
    unsafe fn sweep<V: Lanes, const SPLAT: bool>(
        self,
        coeffs: &[f64],
        k0: usize,
        lanes: &mut [f64; LANE_SLOTS],
    ) {
        let (g, nm, n) = (self.rows, self.n_modes, V::N);
        let width = g * nm;
        let regs = width.div_ceil(n).min(k0 + SWEEP_REGS) - k0;
        // Registers below `full` hold `V::N` of a column's weights; the one
        // past them the rest, read under a mask.
        let (full, tail) = (width / n, V::mask_first(width % n));
        let mut idx = [V::zero().index(); SWEEP_REGS];
        for (k, idx) in idx.iter_mut().enumerate().take(regs) {
            let mut at = [0.0f64; 8];
            for (l, a) in at[..n].iter_mut().enumerate() {
                *a = (((k0 + k) * n + l) / g).min(nm - 1) as f64;
            }
            *idx = V::load(at.as_ptr()).index();
        }
        let mut acc = [V::zero(); SWEEP_REGS];
        for (j, &col) in self.cols.iter().enumerate() {
            let col = col as usize;
            debug_assert!((col + 1) * nm <= coeffs.len());
            // SAFETY: column `j` owns weights `[j·width, (j + 1)·width)`
            // and its element `col < n_elements` the coefficients
            // `[col·nm, (col + 1)·nm)` (`check_field` matched the field to
            // the plan). A full register reads below `width`, the masked
            // one nothing past it; `splat` reads mode `k < regs = nm`
            // (`rows = V::N`), `lookup` the modes its indices clamp below
            // `nm`.
            let (w, c) = (
                self.weights.as_ptr().add(j * width),
                coeffs.as_ptr().add(col * nm),
            );
            for (k, a) in acc.iter_mut().enumerate().take(regs) {
                let kk = k0 + k;
                let wv = if kk < full {
                    V::load(w.add(kk * n))
                } else {
                    V::load_masked(w.add(kk * n), tail)
                };
                let cv = if SPLAT {
                    V::splat(*c.add(kk))
                } else {
                    V::lookup(V::table(c, nm), idx[k], 0)
                };
                *a = wv.fmadd(cv, *a);
            }
        }
        for (k, a) in acc.iter().enumerate().take(regs) {
            a.store(lanes.as_mut_ptr().add((k0 + k) * n));
        }
    }
}
