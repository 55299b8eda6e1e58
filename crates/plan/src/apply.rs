//! Applying a compiled plan to dG fields: the SpMV-style hot loop, one
//! element group at a time.

use crate::plan::{Chunk, EvalPlan, Group, CHUNK_ROWS, GROUP_ROWS};
use std::sync::Arc;
use std::time::{Duration, Instant};
use ustencil_core::blocks::{self, block_bounds};
use ustencil_core::integrate::MAX_MODES;
use ustencil_core::simd::{dispatch, prefetch, Lanes, VectorKernel};
use ustencil_core::{BlockStats, ExecConfig, Metrics, SimdRecord};
use ustencil_dg::DgField;
use ustencil_trace::{SpanRecord, Tracer};

/// A group's `(row, mode)` lanes, and room for the last register's past
/// them.
const LANE_SLOTS: usize = GROUP_ROWS * MAX_MODES + 8;

/// Registers one sweep over a group's columns keeps in flight.
const SWEEP_REGS: usize = 4;

/// How far ahead of its column a sweep prefetches the packed weights: the
/// best of 1, 2, 4 and 8 KiB (EXPERIMENTS.md "Element-group apply").
const PREFETCH_BYTES: usize = 4096;

/// Result of applying a plan to one field.
#[derive(Debug, Clone)]
pub struct PlanSolution {
    /// Post-processed value at each grid point (one per plan row).
    pub values: Vec<f64>,
    /// Aggregated work counters of the apply.
    pub metrics: Metrics,
    /// Per-block stats (wall time and counters of each row block).
    pub block_stats: Vec<BlockStats>,
    /// Phase spans of the apply (empty unless instrumented).
    pub spans: Vec<SpanRecord>,
    /// Wall-clock time of the apply.
    pub wall: Duration,
    /// SIMD dispatch summary: requested policy, resolved ISA, lanes and
    /// GFLOP/s over this apply's wall time.
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
            blocks::map(blocks.collect(), options.parallel, |mut block| {
                let body = || {
                    let mut metrics = Metrics::default();
                    dispatch(isa, GroupsDot(&mut block, coeffs));
                    for (chunk, _) in &block {
                        self.count(chunk.n_rows(), chunk.nnz, &mut metrics);
                    }
                    ((), metrics)
                };
                BlockStats::measure(0, body).1
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

/// Each chunk of `.0` against the coefficients `.1`, its rows' values
/// written to its slice, group by group: one [`dispatch`] per block.
///
/// The portable body accumulates every `(row, mode)` lane over its row's
/// entries in stored order with an unfused multiply and add, then sums each
/// row's modes in order: byte-for-byte the historical per-row lane kernel,
/// so `SimdPolicy::Scalar` reproduces pre-SIMD results bitwise. The vector
/// body lays a group's `rows · n_modes` lanes, mode-major, over registers:
/// per column it prefetches the weights [`PREFETCH_BYTES`] ahead, and each
/// register expands its present weights from the packed column
/// ([`Lanes::load_expand`], [`Expand`]) and takes one coefficient
/// load (spread over the lanes by `splat` where a register holds one mode,
/// else by `lookup`) into an unmasked FMA, each lane an independent chain
/// in column order. Each row then puts its modes into `V::N`-wide blocks
/// padded with `0.0` and sums their [`Lanes::hsum`]s from `0.0`: the
/// historical row kernel's reduction. In both, a lane whose row does not
/// read the column takes the weight `0.0`, adding `0.0 · c` to a lane that
/// started at `+0.0` and so never holds `−0.0`, which leaves it unchanged:
/// every ISA keeps its bits on finite input.
struct GroupsDot<'a, 'b>(&'b mut [(&'a Arc<Chunk>, &'a mut [f64])], &'a [f64]);

impl VectorKernel for GroupsDot<'_, '_> {
    type Output = ();

    fn scalar(self) {
        let GroupsDot(chunks, coeffs) = self;
        for (group, out) in groups(chunks) {
            let (g, nm) = (group.rows, group.n_modes);
            let mut lane = [0.0f64; GROUP_ROWS * MAX_MODES];
            let mut weights = group.weights;
            for (&bits, &col) in group.present.iter().zip(group.cols) {
                let (w, rest) = weights.split_at(bits.count_ones() as usize * nm);
                weights = rest;
                let c = &coeffs[col as usize * nm..(col as usize + 1) * nm];
                for (p, w) in expanded(bits, g, nm, w).enumerate() {
                    lane[p] += w * c[p / g];
                }
            }
            for (i, v) in out.iter_mut().enumerate() {
                *v = (0..nm).map(|m| lane[m * g + i]).sum();
            }
        }
    }

    #[inline(always)]
    unsafe fn lanes<V: Lanes>(self) {
        let GroupsDot(chunks, coeffs) = self;
        let n = V::N;
        let Some((first, _)) = chunks.first() else {
            return;
        };
        let expand = Expand::new(first.n_modes, n);
        for (group, out) in groups(chunks) {
            let (g, nm) = (group.rows, group.n_modes);
            // The lanes' stores and the expand table below rely on this bound.
            assert!((1..=GROUP_ROWS).contains(&g) && nm <= MAX_MODES);
            debug_assert!(group.present.iter().all(|&b| b != 0 && b >> g == 0));
            let mut lanes = [0.0f64; LANE_SLOTS];
            for k0 in (0..(g * nm).div_ceil(n)).step_by(SWEEP_REGS) {
                if g == n {
                    group.sweep::<V, true>(coeffs, &expand, k0, &mut lanes);
                } else {
                    group.sweep::<V, false>(coeffs, &expand, k0, &mut lanes);
                }
            }
            for (i, v) in out.iter_mut().enumerate() {
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
        }
    }
}

/// Every group of `chunks`, each with the slice of its chunk's values its
/// rows write.
fn groups<'c, 'a: 'c>(
    chunks: &'c mut [(&'a Arc<Chunk>, &'a mut [f64])],
) -> impl Iterator<Item = (Group<'c>, &'c mut [f64])> + use<'c, 'a> {
    chunks.iter_mut().flat_map(|(chunk, out)| {
        let mut out: &mut [f64] = out;
        chunk.groups().map(move |group| {
            let (rows, rest) = std::mem::take(&mut out).split_at_mut(group.rows);
            out = rest;
            (group, rows)
        })
    })
}

/// A packed column's weights over its group's `g · nm` `(row, mode)`
/// lanes, mode-major: the next weight where the presence byte `bits` sets
/// the lane's row, else `0.0`.
fn expanded(bits: u8, g: usize, nm: usize, column: &[f64]) -> impl Iterator<Item = f64> + '_ {
    let mut w = column.iter();
    (0..g * nm).map(move |p| match bits >> (p % g) & 1 {
        0 => 0.0,
        _ => *w.next().unwrap(),
    })
}

/// Registers a group's lanes fill at most, at the narrowest width.
const MAX_REGS: usize = (GROUP_ROWS * MAX_MODES).div_ceil(4);

/// How a column's registers expand its packed weights, for `n_modes`
/// modes and `V::N` lanes: per group size `g` (index `g − 1`), presence
/// byte and register `k`, the lanes `mask` of its `(row, mode)` lanes
/// `k · V::N..` whose row the byte sets, and the offset `at` in the column
/// of the first weight they read; per presence byte, the column's weights.
/// The packed column lists its present lanes in lane order, so a register's
/// weights are consecutive.
struct Expand {
    mask: [[[u8; MAX_REGS]; 1 << GROUP_ROWS]; GROUP_ROWS],
    at: [[[u8; MAX_REGS]; 1 << GROUP_ROWS]; GROUP_ROWS],
    len: [usize; 1 << GROUP_ROWS],
}

impl Expand {
    fn new(nm: usize, n: usize) -> Expand {
        let mut e = Expand {
            mask: [[[0; MAX_REGS]; 1 << GROUP_ROWS]; GROUP_ROWS],
            at: [[[0; MAX_REGS]; 1 << GROUP_ROWS]; GROUP_ROWS],
            len: [0; 1 << GROUP_ROWS],
        };
        for bits in 0..1 << GROUP_ROWS {
            e.len[bits] = (bits as u8).count_ones() as usize * nm;
        }
        for g in 1..=GROUP_ROWS {
            for bits in 1..1usize << g {
                let (mut read, mut p) = (0, 0);
                for _ in 0..nm {
                    for i in 0..g {
                        let (k, l) = (p / n, p % n);
                        if l == 0 {
                            e.at[g - 1][bits][k] = read;
                        }
                        if bits >> i & 1 != 0 {
                            e.mask[g - 1][bits][k] |= 1 << l;
                            read += 1;
                        }
                        p += 1;
                    }
                }
            }
        }
        e
    }
}

impl Group<'_> {
    /// Accumulates the registers `k0..` (at most [`SWEEP_REGS`]) of the
    /// group's lanes over its columns into `lanes[k0 · V::N..]`: register
    /// `k`'s lane `l` is `(row, mode) = (p % rows, p / rows)` for
    /// `p = k · V::N + l`, its weight expanded from the packed column by
    /// `expand` (built for `V::N` lanes and the group's modes), its
    /// coefficients `splat` when `SPLAT` (a register per mode), else looked
    /// up.
    ///
    /// # Safety
    /// The CPU must support `V`'s instruction set, and every column must
    /// own `n_modes` coefficients of `coeffs`.
    #[inline(always)]
    unsafe fn sweep<V: Lanes, const SPLAT: bool>(
        self,
        coeffs: &[f64],
        expand: &Expand,
        k0: usize,
        lanes: &mut [f64; LANE_SLOTS],
    ) {
        let (g, nm, n) = (self.rows, self.n_modes, V::N);
        let regs = (g * nm).div_ceil(n).min(k0 + SWEEP_REGS) - k0;
        let (mask, at) = (&expand.mask[g - 1], &expand.at[g - 1]);
        let mut idx = [V::zero().index(); SWEEP_REGS];
        for (k, idx) in idx.iter_mut().enumerate().take(regs) {
            let mut modes = [0.0f64; 8];
            for (l, m) in modes[..n].iter_mut().enumerate() {
                *m = (((k0 + k) * n + l) / g).min(nm - 1) as f64;
            }
            *idx = V::load(modes.as_ptr()).index();
        }
        let mut acc = [V::zero(); SWEEP_REGS];
        let mut from = 0;
        for (&bits, &col) in self.present.iter().zip(self.cols) {
            let (bits, col) = (bits as usize, col as usize);
            debug_assert!(bits >> g == 0 && (col + 1) * nm <= coeffs.len());
            debug_assert!(from + expand.len[bits] <= self.weights.len());
            // SAFETY: a presence byte sets only bits below `g <= 4`, so it
            // is below 16, and `k0 + k` counts the group's registers, at
            // most `MAX_REGS`. The column's `len[bits]` packed weights start
            // at `from`, inside the group's, and register `k` expands
            // `mask.count_ones()` of them from `at` on, none past
            // `len[bits]`; its element `col < n_elements` owns the
            // coefficients `[col·nm, (col + 1)·nm)` (`check_field` matched
            // the field to the plan). `splat` reads mode `k < regs = nm`
            // (`rows = V::N`), `lookup` the modes its indices clamp below
            // `nm`.
            let (w, c) = (
                self.weights.as_ptr().add(from),
                coeffs.as_ptr().add(col * nm),
            );
            // The next groups' weights, or past the chunk's: a hint only.
            prefetch(w.wrapping_add(PREFETCH_BYTES / 8));
            let (mask, at) = (mask.get_unchecked(bits), at.get_unchecked(bits));
            let table = V::table(c, nm);
            for (k, a) in acc.iter_mut().enumerate().take(regs) {
                let kk = k0 + k;
                let (at, mask) = (*at.get_unchecked(kk) as usize, *mask.get_unchecked(kk));
                let wv = V::load_expand(w.add(at), mask);
                let cv = if SPLAT {
                    V::splat(*c.add(kk))
                } else {
                    V::lookup(table, idx[k], 0)
                };
                *a = wv.fmadd(cv, *a);
            }
            from += expand.len[bits & 15];
        }
        for (k, a) in acc.iter().enumerate().take(regs) {
            a.store(lanes.as_mut_ptr().add((k0 + k) * n));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustencil_core::SimdIsa;

    /// One packed column of `g` rows and `nm` modes, present rows `bits`,
    /// expanded to its lanes: the portable body as the scalar kernel reads
    /// it, the vector body register by register as the group kernel does.
    struct ExpandColumn<'a>(usize, usize, u8, &'a [f64]);

    impl VectorKernel for ExpandColumn<'_> {
        type Output = Vec<f64>;

        fn scalar(self) -> Vec<f64> {
            let ExpandColumn(g, nm, bits, column) = self;
            expanded(bits, g, nm, column).collect()
        }

        #[inline(always)]
        unsafe fn lanes<V: Lanes>(self) -> Vec<f64> {
            let ExpandColumn(g, nm, bits, column) = self;
            let (n, expand, b) = (V::N, Expand::new(nm, V::N), bits as usize);
            assert_eq!(expand.len[b], column.len());
            let mut lanes = vec![0.0; (g * nm).div_ceil(n) * n];
            for k in 0..(g * nm).div_ceil(n) {
                let (at, mask) = (expand.at[g - 1][b][k] as usize, expand.mask[g - 1][b][k]);
                assert!(at + mask.count_ones() as usize <= column.len());
                let w = V::load_expand(column.as_ptr().add(at), mask);
                w.store(lanes.as_mut_ptr().add(k * n));
            }
            // Lanes past the last mode are the tail register's, zeroed.
            assert!(lanes[g * nm..].iter().all(|&x| x == 0.0));
            lanes.truncate(g * nm);
            lanes
        }
    }

    /// Every arm the host runs expands every presence byte of every group
    /// size and mode count to the padded lanes, mode `m` of row `i` at
    /// `m · g + i`, reading only the column, which ends its slice.
    #[test]
    fn expanded_columns_are_the_padded_lanes_on_every_arm() {
        for nm in [1, 3, 6, 10] {
            for g in 1..=GROUP_ROWS {
                for bits in 1..1u8 << g {
                    let present = bits.count_ones() as usize;
                    let memory: Vec<f64> = (0..7 + present * nm).map(|x| x as f64 + 0.5).collect();
                    let column = &memory[7..];
                    let rank = |i: usize| (bits & ((1 << i) - 1)).count_ones() as usize;
                    let want: Vec<u64> = (0..g * nm)
                        .map(|p| {
                            let (m, i) = (p / g, p % g);
                            match bits >> i & 1 {
                                0 => 0.0f64,
                                _ => column[m * present + rank(i)],
                            }
                            .to_bits()
                        })
                        .collect();
                    for isa in [SimdIsa::Scalar, SimdIsa::Avx2, SimdIsa::Avx512] {
                        let got = dispatch(isa, ExpandColumn(g, nm, bits, column));
                        let got: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
                        assert_eq!(got, want, "{isa:?}, g {g}, nm {nm}, bits {bits:#b}");
                    }
                }
            }
        }
    }
}
