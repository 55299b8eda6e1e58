//! The reusable per-worker arena of the traversal kernel.
//!
//! Every buffer the hot loop needs lives here, owned by one worker and
//! reused across queries: the candidate id list of the current hash-grid
//! query, a direct-mapped [`ElementData`] cache that removes repeated
//! gathers of the same element, and the sub-triangle staging buffer the
//! cells-then-modes integration loop consumes. After the first few queries
//! warm the buffers up to their steady-state capacity, the per-query path
//! performs no heap allocation (see [`ScratchCapacity`] and the purity
//! tests).

use crate::integrate::{ElementData, MAX_DEGREE, MAX_MODES};
use crate::simd::{dispatch, Lanes, SimdIsa, VectorKernel};
use ustencil_geometry::{ConvexPolygon, Point2, Triangle, Vec2};
use ustencil_quadrature::TriangleRule;
use ustencil_siac::Kernel1d;

/// Slots of the direct-mapped element cache (power of two). Sized so the
/// cache covers the working set of one stencil query (tens of candidates)
/// plus the overlap between neighbouring queries, while keeping the
/// per-worker footprint bounded (~56 KiB of `ElementData`).
const ELEM_CACHE_SLOTS: usize = 256;

/// Zero-padded SoA copy of a quadrature rule's nodes and weights,
/// precomputed once per run (the rule never changes across a traversal) so
/// the vector reductions load whole blocks without masking: lanes past the
/// rule's length carry zero weight and therefore contribute exactly
/// nothing to any mode.
#[derive(Debug, Clone)]
pub(crate) struct RuleSoa {
    /// Unit-triangle `u` per node, padded with zeros to a multiple of 8.
    pub(crate) u: Vec<f64>,
    /// Unit-triangle `v` per node, padded likewise.
    pub(crate) v: Vec<f64>,
    /// Rule weight per node, padded with zeros (the annihilator).
    pub(crate) w: Vec<f64>,
    /// True (unpadded) node count.
    pub(crate) nq: usize,
}

impl RuleSoa {
    pub(crate) fn new(rule: &TriangleRule) -> Self {
        let nq = rule.len();
        let padded = nq.div_ceil(8) * 8;
        let mut u = vec![0.0; padded];
        let mut v = vec![0.0; padded];
        let mut w = vec![0.0; padded];
        for (q, (&(pu, pv), &pw)) in rule.points().iter().zip(rule.weights()).enumerate() {
            u[q] = pu;
            v[q] = pv;
            w[q] = pw;
        }
        Self { u, v, w, nq }
    }
}

/// Direct-mapped cache of gathered [`ElementData`], keyed by element id.
///
/// One query visits each candidate once, but consecutive queries of a block
/// revisit mostly the same elements; the cache turns those repeat gathers
/// into an id compare. Collisions simply re-gather — the cache is a pure
/// memoization and never changes results.
#[derive(Debug, Clone)]
pub(crate) struct ElemCache {
    /// `id + 1` of the element held in each slot; 0 marks an empty slot.
    tags: Box<[u32]>,
    data: Box<[ElementData]>,
}

impl ElemCache {
    fn new() -> Self {
        Self {
            tags: vec![0u32; ELEM_CACHE_SLOTS].into_boxed_slice(),
            data: vec![ElementData::placeholder(); ELEM_CACHE_SLOTS].into_boxed_slice(),
        }
    }

    /// Returns the cached data of element `id`, gathering through `gather`
    /// on a miss.
    #[inline]
    pub(crate) fn get_or_gather(
        &mut self,
        id: u32,
        gather: impl FnOnce(usize) -> ElementData,
    ) -> &ElementData {
        let slot = id as usize & (ELEM_CACHE_SLOTS - 1);
        if self.tags[slot] != id + 1 {
            self.data[slot] = gather(id as usize);
            self.tags[slot] = id + 1;
        }
        &self.data[slot]
    }
}

/// Everything the staged mode reduction needs beyond the sub-triangles
/// themselves — the quadrature rule, the compiled SIAC kernel, and the
/// affine frames (stencil center / periodic shift / element reference map)
/// that turn a unit-triangle quadrature node into kernel- and
/// element-frame coordinates.
pub(crate) struct ReduceCtx<'a> {
    /// Monomial exponent table of the element basis.
    pub(crate) exps: &'a [(usize, usize)],
    /// Number of leading `exps` slots to reduce.
    pub(crate) n_modes: usize,
    /// Resolved ISA to dispatch on.
    pub(crate) isa: SimdIsa,
    /// The 1-D SIAC kernel (its compiled piecewise table feeds the
    /// lane-parallel evaluation).
    pub(crate) kernel: &'a Kernel1d,
    /// Quadrature rule applied to every staged sub-triangle.
    pub(crate) rule: &'a TriangleRule,
    /// Padded SoA copy of `rule` the vector arms batch from.
    pub(crate) soa: &'a RuleSoa,
    /// Reciprocal stencil scaling `1/h`.
    pub(crate) inv_h: f64,
    /// Stencil center (kernel frame origin).
    pub(crate) center: Point2,
    /// Periodic shift applied to the element image.
    pub(crate) shift: Vec2,
    /// Element reference-map origin.
    pub(crate) origin: Point2,
    /// Element reference-map inverse (row-major 2×2).
    pub(crate) inv: [f64; 4],
}

/// Staging buffer holding the surviving sub-triangles of one element-image
/// integration.
///
/// The traversal driver clips and fan-triangulates first — the image cut to
/// each overlapped lattice column is kept here while the column's cells are
/// cut from it — staging each surviving sub-triangle with its Jacobian. The
/// whole per-point pipeline — mapping quadrature nodes to physical points,
/// the piecewise-polynomial SIAC kernel weighting, the element-frame
/// transform, and the monomial mode reduction — then runs over the staged
/// batch in one pass, the cells-then-modes loop order. On the vector ISAs
/// that entire pipeline is lane-parallel across quadrature nodes: the
/// unit-triangle map and the element transform are affine FMAs, the
/// kernel's Horner step gathers per-lane cell coefficients, and the
/// coordinates are raised to their monomial powers in registers, so the
/// branchy per-point work of the fused path becomes straight-line vector
/// code.
#[derive(Debug, Clone, Default)]
pub struct QuadStage {
    /// The element image clipped to each overlapped lattice column, in
    /// column order.
    pub(super) strips: Vec<ConvexPolygon>,
    /// Surviving sub-triangles with their absolute Jacobians.
    pub(super) subs: Vec<(Triangle, f64)>,
    /// Vector-arm scratch: effective weights per (sub, node) lane slot.
    bw: Vec<f64>,
    /// Vector-arm scratch: element-frame `u` per lane slot.
    bu: Vec<f64>,
    /// Vector-arm scratch: element-frame `v` per lane slot.
    bv: Vec<f64>,
}

impl QuadStage {
    /// True when nothing is staged.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Discards the column strips and the staged sub-triangles (capacity
    /// is retained).
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.strips.clear();
        self.subs.clear();
    }

    /// Reduces the staged batch to per-monomial sums
    /// `S[slot] = Σ_T Σ_q w · u^a · v^b` with
    /// `w = (|J_T|·ω_q) · K(dx) · K(dy) / h²` over every staged
    /// sub-triangle `T` and rule node `q`, for the first `n_modes`
    /// exponent pairs — the modes loop of the cells-then-modes order,
    /// dispatched on `ctx.isa`.
    ///
    /// The scalar arm performs, per node, exactly the historical
    /// expression tree — [`Triangle::map_from_unit`], the element
    /// reference transform, `w = (|J|·ω) · ((K(dx)·K(dy))·h⁻¹)·h⁻¹` via
    /// [`Kernel1d::eval`], powers built as `u·u` and `(u·u)·u`, products
    /// associated `(w·uᵃ)·vᵇ`, per-slot accumulation in node order — so
    /// [`SimdIsa::Scalar`] reproduces pre-SIMD results bitwise. The
    /// vector body batches the rule's nodes into blocks of `V::N` lanes (4
    /// on AVX2+FMA, 8 on AVX-512) and runs the pipeline in two
    /// register-friendly passes. Pass 1 (geometry + kernel, per staged sub-triangle):
    /// affine FMAs for both coordinate maps, then a clamped floor +
    /// coefficient gather + lane-parallel Horner for each kernel factor,
    /// packing the effective weight and element-frame coordinates of
    /// every lane slot into SoA scratch streams. Pass 2 (modes): one
    /// dense sweep over the packed streams raising the coordinates to
    /// their monomial powers and feeding every mode's FMA accumulator.
    /// Each accumulator is collapsed by a fixed-order horizontal
    /// reduction at the end — deterministic run-to-run, within 1e-12 of
    /// scalar (the lane split reassociates the sum).
    pub(crate) fn mono_sums(&mut self, ctx: &ReduceCtx<'_>) -> [f64; MAX_MODES] {
        dispatch(ctx.isa, MonoSums(self, ctx))
    }

    fn mono_sums_scalar(&self, ctx: &ReduceCtx<'_>) -> [f64; MAX_MODES] {
        let mut sums = [0.0f64; MAX_MODES];
        let (du, dv) = max_degrees(ctx.exps, ctx.n_modes);
        let q_points = ctx.rule.points();
        let q_weights = ctx.rule.weights();
        for &(tri, jac) in &self.subs {
            for (&(uq, vq), &wq) in q_points.iter().zip(q_weights) {
                let p = tri.map_from_unit(uq, vq);
                let d = (p - ctx.shift) - ctx.origin;
                let u = ctx.inv[0] * d.x + ctx.inv[1] * d.y;
                let v = ctx.inv[2] * d.x + ctx.inv[3] * d.y;
                // Exactly `Stencil2d::eval`'s multiplication tree, applied
                // to the geometric pre-weight in the historical order.
                let kx = ctx.kernel.eval((p.x - ctx.center.x) * ctx.inv_h);
                let ky = ctx.kernel.eval((p.y - ctx.center.y) * ctx.inv_h);
                let w = (jac * wq) * (((kx * ky) * ctx.inv_h) * ctx.inv_h);
                // `w·uᵃ` is shared by every mode with the same `a`, so it
                // is hoisted out of the mode loop — the same product
                // computed once instead of per slot, with identical bits.
                // Powers past the basis's maximal exponent never feed an
                // output and are skipped (the per-node branches are
                // loop-invariant and predicted perfectly).
                let mut wu: [f64; MAX_DEGREE + 1] = [w, w * u, 0.0, 0.0];
                let mut vp: [f64; MAX_DEGREE + 1] = [1.0, v, 0.0, 0.0];
                if du >= 2 {
                    let u2 = u * u;
                    wu[2] = w * u2;
                    if du >= 3 {
                        wu[3] = w * (u2 * u);
                    }
                }
                if dv >= 2 {
                    let v2 = v * v;
                    vp[2] = v2;
                    if dv >= 3 {
                        vp[3] = v2 * v;
                    }
                }
                for (slot, &(a, b)) in ctx.exps.iter().enumerate().take(ctx.n_modes) {
                    sums[slot] += wu[a] * vp[b];
                }
            }
        }
        sums
    }

    /// The vector body of [`mono_sums`](Self::mono_sums), over blocks of
    /// `V::N` rule nodes.
    ///
    /// # Safety
    /// The CPU must support `V`'s instruction set.
    #[inline(always)]
    unsafe fn mono_sums_lanes<V: Lanes>(&mut self, ctx: &ReduceCtx<'_>) -> [f64; MAX_MODES] {
        let soa = ctx.soa;
        let nblk = soa.nq.div_ceil(V::N);
        // Low-order rules (the degree-1 case's 4-node rule) fill only half
        // an 8-lane block, so two staged sub-triangles share each one: the
        // low lanes carry one sub, the high lanes the next, against the
        // same rule nodes.
        let paired = V::N == 8 && soa.nq <= 4;
        let total = if paired {
            self.subs.len().div_ceil(2) * V::N
        } else {
            self.subs.len() * nblk * V::N
        };
        if self.bw.len() < total {
            self.bw.resize(total, 0.0);
            self.bu.resize(total, 0.0);
            self.bv.resize(total, 0.0);
        }
        let bw = self.bw.as_mut_ptr();
        let bu = self.bu.as_mut_ptr();
        let bv = self.bv.as_mut_ptr();

        // Pass 1 — geometry + kernel: per sub-triangle, map every rule
        // node to its physical point, evaluate both kernel factors, and
        // pack the effective weight and element-frame coordinates of each
        // lane slot. No mode accumulators are live here, so the broadcast
        // frame constants stay in registers.
        //
        // SAFETY (pointer offsets): pass 1 writes `V::N` lanes at `out`,
        // which advances by `V::N` exactly `total / V::N` times, and pass 2
        // reads below `total`, the length the three streams were just grown
        // to. Rule blocks are read below `nblk · V::N`, within the SoA's
        // padding to a multiple of 8 (`V::N` divides 8).
        let frame = Frame::<V>::new(ctx);
        let inv_h2 = ctx.inv_h * ctx.inv_h;
        let (sou, sov, sow) = (soa.u.as_ptr(), soa.v.as_ptr(), soa.w.as_ptr());
        let mut out = 0usize;
        if paired {
            // Rule nodes replicated into both halves; per-pair constants
            // are split broadcasts (sub A low, sub B high). An odd tail
            // re-runs sub A with zero weight in the high half.
            let rule = [
                V::load_half_dup(sou),
                V::load_half_dup(sov),
                V::load_half_dup(sow),
            ];
            for pair in self.subs.chunks(2) {
                let (t0, j0) = pair[0];
                let (t1, j1) = pair.get(1).copied().unwrap_or((t0, 0.0));
                let lo = sub_constants(&t0, j0 * inv_h2);
                let hi = sub_constants(&t1, j1 * inv_h2);
                let mut sub = [V::zero(); 7];
                for (s, (&a, &b)) in sub.iter_mut().zip(lo.iter().zip(&hi)) {
                    *s = V::pair(a, b);
                }
                frame.stage(rule, sub, [bw.add(out), bu.add(out), bv.add(out)]);
                out += V::N;
            }
        } else {
            for (tri, jac) in &self.subs {
                let mut sub = [V::zero(); 7];
                for (s, &c) in sub.iter_mut().zip(&sub_constants(tri, jac * inv_h2)) {
                    *s = V::splat(c);
                }
                for base in (0..nblk * V::N).step_by(V::N) {
                    let rule = [
                        V::load(sou.add(base)),
                        V::load(sov.add(base)),
                        V::load(sow.add(base)),
                    ];
                    frame.stage(rule, sub, [bw.add(out), bu.add(out), bv.add(out)]);
                    out += V::N;
                }
            }
        }

        // Pass 2 — modes: one dense sweep over the packed streams. Only
        // the power vectors and the accumulators are live.
        let mut acc = [V::zero(); MAX_MODES];
        let (ones, zero) = (V::splat(1.0), V::zero());
        let (du, dv) = max_degrees(ctx.exps, ctx.n_modes);
        for base in (0..total).step_by(V::N) {
            let w = V::load(bw.add(base));
            let u = V::load(bu.add(base));
            let v = V::load(bv.add(base));
            // `w·uᵃ` hoisted out of the mode loop; powers past the
            // basis's maximal exponent are skipped (loop-invariant
            // branches).
            let mut wu: [V; MAX_DEGREE + 1] = [w, w.mul(u), zero, zero];
            let mut vpow: [V; MAX_DEGREE + 1] = [ones, v, zero, zero];
            if du >= 2 {
                let u2 = u.mul(u);
                wu[2] = w.mul(u2);
                if du >= 3 {
                    wu[3] = w.mul(u2.mul(u));
                }
            }
            if dv >= 2 {
                let v2 = v.mul(v);
                vpow[2] = v2;
                if dv >= 3 {
                    vpow[3] = v2.mul(v);
                }
            }
            for (slot, &(a, b)) in ctx.exps.iter().enumerate().take(ctx.n_modes) {
                acc[slot] = wu[a].fmadd(vpow[b], acc[slot]);
            }
        }
        let mut sums = [0.0f64; MAX_MODES];
        for (sum, acc) in sums.iter_mut().zip(&acc).take(ctx.n_modes) {
            *sum = acc.hsum();
        }
        sums
    }
}

/// [`QuadStage::mono_sums`]' two bodies, as [`dispatch`] takes them.
struct MonoSums<'a, 'c>(&'a mut QuadStage, &'a ReduceCtx<'c>);

impl VectorKernel for MonoSums<'_, '_> {
    type Output = [f64; MAX_MODES];

    fn scalar(self) -> Self::Output {
        self.0.mono_sums_scalar(self.1)
    }

    #[inline(always)]
    unsafe fn lanes<V: Lanes>(self) -> Self::Output {
        self.0.mono_sums_lanes::<V>(self.1)
    }
}

/// The seven per-sub-triangle scalars of pass 1: vertex `a`, the edges
/// `b − a` and `c − a` of the affine unit-triangle map, and the weight
/// factor `|J|·h⁻²` folded scalar-side.
#[inline(always)]
fn sub_constants(tri: &Triangle, jw: f64) -> [f64; 7] {
    let (e1, e2) = (tri.b - tri.a, tri.c - tri.a);
    [tri.a.x, tri.a.y, e1.x, e1.y, e2.x, e2.y, jw]
}

/// The per-reduction broadcast constants of pass 1. The affine frames are
/// folded into single-FMA constants: the kernel-frame support shift
/// `rel = (p − center)/h − lo` becomes `p·h⁻¹ + m`, and the element
/// transform `inv · (p − shift − origin)` becomes `i₀·p.x + i₁·p.y + c`.
struct Frame<V: Lanes> {
    invh: V,
    mx: V,
    my: V,
    inv: [V; 4],
    cu: V,
    cv: V,
    kcells: f64,
    kdeg: usize,
    table: V::Table,
}

impl<V: Lanes> Frame<V> {
    /// # Safety
    /// The CPU must support `V`'s instruction set.
    #[inline(always)]
    unsafe fn new(ctx: &ReduceCtx<'_>) -> Self {
        let klo = ctx.kernel.support().0;
        let offx = ctx.shift.x + ctx.origin.x;
        let offy = ctx.shift.y + ctx.origin.y;
        let kdeg = ctx.kernel.smoothness() + 1;
        let table = ctx.kernel.piecewise_table();
        // `kernel1d_eval` looks up positions below `n_cells · kdeg`.
        assert_eq!(table.len(), ctx.kernel.n_cells() * kdeg);
        Self {
            invh: V::splat(ctx.inv_h),
            mx: V::splat(-(ctx.center.x * ctx.inv_h + klo)),
            my: V::splat(-(ctx.center.y * ctx.inv_h + klo)),
            inv: [
                V::splat(ctx.inv[0]),
                V::splat(ctx.inv[1]),
                V::splat(ctx.inv[2]),
                V::splat(ctx.inv[3]),
            ],
            cu: V::splat(-(ctx.inv[0] * offx + ctx.inv[1] * offy)),
            cv: V::splat(-(ctx.inv[2] * offx + ctx.inv[3] * offy)),
            kcells: ctx.kernel.n_cells() as f64,
            kdeg,
            table: V::table(table.as_ptr(), table.len()),
        }
    }

    /// One block of pass 1: the rule nodes `(u, v, ω)` against the
    /// [`sub_constants`] of the sub-triangle(s) in its lanes, packed to the
    /// `[w, u, v]` streams.
    ///
    /// # Safety
    /// The CPU must support `V`'s instruction set, each of `out` must be
    /// valid for `V::N` writes, and the kernel table `new` was given must
    /// still be live.
    #[inline(always)]
    unsafe fn stage(
        &self,
        [uq, vq, wq]: [V; 3],
        [ax, ay, e1x, e1y, e2x, e2y, jw]: [V; 7],
        [bw, bu, bv]: [*mut f64; 3],
    ) {
        // Affine unit-triangle map: p = a + u·(b−a) + v·(c−a).
        let px = vq.fmadd(e2x, uq.fmadd(e1x, ax));
        let py = vq.fmadd(e2y, uq.fmadd(e1y, ay));
        let relx = px.fmadd(self.invh, self.mx);
        let rely = py.fmadd(self.invh, self.my);
        let kx = kernel1d_eval(relx, self.kcells, self.table, self.kdeg);
        let ky = kernel1d_eval(rely, self.kcells, self.table, self.kdeg);
        jw.mul(wq).mul(kx.mul(ky)).store(bw);
        self.inv[0]
            .fmadd(px, self.inv[1].fmadd(py, self.cu))
            .store(bu);
        self.inv[2]
            .fmadd(px, self.inv[3].fmadd(py, self.cv))
            .store(bv);
    }
}

/// Lane-parallel [`Kernel1d::eval`] on support-relative coordinates
/// `rel = x − lo` (the caller folds the shift into its frame constants):
/// per-lane unit-cell lookup by clamped floor, coefficient lookups in the
/// compiled piecewise table, and a Horner step in the local coordinate.
/// Out-of-support lanes are zeroed at the end, matching the scalar early
/// returns.
///
/// # Safety
/// The CPU must support `V`'s instruction set; `table` must hold at least
/// `n_cells · deg` coefficients with `n_cells ≥ 1` and `deg ≥ 1`.
#[inline(always)]
unsafe fn kernel1d_eval<V: Lanes>(rel: V, n_cells: f64, table: V::Table, deg: usize) -> V {
    let zero = V::zero();
    let valid = rel.in_range(zero, V::splat(n_cells));
    // Truncation equals floor on the in-range (non-negative) lanes; the
    // rest are zeroed by `valid` regardless.
    let cellf = rel.trunc();
    let t = rel.sub(cellf);
    // Clamp so out-of-support lanes look up a harmless in-bounds cell.
    let cellc = cellf.max(zero).min(V::splat(n_cells - 1.0));
    let idx = cellc.mul(V::splat(deg as f64)).index();
    let mut acc = V::lookup(table, idx, deg - 1);
    for j in (0..deg - 1).rev() {
        acc = acc.fmadd(t, V::lookup(table, idx, j));
    }
    acc.keep(valid)
}

/// Largest `u` and `v` exponents among the first `n_modes` entries of the
/// exponent table — the reduction kernels skip building powers past these.
#[inline]
fn max_degrees(exps: &[(usize, usize)], n_modes: usize) -> (usize, usize) {
    let mut du = 0usize;
    let mut dv = 0usize;
    for &(a, b) in exps.iter().take(n_modes) {
        du = du.max(a);
        dv = dv.max(b);
    }
    (du, dv)
}

/// Capacity snapshot of a [`Scratch`] arena, for allocation-freedom checks:
/// run a workload once to warm up, snapshot, run it again, and assert the
/// snapshot is unchanged — any growth inside the per-query path would show
/// up here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScratchCapacity {
    /// Capacity of the candidate id buffer.
    pub candidates: usize,
    /// Capacity of the staged sub-triangle buffer.
    pub staged: usize,
    /// Capacity of the lattice-column strip buffer.
    pub strips: usize,
}

/// The per-worker scratch arena threaded through every traversal.
#[derive(Debug, Clone)]
pub struct Scratch {
    /// Candidate ids of the current hash-grid query.
    pub(crate) candidates: Vec<u32>,
    /// Memoized element gathers.
    pub(crate) cache: ElemCache,
    /// Sub-triangle staging of the current element image.
    pub(crate) stage: QuadStage,
}

impl Scratch {
    /// A fresh arena with warm initial capacities.
    pub fn new() -> Self {
        Self {
            candidates: Vec::with_capacity(64),
            cache: ElemCache::new(),
            stage: QuadStage::default(),
        }
    }

    /// Current buffer capacities (see [`ScratchCapacity`]).
    pub fn capacity(&self) -> ScratchCapacity {
        ScratchCapacity {
            candidates: self.candidates.capacity(),
            staged: self.stage.subs.capacity(),
            strips: self.stage.strips.capacity(),
        }
    }
}

impl Default for Scratch {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::SimdPolicy;

    impl QuadStage {
        /// Number of staged sub-triangles.
        fn len(&self) -> usize {
            self.subs.len()
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn ctx<'a>(
        kernel: &'a Kernel1d,
        rule: &'a TriangleRule,
        soa: &'a RuleSoa,
        exps: &'a [(usize, usize)],
        n_modes: usize,
        isa: SimdIsa,
        inv_h: f64,
        center: Point2,
    ) -> ReduceCtx<'a> {
        ReduceCtx {
            exps,
            n_modes,
            isa,
            kernel,
            rule,
            soa,
            inv_h,
            center,
            shift: Vec2::new(0.25, -0.5),
            origin: Point2::new(0.05, -0.1),
            inv: [1.3, 0.2, -0.4, 0.9],
        }
    }

    fn sample_subs() -> Vec<(Triangle, f64)> {
        let tris = [
            Triangle::new(
                Point2::new(0.40, 0.45),
                Point2::new(0.62, 0.50),
                Point2::new(0.48, 0.71),
            ),
            Triangle::new(
                Point2::new(0.52, 0.38),
                Point2::new(0.70, 0.61),
                Point2::new(0.41, 0.66),
            ),
            // Far from the test centers: exercises the out-of-support
            // lanes of the vector kernel evaluation.
            Triangle::new(
                Point2::new(3.00, 3.00),
                Point2::new(3.30, 3.05),
                Point2::new(3.10, 3.40),
            ),
        ];
        tris.iter().map(|t| (*t, t.jacobian().abs())).collect()
    }

    /// The scalar reduction must replay the historical per-node expression
    /// tree exactly — verified here against a hand-rolled replay of the
    /// same loop, with exact (bitwise) equality.
    #[test]
    fn sub_staging_matches_pointwise_reference() {
        let kern = Kernel1d::symmetric(2);
        let rule = TriangleRule::with_strength(4);
        let exps = [(0usize, 0usize), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)];
        let center = Point2::new(0.5, 0.5);
        let inv_h = 1.0 / 0.11;
        let mut s = QuadStage::default();
        for &(tri, jac) in &sample_subs() {
            s.subs.push((tri, jac));
        }
        assert_eq!(s.len(), 3);
        let soa = RuleSoa::new(&rule);
        let c = ctx(&kern, &rule, &soa, &exps, 6, SimdIsa::Scalar, inv_h, center);
        let sums = s.mono_sums(&c);

        let mut want = [0.0f64; MAX_MODES];
        for &(tri, jac) in &sample_subs() {
            for (&(uq, vq), &wq) in rule.points().iter().zip(rule.weights()) {
                let p = tri.map_from_unit(uq, vq);
                let d = (p - c.shift) - c.origin;
                let u = c.inv[0] * d.x + c.inv[1] * d.y;
                let v = c.inv[2] * d.x + c.inv[3] * d.y;
                let kx = kern.eval((p.x - center.x) * inv_h);
                let ky = kern.eval((p.y - center.y) * inv_h);
                let w = (jac * wq) * (((kx * ky) * inv_h) * inv_h);
                for (slot, &(a, b)) in exps.iter().enumerate() {
                    want[slot] += (w * u.powi(a as i32)) * v.powi(b as i32);
                }
            }
        }
        // The powers differ (`powi` vs repeated products), so compare to
        // rounding; the zeroth mode uses no powers and must match bitwise.
        assert!(want[0] != 0.0);
        assert_eq!(sums[0], want[0]);
        for m in 1..6 {
            let tol = 1e-13 * want[m].abs().max(1.0);
            assert!((sums[m] - want[m]).abs() <= tol, "mode {m}");
        }
        s.clear();
        assert!(s.is_empty());
    }

    /// Sub-triangles wholly past the kernel support must vanish on every
    /// ISA — the scalar early return and the vector lane masks agree.
    #[test]
    fn out_of_support_subs_contribute_nothing() {
        let kern = Kernel1d::symmetric(1);
        let rule = TriangleRule::with_strength(2);
        let exps = [(0usize, 0usize)];
        let mut s = QuadStage::default();
        for &(tri, jac) in &sample_subs() {
            s.subs.push((tri, jac));
        }
        // Center far away: every staged node falls outside the support.
        let center = Point2::new(100.0, -40.0);
        let soa = RuleSoa::new(&rule);
        let widest = SimdPolicy::Auto.resolve();
        for isa in [SimdIsa::Scalar, SimdIsa::Avx2, SimdIsa::Avx512] {
            if isa.lanes() > widest.lanes() {
                continue;
            }
            let c = ctx(&kern, &rule, &soa, &exps, 1, isa, 1.0 / 0.11, center);
            assert_eq!(s.mono_sums(&c)[0], 0.0, "{isa:?}");
        }
    }

    /// The vector reductions must agree with scalar to rounding, including
    /// partially-filled tail blocks and out-of-support lanes.
    #[test]
    fn mono_sums_vector_isas_match_scalar_to_rounding() {
        let kern = Kernel1d::symmetric(2);
        // Strength 5 → an odd node count, exercising the padded tail.
        let rule = TriangleRule::with_strength(5);
        let exps = [
            (0usize, 0usize),
            (1, 0),
            (0, 1),
            (2, 0),
            (1, 1),
            (0, 2),
            (3, 0),
            (0, 3),
        ];
        let mut s = QuadStage::default();
        for &(tri, jac) in &sample_subs() {
            s.subs.push((tri, jac));
        }
        let center = Point2::new(0.5, 0.5);
        let inv_h = 1.0 / 0.07;
        let soa = RuleSoa::new(&rule);
        let c0 = ctx(&kern, &rule, &soa, &exps, 8, SimdIsa::Scalar, inv_h, center);
        let reference = s.mono_sums(&c0);
        assert!(reference[0] != 0.0);
        let widest = SimdPolicy::Auto.resolve();
        for isa in [SimdIsa::Avx2, SimdIsa::Avx512] {
            if isa.lanes() > widest.lanes() {
                continue;
            }
            let c = ctx(&kern, &rule, &soa, &exps, 8, isa, inv_h, center);
            let got = s.mono_sums(&c);
            for m in 0..8 {
                let tol = 1e-12 * reference[m].abs().max(1.0);
                assert!(
                    (got[m] - reference[m]).abs() <= tol,
                    "{isa:?} mode {m}: {} vs {}",
                    got[m],
                    reference[m]
                );
            }
        }
    }

    /// Low-order rules (≤ 4 nodes) take the paired AVX-512 path — two
    /// subs per block, odd tail zero-weighted — which must agree with
    /// scalar like every other arm. Three staged subs force the odd tail.
    #[test]
    fn paired_low_order_rule_matches_scalar() {
        let kern = Kernel1d::symmetric(1);
        let rule = TriangleRule::with_strength(2);
        assert!(rule.len() <= 4, "test premise: a low-order rule");
        let exps = [(0usize, 0usize), (1, 0), (0, 1)];
        let mut s = QuadStage::default();
        for &(tri, jac) in &sample_subs() {
            s.subs.push((tri, jac));
        }
        let center = Point2::new(0.5, 0.5);
        let inv_h = 1.0 / 0.13;
        let soa = RuleSoa::new(&rule);
        let c0 = ctx(&kern, &rule, &soa, &exps, 3, SimdIsa::Scalar, inv_h, center);
        let reference = s.mono_sums(&c0);
        assert!(reference[0] != 0.0);
        let widest = SimdPolicy::Auto.resolve();
        for isa in [SimdIsa::Avx2, SimdIsa::Avx512] {
            if isa.lanes() > widest.lanes() {
                continue;
            }
            let c = ctx(&kern, &rule, &soa, &exps, 3, isa, inv_h, center);
            let got = s.mono_sums(&c);
            for m in 0..3 {
                let tol = 1e-12 * reference[m].abs().max(1.0);
                assert!(
                    (got[m] - reference[m]).abs() <= tol,
                    "{isa:?} mode {m}: {} vs {}",
                    got[m],
                    reference[m]
                );
            }
        }
    }

    #[test]
    fn capacity_snapshot_is_stable_after_warmup() {
        let tri = Triangle::new(
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.0, 1.0),
        );
        let mut s = Scratch::new();
        for _ in 0..100 {
            s.stage.subs.push((tri, 1.0));
        }
        s.stage.clear();
        let snap = s.capacity();
        for _ in 0..100 {
            s.stage.subs.push((tri, 1.0));
        }
        s.stage.clear();
        assert_eq!(s.capacity(), snap);
    }
}
