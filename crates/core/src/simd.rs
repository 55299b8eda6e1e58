//! The SIMD layer: which instruction set a run uses, and the one lane type
//! every vector kernel is written against. This is the only file of the
//! workspace that names an intrinsic.
//!
//! - [`SimdPolicy`] is the user-facing knob: the `simd` field of the one
//!   [`ExecConfig`](crate::ExecConfig) every entry point takes, and what
//!   CLI flags carry.
//! - [`SimdIsa`] is the *resolved* instruction set a run executes with,
//!   chosen once per run by [`SimdPolicy::resolve`] from the policy, the
//!   host CPU's feature flags and [`SIMD_ENV`].
//! - [`Lanes`] is one vector register of `f64`s, implemented for the
//!   256-bit (AVX2 + FMA) and 512-bit (AVX-512F + DQ) registers. A hot loop —
//!   the staged quadrature reduction
//!   ([`QuadStage`](crate::kernel::QuadStage)`::mono_sums`), the SIAC kernel
//!   evaluation inside it, the plan row kernel in `ustencil-plan` — is a
//!   [`VectorKernel`]: one portable body and one body generic over `Lanes`.
//! - [`dispatch`] runs a kernel on an ISA. It owns the `match`, the two
//!   `#[target_feature]` entry points the generic body is instantiated in
//!   (so the intrinsics inline into it), and the only safety argument: the
//!   CPU reports the feature. It is called once per row / per staged batch,
//!   never per element.
//!
//! ## Determinism contract
//!
//! For a fixed `(policy, CPU)` pair every run is deterministic: `resolve`
//! is a pure function of the policy, the host feature flags and the
//! environment, and every vector kernel reduces its lanes in the fixed
//! order of [`Lanes::hsum`]. Across *different* ISAs results agree to
//! ≤1e-12 relative, not bitwise: the vector bodies reassociate the
//! reduction (lane-parallel partial sums) and contract `a*b+acc` into fused
//! multiply-adds (one rounding instead of two). [`SimdIsa::Scalar`] is the
//! exception — its loops are byte-for-byte the pre-SIMD kernels, so a
//! `SimdPolicy::Scalar` run is *bitwise* identical to historical golden
//! fixtures on any CPU; each vector width's bits are pinned too
//! (`tests/golden/simd_vectors.txt`).
//!
//! [`SimdPolicy::Forced`] never silently narrows: forcing a width the CPU
//! lacks falls back to `Scalar` (the only other bit-stable choice), not to
//! a narrower vector.

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;
use std::sync::OnceLock;

/// Environment variable consulted by [`SimdPolicy::Auto`]: set
/// `USTENCIL_SIMD=scalar|f64x4|f64x8|auto` to steer every `Auto` resolution
/// in the process without plumbing options through call sites (this is how
/// the CI scalar and 4-lane legs force an arm across the whole test suite).
/// Explicit `Scalar`/`Forced` policies ignore it; any other value panics at
/// the first `Auto` resolution.
pub const SIMD_ENV: &str = "USTENCIL_SIMD";

/// Vector width of a forced SIMD policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdWidth {
    /// 4 × f64 lanes (AVX2 + FMA, 256-bit).
    F64x4,
    /// 8 × f64 lanes (AVX-512F and DQ, 512-bit).
    F64x8,
}

/// How the evaluation kernels pick their vector width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimdPolicy {
    /// Use the widest ISA the host supports (the default). Honors the
    /// [`SIMD_ENV`] process-wide override.
    #[default]
    Auto,
    /// Run the scalar kernels — byte-for-byte the pre-SIMD loops, the
    /// bit-compatibility anchor for golden fixtures.
    Scalar,
    /// Require a specific vector width; falls back to [`Scalar`]
    /// (never a narrower vector) when the host lacks it.
    ///
    /// [`Scalar`]: SimdPolicy::Scalar
    Forced(SimdWidth),
}

/// The instruction set a run resolved to — what [`dispatch`] branches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdIsa {
    /// Portable scalar loops, bit-identical to the pre-SIMD kernels.
    Scalar,
    /// AVX2 + FMA, 4 × f64 lanes.
    Avx2,
    /// AVX-512F and DQ, 8 × f64 lanes.
    Avx512,
}

impl SimdWidth {
    fn isa(self) -> SimdIsa {
        match self {
            SimdWidth::F64x4 => SimdIsa::Avx2,
            SimdWidth::F64x8 => SimdIsa::Avx512,
        }
    }
}

impl SimdPolicy {
    /// Every policy, in label order — the CLI's menu and the round-trip
    /// test surface.
    pub const ALL: [SimdPolicy; 4] = [
        SimdPolicy::Auto,
        SimdPolicy::Scalar,
        SimdPolicy::Forced(SimdWidth::F64x4),
        SimdPolicy::Forced(SimdWidth::F64x8),
    ];

    /// Stable label, used by CLI flags, report JSON, and [`SIMD_ENV`].
    pub fn label(self) -> &'static str {
        match self {
            SimdPolicy::Auto => "auto",
            SimdPolicy::Scalar => "scalar",
            SimdPolicy::Forced(SimdWidth::F64x4) => "f64x4",
            SimdPolicy::Forced(SimdWidth::F64x8) => "f64x8",
        }
    }

    /// Exact inverse of [`label`](Self::label) (by construction: searches
    /// [`ALL`](Self::ALL)).
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.label() == label)
    }

    /// Resolves the policy against the host CPU, once per run.
    ///
    /// `Auto` first becomes what [`SIMD_ENV`] names, if set; then `Auto`
    /// picks the widest supported ISA, `Forced` degrades to `Scalar` when
    /// unsupported, and `Scalar` is always `Scalar`. Pure in (policy, CPU,
    /// environment), so two runs under the same policy on the same host
    /// always execute the same kernels.
    ///
    /// # Panics
    /// Panics under `Auto` when [`SIMD_ENV`] is set to anything but one of
    /// the four labels.
    pub fn resolve(self) -> SimdIsa {
        let effective = match self {
            SimdPolicy::Auto => env_override().unwrap_or(SimdPolicy::Auto),
            explicit => explicit,
        };
        match effective {
            SimdPolicy::Forced(w) if w.isa().supported() => w.isa(),
            SimdPolicy::Forced(_) | SimdPolicy::Scalar => SimdIsa::Scalar,
            SimdPolicy::Auto => [SimdIsa::Avx512, SimdIsa::Avx2]
                .into_iter()
                .find(|isa| isa.supported())
                .unwrap_or(SimdIsa::Scalar),
        }
    }
}

impl SimdIsa {
    /// Stable label for report JSON (`"scalar"`, `"avx2"`, `"avx512"`).
    pub fn label(self) -> &'static str {
        match self {
            SimdIsa::Scalar => "scalar",
            SimdIsa::Avx2 => "avx2",
            SimdIsa::Avx512 => "avx512",
        }
    }

    /// f64 lanes per vector register (1 for scalar).
    pub fn lanes(self) -> usize {
        match self {
            SimdIsa::Scalar => 1,
            SimdIsa::Avx2 => 4,
            SimdIsa::Avx512 => 8,
        }
    }

    /// Whether this CPU reports every feature the ISA's kernels use.
    fn supported(self) -> bool {
        match self {
            SimdIsa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdIsa::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            SimdIsa::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512dq")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// The parsed [`SIMD_ENV`] override, read once per process.
fn env_override() -> Option<SimdPolicy> {
    static OVERRIDE: OnceLock<Option<SimdPolicy>> = OnceLock::new();
    *OVERRIDE.get_or_init(|| {
        let value = std::env::var_os(SIMD_ENV).map(|v| v.to_string_lossy().into_owned());
        parse_override(value.as_deref()).unwrap_or_else(|message| panic!("{message}"))
    })
}

/// What a [`SIMD_ENV`] value asks for: nothing when unset, a policy when it
/// is one of the four labels (surrounding blanks ignored), otherwise an
/// error — a typo must not silently test or measure the `Auto` arm.
fn parse_override(value: Option<&str>) -> Result<Option<SimdPolicy>, String> {
    let Some(value) = value else { return Ok(None) };
    SimdPolicy::from_label(value.trim())
        .map(Some)
        .ok_or_else(|| {
            let labels = SimdPolicy::ALL.map(SimdPolicy::label).join("|");
            format!("{SIMD_ENV}={value:?} is not one of {labels}")
        })
}

/// A hot loop with its two bodies: the portable reference and the one
/// written against a lane type. [`dispatch`] picks between them.
pub trait VectorKernel {
    /// What either body returns.
    type Output;

    /// The portable body — the bit-stable reference the vector body is
    /// held to within 1e-12.
    fn scalar(self) -> Self::Output;

    /// The vector body, written once over `V`. Mark the implementation
    /// `#[inline(always)]`, and every generic helper it calls, so the whole
    /// loop lands inside [`dispatch`]'s `#[target_feature]` entry point.
    ///
    /// # Safety
    /// The CPU must support `V`'s instruction set. Only [`dispatch`] calls
    /// this, after checking exactly that.
    unsafe fn lanes<V: Lanes>(self) -> Self::Output;
}

/// Runs `kernel` on `isa`: its [`lanes`](VectorKernel::lanes) body over the
/// ISA's register when this CPU has it, its portable body otherwise (which
/// is also what [`SimdPolicy::resolve`] would have picked).
#[inline]
pub fn dispatch<K: VectorKernel>(isa: SimdIsa, kernel: K) -> K::Output {
    match isa {
        // SAFETY (both arms): the guard has just seen the CPU report every
        // feature the entry point enables.
        #[cfg(target_arch = "x86_64")]
        SimdIsa::Avx2 if isa.supported() => unsafe { lanes_avx2(kernel) },
        #[cfg(target_arch = "x86_64")]
        SimdIsa::Avx512 if isa.supported() => unsafe { lanes_avx512(kernel) },
        _ => kernel.scalar(),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn lanes_avx2<K: VectorKernel>(kernel: K) -> K::Output {
    kernel.lanes::<__m256d>()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn lanes_avx512<K: VectorKernel>(kernel: K) -> K::Output {
    kernel.lanes::<__m512d>()
}

/// One vector register of `f64` lanes: everything a vector kernel may do
/// with one, so a kernel body names no instruction set.
///
/// # Safety
/// Every method requires the CPU to support the implementing register's
/// instruction set; inside a [`VectorKernel::lanes`]`::<V>` body that holds
/// for `V`. A method that takes a pointer also requires it to be valid for
/// the lanes the method says it accesses (no alignment is required).
#[allow(clippy::missing_safety_doc)]
pub trait Lanes: Copy {
    /// `f64` lanes per register.
    const N: usize;
    /// Which leading lanes a tail load reads ([`Lanes::mask_first`]).
    type Mask: Copy;
    /// A per-lane predicate ([`Lanes::in_range`]).
    type Valid: Copy;
    /// Per-lane table positions ([`Lanes::index`]).
    type Index: Copy;
    /// A coefficient table prepared for [`Lanes::lookup`].
    type Table: Copy;

    /// `0.0` in every lane.
    unsafe fn zero() -> Self;
    /// `x` in every lane.
    unsafe fn splat(x: f64) -> Self;
    /// `a` in the low half of the lanes, `b` in the high half.
    unsafe fn pair(a: f64, b: f64) -> Self;
    /// Reads `N` lanes at `p`.
    unsafe fn load(p: *const f64) -> Self;
    /// Reads `N / 2` lanes at `p` into the low half and again into the high.
    unsafe fn load_half_dup(p: *const f64) -> Self;
    /// Writes `N` lanes at `p`.
    unsafe fn store(self, p: *mut f64);
    /// The mask of the first `n <= N` lanes.
    unsafe fn mask_first(n: usize) -> Self::Mask;
    /// Reads the lanes of `mask` at `p` and zeroes the rest; memory behind
    /// an unselected lane is not accessed, so it need not be valid.
    unsafe fn load_masked(p: *const f64, mask: Self::Mask) -> Self;
    /// Reads the `mask.count_ones()` values at `p` into the lanes `mask`
    /// selects (bit `l` for lane `l < N`), in lane order, and zeroes the
    /// rest; memory past those values is not accessed, so it need not be
    /// valid.
    unsafe fn load_expand(p: *const f64, mask: u8) -> Self;
    /// `self * b`.
    unsafe fn mul(self, b: Self) -> Self;
    /// `self - b`.
    unsafe fn sub(self, b: Self) -> Self;
    /// Per-lane minimum (`b` where either is NaN).
    unsafe fn min(self, b: Self) -> Self;
    /// Per-lane maximum (`b` where either is NaN).
    unsafe fn max(self, b: Self) -> Self;
    /// Rounds every lane toward zero.
    unsafe fn trunc(self) -> Self;
    /// `self * b + c` with a single rounding.
    unsafe fn fmadd(self, b: Self, c: Self) -> Self;
    /// The lanes with `lo <= self < hi` (a NaN lane fails).
    unsafe fn in_range(self, lo: Self, hi: Self) -> Self::Valid;
    /// Zeroes the lanes `valid` rejected.
    unsafe fn keep(self, valid: Self::Valid) -> Self;
    /// Truncates every lane to an `i32` table position.
    unsafe fn index(self) -> Self::Index;
    /// Prepares the `len >= 1` coefficients at `p` for lookups: a table of
    /// at most `N` entries may be held in a register, a longer one is
    /// gathered from memory, so `p` must stay valid while the table is used.
    unsafe fn table(p: *const f64, len: usize) -> Self::Table;
    /// Per lane, the table entry at `idx + offset`, which must be below the
    /// table's `len` in every lane.
    unsafe fn lookup(table: Self::Table, idx: Self::Index, offset: usize) -> Self;
    /// The sum of the lanes in a fixed order: adjacent pairs, then pairs of
    /// pairs, `((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))`.
    unsafe fn hsum(self) -> f64;
}

/// Asks the CPU to bring the cache line holding `p` into every cache level
/// (`prefetcht0`; nothing off x86_64). A hint, it reads nothing the program
/// sees and faults on no `p` (null, past an allocation, non-canonical), so
/// a caller may form `p` by `wrapping_add` past the data it runs ahead of.
#[inline(always)]
pub fn prefetch(p: *const f64) {
    // SAFETY: `prefetcht0` belongs to SSE, which every x86_64 CPU has, and
    // accesses no memory architecturally, so no address can fault.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        _mm_prefetch::<_MM_HINT_T0>(p.cast())
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

#[cfg(target_arch = "x86_64")]
const TRUNCATE: i32 = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;

/// Per 4-lane expand mask: the masked load of its first `count_ones`
/// values, and the `_mm256_permutevar8x32_ps` positions moving value `r`
/// to the `r`-th selected lane. An unselected lane takes lane 3, which the
/// load zeroed unless all four lanes are selected.
#[cfg(target_arch = "x86_64")]
static EXPAND4: [([i64; 4], [i32; 8]); 16] = {
    let mut table = [([0; 4], [6, 7, 6, 7, 6, 7, 6, 7]); 16];
    let mut mask = 0;
    while mask < 16 {
        let (mut lane, mut r) = (0, 0);
        while lane < 4 {
            if mask >> lane & 1 != 0 {
                table[mask].0[r] = -1;
                (table[mask].1[2 * lane], table[mask].1[2 * lane + 1]) =
                    (2 * r as i32, 2 * r as i32 + 1);
                r += 1;
            }
            lane += 1;
        }
        mask += 1;
    }
    table
};

#[cfg(target_arch = "x86_64")]
impl Lanes for __m256d {
    const N: usize = 4;
    type Mask = __m256i;
    type Valid = __m256d;
    type Index = __m128i;
    type Table = *const f64;

    #[inline(always)]
    unsafe fn zero() -> Self {
        _mm256_setzero_pd()
    }
    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        _mm256_set1_pd(x)
    }
    #[inline(always)]
    unsafe fn pair(a: f64, b: f64) -> Self {
        _mm256_setr_pd(a, a, b, b)
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        _mm256_loadu_pd(p)
    }
    #[inline(always)]
    unsafe fn load_half_dup(p: *const f64) -> Self {
        let half = _mm_loadu_pd(p);
        _mm256_set_m128d(half, half)
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        _mm256_storeu_pd(p, self)
    }
    #[inline(always)]
    unsafe fn mask_first(n: usize) -> Self::Mask {
        // A lane's high bit enables its load: all-ones where lane < n.
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(n as i64), _mm256_setr_epi64x(0, 1, 2, 3))
    }
    #[inline(always)]
    unsafe fn load_masked(p: *const f64, mask: Self::Mask) -> Self {
        _mm256_maskload_pd(p, mask)
    }
    #[inline(always)]
    unsafe fn load_expand(p: *const f64, mask: u8) -> Self {
        let (load, at) = &EXPAND4[mask as usize & 15];
        let packed = _mm256_maskload_pd(p, _mm256_loadu_si256(load.as_ptr().cast()));
        let at = _mm256_loadu_si256(at.as_ptr().cast());
        _mm256_castps_pd(_mm256_permutevar8x32_ps(_mm256_castpd_ps(packed), at))
    }
    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        _mm256_mul_pd(self, b)
    }
    #[inline(always)]
    unsafe fn sub(self, b: Self) -> Self {
        _mm256_sub_pd(self, b)
    }
    #[inline(always)]
    unsafe fn min(self, b: Self) -> Self {
        _mm256_min_pd(self, b)
    }
    #[inline(always)]
    unsafe fn max(self, b: Self) -> Self {
        _mm256_max_pd(self, b)
    }
    #[inline(always)]
    unsafe fn trunc(self) -> Self {
        _mm256_round_pd::<TRUNCATE>(self)
    }
    #[inline(always)]
    unsafe fn fmadd(self, b: Self, c: Self) -> Self {
        _mm256_fmadd_pd(self, b, c)
    }
    #[inline(always)]
    unsafe fn in_range(self, lo: Self, hi: Self) -> Self::Valid {
        _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_GE_OQ>(self, lo),
            _mm256_cmp_pd::<_CMP_LT_OQ>(self, hi),
        )
    }
    #[inline(always)]
    unsafe fn keep(self, valid: Self::Valid) -> Self {
        _mm256_and_pd(self, valid)
    }
    #[inline(always)]
    unsafe fn index(self) -> Self::Index {
        _mm256_cvttpd_epi32(self)
    }
    #[inline(always)]
    unsafe fn table(p: *const f64, _len: usize) -> Self::Table {
        p
    }
    #[inline(always)]
    unsafe fn lookup(table: Self::Table, idx: Self::Index, offset: usize) -> Self {
        _mm256_i32gather_pd::<8>(table.add(offset), idx)
    }
    #[inline(always)]
    unsafe fn hsum(self) -> f64 {
        let mut l = [0.0f64; 4];
        _mm256_storeu_pd(l.as_mut_ptr(), self);
        (l[0] + l[1]) + (l[2] + l[3])
    }
}

/// The 512-bit table is `(the whole table in a register, if it fits; its
/// address)`: a register-resident table turns each lookup into a permute
/// instead of a memory gather, whose ~20-cycle latency dominates the
/// small-batch shapes the smoothness-1 kernel (4 cells × 2 coefficients)
/// runs at.
#[cfg(target_arch = "x86_64")]
impl Lanes for __m512d {
    const N: usize = 8;
    type Mask = __mmask8;
    type Valid = __mmask8;
    type Index = __m256i;
    type Table = (Option<__m512d>, *const f64);

    #[inline(always)]
    unsafe fn zero() -> Self {
        _mm512_setzero_pd()
    }
    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        _mm512_set1_pd(x)
    }
    #[inline(always)]
    unsafe fn pair(a: f64, b: f64) -> Self {
        _mm512_insertf64x4::<1>(_mm512_castpd256_pd512(_mm256_set1_pd(a)), _mm256_set1_pd(b))
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        _mm512_loadu_pd(p)
    }
    #[inline(always)]
    unsafe fn load_half_dup(p: *const f64) -> Self {
        _mm512_broadcast_f64x4(_mm256_loadu_pd(p))
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        _mm512_storeu_pd(p, self)
    }
    #[inline(always)]
    unsafe fn mask_first(n: usize) -> Self::Mask {
        ((1u16 << n) - 1) as u8
    }
    #[inline(always)]
    unsafe fn load_masked(p: *const f64, mask: Self::Mask) -> Self {
        _mm512_maskz_loadu_pd(mask, p)
    }
    #[inline(always)]
    unsafe fn load_expand(p: *const f64, mask: u8) -> Self {
        _mm512_maskz_expandloadu_pd(mask, p)
    }
    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        _mm512_mul_pd(self, b)
    }
    #[inline(always)]
    unsafe fn sub(self, b: Self) -> Self {
        _mm512_sub_pd(self, b)
    }
    #[inline(always)]
    unsafe fn min(self, b: Self) -> Self {
        _mm512_min_pd(self, b)
    }
    #[inline(always)]
    unsafe fn max(self, b: Self) -> Self {
        _mm512_max_pd(self, b)
    }
    #[inline(always)]
    unsafe fn trunc(self) -> Self {
        _mm512_roundscale_pd::<TRUNCATE>(self)
    }
    #[inline(always)]
    unsafe fn fmadd(self, b: Self, c: Self) -> Self {
        _mm512_fmadd_pd(self, b, c)
    }
    #[inline(always)]
    unsafe fn in_range(self, lo: Self, hi: Self) -> Self::Valid {
        _mm512_cmp_pd_mask::<_CMP_GE_OQ>(self, lo) & _mm512_cmp_pd_mask::<_CMP_LT_OQ>(self, hi)
    }
    #[inline(always)]
    unsafe fn keep(self, valid: Self::Valid) -> Self {
        _mm512_maskz_mov_pd(valid, self)
    }
    #[inline(always)]
    unsafe fn index(self) -> Self::Index {
        _mm512_cvttpd_epi32(self)
    }
    #[inline(always)]
    unsafe fn table(p: *const f64, len: usize) -> Self::Table {
        if len <= Self::N {
            (Some(Self::load_masked(p, Self::mask_first(len))), p)
        } else {
            (None, p)
        }
    }
    #[inline(always)]
    unsafe fn lookup((resident, p): Self::Table, idx: Self::Index, offset: usize) -> Self {
        match resident {
            Some(table) => {
                let at =
                    _mm512_add_epi64(_mm512_cvtepi32_epi64(idx), _mm512_set1_epi64(offset as i64));
                _mm512_permutexvar_pd(at, table)
            }
            None => _mm512_i32gather_pd::<8>(idx, p.add(offset)),
        }
    }
    #[inline(always)]
    unsafe fn hsum(self) -> f64 {
        let mut l = [0.0f64; 8];
        _mm512_storeu_pd(l.as_mut_ptr(), self);
        ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_over_all_policies() {
        for p in SimdPolicy::ALL {
            assert_eq!(SimdPolicy::from_label(p.label()), Some(p));
        }
        assert_eq!(SimdPolicy::from_label("avx99"), None);
        assert_eq!(SimdPolicy::default(), SimdPolicy::Auto);
    }

    #[test]
    fn scalar_policy_always_resolves_scalar() {
        assert_eq!(SimdPolicy::Scalar.resolve(), SimdIsa::Scalar);
    }

    #[test]
    fn forced_policies_never_narrow_to_another_vector() {
        for w in [SimdWidth::F64x4, SimdWidth::F64x8] {
            let isa = SimdPolicy::Forced(w).resolve();
            assert!(
                isa == w.isa() || isa == SimdIsa::Scalar,
                "forced {w:?} resolved to {isa:?}"
            );
        }
    }

    #[test]
    fn auto_resolution_is_stable() {
        let a = SimdPolicy::Auto.resolve();
        let b = SimdPolicy::Auto.resolve();
        assert_eq!(a, b, "resolution must be deterministic per process");
    }

    #[test]
    fn isa_shape_is_consistent() {
        for isa in [SimdIsa::Scalar, SimdIsa::Avx2, SimdIsa::Avx512] {
            assert!(isa.lanes().is_power_of_two());
            assert!(!isa.label().is_empty());
        }
        assert_eq!(SimdIsa::Scalar.lanes(), 1);
        assert!(SimdIsa::Avx512.lanes() > SimdIsa::Avx2.lanes());
    }

    #[test]
    fn env_override_accepts_the_four_labels_and_nothing_else() {
        assert_eq!(parse_override(None), Ok(None));
        for p in SimdPolicy::ALL {
            assert_eq!(parse_override(Some(p.label())), Ok(Some(p)));
        }
        let forced = SimdPolicy::Forced(SimdWidth::F64x4);
        assert_eq!(parse_override(Some(" f64x4\n")), Ok(Some(forced)));
        for typo in ["x4", "", "AVX2"] {
            let message = parse_override(Some(typo)).unwrap_err();
            assert_eq!(
                message,
                format!("USTENCIL_SIMD={typo:?} is not one of auto|scalar|f64x4|f64x8")
            );
        }
    }

    /// Every `Lanes` operation against its per-lane scalar definition, run
    /// through `dispatch` on each width the host has.
    struct LaneOps;

    impl VectorKernel for LaneOps {
        type Output = usize;

        fn scalar(self) -> usize {
            1
        }

        #[inline(always)]
        unsafe fn lanes<V: Lanes>(self) -> usize {
            let n = V::N;
            let lanes = |v: V| {
                let mut out = [0.0f64; 8];
                v.store(out.as_mut_ptr());
                out[..n].to_vec()
            };
            let mem: Vec<f64> = (0..16).map(|i| i as f64 * 0.75 - 2.5).collect();
            let a = V::load(mem.as_ptr());
            let b = V::load(mem.as_ptr().add(3));
            let (ea, eb) = (&mem[..n], &mem[3..3 + n]);
            let each = |f: &dyn Fn(f64, f64) -> f64| -> Vec<f64> {
                ea.iter().zip(eb).map(|(&x, &y)| f(x, y)).collect()
            };
            assert_eq!(lanes(V::zero()), vec![0.0; n]);
            assert_eq!(lanes(V::splat(1.5)), vec![1.5; n]);
            let halves = [vec![7.0; n / 2], vec![-3.0; n / 2]].concat();
            assert_eq!(lanes(V::pair(7.0, -3.0)), halves);
            assert_eq!(lanes(a), ea);
            let dup = [&mem[1..1 + n / 2], &mem[1..1 + n / 2]].concat();
            assert_eq!(lanes(V::load_half_dup(mem.as_ptr().add(1))), dup);
            for k in 0..=n {
                // The masked load may not touch what lies past `k` lanes.
                let short = &mem[..k];
                let got = lanes(V::load_masked(short.as_ptr(), V::mask_first(k)));
                let want: Vec<f64> = (0..n).map(|i| if i < k { mem[i] } else { 0.0 }).collect();
                assert_eq!(got, want, "mask_first({k})");
            }
            for mask in 0..=u8::MAX >> (8 - n) {
                // The expand reads its values at the end of the slice.
                let k = mask.count_ones() as usize;
                let short = &mem[16 - k..];
                let got = lanes(V::load_expand(short.as_ptr(), mask));
                let mut next = short.iter();
                let want: Vec<f64> = (0..n)
                    .map(|l| {
                        if mask >> l & 1 != 0 {
                            *next.next().unwrap()
                        } else {
                            0.0
                        }
                    })
                    .collect();
                assert_eq!(got, want, "load_expand({mask:#b})");
            }
            assert_eq!(lanes(a.mul(b)), each(&|x, y| x * y));
            assert_eq!(lanes(a.sub(b)), each(&|x, y| x - y));
            assert_eq!(lanes(a.min(V::zero())), each(&|x, _| x.min(0.0)));
            assert_eq!(lanes(a.max(V::zero())), each(&|x, _| x.max(0.0)));
            assert_eq!(lanes(a.trunc()), each(&|x, _| x.trunc()));
            let c = V::splat(0.1);
            assert_eq!(lanes(a.fmadd(b, c)), each(&|x, y| x.mul_add(y, 0.1)));
            let valid = a.in_range(V::splat(-1.0), V::splat(2.0));
            let kept = each(&|x, y| if (-1.0..2.0).contains(&x) { y } else { 0.0 });
            assert_eq!(lanes(b.keep(valid)), kept);
            let nan = V::splat(f64::NAN).in_range(V::splat(-1.0), V::splat(2.0));
            assert_eq!(lanes(b.keep(nan)), vec![0.0; n]);
            // A table that fits a register and one that does not.
            for len in [6usize, 13] {
                let table = V::table(mem.as_ptr(), len);
                let at: Vec<f64> = (0..n).map(|i| ((i * 5) % (len - 2)) as f64 + 0.9).collect();
                let idx = V::load(at.as_ptr()).index();
                for offset in 0..3 {
                    let want: Vec<f64> = at.iter().map(|&x| mem[x as usize + offset]).collect();
                    assert_eq!(lanes(V::lookup(table, idx, offset)), want, "len {len}");
                }
            }
            let pairs: Vec<f64> = ea.chunks(2).map(|p| p[0] + p[1]).collect();
            let quads: Vec<f64> = pairs.chunks(2).map(|p| p[0] + p[1]).collect();
            assert_eq!(a.hsum().to_bits(), quads.iter().sum::<f64>().to_bits());
            n
        }
    }

    /// A prefetch never faults: not on null, not past an allocation, not on
    /// an address no page can map.
    #[test]
    fn prefetch_returns_on_any_address() {
        let data = vec![1.0f64; 3];
        prefetch(std::ptr::null());
        prefetch(data.as_ptr().wrapping_add(data.len()));
        prefetch(0x8000_0000_0000_0000usize as *const f64);
        assert_eq!(data, [1.0; 3]);
    }

    #[test]
    fn lane_operations_match_their_scalar_definitions() {
        for isa in [SimdIsa::Scalar, SimdIsa::Avx2, SimdIsa::Avx512] {
            // An ISA the host lacks must dispatch to the portable body.
            let want = if isa.supported() { isa.lanes() } else { 1 };
            assert_eq!(dispatch(isa, LaneOps), want, "{isa:?}");
        }
    }
}
