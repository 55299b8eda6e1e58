//! Runtime-dispatched SIMD backend for the two hot inner loops: the staged
//! cells-then-modes quadrature reduction
//! ([`QuadStage`](crate::kernel::QuadStage)`::mono_sums`) and the plan
//! SpMV row kernel in
//! `ustencil-plan`.
//!
//! The design splits *policy* from *dispatch*:
//!
//! - [`SimdPolicy`] is the user-facing knob: the `simd` field of the one
//!   [`ExecConfig`](crate::ExecConfig) every entry point takes, and what
//!   CLI flags carry.
//! - [`SimdIsa`] is the *resolved* instruction set a run actually executes
//!   with, chosen once per run by [`SimdPolicy::resolve`] from the policy
//!   and the host CPU's feature flags. Hot loops branch on the ISA exactly
//!   once per row/batch (the whole inner loop lives inside one
//!   `#[target_feature]` function), never per element.
//!
//! ## Determinism contract
//!
//! For a fixed `(policy, CPU)` pair every run is deterministic: `resolve`
//! is a pure function of the policy and the host feature flags, and every
//! vector kernel reduces its lanes in a fixed order. Across *different*
//! ISAs results agree to ≤1e-12 relative, not bitwise: the vector kernels
//! reassociate the reduction (lane-parallel partial sums) and contract
//! `a*b+acc` into fused multiply-adds (one rounding instead of two).
//! [`SimdIsa::Scalar`] is the exception — its loops are byte-for-byte the
//! pre-SIMD kernels, so a `SimdPolicy::Scalar` run is *bitwise* identical
//! to historical golden fixtures on any CPU.
//!
//! [`SimdPolicy::Forced`] never silently narrows: forcing a width the CPU
//! lacks falls back to `Scalar` (the only other bit-stable choice), not to
//! a narrower vector.

use std::sync::OnceLock;

/// Environment variable consulted by [`SimdPolicy::Auto`]: set
/// `USTENCIL_SIMD=scalar|f64x4|f64x8|auto` to steer every `Auto` resolution
/// in the process without plumbing options through call sites (this is how
/// the CI scalar leg forces the fallback across the whole test suite).
/// Explicit `Scalar`/`Forced` policies ignore it.
pub const SIMD_ENV: &str = "USTENCIL_SIMD";

/// Vector width of a forced SIMD policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdWidth {
    /// 4 × f64 lanes (AVX2 + FMA, 256-bit).
    F64x4,
    /// 8 × f64 lanes (AVX-512F, 512-bit).
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

/// The instruction set a run resolved to — what the hot loops dispatch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdIsa {
    /// Portable scalar loops, bit-identical to the pre-SIMD kernels.
    Scalar,
    /// AVX2 + FMA, 4 × f64 lanes.
    Avx2,
    /// AVX-512F, 8 × f64 lanes.
    Avx512,
}

impl SimdWidth {
    fn isa(self) -> SimdIsa {
        match self {
            SimdWidth::F64x4 => SimdIsa::Avx2,
            SimdWidth::F64x8 => SimdIsa::Avx512,
        }
    }

    fn supported(self) -> bool {
        match self {
            SimdWidth::F64x4 => avx2_available(),
            SimdWidth::F64x8 => avx512_available(),
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
    /// `Auto` picks the widest supported ISA (consulting [`SIMD_ENV`]
    /// first); `Forced` degrades to `Scalar` when unsupported; `Scalar` is
    /// always `Scalar`. Pure in (policy, CPU, environment), so two runs
    /// under the same policy on the same host always execute the same
    /// kernels.
    pub fn resolve(self) -> SimdIsa {
        match self {
            SimdPolicy::Scalar => SimdIsa::Scalar,
            SimdPolicy::Forced(w) => {
                if w.supported() {
                    w.isa()
                } else {
                    SimdIsa::Scalar
                }
            }
            SimdPolicy::Auto => match env_override() {
                Some(SimdPolicy::Scalar) => SimdIsa::Scalar,
                Some(SimdPolicy::Forced(w)) => {
                    if w.supported() {
                        w.isa()
                    } else {
                        SimdIsa::Scalar
                    }
                }
                _ => widest_available(),
            },
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

    /// Nominal peak f64 throughput of one core at this ISA, in GFLOP/s —
    /// the denominator of the report's `fraction_of_peak`. A device-model
    /// constant (2 FMA ports × 2 flops per FMA × lanes × a nominal 3 GHz),
    /// deliberately not probed from the host: the fraction is a stable
    /// cross-run efficiency yardstick, not a hardware benchmark.
    pub fn nominal_peak_gflops(self) -> f64 {
        2.0 * 2.0 * self.lanes() as f64 * 3.0
    }
}

/// The widest ISA this host supports.
fn widest_available() -> SimdIsa {
    if avx512_available() {
        SimdIsa::Avx512
    } else if avx2_available() {
        SimdIsa::Avx2
    } else {
        SimdIsa::Scalar
    }
}

/// The parsed [`SIMD_ENV`] override, read once per process. An unset or
/// unparsable value means no override.
fn env_override() -> Option<SimdPolicy> {
    static OVERRIDE: OnceLock<Option<SimdPolicy>> = OnceLock::new();
    *OVERRIDE.get_or_init(|| {
        std::env::var(SIMD_ENV)
            .ok()
            .and_then(|v| SimdPolicy::from_label(v.trim()))
    })
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(target_arch = "x86_64")]
fn avx512_available() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_available() -> bool {
    false
}

#[cfg(not(target_arch = "x86_64"))]
fn avx512_available() -> bool {
    false
}

/// The staged quadrature reduction: `Σ_q w[q] · a[q] · b[q]` over equal-
/// length slices, dispatched on `isa`.
///
/// The scalar arm is byte-for-byte the historical `mono_sums` inner loop
/// (one multiply-then-add chain in index order), so `SimdIsa::Scalar`
/// reproduces pre-SIMD results bitwise. The vector arms batch lane-parallel
/// across quadrature cells — the across-entity batching of
/// Kronbichler & Kormann — with two independent accumulator vectors to
/// hide FMA latency, a fixed-order horizontal reduction at the end, and a
/// scalar tail for the remainder; they agree with scalar to rounding
/// (≤1e-12 relative), not bitwise.
#[inline]
pub fn dot3(isa: SimdIsa, w: &[f64], a: &[f64], b: &[f64]) -> f64 {
    debug_assert!(w.len() == a.len() && w.len() == b.len());
    match isa {
        SimdIsa::Scalar => dot3_scalar(w, a, b),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `resolve` only yields these ISAs when the CPU reports the
        // matching feature flags.
        SimdIsa::Avx2 => unsafe { dot3_avx2(w, a, b) },
        #[cfg(target_arch = "x86_64")]
        SimdIsa::Avx512 => unsafe { dot3_avx512(w, a, b) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => dot3_scalar(w, a, b),
    }
}

#[inline]
fn dot3_scalar(w: &[f64], a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for q in 0..w.len() {
        acc += w[q] * a[q] * b[q];
    }
    acc
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dot3_avx2(w: &[f64], a: &[f64], b: &[f64]) -> f64 {
    use core::arch::x86_64::*;
    let n = w.len();
    let (wp, ap, bp) = (w.as_ptr(), a.as_ptr(), b.as_ptr());
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let mut q = 0;
    while q + 8 <= n {
        let t0 = _mm256_mul_pd(_mm256_loadu_pd(wp.add(q)), _mm256_loadu_pd(ap.add(q)));
        acc0 = _mm256_fmadd_pd(t0, _mm256_loadu_pd(bp.add(q)), acc0);
        let t1 = _mm256_mul_pd(
            _mm256_loadu_pd(wp.add(q + 4)),
            _mm256_loadu_pd(ap.add(q + 4)),
        );
        acc1 = _mm256_fmadd_pd(t1, _mm256_loadu_pd(bp.add(q + 4)), acc1);
        q += 8;
    }
    if q + 4 <= n {
        let t = _mm256_mul_pd(_mm256_loadu_pd(wp.add(q)), _mm256_loadu_pd(ap.add(q)));
        acc0 = _mm256_fmadd_pd(t, _mm256_loadu_pd(bp.add(q)), acc0);
        q += 4;
    }
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), _mm256_add_pd(acc0, acc1));
    let mut acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    while q < n {
        acc += w[q] * a[q] * b[q];
        q += 1;
    }
    acc
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn dot3_avx512(w: &[f64], a: &[f64], b: &[f64]) -> f64 {
    use core::arch::x86_64::*;
    let n = w.len();
    let (wp, ap, bp) = (w.as_ptr(), a.as_ptr(), b.as_ptr());
    let mut acc0 = _mm512_setzero_pd();
    let mut acc1 = _mm512_setzero_pd();
    let mut q = 0;
    while q + 16 <= n {
        let t0 = _mm512_mul_pd(_mm512_loadu_pd(wp.add(q)), _mm512_loadu_pd(ap.add(q)));
        acc0 = _mm512_fmadd_pd(t0, _mm512_loadu_pd(bp.add(q)), acc0);
        let t1 = _mm512_mul_pd(
            _mm512_loadu_pd(wp.add(q + 8)),
            _mm512_loadu_pd(ap.add(q + 8)),
        );
        acc1 = _mm512_fmadd_pd(t1, _mm512_loadu_pd(bp.add(q + 8)), acc1);
        q += 16;
    }
    if q + 8 <= n {
        let t = _mm512_mul_pd(_mm512_loadu_pd(wp.add(q)), _mm512_loadu_pd(ap.add(q)));
        acc0 = _mm512_fmadd_pd(t, _mm512_loadu_pd(bp.add(q)), acc0);
        q += 8;
    }
    // Remainder lanes via a masked load: fault-suppressing, so reading a
    // partial block at the slice end never touches memory past it.
    if q < n {
        let mask: __mmask8 = (1u8 << (n - q)) - 1;
        let t = _mm512_mul_pd(
            _mm512_maskz_loadu_pd(mask, wp.add(q)),
            _mm512_maskz_loadu_pd(mask, ap.add(q)),
        );
        acc1 = _mm512_fmadd_pd(t, _mm512_maskz_loadu_pd(mask, bp.add(q)), acc1);
    }
    let mut lanes = [0.0f64; 8];
    _mm512_storeu_pd(lanes.as_mut_ptr(), _mm512_add_pd(acc0, acc1));
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
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
            assert!(isa.nominal_peak_gflops() > 0.0);
            assert!(!isa.label().is_empty());
        }
        assert_eq!(SimdIsa::Scalar.lanes(), 1);
        assert!(SimdIsa::Avx512.nominal_peak_gflops() > SimdIsa::Avx2.nominal_peak_gflops());
    }

    #[test]
    fn dot3_vector_arms_match_scalar_to_rounding() {
        // Deterministic pseudo-random data over lengths that hit every
        // unroll/tail combination of the vector kernels.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 100] {
            let w: Vec<f64> = (0..n).map(|_| next()).collect();
            let a: Vec<f64> = (0..n).map(|_| next()).collect();
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let reference = dot3(SimdIsa::Scalar, &w, &a, &b);
            for isa in [SimdIsa::Avx2, SimdIsa::Avx512] {
                if isa.lanes() > SimdPolicy::Auto.resolve().lanes() {
                    continue; // host lacks the ISA; nothing to test
                }
                let got = dot3(isa, &w, &a, &b);
                let tol = 1e-12 * reference.abs().max(1.0);
                assert!(
                    (got - reference).abs() <= tol,
                    "{isa:?} n={n}: {got} vs {reference}"
                );
            }
        }
    }

    #[test]
    fn scalar_dot3_is_the_reference_loop() {
        // Pin the scalar arm's arithmetic order bitwise: mul-then-add in
        // index order, no FMA contraction, no reassociation.
        let w = [0.1, 0.2, 0.3, 0.4, 0.5];
        let a = [1.5, -2.5, 3.5, -4.5, 5.5];
        let b = [-0.7, 0.9, -1.1, 1.3, -1.7];
        let mut expect = 0.0f64;
        for q in 0..w.len() {
            expect += w[q] * a[q] * b[q];
        }
        assert_eq!(
            dot3(SimdIsa::Scalar, &w, &a, &b).to_bits(),
            expect.to_bits()
        );
    }
}
