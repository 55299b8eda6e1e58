//! What the host is: the environment record written into every result, the
//! peak resident set of this process, and the measured roofline
//! denominators (triad bandwidth, sustained FMA rate) of the traced run.

use std::hint::black_box;
use std::time::Instant;
use ustencil_core::simd::SIMD_ENV;
use ustencil_core::{SimdIsa, SimdPolicy};
use ustencil_trace::Json;

const MIB: usize = 1 << 20;
/// Reported size of this host's last-level cache (`lscpu`: 260 MiB). The
/// triad arrays are four times this, unless sysfs reports a larger cache.
const L3_MIB_FALLBACK: usize = 260;

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Worker threads the layers' fork-join pool resolves to: the
/// `RAYON_NUM_THREADS` override when it parses to a positive number, the
/// core count otherwise.
pub fn pool_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(cores)
}

/// Ranks of the `dist` workload: never more than cores, so wall clock is
/// meaningful.
pub fn dist_ranks() -> usize {
    cores().min(2)
}

/// Refuses to measure a silently different program.
pub fn guard_environment() -> Result<(), String> {
    match std::env::var_os(SIMD_ENV) {
        Some(_) => Err(format!(
            "{SIMD_ENV} is set; it overrides the SIMD dispatch of the measured program. Unset it."
        )),
        None => Ok(()),
    }
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The environment record of a result.
pub fn environment() -> Json {
    Json::object()
        .set("nproc", cores())
        .set("rayon_num_threads", pool_threads())
        .set("simd_isa", SimdPolicy::Auto.resolve().label())
        .set("rustc", env!("USTENCIL_BENCH_RUSTC"))
        .set("git_rev", git_rev())
}

fn proc_field_kib(path: &str, field: &str) -> Option<usize> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set (`VmHWM`) of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_field_kib("/proc/self/status", "VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn l3_mib() -> usize {
    std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .ok()
        .and_then(|s| s.trim().trim_end_matches('K').parse::<usize>().ok())
        .map_or(L3_MIB_FALLBACK, |kib| (kib / 1024).max(L3_MIB_FALLBACK))
}

/// The measured ceilings of this host.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// STREAM-triad bandwidth over all cores, counting three 8-byte streams
    /// per element (computed bytes; write-allocate traffic not counted).
    pub triad_gbytes_per_s: f64,
    /// Size of each of the three triad arrays.
    pub triad_array_mib: usize,
    /// Last-level cache size the arrays were sized against.
    pub l3_mib: usize,
    /// Sustained fused-multiply-add rate over all cores on `isa`.
    pub fma_gflops: f64,
    /// The ISA `SimdPolicy::Auto` resolves to, which the FMA loop ran on.
    pub isa: SimdIsa,
    /// Threads both measurements used.
    pub cores: usize,
}

impl Calibration {
    /// The calibration block of a traced result.
    pub fn to_json(&self) -> Json {
        Json::object()
            .set("triad_gbytes_per_s", self.triad_gbytes_per_s)
            .set("triad_array_mib", self.triad_array_mib)
            .set("l3_mib", self.l3_mib)
            .set("fma_gflops", self.fma_gflops)
            .set("fma_isa", self.isa.label())
            .set("cores", self.cores)
    }
}

/// Measures triad bandwidth and FMA rate, each as the median of three
/// passes on every core at once. `quick` shrinks both to a check that the
/// harness works (16 MiB arrays, which the result states): its numbers are
/// not ceilings of anything.
pub fn calibrate(quick: bool) -> Calibration {
    let cores = cores();
    let l3_mib = l3_mib();
    // Four times the last-level cache per array, shrunk to a quarter of the
    // available memory (over the three arrays) on a small host.
    let available_mib =
        proc_field_kib("/proc/meminfo", "MemAvailable:").map_or(usize::MAX, |k| k / 1024);
    let full_mib = (4 * l3_mib).min(available_mib / 4 / 3).max(1);
    let triad_array_mib = if quick { 16 } else { full_mib };
    let fma_iterations = if quick { 1_000_000 } else { 100_000_000 };
    let isa = SimdPolicy::Auto.resolve();
    Calibration {
        triad_gbytes_per_s: triad(triad_array_mib * MIB / 8, cores),
        triad_array_mib,
        l3_mib,
        fma_gflops: fma(isa, cores, fma_iterations),
        isa,
        cores,
    }
}

fn median3(mut xs: [f64; 3]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[1]
}

/// `a[i] = b[i] + s * c[i]` over three arrays of `n` doubles, each thread on
/// its own contiguous share. Returns GB/s.
fn triad(n: usize, threads: usize) -> f64 {
    let mut a = vec![0.0f64; n];
    let mut b = vec![0.0f64; n];
    let mut c = vec![0.0f64; n];
    let chunk = n.div_ceil(threads);
    let scalar = black_box(3.0);
    let mut pass = |init: bool| {
        let started = Instant::now();
        std::thread::scope(|scope| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks_mut(chunk))
                .zip(c.chunks_mut(chunk))
            {
                scope.spawn(move || {
                    if init {
                        // First touch by the thread that will stream the share.
                        b.fill(1.0);
                        c.fill(2.0);
                    }
                    for ((a, b), c) in a.iter_mut().zip(b.iter()).zip(c.iter()) {
                        *a = *b + scalar * *c;
                    }
                    black_box(a);
                });
            }
        });
        started.elapsed().as_secs_f64()
    };
    pass(true);
    let seconds = median3([pass(false), pass(false), pass(false)]);
    (3 * n * 8) as f64 / seconds * 1e-9
}

/// Independent accumulator chains per thread: enough to cover the latency of
/// two FMA ports.
const FMA_CHAINS: usize = 10;

fn fma(isa: SimdIsa, threads: usize, iterations: u64) -> f64 {
    let pass = || {
        let started = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(move || black_box(fma_chains(isa, iterations)));
            }
        });
        started.elapsed().as_secs_f64()
    };
    let seconds = median3([pass(), pass(), pass()]);
    let flops = 2 * iterations * (FMA_CHAINS * isa.lanes() * threads) as u64;
    flops as f64 / seconds * 1e-9
}

fn fma_chains(isa: SimdIsa, iterations: u64) -> f64 {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `SimdPolicy::resolve` yields `Avx512` only when the CPU
        // reports avx512f.
        SimdIsa::Avx512 => unsafe { fma_chains_avx512(iterations) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `SimdPolicy::resolve` yields `Avx2` only when the CPU
        // reports avx2 and fma.
        SimdIsa::Avx2 => unsafe { fma_chains_avx2(iterations) },
        _ => fma_chains_scalar(iterations),
    }
}

fn fma_chains_scalar(iterations: u64) -> f64 {
    let (m, c) = (black_box(0.999_999_9f64), black_box(1e-7f64));
    let mut acc = [1.0f64; FMA_CHAINS];
    for _ in 0..iterations {
        for a in &mut acc {
            *a = *a * m + c;
        }
    }
    acc.iter().sum()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_chains_avx2(iterations: u64) -> f64 {
    use std::arch::x86_64::{_mm256_fmadd_pd, _mm256_set1_pd, _mm256_storeu_pd};
    let m = _mm256_set1_pd(black_box(0.999_999_9));
    let c = _mm256_set1_pd(black_box(1e-7));
    let mut acc = [_mm256_set1_pd(1.0); FMA_CHAINS];
    for _ in 0..iterations {
        for a in &mut acc {
            *a = _mm256_fmadd_pd(*a, m, c);
        }
    }
    let mut lanes = [0.0f64; 4];
    let mut total = 0.0;
    for a in acc {
        // SAFETY: `lanes` holds exactly the four doubles the store writes.
        unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), a) };
        total += lanes.iter().sum::<f64>();
    }
    total
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn fma_chains_avx512(iterations: u64) -> f64 {
    use std::arch::x86_64::{_mm512_fmadd_pd, _mm512_reduce_add_pd, _mm512_set1_pd};
    let m = _mm512_set1_pd(black_box(0.999_999_9));
    let c = _mm512_set1_pd(black_box(1e-7));
    let mut acc = [_mm512_set1_pd(1.0); FMA_CHAINS];
    for _ in 0..iterations {
        for a in &mut acc {
            *a = _mm512_fmadd_pd(*a, m, c);
        }
    }
    acc.into_iter().map(|a| _mm512_reduce_add_pd(a)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fma_chains_converge_to_the_same_fixed_point_on_every_isa() {
        // a <- a m + c converges to c / (1 - m) = 1; every chain and lane
        // starts there, so the sum is lanes * chains.
        let scalar = fma_chains_scalar(1000);
        assert!((scalar - FMA_CHAINS as f64).abs() < 1e-6);
        let isa = SimdPolicy::Auto.resolve();
        let vector = fma_chains(isa, 1000);
        assert!((vector - (FMA_CHAINS * isa.lanes()) as f64).abs() < 1e-5);
    }

    #[test]
    fn triad_reports_a_positive_bandwidth() {
        assert!(triad(1 << 16, 2) > 0.0);
    }

    #[test]
    fn proc_fields_parse() {
        assert!(peak_rss_mib() > 0.0);
        assert!(proc_field_kib("/proc/meminfo", "MemAvailable:").is_some());
        assert!(l3_mib() >= L3_MIB_FALLBACK);
    }
}
