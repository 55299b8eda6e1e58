//! The run parameters, declared once: [`ExecConfig`] is what every entry
//! point (direct, plan compile/apply/patch, dist, serve) is configured
//! with, and [`ExecConfig::resolve`] is the one place a config becomes a
//! concrete kernel. Each field has a single consumer: `h_factor` and
//! `simd` are read by `resolve`, `n_blocks` and `parallel` by the block
//! driver ([`crate::blocks`]), `instrument` by the `Tracer` constructors.

use crate::integrate::{IntegrationCtx, MAX_DEGREE};
use crate::simd::{SimdIsa, SimdPolicy};
use ustencil_mesh::TriMesh;
use ustencil_quadrature::TriangleRule;
use ustencil_siac::Stencil2d;

/// How a run executes: the paper's kernel scale (`h = h_factor · s`; the
/// smoothness `k` is the field degree `p`) and its `N_GPU × N_SM`
/// concurrent blocks, plus this implementation's observability and SIMD
/// switches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecConfig {
    /// Kernel width factor, `h = h_factor * max_edge` (default 1.0).
    pub h_factor: f64,
    /// Concurrent blocks: point/row blocks for gather sweeps, mesh patches
    /// for per-element (default 16, one per M2090 SM).
    pub n_blocks: usize,
    /// Whether blocks run on worker threads (default true).
    pub parallel: bool,
    /// Whether to record phase spans (default false). Counters and
    /// per-block stats are kept either way.
    pub instrument: bool,
    /// SIMD dispatch policy of the evaluation kernels (default
    /// [`SimdPolicy::Auto`]). [`SimdPolicy::Scalar`] runs the bit-exact
    /// pre-SIMD loops; vector ISAs agree with it to ≤1e-12, so the
    /// resolved ISA is part of a compiled plan's content identity.
    pub simd: SimdPolicy,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self {
            h_factor: 1.0,
            n_blocks: 16,
            parallel: true,
            instrument: false,
            simd: SimdPolicy::Auto,
        }
    }
}

impl ExecConfig {
    /// The kernel scale `h` over `mesh`.
    pub fn scale_for(&self, mesh: &TriMesh) -> f64 {
        self.h_factor * mesh.max_edge_length()
    }

    /// Builds and validates the kernel this config describes for
    /// degree-`degree` fields over `mesh` (smoothness `k = degree`), and
    /// resolves the SIMD policy.
    ///
    /// # Panics
    /// Panics for a non-positive (or NaN) `h_factor`, a `degree` above
    /// [`MAX_DEGREE`], or when the stencil is wider than the periodic unit
    /// domain (`(3k + 1) h <= 1`).
    pub fn resolve(&self, mesh: &TriMesh, degree: usize) -> KernelSetup {
        assert!(self.h_factor > 0.0, "h factor must be positive");
        assert!(
            degree <= MAX_DEGREE,
            "degree {degree} exceeds the kernels' maximum of {MAX_DEGREE}"
        );
        let h = self.scale_for(mesh);
        let stencil = Stencil2d::symmetric(degree, h);
        assert!(
            stencil.width() <= 1.0 + 1e-12,
            "stencil width {} exceeds the periodic unit domain; \
             use a larger mesh or a smaller h_factor",
            stencil.width()
        );
        KernelSetup {
            degree,
            h,
            stencil,
            rule: TriangleRule::with_strength(IntegrationCtx::required_strength(degree, degree)),
            isa: self.simd.resolve(),
        }
    }
}

/// A resolved kernel. Only [`ExecConfig::resolve`] makes one, so holding a
/// `KernelSetup` is the proof that the stencil fits the periodic domain
/// and the rule integrates the clipped integrand exactly.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct KernelSetup {
    /// Degree `p` of the fields the kernel was resolved for, and its
    /// smoothness `k`.
    pub degree: usize,
    /// Kernel scale `h`.
    pub h: f64,
    /// The scaled symmetric stencil, `(3p + 1) h` wide.
    pub stencil: Stencil2d,
    /// Triangle rule of strength `3p`.
    pub rule: TriangleRule,
    /// The ISA every block of the run reduces on.
    pub isa: SimdIsa,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustencil_mesh::{generate_mesh, MeshClass};

    #[test]
    fn the_kernel_smoothness_is_the_field_degree() {
        let mesh = generate_mesh(MeshClass::LowVariance, 400, 3);
        let config = ExecConfig {
            h_factor: 0.5,
            ..ExecConfig::default()
        };
        for p in 0..=3 {
            let setup = config.resolve(&mesh, p);
            assert_eq!(setup.degree, p);
            assert_eq!(setup.stencil.kernel().smoothness(), p);
            assert_eq!(setup.stencil.width(), (3 * p + 1) as f64 * setup.h);
            assert_eq!(setup.rule.strength(), 3 * p);
        }
    }

    #[test]
    fn scale_is_exactly_h_factor_times_the_longest_edge() {
        let mesh = generate_mesh(MeshClass::HighVariance, 300, 9);
        for h_factor in [1.0 / 3.0, 0.1, 0.25] {
            let config = ExecConfig {
                h_factor,
                simd: SimdPolicy::Scalar,
                ..ExecConfig::default()
            };
            let setup = config.resolve(&mesh, 1);
            let want = h_factor * mesh.max_edge_length();
            assert_eq!(setup.h.to_bits(), want.to_bits());
            assert_eq!(setup.stencil.h().to_bits(), want.to_bits());
            assert_eq!(setup.isa, SimdIsa::Scalar);
        }
    }
}
