//! The canonical plan-cache key: everything a compiled plan depends on,
//! hashed by *content*.
//!
//! A plan's CSR structure and weights are fully determined by the mesh
//! geometry, the evaluation grid, the field degree, the kernel
//! (smoothness `k` and width factor), and the compile-time SIMD ISA.
//! [`PlanKey`] captures exactly that tuple, with the mesh and grid reduced
//! to 64-bit FNV-1a digests over their raw buffers. Two problems with equal
//! keys compile to bit-identical plans; two problems with different content
//! — even at the *same shape* — get different keys.
//!
//! That content sensitivity is the point: a shape check (element count,
//! degree, row count) would hand a same-shape mesh with moved vertices the
//! stale operator. Keys close that hazard, and they are what the cache in
//! `ustencil-serve` looks up and single-flights.

use ustencil_core::{ComputationGrid, ExecConfig, SimdIsa};
use ustencil_mesh::TriMesh;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming 64-bit FNV-1a hasher over little-endian words. FNV is not
/// cryptographic — it only needs to make distinct meshes collide with
/// probability ~2^-64 and to be cheap enough to run per cache lookup.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Self(FNV_OFFSET)
    }

    #[inline]
    pub(crate) fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    #[inline]
    pub(crate) fn write_f64(&mut self, v: f64) {
        // Bit pattern, not value: -0.0 and 0.0 produce different meshes as
        // far as bit-exact plan reuse is concerned, so hash them apart.
        self.write_u64(v.to_bits());
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// Content digest of a mesh: vertex coordinates (bit patterns) and
/// triangle connectivity, in storage order.
pub fn mesh_content_hash(mesh: &TriMesh) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(mesh.n_vertices() as u64);
    h.write_u64(mesh.n_triangles() as u64);
    for v in mesh.vertices() {
        h.write_f64(v.x);
        h.write_f64(v.y);
    }
    for t in mesh.triangle_indices() {
        for &i in t {
            h.write_u64(i as u64);
        }
    }
    h.finish()
}

/// Content digest of an evaluation grid: point coordinates (bit patterns)
/// and owning elements, in storage order.
pub fn grid_content_hash(grid: &ComputationGrid) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(grid.len() as u64);
    for p in grid.points() {
        h.write_f64(p.x);
        h.write_f64(p.y);
    }
    for &o in grid.owners() {
        h.write_u64(o as u64);
    }
    h.finish()
}

/// The identity of a compiled plan: mesh content, grid content, field
/// degree, kernel parameters, and compile-time SIMD ISA. `Eq + Hash`, so
/// it is directly usable as a map key; equality of keys implies
/// bit-identical compiled plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// [`mesh_content_hash`] of the mesh.
    pub mesh_hash: u64,
    /// [`grid_content_hash`] of the evaluation grid.
    pub grid_hash: u64,
    /// Field polynomial degree `p`.
    pub degree: usize,
    /// Resolved kernel smoothness `k` (the explicit override, or `p`).
    pub smoothness: usize,
    /// IEEE-754 bit pattern of the kernel width factor `h_factor` (the
    /// realized `h` is `h_factor * max_edge`, already pinned by the mesh
    /// hash).
    pub h_factor_bits: u64,
    /// The *resolved* SIMD ISA of the compile-time quadrature reduction
    /// (not the requested policy: `Auto` and a `Forced` width that resolve
    /// to the same ISA compile bit-identical weights, so they must share a
    /// key — while `Scalar` vs a vector ISA differ at the FMA level and
    /// must not).
    pub simd: SimdIsa,
}

impl PlanKey {
    /// Builds the key for compiling `degree`-field plans over `mesh` at
    /// `grid`'s points under `options`. Costs one streaming pass over the
    /// mesh and grid buffers (microseconds at the sizes this repo runs).
    pub fn new(
        mesh: &TriMesh,
        grid: &ComputationGrid,
        degree: usize,
        options: &ExecConfig,
    ) -> Self {
        Self {
            mesh_hash: mesh_content_hash(mesh),
            grid_hash: grid_content_hash(grid),
            degree,
            smoothness: options.smoothness_for(degree),
            h_factor_bits: options.h_factor.to_bits(),
            simd: options.simd.resolve(),
        }
    }

    /// Whether `other` was compiled under the same kernel — degree,
    /// smoothness, width factor and SIMD ISA — so the two keys differ at
    /// most in mesh/grid content: the signature of a mesh edit, and the
    /// precondition for [`EvalPlan::patched`](crate::EvalPlan::patched) to
    /// reproduce a fresh compile bitwise.
    pub fn same_kernel(&self, other: &Self) -> bool {
        self.degree == other.degree
            && self.smoothness == other.smoothness
            && self.h_factor_bits == other.h_factor_bits
            && self.simd == other.simd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustencil_core::ComputationGrid;
    use ustencil_mesh::{generate_mesh, MeshClass};

    fn key_for(seed: u64) -> PlanKey {
        let mesh = generate_mesh(MeshClass::LowVariance, 120, seed);
        let grid = ComputationGrid::quadrature_points(&mesh, 1);
        PlanKey::new(&mesh, &grid, 1, &ExecConfig::default())
    }

    #[test]
    fn equal_content_means_equal_key() {
        assert_eq!(key_for(7), key_for(7));
    }

    #[test]
    fn same_shape_different_content_means_different_key() {
        // Same triangle count and grid size, different vertex positions:
        // the exact aliasing the old shape check could not see.
        let a = generate_mesh(MeshClass::LowVariance, 120, 1);
        let b = generate_mesh(MeshClass::LowVariance, 120, 2);
        assert_eq!(a.n_triangles(), b.n_triangles());
        let ga = ComputationGrid::quadrature_points(&a, 1);
        let gb = ComputationGrid::quadrature_points(&b, 1);
        let ka = PlanKey::new(&a, &ga, 1, &ExecConfig::default());
        let kb = PlanKey::new(&b, &gb, 1, &ExecConfig::default());
        assert_ne!(ka, kb);
        // Content is all that differs: the signature of a mesh edit.
        assert!(ka.same_kernel(&kb));
    }

    #[test]
    fn kernel_changes_change_the_key() {
        let mesh = generate_mesh(MeshClass::LowVariance, 120, 3);
        let grid = ComputationGrid::quadrature_points(&mesh, 1);
        let base = PlanKey::new(&mesh, &grid, 1, &ExecConfig::default());
        let smoother = PlanKey::new(
            &mesh,
            &grid,
            1,
            &ExecConfig {
                smoothness: Some(2),
                ..ExecConfig::default()
            },
        );
        assert_ne!(base, smoother);
        assert!(!base.same_kernel(&smoother));
        let narrower = PlanKey::new(
            &mesh,
            &grid,
            1,
            &ExecConfig {
                h_factor: 0.5,
                ..ExecConfig::default()
            },
        );
        assert_ne!(base, narrower);
        assert!(!base.same_kernel(&narrower));
        // Parallelism and instrumentation do not change the compiled
        // weights, so they must not change the key.
        let parallel = PlanKey::new(
            &mesh,
            &grid,
            1,
            &ExecConfig {
                parallel: false,
                n_blocks: 3,
                instrument: true,
                ..ExecConfig::default()
            },
        );
        assert_eq!(base, parallel);
    }

    #[test]
    fn simd_key_tracks_resolved_isa_not_policy() {
        use ustencil_core::SimdPolicy;
        let mesh = generate_mesh(MeshClass::LowVariance, 120, 3);
        let grid = ComputationGrid::quadrature_points(&mesh, 1);
        let auto = PlanKey::new(&mesh, &grid, 1, &ExecConfig::default());
        let scalar = PlanKey::new(
            &mesh,
            &grid,
            1,
            &ExecConfig {
                simd: SimdPolicy::Scalar,
                ..ExecConfig::default()
            },
        );
        // A forced width that resolves to the same ISA as Auto compiles
        // bit-identical weights, so the keys must collapse.
        let auto_isa = SimdPolicy::Auto.resolve();
        for policy in SimdPolicy::ALL {
            let key = PlanKey::new(
                &mesh,
                &grid,
                1,
                &ExecConfig {
                    simd: policy,
                    ..ExecConfig::default()
                },
            );
            assert_eq!(key.simd, policy.resolve());
            if policy.resolve() == auto_isa {
                assert_eq!(key, auto, "{policy:?}");
            }
        }
        // On hosts where Auto picks a vector ISA, Scalar must get its own
        // key (different compiled weights at the FMA level).
        if auto_isa != ustencil_core::SimdIsa::Scalar {
            assert_ne!(auto, scalar);
            assert!(!auto.same_kernel(&scalar));
        } else {
            assert_eq!(auto, scalar);
        }
    }
}
