//! Property-based tests of the incremental patch engine: for random meshes,
//! field degree (and kernel smoothness) p in {1, 2, 3}, and random mesh
//! edits — refinement of a random element subset (including the empty and the everything-eligible
//! subset) or vertex displacement — a patched plan is *bitwise* the plan a
//! fresh compile of the edited problem would build. Case counts are small
//! because every case compiles at least two plans.

use proptest::prelude::*;
use ustencil::engine::prelude::*;
use ustencil::mesh::{displace_band, elements_on_longest_edge, generate_mesh, MeshClass, TriMesh};
use ustencil::plan::CompileOptions;
use ustencil::{DirtySet, EvalPlan};

fn build(n: usize, p: usize, seed: u64) -> (TriMesh, ComputationGrid, CompileOptions) {
    let mesh = generate_mesh(MeshClass::LowVariance, n, seed);
    let grid = ComputationGrid::quadrature_points(&mesh, 1);
    // Keep the (3p+1)h support inside the periodic unit square.
    let h_factor = (0.9 / ((3 * p + 1) as f64 * mesh.max_edge_length())).min(1.0);
    let options = CompileOptions {
        h_factor,
        parallel: false,
        ..CompileOptions::default()
    };
    (mesh, grid, options)
}

/// A random h-preserving edit: refine a pseudo-random subset of the eligible
/// elements (`frac` of them; 0 → no edit, 1 → all of them), or displace a
/// vertex band. Either way the longest edge — and with it the kernel scale —
/// survives bit-identically, which the patch path requires.
fn edit(mesh: &TriMesh, frac: f64, displace: bool, seed: u64) -> TriMesh {
    if displace {
        let lo = 0.5 - 0.4 * frac;
        return displace_band(mesh, lo, lo + 0.1, 0.2, seed);
    }
    let pinned = elements_on_longest_edge(mesh);
    let eligible: Vec<u32> = (0..mesh.n_triangles() as u32)
        .filter(|&e| !pinned[e as usize])
        .collect();
    // A seeded scatter filter keeps ~frac of the eligible elements without
    // an RNG dep; exact at both extremes (frac 0 → none, frac 1 → all).
    let pct = (frac * 100.0).round() as usize;
    let stride = (seed % 7 + 3) as usize;
    let picked: Vec<u32> = eligible
        .iter()
        .enumerate()
        .filter(|&(i, _)| i.wrapping_mul(stride).wrapping_add(seed as usize) % 100 < pct)
        .map(|(_, &e)| e)
        .collect();
    refine_sorted(mesh, &picked)
}

fn refine_sorted(mesh: &TriMesh, picked: &[u32]) -> TriMesh {
    if picked.is_empty() {
        mesh.clone()
    } else {
        ustencil::mesh::refine_elements(mesh, picked)
    }
}

/// Bitwise CSR equality: same structure, same weight bits.
fn assert_bitwise(a: &EvalPlan, b: &EvalPlan, ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.rows(), b.rows(), "{}: row count", ctx);
    prop_assert_eq!(a.nnz(), b.nnz(), "{}: entry count", ctx);
    prop_assert!(a.cols().eq(b.cols()), "{}: columns", ctx);
    prop_assert!(
        a.weights_bits().eq(b.weights_bits()),
        "{}: weight bits differ",
        ctx
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `patch` + `splice` reproduces a fresh compile of the edited problem
    /// bit for bit — for empty edits (the identity patch), partial edits,
    /// and the all-eligible-elements edit where everything is dirty.
    #[test]
    fn patched_plan_is_bitwise_a_fresh_compile(
        seed in 0u64..1000,
        n in 80usize..200,
        p in 1usize..=3,
        frac_pct in 0u32..=100,
        displace in proptest::bool::ANY,
    ) {
        // Snap the tails so the identity patch and the everything-dirty
        // patch keep showing up (the deterministic tests below pin both).
        let frac_pct = if frac_pct < 15 { 0 } else if frac_pct > 85 { 100 } else { frac_pct };
        let (mesh, grid, options) = build(n, p, seed);
        let base = EvalPlan::compile(&mesh, &grid, p, &options);

        let edited = edit(&mesh, frac_pct as f64 / 100.0, displace, seed.wrapping_add(11));
        prop_assert_eq!(
            edited.max_edge_length().to_bits(),
            mesh.max_edge_length().to_bits(),
            "edit must preserve h"
        );
        let new_grid = ComputationGrid::quadrature_points(&edited, 1);
        let dirty = DirtySet::diff(&mesh, &grid, &edited, &new_grid);
        let (patched, stats) = base
            .patched(&edited, &new_grid, &dirty, &options)
            .expect("same-kernel edit must patch");

        prop_assert!(stats.respliced_rows as usize <= patched.rows());
        // Nothing dirty and the grids are the meshes' quadrature points, so
        // every row has a bit-identical source.
        if dirty.dirty_elements() == 0 {
            prop_assert_eq!(stats.respliced_rows, 0, "clean diff resplices nothing");
            assert_bitwise(&patched, &base, "identity patch")?;
        }
        let fresh = EvalPlan::compile(&edited, &new_grid, p, &options);
        assert_bitwise(&patched, &fresh, "patched vs fresh")?;
    }
}

/// The empty dirty set: diffing a problem against itself patches to the
/// identity without touching a single row.
#[test]
fn empty_edit_patches_to_the_identity() {
    let (mesh, grid, options) = build(140, 2, 7);
    let base = EvalPlan::compile(&mesh, &grid, 2, &options);
    let dirty = DirtySet::diff(&mesh, &grid, &mesh, &grid);
    assert_eq!(dirty.dirty_elements(), 0);
    let (patched, stats) = base.patched(&mesh, &grid, &dirty, &options).unwrap();
    assert_eq!(stats.respliced_rows, 0);
    assert!(patched.cols().eq(base.cols()));
    assert!(patched.weights_bits().eq(base.weights_bits()));
}

/// The all-dirty extreme: refining every eligible element leaves no kept
/// row, and the patch degenerates to (bitwise) a fresh compile.
#[test]
fn all_eligible_refined_patches_bitwise() {
    let (mesh, grid, options) = build(100, 1, 13);
    let base = EvalPlan::compile(&mesh, &grid, 1, &options);
    let edited = edit(&mesh, 1.0, false, 17);
    assert!(
        edited.n_triangles() > 2 * mesh.n_triangles(),
        "most of the mesh refined"
    );
    let new_grid = ComputationGrid::quadrature_points(&edited, 1);
    let dirty = DirtySet::diff(&mesh, &grid, &edited, &new_grid);
    let (patched, stats) = base.patched(&edited, &new_grid, &dirty, &options).unwrap();
    assert!(
        stats.respliced_rows as usize == patched.rows(),
        "everything respliced"
    );
    let fresh = EvalPlan::compile(&edited, &new_grid, 1, &options);
    assert!(patched.cols().eq(fresh.cols()));
    assert!(patched.weights_bits().eq(fresh.weights_bits()));
}
