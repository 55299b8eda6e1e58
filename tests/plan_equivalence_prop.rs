//! Property-based tests of the evaluation-plan compiler: a compiled plan
//! is a drop-in replacement for the direct pipeline. Case counts are kept small because every case
//! compiles a plan and runs full post-processing passes.

use proptest::prelude::*;
use ustencil::dg::project_l2;
use ustencil::engine::prelude::*;
use ustencil::mesh::{generate_mesh, MeshClass};
use ustencil::plan::CompileOptions;
use ustencil::EvalPlan;

fn build(
    class: MeshClass,
    n: usize,
    p: usize,
    k: usize,
    seed: u64,
) -> (
    ustencil::mesh::TriMesh,
    ustencil::dg::DgField,
    ComputationGrid,
    f64,
) {
    let mesh = generate_mesh(class, n, seed);
    let field = project_l2(&mesh, p, |x, y| (x * 5.1).sin() + y * y - 0.3 * x * y, 2);
    let grid = ComputationGrid::quadrature_points(&mesh, p);
    // Keep the (3k+1)h support inside the periodic unit square.
    let h_factor = (0.9 / ((3 * k + 1) as f64 * mesh.max_edge_length())).min(1.0);
    (mesh, field, grid, h_factor)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A plan's apply matches a direct `PostProcessor::run` — under either
    /// scheme — to 1e-12 for random meshes, degrees, and kernel
    /// smoothness k in {1, 2, 3}.
    #[test]
    fn plan_matches_both_direct_schemes(
        seed in 0u64..1000,
        n in 80usize..220,
        p in 1usize..=2,
        k in 1usize..=3,
        lv in proptest::bool::ANY,
    ) {
        let class = if lv { MeshClass::LowVariance } else { MeshClass::HighVariance };
        let (mesh, field, grid, h_factor) = build(class, n, p, k, seed);
        let plan = EvalPlan::compile(&mesh, &grid, p, &CompileOptions {
            smoothness: Some(k),
            h_factor,
            parallel: false,
            ..CompileOptions::default()
        });
        let applied = plan.apply(&field);
        for scheme in Scheme::ALL {
            let direct = PostProcessor::new(scheme)
                .smoothness(k)
                .h_factor(h_factor)
                .parallel(false)
                .run(&mesh, &field, &grid);
            let diff = applied.max_abs_diff(&direct.values);
            prop_assert!(
                diff <= 1e-12,
                "{} vs plan: diff {diff} (n={n} p={p} k={k})",
                scheme.label()
            );
        }
    }
}
