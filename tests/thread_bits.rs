//! Bit-stability across thread counts: both direct schemes, a compiled
//! plan's apply and the rank runtime give the same bits under 1, 2 and 4
//! worker threads. A binary of its own with one test, because it sets the
//! process-wide `RAYON_NUM_THREADS`, which the thread pool reads at every
//! parallel call.

use ustencil::dg::{project_l2, DgField};
use ustencil::engine::prelude::*;
use ustencil::mesh::{generate_mesh, MeshClass, TriMesh};
use ustencil::plan::CompileOptions;
use ustencil::{run_dist, DistOptions, EvalPlan};

/// Every entry point's values on one input, labelled, as raw bits.
/// The kernel scale is kept so the `(3p + 1)h` support fits the periodic
/// unit square.
fn all_values(mesh: &TriMesh, field: &DgField, grid: &ComputationGrid) -> Vec<(String, Vec<u64>)> {
    let p = field.degree();
    let h_factor = (0.9 / ((3 * p + 1) as f64 * mesh.max_edge_length())).min(1.0);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut out: Vec<_> = Scheme::ALL
        .into_iter()
        .map(|scheme| {
            let sol = PostProcessor::new(scheme)
                .h_factor(h_factor)
                .run(mesh, field, grid);
            (scheme.label().to_string(), bits(&sol.values))
        })
        .collect();
    let options = CompileOptions {
        h_factor,
        ..CompileOptions::default()
    };
    let plan = EvalPlan::compile(mesh, grid, p, &options);
    out.push(("plan".into(), bits(&plan.apply(field).values)));
    let dist = run_dist(mesh, field, grid, &DistOptions::new(2).h_factor(h_factor)).unwrap();
    out.push(("dist, 2 ranks".into(), bits(&dist.values)));
    out
}

#[test]
fn values_are_bitwise_equal_under_1_2_and_4_threads() {
    for (class, p, n) in [
        (MeshClass::LowVariance, 1, 400),
        (MeshClass::HighVariance, 2, 200),
    ] {
        let mesh = generate_mesh(class, n, 2013);
        let field = project_l2(&mesh, p, |x, y| (x * 5.1).sin() + y * y - 0.3 * x * y, 2);
        let grid = ComputationGrid::quadrature_points(&mesh, p);
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let want = all_values(&mesh, &field, &grid);
        for threads in ["2", "4"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            for ((label, got), (_, want)) in all_values(&mesh, &field, &grid).iter().zip(&want) {
                assert!(
                    got == want,
                    "{class:?} p={p}, {label}: {threads} threads move bits"
                );
            }
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}
