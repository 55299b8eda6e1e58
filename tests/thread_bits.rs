//! Bit-stability across thread counts and instrumentation: both direct
//! schemes, a plan's compile plus apply and the rank runtime give the same
//! bits and the same work counters under 1, 2 and 4 worker threads, traced
//! or not. A binary of its own with one test, because it sets the
//! process-wide `RAYON_NUM_THREADS`, which the thread pool reads at every
//! parallel call.

use ustencil::dg::{project_l2, DgField};
use ustencil::engine::prelude::*;
use ustencil::mesh::{generate_mesh, MeshClass, TriMesh};
use ustencil::plan::CompileOptions;
use ustencil::{run_dist, DistOptions, EvalPlan};

/// Every entry point's values on one input, labelled, as raw bits, with
/// its counters. The kernel scale is kept so the `(3p + 1)h` support fits
/// the periodic unit square.
fn all_values(
    mesh: &TriMesh,
    field: &DgField,
    grid: &ComputationGrid,
    instrument: bool,
) -> Vec<(String, Vec<u64>, Metrics)> {
    let p = field.degree();
    let h_factor = (0.9 / ((3 * p + 1) as f64 * mesh.max_edge_length())).min(1.0);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut out: Vec<_> = Scheme::ALL
        .into_iter()
        .map(|scheme| {
            let sol = PostProcessor::new(scheme)
                .h_factor(h_factor)
                .instrument(instrument)
                .run(mesh, field, grid);
            (scheme.label().to_string(), bits(&sol.values), sol.metrics)
        })
        .collect();
    let options = CompileOptions {
        h_factor,
        instrument,
        ..CompileOptions::default()
    };
    let plan = EvalPlan::compile(mesh, grid, p, &options);
    let apply = plan.apply_with(field, &options);
    let work = Metrics::sum([plan.build_metrics(), &apply.metrics]);
    out.push(("plan".into(), bits(&apply.values), work));
    let options = DistOptions::new(2)
        .h_factor(h_factor)
        .instrument(instrument);
    let dist = run_dist(mesh, field, grid, &options).unwrap();
    out.push(("dist, 2 ranks".into(), bits(&dist.values), dist.metrics));
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
        let want = all_values(&mesh, &field, &grid, false);
        let cases = [
            ("1", true),
            ("2", false),
            ("2", true),
            ("4", false),
            ("4", true),
        ];
        for (threads, instrument) in cases {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let got = all_values(&mesh, &field, &grid, instrument);
            for ((label, bits, work), (_, want_bits, want_work)) in got.iter().zip(&want) {
                let case =
                    format!("{class:?} p={p}, {label}, {threads} threads, instrument {instrument}");
                assert!(bits == want_bits, "{case}: bits move");
                assert_eq!(work, want_work, "{case}: counters move");
            }
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}
