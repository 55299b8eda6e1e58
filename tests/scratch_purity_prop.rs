//! Property test: the kernel layer's `Scratch` arena is observationally
//! pure — reusing one arena across queries (the production pattern) gives
//! bit-identical values and counters to a fresh arena per query, and a
//! warm arena's buffer capacities stop changing (the allocation-freedom
//! contract of the hot loop).

use proptest::prelude::*;
use ustencil::dg::project_l2;
use ustencil::engine::integrate::{ElementData, IntegrationCtx};
use ustencil::engine::kernel::StencilTraversal;
use ustencil::engine::kernel::{AccumulateSolution, Scratch};
use ustencil::engine::prelude::*;
use ustencil::mesh::{generate_mesh, MeshClass};
use ustencil::quadrature::TriangleRule;
use ustencil::siac::Stencil2d;
use ustencil::spatial::{Boundary, TriangleGrid};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn scratch_reuse_is_observationally_pure(
        seed in 0u64..1000,
        n in 80usize..200,
        p in 1usize..=2,
    ) {
        let mesh = generate_mesh(MeshClass::LowVariance, n, seed);
        let field = project_l2(&mesh, p, |x, y| (x * 4.2).cos() + y * y - 0.7 * x, 1);
        let basis = field.basis().clone();
        let grid = ComputationGrid::quadrature_points(&mesh, p);
        let h_factor = (0.9 / ((3 * p + 1) as f64 * mesh.max_edge_length())).min(1.0);
        let stencil = Stencil2d::symmetric(p, h_factor * mesh.max_edge_length());
        let rule = TriangleRule::with_strength(IntegrationCtx::required_strength(p, p));
        let tri_grid = TriangleGrid::build(&mesh, Boundary::Periodic);
        let trav = StencilTraversal::new(
            &stencil,
            &rule,
            basis.monomial_exponents(),
            basis.n_modes(),
        );
        let centers = &grid.points()[..grid.len().min(12)];

        let query = |scratch: &mut Scratch, center| {
            let mut sink = AccumulateSolution::new();
            let mut metrics = Metrics::default();
            trav.point_query(
                center,
                &tri_grid,
                |e| ElementData::gather(&mesh, &field, &basis, e),
                0,
                scratch,
                &mut sink,
                &mut metrics,
            );
            (sink.take(), metrics)
        };

        // Fresh arena per query vs one arena reused across all queries vs
        // the same arena on a second full pass: all three must agree
        // bit-for-bit, values and counters alike.
        let fresh: Vec<(f64, Metrics)> = centers
            .iter()
            .map(|&c| query(&mut Scratch::new(), c))
            .collect();
        let mut arena = Scratch::new();
        let reused: Vec<(f64, Metrics)> =
            centers.iter().map(|&c| query(&mut arena, c)).collect();
        let warm_cap = arena.capacity();
        let second: Vec<(f64, Metrics)> =
            centers.iter().map(|&c| query(&mut arena, c)).collect();

        for (i, ((f, r), s)) in fresh.iter().zip(&reused).zip(&second).enumerate() {
            prop_assert!(f.0.to_bits() == r.0.to_bits(), "fresh vs reused at {i}");
            prop_assert!(r.0.to_bits() == s.0.to_bits(), "first vs second pass at {i}");
            prop_assert!(f.1 == r.1, "metrics fresh vs reused at {i}");
            prop_assert!(r.1 == s.1, "metrics first vs second pass at {i}");
        }

        // Allocation-freedom: a warm arena's capacities never change again
        // under the same workload.
        prop_assert!(arena.capacity() == warm_cap);
    }
}
