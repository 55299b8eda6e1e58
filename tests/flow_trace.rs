//! Comm-flow tracing end to end: flow ids on the wire and the
//! deterministic send→recv join of an instrumented run's shipped logs.

use ustencil_core::ComputationGrid;
use ustencil_dg::project_l2;
use ustencil_dist::{run_dist, DistOptions, Tag};
use ustencil_mesh::{generate_mesh, MeshClass};

/// The matched flow set is a pure function of the workload: two identical
/// runs join to exactly the same `(src, dst, flow, tag)` keys — one
/// coefficient push per ordered pair of ranks — with nothing unmatched on
/// either side.
#[test]
fn flow_matching_is_bit_deterministic_across_runs() {
    let mesh = generate_mesh(MeshClass::LowVariance, 300, 11);
    let field = project_l2(&mesh, 1, |x, y| 0.3 + x - 0.5 * y + 0.2 * x * y, 2);
    let grid = ComputationGrid::quadrature_points(&mesh, 1);
    let opts = DistOptions::new(4).instrument(true);

    let mut pair_keys: Vec<Vec<(u32, u32, u64, Tag)>> = Vec::new();
    for _ in 0..2 {
        let matched = run_dist(&mesh, &field, &grid, &opts).unwrap().flow_match();
        assert!(matched.unmatched_sends.is_empty(), "{matched:?}");
        assert!(matched.unmatched_recvs.is_empty(), "{matched:?}");
        // Timestamps vary run to run; the matched key set must not.
        pair_keys.push(
            matched
                .pairs
                .iter()
                .map(|p| (p.src, p.dst, p.flow, p.tag))
                .collect(),
        );
    }
    assert_eq!(pair_keys[0], pair_keys[1], "flow join must be stable");
    assert_eq!(pair_keys[0].len(), 4 * 3);
    assert!(pair_keys[0].iter().all(|k| k.3 == Tag::HaloCoeffs));
}
