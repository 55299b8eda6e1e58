//! Property tests of the interior/frontier split the overlapped schedule
//! rests on: for random meshes, smoothness orders, and rank counts, the
//! two lists partition each rank's owned elements exactly, and no
//! interior element's stencil footprint can reach an element the rank
//! does not own — so evaluating the interior before the halo drain can
//! never read a coefficient that is still in flight.

use proptest::prelude::*;
use ustencil::dist::{ghost_ring_width, ShardPlan};
use ustencil::engine::prelude::*;
use ustencil::mesh::{generate_mesh, MeshClass, PERIODIC_SHIFTS};
use ustencil::siac::Stencil2d;

/// Largest `h_factor` keeping a smoothness-`k` stencil inside the domain,
/// with margin.
fn safe_h(mesh: &ustencil::mesh::TriMesh, k: usize) -> f64 {
    (0.9 / ((3 * k + 1) as f64 * mesh.max_edge_length())).min(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Interior ∪ frontier is exactly the owned element list of every
    /// rank (sorted, disjoint, nothing counted twice across ranks), and
    /// every interior element's stencil footprint — its bounding box
    /// inflated by half the stencil width, under every periodic shift —
    /// is disjoint from every element owned by another rank.
    #[test]
    fn interior_frontier_partition_owned_and_interior_reaches_no_foreign_element(
        seed in 0u64..1000,
        n in 120usize..350,
        k in 1usize..=3,
        ranks_ix in 0usize..3,
    ) {
        let ranks = [2usize, 4, 8][ranks_ix];
        let mesh = generate_mesh(MeshClass::LowVariance, n, seed);
        let grid = ComputationGrid::quadrature_points(&mesh, 1);
        let h = safe_h(&mesh, k) * mesh.max_edge_length();
        let stencil = Stencil2d::symmetric(k, h);
        let halo_width = ghost_ring_width(mesh.max_edge_length(), stencil.width());
        let plan = ShardPlan::build(&mesh, &grid, ranks, halo_width);

        let footprint = stencil.width() / 2.0;
        let mut total_split = 0usize;
        for r in 0..ranks {
            let shard = plan.shard(r);
            let (interior, frontier) = plan.split_interior(&mesh, r);
            total_split += interior.len() + frontier.len();

            // Exact partition: merging the two sorted lists reproduces
            // the owned list, so nothing is dropped, duplicated, or
            // shared between them.
            let mut merged = interior.clone();
            merged.extend_from_slice(&frontier);
            merged.sort_unstable();
            prop_assert_eq!(
                &merged, &shard.owned_elements,
                "rank {}: interior + frontier must be exactly the owned elements", r
            );
            prop_assert!(interior.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(frontier.windows(2).all(|w| w[0] < w[1]));

            // The semantic guarantee behind the overlap: an interior
            // element's stencil support cannot touch any element the rank
            // does not own, under any periodic image. (This also verifies
            // the halo ring was complete — a missing ring element would
            // let a reachable foreign element slip past the split.)
            let foreign: Vec<u32> = (0..mesh.n_triangles() as u32)
                .filter(|&e| plan.owner_of(e) != r as u32)
                .collect();
            for &e in &interior {
                let reach = mesh.triangle(e as usize).aabb().inflate(footprint);
                for &shift in PERIODIC_SHIFTS.iter() {
                    let shifted = reach.translate(shift);
                    for &f in &foreign {
                        prop_assert!(
                            !shifted.intersects(&mesh.triangle(f as usize).aabb()),
                            "rank {}: interior element {} reaches foreign element {}",
                            r, e, f
                        );
                    }
                }
            }
        }
        // Ranks partition the mesh, so the splits add up globally too.
        prop_assert_eq!(total_split, mesh.n_triangles());
    }

    /// One rank owns everything: the split puts every element in the
    /// interior and the frontier is empty, whatever the smoothness.
    #[test]
    fn single_rank_is_all_interior(
        seed in 0u64..1000,
        n in 120usize..300,
        k in 1usize..=3,
    ) {
        let mesh = generate_mesh(MeshClass::LowVariance, n, seed);
        let grid = ComputationGrid::quadrature_points(&mesh, 1);
        let h = safe_h(&mesh, k) * mesh.max_edge_length();
        let stencil = Stencil2d::symmetric(k, h);
        let halo_width = ghost_ring_width(mesh.max_edge_length(), stencil.width());
        let plan = ShardPlan::build(&mesh, &grid, 1, halo_width);
        let (interior, frontier) = plan.split_interior(&mesh, 0);
        prop_assert_eq!(&interior, &plan.shard(0).owned_elements);
        prop_assert!(frontier.is_empty());
    }
}
