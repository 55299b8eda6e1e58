//! Sharding geometry: who owns which elements and points, and which ghost
//! rings must move between ranks.
//!
//! The shard plan is built once, deterministically, from the mesh and the
//! rank count — every rank reconstructs the identical plan from its mesh
//! replica, so both sides of a halo exchange agree on exactly which
//! elements cross the wire without negotiating. The halo ring is sized
//! from the stencil extent: the SIAC kernel's support is `(3k+1)h` wide,
//! so any element within half that (plus one spatial-grid cell for the
//! cell-rounded candidate lookup) of an owned element can contribute to an
//! owned grid point.

use ustencil_core::ComputationGrid;
use ustencil_geometry::Point2;
use ustencil_mesh::{halo_elements, partition_recursive_bisection, TriMesh};
use ustencil_spatial::{Boundary, PointGrid};

/// The ghost-ring distance of a rank run, on either work: half the stencil
/// width, plus one point-grid cell because candidate lookups round query
/// boxes out to cell boundaries, plus an epsilon against boundary ties.
/// The cell size is probed from a throwaway grid so this can never drift
/// from the spatial crate's actual geometry.
pub fn ghost_ring_width(max_edge: f64, stencil_width: f64) -> f64 {
    let cell = PointGrid::build(&[Point2::new(0.5, 0.5)], max_edge / 2.0, Boundary::Clamped)
        .grid()
        .cell_size();
    stencil_width / 2.0 + cell + 1e-9
}

/// One rank's slice of the problem.
#[derive(Debug, Clone)]
pub struct RankShard {
    /// Elements this rank owns (sorted ascending).
    pub owned_elements: Vec<u32>,
    /// Ghost-ring elements whose coefficients this rank needs but does not
    /// own (sorted ascending).
    pub halo_elements: Vec<u32>,
    /// Global grid-point indices whose owning element is owned by this
    /// rank (sorted ascending). The rank computes exactly these values.
    pub owned_points: Vec<u32>,
}

/// The full sharding of a mesh across `n_ranks` ranks.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    shards: Vec<RankShard>,
}

impl ShardPlan {
    /// Shards `mesh` (and the grid points riding on it) across `n_ranks`
    /// by recursive bisection, with ghost rings of `halo_width`.
    ///
    /// # Panics
    /// Panics when `n_ranks == 0`.
    pub fn build(mesh: &TriMesh, grid: &ComputationGrid, n_ranks: usize, halo_width: f64) -> Self {
        assert!(n_ranks > 0, "need at least one rank");
        let part = partition_recursive_bisection(mesh, n_ranks);
        let mut element_rank = vec![0u32; mesh.n_triangles()];
        for (rank, patch) in part.patches().enumerate() {
            for &e in patch {
                element_rank[e as usize] = rank as u32;
            }
        }
        let shards = (0..n_ranks)
            .map(|rank| {
                let mut owned: Vec<u32> = part.patch(rank).to_vec();
                owned.sort_unstable();
                let halo = if n_ranks == 1 || owned.is_empty() {
                    Vec::new()
                } else {
                    halo_elements(mesh, &owned, halo_width)
                };
                let owned_points: Vec<u32> = grid
                    .owners()
                    .iter()
                    .enumerate()
                    .filter(|&(_, &e)| element_rank[e as usize] == rank as u32)
                    .map(|(i, _)| i as u32)
                    .collect();
                RankShard {
                    owned_elements: owned,
                    halo_elements: halo,
                    owned_points,
                }
            })
            .collect();
        Self { shards }
    }

    /// Number of ranks.
    #[inline]
    pub fn n_ranks(&self) -> usize {
        self.shards.len()
    }

    /// Rank `r`'s shard.
    #[inline]
    pub fn shard(&self, r: usize) -> &RankShard {
        &self.shards[r]
    }

    /// The elements rank `from` must push to rank `to` in a halo exchange:
    /// `owned(from) ∩ halo(to)`, sorted ascending. Both sides compute the
    /// same set from their plan replica, so the exchange needs no
    /// negotiation round.
    pub fn push_set(&self, from: usize, to: usize) -> Vec<u32> {
        let halo = &self.shards[to].halo_elements;
        let owned = self.shards[from].owned_elements.iter().copied();
        owned.filter(|e| halo.binary_search(e).is_ok()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustencil_mesh::{generate_mesh, MeshClass};

    fn plan(n_elems: usize, n_ranks: usize) -> (TriMesh, ComputationGrid, ShardPlan) {
        let mesh = generate_mesh(MeshClass::LowVariance, n_elems, 13);
        let grid = ComputationGrid::quadrature_points(&mesh, 1);
        let width = 2.0 * mesh.max_edge_length();
        let plan = ShardPlan::build(&mesh, &grid, n_ranks, width);
        (mesh, grid, plan)
    }

    #[test]
    fn every_element_and_point_owned_exactly_once() {
        let (mesh, grid, plan) = plan(600, 4);
        let mut elem_seen = vec![0u32; mesh.n_triangles()];
        let mut point_seen = vec![0u32; grid.len()];
        for r in 0..plan.n_ranks() {
            let shard = plan.shard(r);
            for &e in &shard.owned_elements {
                elem_seen[e as usize] += 1;
            }
            for &p in &shard.owned_points {
                point_seen[p as usize] += 1;
                let owner = grid.owners()[p as usize];
                assert!(
                    shard.owned_elements.binary_search(&owner).is_ok(),
                    "point must live on its element's rank"
                );
            }
        }
        assert!(elem_seen.iter().all(|&c| c == 1));
        assert!(point_seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn push_sets_tile_the_halo() {
        let (_, _, plan) = plan(600, 4);
        for to in 0..plan.n_ranks() {
            let mut pushed: Vec<u32> = (0..plan.n_ranks())
                .filter(|&from| from != to)
                .flat_map(|from| plan.push_set(from, to))
                .collect();
            pushed.sort_unstable();
            assert_eq!(
                pushed,
                plan.shard(to).halo_elements,
                "peers' push sets must exactly cover rank {to}'s halo"
            );
        }
    }

    #[test]
    fn single_rank_has_no_halo() {
        let (_, grid, plan) = plan(200, 1);
        assert!(plan.shard(0).halo_elements.is_empty());
        assert_eq!(plan.shard(0).owned_points.len(), grid.len());
    }

    #[test]
    fn owned_lists_are_sorted() {
        let (_, _, plan) = plan(600, 8);
        for r in 0..plan.n_ranks() {
            let s = plan.shard(r);
            assert!(s.owned_elements.windows(2).all(|w| w[0] < w[1]));
            assert!(s.halo_elements.windows(2).all(|w| w[0] < w[1]));
            assert!(s.owned_points.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
