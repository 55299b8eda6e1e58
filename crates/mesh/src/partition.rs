//! Recursive-bisection mesh partitioning for the overlapped tiling scheme.
//!
//! "Patch construction follows from simple recursive bisection of the mesh
//! elements until there are k patches of roughly equal size" (Section 4).
//! Splits alternate between axes, always cutting the longer extent of the
//! current element set's centroid bounding box, which keeps patch perimeters
//! short — the quantity that controls the tiling memory overhead (Figure 8).
//!
//! Non-power-of-two patch counts are handled by splitting the count as
//! `⌈k/2⌉ / ⌊k/2⌋` at every level and placing the cut where the cumulative
//! *element area* crosses the proportional target, so uneven patch counts
//! still receive area-balanced shares of the domain.
//!
//! Beyond patch construction, this module provides the two sharding
//! primitives the distributed runtime (`ustencil-dist`) builds on:
//! [`partition_subset`] re-partitions one rank's element set into SM-sized
//! sub-patches, and [`halo_elements`] extracts the ghost ring of elements
//! within a stencil-derived distance of an owned set, honoring the periodic
//! unit domain.

use crate::periodic::PERIODIC_SHIFTS;
use crate::trimesh::TriMesh;
use ustencil_geometry::{Aabb, Point2};

/// A disjoint partition of mesh elements into patches.
#[derive(Debug, Clone)]
pub struct Partition {
    patches: Vec<Vec<u32>>,
}

impl Partition {
    /// Number of patches (matches the `k` requested at construction).
    #[inline]
    pub fn n_patches(&self) -> usize {
        self.patches.len()
    }

    /// Element indices of patch `p`.
    #[inline]
    pub fn patch(&self, p: usize) -> &[u32] {
        &self.patches[p]
    }

    /// Iterator over all patches.
    pub fn patches(&self) -> impl ExactSizeIterator<Item = &[u32]> {
        self.patches.iter().map(|p| p.as_slice())
    }
}

/// Partitions the mesh into `k` patches of roughly equal area by recursive
/// coordinate bisection of element centroids.
///
/// `k` may be any positive number; non-power-of-two values split as
/// `⌈k/2⌉ / ⌊k/2⌋` with the cut placed area-proportionally. When `k`
/// exceeds the element count, the excess patches are empty.
///
/// # Panics
/// Panics when `k == 0`.
pub fn partition_recursive_bisection(mesh: &TriMesh, k: usize) -> Partition {
    assert!(k > 0, "cannot partition into zero patches");
    let ids: Vec<u32> = (0..mesh.n_triangles() as u32).collect();
    partition_ids(mesh, ids, k)
}

/// Partitions an arbitrary subset of mesh elements into `k` patches with
/// the same recursive-bisection rule as [`partition_recursive_bisection`].
///
/// The distributed runtime uses this to split one rank's owned + halo
/// element set into SM-sized sub-patches whose geometry matches what the
/// single-address-space tiling scheme would build.
///
/// # Panics
/// Panics when `k == 0`.
pub fn partition_subset(mesh: &TriMesh, ids: &[u32], k: usize) -> Partition {
    assert!(k > 0, "cannot partition into zero patches");
    partition_ids(mesh, ids.to_vec(), k)
}

fn partition_ids(mesh: &TriMesh, mut ids: Vec<u32>, k: usize) -> Partition {
    let centroids: Vec<Point2> = (0..mesh.n_triangles()).map(|i| mesh.centroid(i)).collect();
    let areas: Vec<f64> = (0..mesh.n_triangles())
        .map(|i| mesh.triangle(i).area())
        .collect();
    let mut patches = Vec::with_capacity(k);
    bisect(&mut ids, &centroids, &areas, k, &mut patches);
    debug_assert_eq!(patches.len(), k);
    Partition { patches }
}

fn bisect(ids: &mut [u32], centroids: &[Point2], areas: &[f64], k: usize, out: &mut Vec<Vec<u32>>) {
    if k == 1 {
        out.push(ids.to_vec());
        return;
    }
    if ids.is_empty() {
        out.extend(std::iter::repeat_with(Vec::new).take(k));
        return;
    }
    // Split the patch count as ⌈k/2⌉ / ⌊k/2⌋ so odd counts never round a
    // whole patch away, and place the element cut where cumulative area
    // crosses the proportional share of the ⌈k/2⌉ side.
    let k_lo = k.div_ceil(2);
    let k_hi = k - k_lo;

    // Cut across the longer extent of the centroid bounding box.
    let bb = Aabb::from_points(ids.iter().map(|&i| centroids[i as usize]));
    let horizontal = bb.width() >= bb.height();
    ids.sort_unstable_by(|&a, &b| {
        let (ca, cb) = (centroids[a as usize], centroids[b as usize]);
        if horizontal {
            ca.x.total_cmp(&cb.x)
        } else {
            ca.y.total_cmp(&cb.y)
        }
    });

    let total: f64 = ids.iter().map(|&i| areas[i as usize]).sum();
    let target = total * k_lo as f64 / k as f64;
    let mut acc = 0.0;
    let mut split = ids.len();
    for (i, &id) in ids.iter().enumerate() {
        let a = areas[id as usize];
        // An element straddling the target area goes to whichever side its
        // majority lies in.
        if acc + 0.5 * a >= target {
            split = i;
            break;
        }
        acc += a;
    }
    // Area-proportional placement is constrained by a ±1% element-count
    // window per level so per-element work stays balanced even on graded
    // meshes (count imbalance compounds to < 1.05 over a 16-way split).
    let ideal = ids.len() as f64 * k_lo as f64 / k as f64;
    let slack = (ids.len() as f64 / 100.0).max(1.0);
    let split = split.clamp(
        (ideal - slack).ceil() as usize,
        (ideal + slack).floor() as usize,
    );
    // Keep every patch nonempty whenever enough elements remain.
    let lo_min = k_lo.min(ids.len());
    let hi_min = k_hi.min(ids.len() - lo_min);
    let split = split.clamp(lo_min, ids.len() - hi_min);

    let (lo, hi) = ids.split_at_mut(split);
    bisect(lo, centroids, areas, k_lo, out);
    bisect(hi, centroids, areas, k_hi, out);
}

/// The ghost ring of `owned`: all elements *not* in `owned` whose bounding
/// box comes within `halo_width` of the owned set's bounding box under the
/// periodic unit domain.
///
/// `owned` must be sorted ascending (the shard plan keeps it that way); the
/// result is sorted ascending. The distributed runtime sizes `halo_width`
/// from the stencil extent so that every element that can contribute to an
/// owned grid point — including candidates discovered through the spatial
/// grid's cell-rounded lookups — lives in the ring.
pub fn halo_elements(mesh: &TriMesh, owned: &[u32], halo_width: f64) -> Vec<u32> {
    debug_assert!(owned.windows(2).all(|w| w[0] < w[1]), "owned not sorted");
    let mut owned_bb = Aabb::EMPTY;
    for &e in owned {
        owned_bb = owned_bb.union(&mesh.triangle(e as usize).aabb());
    }
    let reach = owned_bb.inflate(halo_width);
    let mut halo = Vec::new();
    for e in 0..mesh.n_triangles() as u32 {
        if owned.binary_search(&e).is_ok() {
            continue;
        }
        let bb = mesh.triangle(e as usize).aabb();
        if PERIODIC_SHIFTS
            .iter()
            .any(|&s| bb.translate(s).intersects(&reach))
        {
            halo.push(e);
        }
    }
    halo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_mesh, MeshClass};

    impl Partition {
        /// Ratio of the largest patch size to the ideal (`n / k`); 1.0 is
        /// perfect balance.
        fn imbalance(&self) -> f64 {
            let total: usize = self.patches.iter().map(Vec::len).sum();
            let ideal = total as f64 / self.patches.len() as f64;
            let max = self.patches.iter().map(Vec::len).max().unwrap_or(0);
            if ideal == 0.0 {
                1.0
            } else {
                max as f64 / ideal
            }
        }
    }

    fn check_partition(mesh: &TriMesh, part: &Partition) {
        let mut seen = vec![false; mesh.n_triangles()];
        for patch in part.patches() {
            for &e in patch {
                assert!(!seen[e as usize], "element {e} in two patches");
                seen[e as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some element unassigned");
    }

    #[test]
    fn covers_disjointly_for_various_k() {
        let mesh = generate_mesh(MeshClass::LowVariance, 500, 11);
        for k in [1usize, 2, 3, 4, 7, 16, 33] {
            let part = partition_recursive_bisection(&mesh, k);
            assert_eq!(part.n_patches(), k);
            check_partition(&mesh, &part);
        }
    }

    #[test]
    fn balanced_for_power_of_two() {
        let mesh = generate_mesh(MeshClass::LowVariance, 2000, 5);
        let part = partition_recursive_bisection(&mesh, 16);
        assert!(part.imbalance() < 1.05, "imbalance {}", part.imbalance());
    }

    #[test]
    fn balanced_for_odd_k() {
        let mesh = generate_mesh(MeshClass::LowVariance, 2000, 5);
        let part = partition_recursive_bisection(&mesh, 7);
        assert!(part.imbalance() < 1.1, "imbalance {}", part.imbalance());
    }

    #[test]
    fn balanced_for_non_power_of_two_counts() {
        // The ⌈k/2⌉/⌊k/2⌋ split with area-proportional cuts must keep both
        // element count and area close to ideal for every awkward k.
        let mesh = generate_mesh(MeshClass::LowVariance, 2000, 5);
        for k in [3usize, 5, 6, 7] {
            let part = partition_recursive_bisection(&mesh, k);
            assert_eq!(part.n_patches(), k);
            check_partition(&mesh, &part);
            assert!(
                part.imbalance() < 1.1,
                "k={k} count imbalance {}",
                part.imbalance()
            );
            let patch_area = |p: &[u32]| -> f64 {
                p.iter()
                    .map(|&e| mesh.triangle(e as usize).area())
                    .sum::<f64>()
            };
            let total: f64 = part.patches().map(patch_area).sum();
            let max = part.patches().map(patch_area).fold(0.0f64, f64::max);
            let area_imbalance = max / (total / k as f64);
            assert!(
                area_imbalance < 1.1,
                "k={k} area imbalance {area_imbalance}"
            );
        }
    }

    #[test]
    fn patches_are_spatially_compact() {
        // Each patch's centroid bounding box should be much smaller than the
        // domain for a 16-way split of a uniform mesh.
        let mesh = generate_mesh(MeshClass::LowVariance, 4000, 2);
        let part = partition_recursive_bisection(&mesh, 16);
        for patch in part.patches() {
            let bb = Aabb::from_points(patch.iter().map(|&e| mesh.centroid(e as usize)));
            let area = bb.width() * bb.height();
            assert!(area < 0.15, "patch box area {area}");
        }
    }

    #[test]
    fn k_exceeding_elements_yields_empty_patches() {
        let mesh = generate_mesh(MeshClass::StructuredPattern, 8, 0);
        let part = partition_recursive_bisection(&mesh, 64);
        assert_eq!(part.n_patches(), 64);
        check_partition(&mesh, &part);
    }

    #[test]
    fn single_patch_is_identity() {
        let mesh = generate_mesh(MeshClass::StructuredPattern, 32, 0);
        let part = partition_recursive_bisection(&mesh, 1);
        assert_eq!(part.patch(0).len(), mesh.n_triangles());
    }

    #[test]
    #[should_panic(expected = "zero patches")]
    fn zero_patches_panics() {
        let mesh = generate_mesh(MeshClass::StructuredPattern, 8, 0);
        let _ = partition_recursive_bisection(&mesh, 0);
    }

    #[test]
    fn subset_partition_covers_the_subset() {
        let mesh = generate_mesh(MeshClass::LowVariance, 500, 3);
        let full = partition_recursive_bisection(&mesh, 4);
        let subset = full.patch(2);
        let sub = partition_subset(&mesh, subset, 5);
        assert_eq!(sub.n_patches(), 5);
        let mut collected: Vec<u32> = sub.patches().flatten().copied().collect();
        collected.sort_unstable();
        let mut expect = subset.to_vec();
        expect.sort_unstable();
        assert_eq!(collected, expect);
    }

    #[test]
    fn halo_ring_contains_near_and_excludes_far() {
        let mesh = generate_mesh(MeshClass::LowVariance, 1000, 9);
        let part = partition_recursive_bisection(&mesh, 8);
        let mut owned = part.patch(0).to_vec();
        owned.sort_unstable();
        let width = 2.5 * mesh.max_edge_length();
        let halo = halo_elements(&mesh, &owned, width);
        assert!(!halo.is_empty(), "a strict subset must have a ghost ring");
        assert!(halo.windows(2).all(|w| w[0] < w[1]), "halo must be sorted");
        for &e in &halo {
            assert!(owned.binary_search(&e).is_err(), "halo overlaps owned");
        }
        // Definition check: membership is exactly bbox proximity under some
        // periodic shift.
        let mut owned_bb = Aabb::EMPTY;
        for &e in &owned {
            owned_bb = owned_bb.union(&mesh.triangle(e as usize).aabb());
        }
        let reach = owned_bb.inflate(width);
        for e in 0..mesh.n_triangles() as u32 {
            if owned.binary_search(&e).is_ok() {
                continue;
            }
            let bb = mesh.triangle(e as usize).aabb();
            let near = PERIODIC_SHIFTS
                .iter()
                .any(|&s| bb.translate(s).intersects(&reach));
            assert_eq!(near, halo.binary_search(&e).is_ok(), "element {e}");
        }
    }

    #[test]
    fn halo_wraps_across_the_periodic_boundary() {
        // Own only elements hugging the left edge; with a modest width the
        // ring must pick up elements at x ≈ 1 through the periodic wrap.
        let mesh = generate_mesh(MeshClass::LowVariance, 2000, 4);
        let mut owned: Vec<u32> = (0..mesh.n_triangles() as u32)
            .filter(|&e| mesh.centroid(e as usize).x < 0.08)
            .collect();
        owned.sort_unstable();
        assert!(!owned.is_empty());
        let halo = halo_elements(&mesh, &owned, 0.05);
        let wrapped = halo.iter().any(|&e| mesh.centroid(e as usize).x > 0.9);
        assert!(wrapped, "halo must wrap across x = 0/1");
    }

    #[test]
    fn full_ownership_has_empty_halo() {
        let mesh = generate_mesh(MeshClass::StructuredPattern, 32, 0);
        let owned: Vec<u32> = (0..mesh.n_triangles() as u32).collect();
        assert!(halo_elements(&mesh, &owned, 0.2).is_empty());
    }
}
