//! The per-point hash grid over triangle centroids.

use crate::grid::{Boundary, UniformGrid};
use ustencil_geometry::Point2;
use ustencil_mesh::TriMesh;

/// Uniform hash grid storing mesh triangles by centroid, used by the
/// per-point evaluation scheme.
///
/// The cell size is at least `cell_factor * s` where `s` is the longest mesh
/// edge (the paper uses `c_p = s`). Because a triangle's every point lies
/// within `s` of its centroid, a query inflated by one *halo ring* of cells
/// is guaranteed to visit every triangle that can intersect the query
/// rectangle — the enclosure property of Section 3.2.
#[derive(Debug, Clone)]
pub struct TriangleGrid {
    grid: UniformGrid,
}

impl TriangleGrid {
    /// Builds the grid from mesh centroids with the paper's default cell
    /// factor `c_p = s`.
    pub fn build(mesh: &TriMesh, boundary: Boundary) -> Self {
        Self::build_with_factor(mesh, 1.0, boundary)
    }

    /// Builds with cell size `factor * s` (`factor >= 1` preserves the
    /// enclosure guarantee; smaller factors would need a deeper halo).
    ///
    /// # Panics
    /// Panics when `factor < 1`.
    pub fn build_with_factor(mesh: &TriMesh, factor: f64, boundary: Boundary) -> Self {
        assert!(factor >= 1.0, "cell factor below 1 breaks enclosure");
        let s = mesh.max_edge_length();
        let centroids: Vec<Point2> = (0..mesh.n_triangles())
            .map(|i| {
                let c = mesh.centroid(i);
                // Centroids of triangles covering the unit square are
                // interior, but guard against rounding at the border.
                Point2::new(c.x.clamp(0.0, 1.0), c.y.clamp(0.0, 1.0))
            })
            .collect();
        let grid = UniformGrid::from_positions(&centroids, factor * s, boundary);
        Self { grid }
    }

    /// The underlying grid.
    #[inline]
    pub fn grid(&self) -> &UniformGrid {
        &self.grid
    }

    /// Visits every triangle that can intersect the square stencil support
    /// of half-width `half_width` centered at `center`, including the halo
    /// ring (Eq. 3, per-point bounds). Candidates are a superset of the true
    /// intersections; the caller performs the exact test.
    pub fn for_each_candidate<F: FnMut(u32)>(&self, center: Point2, half_width: f64, f: F) {
        let halo = self.grid.cell_size();
        let r = half_width + halo;
        self.grid.for_each_in_rect(
            Point2::new(center.x - r, center.y - r),
            Point2::new(center.x + r, center.y + r),
            f,
        );
    }

    /// Number of grid cells such a query touches (for the cost model).
    pub fn candidate_cells(&self, center: Point2, half_width: f64) -> usize {
        let halo = self.grid.cell_size();
        let r = half_width + halo;
        self.grid.cells_in_rect(
            Point2::new(center.x - r, center.y - r),
            Point2::new(center.x + r, center.y + r),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustencil_geometry::Rect;
    use ustencil_mesh::{generate_mesh, MeshClass, PERIODIC_SHIFTS};

    /// Periodic-aware brute-force reference: ids of triangles with any
    /// image's bounding box intersecting the query rect.
    fn brute_force(mesh: &TriMesh, rect: &Rect) -> Vec<u32> {
        let mut out = Vec::new();
        for (i, tri) in mesh.triangles().enumerate() {
            for shift in PERIODIC_SHIFTS {
                let bb = tri.translate(shift).aabb();
                if rect.intersects_aabb(&bb) {
                    out.push(i as u32);
                    break;
                }
            }
        }
        out
    }

    #[test]
    fn candidates_cover_all_true_intersections() {
        let mesh = generate_mesh(MeshClass::LowVariance, 300, 17);
        let grid = TriangleGrid::build(&mesh, Boundary::Periodic);
        let hw = 2.5 * mesh.max_edge_length();
        for &(cx, cy) in &[(0.5, 0.5), (0.02, 0.02), (0.99, 0.4), (0.0, 1.0)] {
            let center = Point2::new(cx, cy);
            let mut candidates = Vec::new();
            grid.for_each_candidate(center, hw, |id| candidates.push(id));
            let rect = Rect::new(cx - hw, cy - hw, cx + hw, cy + hw);
            for id in brute_force(&mesh, &rect) {
                assert!(
                    candidates.contains(&id),
                    "center ({cx},{cy}): triangle {id} missed"
                );
            }
        }
    }

    #[test]
    fn high_variance_meshes_also_covered() {
        let mesh = generate_mesh(MeshClass::HighVariance, 300, 23);
        let grid = TriangleGrid::build(&mesh, Boundary::Periodic);
        let hw = 2.0 * mesh.max_edge_length();
        let center = Point2::new(0.1, 0.9);
        let mut candidates = Vec::new();
        grid.for_each_candidate(center, hw, |id| candidates.push(id));
        let rect = Rect::new(center.x - hw, center.y - hw, center.x + hw, center.y + hw);
        for id in brute_force(&mesh, &rect) {
            assert!(candidates.contains(&id), "triangle {id} missed");
        }
    }

    #[test]
    fn no_duplicate_candidates() {
        let mesh = generate_mesh(MeshClass::LowVariance, 200, 3);
        let grid = TriangleGrid::build(&mesh, Boundary::Periodic);
        let mut counts = vec![0u32; mesh.n_triangles()];
        // Stencil wider than the whole domain.
        grid.for_each_candidate(Point2::new(0.5, 0.5), 2.0, |id| counts[id as usize] += 1);
        assert!(counts.iter().all(|&c| c == 1));
    }

    #[test]
    fn cell_size_is_at_least_max_edge() {
        let mesh = generate_mesh(MeshClass::LowVariance, 500, 1);
        let grid = TriangleGrid::build(&mesh, Boundary::Periodic);
        assert!(grid.grid().cell_size() >= mesh.max_edge_length());
    }

    #[test]
    #[should_panic(expected = "enclosure")]
    fn sub_unit_factor_panics() {
        let mesh = generate_mesh(MeshClass::LowVariance, 100, 1);
        let _ = TriangleGrid::build_with_factor(&mesh, 0.5, Boundary::Periodic);
    }
}
