//! The computation grid: evaluation points derived from the mesh.
//!
//! "A grid of points is defined over the mesh which correspond to the
//! numerical quadrature points for each polygon element" (Section 1). The
//! grid therefore inherits the mesh's structure: regular meshes yield
//! regular grids, unstructured meshes irregular ones (Figure 2).

use ustencil_geometry::Point2;
use ustencil_mesh::TriMesh;
use ustencil_quadrature::TriangleRule;

/// The set of evaluation points of a post-processing run, with the owning
/// element of each point.
#[derive(Debug, Clone)]
pub struct ComputationGrid {
    points: Vec<Point2>,
    owner: Vec<u32>,
}

impl ComputationGrid {
    /// The paper's grid: the quadrature points of the degree-`p` projection
    /// rule of every element (strength `2p`, i.e. `(p+1)^2` points per
    /// triangle).
    pub fn quadrature_points(mesh: &TriMesh, p: usize) -> Self {
        let rule = TriangleRule::with_strength(2 * p);
        let ppe = rule.len();
        let mut points = Vec::with_capacity(mesh.n_triangles() * ppe);
        let mut owner = Vec::with_capacity(mesh.n_triangles() * ppe);
        for e in 0..mesh.n_triangles() {
            let tri = mesh.triangle(e);
            for &(u, v) in rule.points() {
                points.push(tri.map_from_unit(u, v));
                owner.push(e as u32);
            }
        }
        Self { points, owner }
    }

    /// A grid from explicit points and owners (for custom evaluation sets,
    /// e.g. visualization samples).
    ///
    /// # Panics
    /// Panics when lengths differ.
    pub fn from_points(points: Vec<Point2>, owner: Vec<u32>) -> Self {
        assert_eq!(points.len(), owner.len(), "points/owner length mismatch");
        Self { points, owner }
    }

    /// Number of grid points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the grid is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The evaluation points.
    #[inline]
    pub fn points(&self) -> &[Point2] {
        &self.points
    }

    /// Owning element of each point.
    #[inline]
    pub fn owners(&self) -> &[u32] {
        &self.owner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustencil_mesh::{generate_mesh, MeshClass};

    #[test]
    fn quadrature_grid_counts() {
        let mesh = generate_mesh(MeshClass::StructuredPattern, 32, 0);
        for p in 1..=3usize {
            let grid = ComputationGrid::quadrature_points(&mesh, p);
            assert_eq!(grid.len(), mesh.n_triangles() * (p + 1) * (p + 1));
        }
    }

    #[test]
    fn points_lie_inside_their_owner() {
        let mesh = generate_mesh(MeshClass::LowVariance, 100, 5);
        let grid = ComputationGrid::quadrature_points(&mesh, 2);
        for (p, &e) in grid.points().iter().zip(grid.owners()) {
            let (u, v) = mesh.triangle(e as usize).map_to_unit(*p).unwrap();
            assert!(
                u >= -1e-10 && v >= -1e-10 && u + v <= 1.0 + 1e-10,
                "point {p:?} outside element {e}"
            );
        }
    }

    #[test]
    fn points_stay_in_unit_square() {
        let mesh = generate_mesh(MeshClass::HighVariance, 200, 8);
        let grid = ComputationGrid::quadrature_points(&mesh, 1);
        for p in grid.points() {
            assert!(p.x >= -1e-12 && p.x <= 1.0 + 1e-12);
            assert!(p.y >= -1e-12 && p.y <= 1.0 + 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_custom_grid_panics() {
        let _ = ComputationGrid::from_points(vec![Point2::ORIGIN], vec![]);
    }
}
