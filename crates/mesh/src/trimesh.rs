//! The triangular mesh container.

use ustencil_geometry::{Point2, Triangle};

/// Errors produced by [`TriMesh::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum MeshError {
    /// A triangle references a vertex index that is out of bounds.
    VertexIndexOutOfBounds {
        /// Offending triangle index.
        triangle: usize,
        /// Offending vertex index.
        vertex: u32,
    },
    /// A triangle has non-positive signed area (degenerate or clockwise).
    NotCounterClockwise {
        /// Offending triangle index.
        triangle: usize,
        /// Its signed area.
        signed_area: f64,
    },
    /// A triangle repeats a vertex.
    RepeatedVertex {
        /// Offending triangle index.
        triangle: usize,
    },
    /// An interior edge is shared by more than two triangles (non-manifold).
    NonManifoldEdge {
        /// The vertex pair of the offending edge.
        edge: (u32, u32),
    },
}

impl std::fmt::Display for MeshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeshError::VertexIndexOutOfBounds { triangle, vertex } => {
                write!(f, "triangle {triangle} references missing vertex {vertex}")
            }
            MeshError::NotCounterClockwise {
                triangle,
                signed_area,
            } => write!(
                f,
                "triangle {triangle} is not counter-clockwise (signed area {signed_area:e})"
            ),
            MeshError::RepeatedVertex { triangle } => {
                write!(f, "triangle {triangle} repeats a vertex")
            }
            MeshError::NonManifoldEdge { edge } => {
                write!(
                    f,
                    "edge ({}, {}) is shared by more than two triangles",
                    edge.0, edge.1
                )
            }
        }
    }
}

impl std::error::Error for MeshError {}

/// An unstructured triangular mesh: shared vertices plus index triples.
///
/// Triangles are stored counter-clockwise. The mesh is *flat* data — vertex
/// and index buffers — so it can be traversed without pointer chasing in the
/// evaluator hot loops.
#[derive(Debug, Clone, Default)]
pub struct TriMesh {
    vertices: Vec<Point2>,
    triangles: Vec<[u32; 3]>,
}

impl TriMesh {
    /// Builds a mesh from raw buffers without validation; call
    /// [`validate`](Self::validate) to check invariants.
    pub fn from_raw(vertices: Vec<Point2>, triangles: Vec<[u32; 3]>) -> Self {
        Self {
            vertices,
            triangles,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of triangles.
    #[inline]
    pub fn n_triangles(&self) -> usize {
        self.triangles.len()
    }

    /// Vertex buffer.
    #[inline]
    pub fn vertices(&self) -> &[Point2] {
        &self.vertices
    }

    /// Index buffer.
    #[inline]
    pub fn triangle_indices(&self) -> &[[u32; 3]] {
        &self.triangles
    }

    /// The `i`-th triangle as a geometric [`Triangle`].
    #[inline]
    pub fn triangle(&self, i: usize) -> Triangle {
        let [a, b, c] = self.triangles[i];
        Triangle::new(
            self.vertices[a as usize],
            self.vertices[b as usize],
            self.vertices[c as usize],
        )
    }

    /// Iterator over all triangles as geometry.
    pub fn triangles(&self) -> impl ExactSizeIterator<Item = Triangle> + '_ {
        (0..self.n_triangles()).map(|i| self.triangle(i))
    }

    /// Length of the longest edge over all triangles — the `s` of
    /// Section 3.2, which fixes both the hash-grid cell size and the stencil
    /// scaling `h`.
    pub fn max_edge_length(&self) -> f64 {
        self.triangles()
            .map(|t| t.longest_edge())
            .fold(0.0, f64::max)
    }

    /// Centroid of the `i`-th triangle.
    #[inline]
    pub fn centroid(&self, i: usize) -> Point2 {
        self.triangle(i).centroid()
    }

    /// Checks structural invariants: index bounds, counter-clockwise
    /// orientation with positive area, distinct vertices per triangle, and
    /// edge manifoldness. Returns the first violation found.
    pub fn validate(&self) -> Result<(), MeshError> {
        let nv = self.vertices.len() as u32;
        for (i, tri) in self.triangles.iter().enumerate() {
            for &v in tri {
                if v >= nv {
                    return Err(MeshError::VertexIndexOutOfBounds {
                        triangle: i,
                        vertex: v,
                    });
                }
            }
            if tri[0] == tri[1] || tri[1] == tri[2] || tri[0] == tri[2] {
                return Err(MeshError::RepeatedVertex { triangle: i });
            }
            let sa = self.triangle(i).signed_area();
            if sa <= 0.0 {
                return Err(MeshError::NotCounterClockwise {
                    triangle: i,
                    signed_area: sa,
                });
            }
        }
        // Manifoldness: every undirected edge appears at most twice.
        let mut edges: std::collections::HashMap<(u32, u32), u32> =
            std::collections::HashMap::with_capacity(self.triangles.len() * 3 / 2);
        for tri in &self.triangles {
            for k in 0..3 {
                let a = tri[k];
                let b = tri[(k + 1) % 3];
                let key = (a.min(b), a.max(b));
                let count = edges.entry(key).or_insert(0);
                *count += 1;
                if *count > 2 {
                    return Err(MeshError::NonManifoldEdge { edge: key });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustencil_geometry::Aabb;

    impl TriMesh {
        /// Bounding box of the whole mesh.
        fn aabb(&self) -> Aabb {
            Aabb::from_points(self.vertices.iter().copied())
        }

        /// Sum of all triangle areas.
        pub(crate) fn total_area(&self) -> f64 {
            self.triangles().map(|t| t.area()).sum()
        }
    }

    fn two_triangle_square() -> TriMesh {
        TriMesh::from_raw(
            vec![
                Point2::new(0.0, 0.0),
                Point2::new(1.0, 0.0),
                Point2::new(1.0, 1.0),
                Point2::new(0.0, 1.0),
            ],
            vec![[0, 1, 2], [0, 2, 3]],
        )
    }

    #[test]
    fn basic_accessors() {
        let m = two_triangle_square();
        assert_eq!(m.n_vertices(), 4);
        assert_eq!(m.n_triangles(), 2);
        assert!((m.total_area() - 1.0).abs() < 1e-15);
        assert!((m.max_edge_length() - 2f64.sqrt()).abs() < 1e-15);
        assert_eq!(m.aabb().max, Point2::new(1.0, 1.0));
    }

    #[test]
    fn valid_mesh_passes_validation() {
        assert_eq!(two_triangle_square().validate(), Ok(()));
    }

    #[test]
    fn out_of_bounds_index_detected() {
        let m = TriMesh::from_raw(vec![Point2::ORIGIN], vec![[0, 1, 2]]);
        assert!(matches!(
            m.validate(),
            Err(MeshError::VertexIndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn clockwise_triangle_detected() {
        let m = TriMesh::from_raw(
            vec![
                Point2::new(0.0, 0.0),
                Point2::new(1.0, 0.0),
                Point2::new(0.0, 1.0),
            ],
            vec![[0, 2, 1]],
        );
        assert!(matches!(
            m.validate(),
            Err(MeshError::NotCounterClockwise { .. })
        ));
    }

    #[test]
    fn repeated_vertex_detected() {
        let m = TriMesh::from_raw(
            vec![Point2::new(0.0, 0.0), Point2::new(1.0, 0.0)],
            vec![[0, 1, 1]],
        );
        assert!(matches!(
            m.validate(),
            Err(MeshError::RepeatedVertex { .. })
        ));
    }

    #[test]
    fn non_manifold_edge_detected() {
        let m = TriMesh::from_raw(
            vec![
                Point2::new(0.0, 0.0),
                Point2::new(1.0, 0.0),
                Point2::new(0.5, 1.0),
                Point2::new(0.5, -1.0),
                Point2::new(0.5, 2.0),
            ],
            // Edge (0,1) used by three triangles.
            vec![[0, 1, 2], [0, 3, 1], [0, 1, 4]],
        );
        assert!(matches!(
            m.validate(),
            Err(MeshError::NonManifoldEdge { .. })
        ));
    }

    #[test]
    fn error_display_formats() {
        let e = MeshError::RepeatedVertex { triangle: 7 };
        assert!(e.to_string().contains("triangle 7"));
    }
}
