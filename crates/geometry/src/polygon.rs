//! Small convex polygons with inline storage.

use crate::point::Point2;

/// A convex polygon with counter-clockwise vertex order and inline storage.
///
/// Clipping a triangle against an axis-aligned square produces at most 7
/// vertices; the inline capacity of 8 covers every polygon the library
/// constructs without heap allocation, and keeps the struct small enough
/// that the copies in the clipping hot loop stay cheap (millions of clips
/// run per post-processing pass).
#[derive(Debug, Clone, Copy)]
pub struct ConvexPolygon {
    verts: [Point2; Self::CAPACITY],
    len: u8,
}

impl ConvexPolygon {
    /// Maximum number of vertices storable inline.
    pub const CAPACITY: usize = 8;

    /// The empty polygon.
    #[inline]
    pub fn empty() -> Self {
        Self {
            verts: [Point2::ORIGIN; Self::CAPACITY],
            len: 0,
        }
    }

    /// Builds a polygon from a vertex slice (counter-clockwise order
    /// expected).
    ///
    /// Capacity overflow is a caller bug (no geometric pipeline in this
    /// library produces more than [`Self::CAPACITY`] vertices): debug
    /// builds assert, release builds keep the first `CAPACITY` vertices.
    #[inline]
    pub fn from_vertices(vertices: &[Point2]) -> Self {
        debug_assert!(
            vertices.len() <= Self::CAPACITY,
            "polygon exceeds inline capacity: {} > {}",
            vertices.len(),
            Self::CAPACITY
        );
        let mut p = Self::empty();
        for &v in &vertices[..vertices.len().min(Self::CAPACITY)] {
            p.push(v);
        }
        p
    }

    /// True when the polygon has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when the polygon has positive area (at least 3 vertices).
    #[inline]
    pub fn is_degenerate(&self, eps: f64) -> bool {
        self.len < 3 || self.area() <= eps
    }

    /// Appends a vertex. Pushing past capacity is a caller bug: debug
    /// builds assert ("polygon vertex overflow"), release builds drop the
    /// vertex instead of corrupting memory or aborting mid-run.
    #[inline]
    pub fn push(&mut self, p: Point2) {
        let i = self.len as usize;
        debug_assert!(i < Self::CAPACITY, "polygon vertex overflow");
        if i < Self::CAPACITY {
            self.verts[i] = p;
            self.len += 1;
        }
    }

    /// Removes all vertices.
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// The vertices as a slice.
    #[inline]
    pub fn vertices(&self) -> &[Point2] {
        &self.verts[..self.len as usize]
    }

    /// Signed area by the shoelace formula; positive for counter-clockwise
    /// order.
    #[inline]
    pub fn signed_area(&self) -> f64 {
        let v = self.vertices();
        if v.len() < 3 {
            return 0.0;
        }
        let mut acc = 0.0;
        let n = v.len();
        for i in 0..n {
            let a = v[i];
            let b = v[(i + 1) % n];
            acc += a.x * b.y - b.x * a.y;
        }
        0.5 * acc
    }

    /// Absolute area.
    #[inline]
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Ensures counter-clockwise orientation, reversing in place if needed.
    #[inline]
    pub fn make_ccw(&mut self) {
        if self.signed_area() < 0.0 {
            self.verts[..self.len as usize].reverse();
        }
    }
}

impl PartialEq for ConvexPolygon {
    fn eq(&self, other: &Self) -> bool {
        self.vertices() == other.vertices()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aabb::Aabb;
    use crate::point::orient2d;

    impl ConvexPolygon {
        /// Number of vertices.
        pub(crate) fn len(&self) -> usize {
            self.len as usize
        }

        /// Closed containment test for convex CCW polygons: the point must lie on
        /// or left of every directed edge.
        fn contains(&self, p: Point2, eps: f64) -> bool {
            let v = self.vertices();
            if v.len() < 3 {
                return false;
            }
            let n = v.len();
            for i in 0..n {
                if orient2d(v[i], v[(i + 1) % n], p) < -eps {
                    return false;
                }
            }
            true
        }

        /// Bounding box of the polygon.
        fn aabb(&self) -> Aabb {
            Aabb::from_points(self.vertices().iter().copied())
        }

        /// Builds a polygon from a vertex slice, reporting capacity overflow
        /// instead of asserting.
        fn try_from_vertices(vertices: &[Point2]) -> Result<Self, PolygonCapacityError> {
            if vertices.len() > Self::CAPACITY {
                return Err(PolygonCapacityError {
                    len: vertices.len(),
                });
            }
            Ok(Self::from_vertices(vertices))
        }

        /// Arithmetic mean of the vertices (equals the area centroid only for
        /// triangles; used as an interior reference point for convex polygons).
        fn vertex_mean(&self) -> Point2 {
            let v = self.vertices();
            let n = v.len().max(1) as f64;
            let (sx, sy) = v.iter().fold((0.0, 0.0), |(x, y), p| (x + p.x, y + p.y));
            Point2::new(sx / n, sy / n)
        }
    }

    /// Error of `ConvexPolygon::try_from_vertices`: the supplied vertex count
    /// exceeds the inline capacity.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct PolygonCapacityError {
        /// Number of vertices supplied.
        len: usize,
    }

    impl std::fmt::Display for PolygonCapacityError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(
                f,
                "polygon exceeds inline capacity: {} > {}",
                self.len,
                ConvexPolygon::CAPACITY
            )
        }
    }

    fn square() -> ConvexPolygon {
        ConvexPolygon::from_vertices(&[
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
        ])
    }

    #[test]
    fn shoelace_area_of_square() {
        assert_eq!(square().signed_area(), 1.0);
        assert_eq!(square().area(), 1.0);
    }

    #[test]
    fn clockwise_square_has_negative_signed_area() {
        let mut p = square();
        p.verts[..4].reverse();
        assert_eq!(p.signed_area(), -1.0);
        p.make_ccw();
        assert_eq!(p.signed_area(), 1.0);
    }

    #[test]
    fn containment_of_convex_polygon() {
        let s = square();
        assert!(s.contains(Point2::new(0.5, 0.5), 0.0));
        assert!(s.contains(Point2::new(0.0, 0.0), 1e-12)); // vertex
        assert!(s.contains(Point2::new(0.5, 0.0), 1e-12)); // edge
        assert!(!s.contains(Point2::new(1.5, 0.5), 0.0));
        assert!(!s.contains(Point2::new(-0.1, 0.5), 0.0));
    }

    #[test]
    fn degenerate_polygons() {
        let mut p = ConvexPolygon::empty();
        assert!(p.is_degenerate(0.0));
        p.push(Point2::new(0.0, 0.0));
        p.push(Point2::new(1.0, 0.0));
        assert!(p.is_degenerate(0.0));
        assert_eq!(p.signed_area(), 0.0);
        // collinear triangle
        p.push(Point2::new(2.0, 0.0));
        assert!(p.is_degenerate(1e-15));
    }

    #[test]
    fn vertex_mean_of_square_is_center() {
        assert_eq!(square().vertex_mean(), Point2::new(0.5, 0.5));
    }

    #[test]
    fn aabb_of_polygon() {
        let b = square().aabb();
        assert_eq!(b.min, Point2::new(0.0, 0.0));
        assert_eq!(b.max, Point2::new(1.0, 1.0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overflow")]
    fn push_past_capacity_panics_in_debug() {
        let mut p = ConvexPolygon::empty();
        for i in 0..=ConvexPolygon::CAPACITY {
            p.push(Point2::new(i as f64, 0.0));
        }
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn push_past_capacity_saturates_in_release() {
        let mut p = ConvexPolygon::empty();
        for i in 0..=ConvexPolygon::CAPACITY {
            p.push(Point2::new(i as f64, 0.0));
        }
        assert_eq!(p.len(), ConvexPolygon::CAPACITY);
        assert_eq!(p.vertex(ConvexPolygon::CAPACITY - 1).x, 7.0);
    }

    #[test]
    fn try_from_vertices_reports_overflow() {
        let sq = [
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
        ];
        let ok = ConvexPolygon::try_from_vertices(&sq).unwrap();
        assert_eq!(ok.len(), 4);
        let too_many = [Point2::ORIGIN; ConvexPolygon::CAPACITY + 1];
        let err = ConvexPolygon::try_from_vertices(&too_many).unwrap_err();
        assert_eq!(err.len, ConvexPolygon::CAPACITY + 1);
        assert!(err.to_string().contains("capacity"));
    }
}
