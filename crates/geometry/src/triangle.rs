//! Triangles and affine reference-element maps.

use crate::aabb::Aabb;
use crate::point::{orient2d, Point2, Vec2};
use crate::polygon::ConvexPolygon;

/// A triangle given by its three vertices.
///
/// Mesh elements are stored in counter-clockwise orientation; all derived
/// quantities (area, reference map Jacobian) assume nothing about orientation
/// except where documented.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triangle {
    /// First vertex.
    pub a: Point2,
    /// Second vertex.
    pub b: Point2,
    /// Third vertex.
    pub c: Point2,
}

impl Triangle {
    /// Triangle from three vertices.
    #[inline]
    pub const fn new(a: Point2, b: Point2, c: Point2) -> Self {
        Self { a, b, c }
    }

    /// Signed area; positive when the vertices are counter-clockwise.
    #[inline]
    pub fn signed_area(&self) -> f64 {
        0.5 * orient2d(self.a, self.b, self.c)
    }

    /// Absolute area.
    #[inline]
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Area centroid.
    #[inline]
    pub fn centroid(&self) -> Point2 {
        Point2::new(
            (self.a.x + self.b.x + self.c.x) / 3.0,
            (self.a.y + self.b.y + self.c.y) / 3.0,
        )
    }

    /// Bounding box.
    #[inline]
    pub fn aabb(&self) -> Aabb {
        Aabb::from_points([self.a, self.b, self.c])
    }

    /// Length of the longest edge.
    pub fn longest_edge(&self) -> f64 {
        let ab = self.a.distance(self.b);
        let bc = self.b.distance(self.c);
        let ca = self.c.distance(self.a);
        ab.max(bc).max(ca)
    }

    /// Maps barycentric-style reference coordinates `(u, v)` with
    /// `u, v >= 0, u + v <= 1` to physical space:
    /// `x(u, v) = a + u (b - a) + v (c - a)`.
    #[inline]
    pub fn map_from_unit(&self, u: f64, v: f64) -> Point2 {
        self.a + u * (self.b - self.a) + v * (self.c - self.a)
    }

    /// Inverse of [`map_from_unit`](Self::map_from_unit): physical point to
    /// reference coordinates. Returns `None` for degenerate triangles.
    pub fn map_to_unit(&self, p: Point2) -> Option<(f64, f64)> {
        let e1 = self.b - self.a;
        let e2 = self.c - self.a;
        let det = e1.cross(e2);
        if det.abs() < f64::MIN_POSITIVE * 16.0 {
            return None;
        }
        let d = p - self.a;
        let u = d.cross(e2) / det;
        let v = e1.cross(d) / det;
        Some((u, v))
    }

    /// Jacobian determinant of the reference map (`2 * signed_area`).
    #[inline]
    pub fn jacobian(&self) -> f64 {
        (self.b - self.a).cross(self.c - self.a)
    }

    /// The triangle translated by `offset`.
    #[inline]
    pub fn translate(&self, offset: Vec2) -> Triangle {
        Triangle::new(self.a + offset, self.b + offset, self.c + offset)
    }

    /// Conversion to a [`ConvexPolygon`] in counter-clockwise order
    /// (reverses clockwise input).
    #[inline]
    pub fn to_polygon(&self) -> ConvexPolygon {
        let mut p = ConvexPolygon::from_vertices(&[self.a, self.b, self.c]);
        p.make_ccw();
        p
    }

    /// Vertices as an array.
    #[inline]
    pub fn vertices(&self) -> [Point2; 3] {
        [self.a, self.b, self.c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Triangle {
        /// Closed containment test (works for either orientation).
        fn contains(&self, p: Point2, eps: f64) -> bool {
            let d1 = orient2d(self.a, self.b, p);
            let d2 = orient2d(self.b, self.c, p);
            let d3 = orient2d(self.c, self.a, p);
            let has_neg = d1 < -eps || d2 < -eps || d3 < -eps;
            let has_pos = d1 > eps || d2 > eps || d3 > eps;
            !(has_neg && has_pos)
        }
    }

    fn unit() -> Triangle {
        Triangle::new(
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.0, 1.0),
        )
    }

    #[test]
    fn area_and_centroid() {
        let t = unit();
        assert_eq!(t.signed_area(), 0.5);
        assert_eq!(t.area(), 0.5);
        let c = t.centroid();
        assert!((c.x - 1.0 / 3.0).abs() < 1e-15);
        assert!((c.y - 1.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn clockwise_triangle_negative_area_still_contains() {
        let t = Triangle::new(
            Point2::new(0.0, 0.0),
            Point2::new(0.0, 1.0),
            Point2::new(1.0, 0.0),
        );
        assert_eq!(t.signed_area(), -0.5);
        assert!(t.contains(Point2::new(0.25, 0.25), 0.0));
        assert_eq!(t.to_polygon().signed_area(), 0.5);
    }

    #[test]
    fn containment_interior_edge_vertex_exterior() {
        let t = unit();
        assert!(t.contains(Point2::new(0.2, 0.2), 0.0));
        assert!(t.contains(Point2::new(0.5, 0.5), 1e-12)); // hypotenuse
        assert!(t.contains(Point2::new(0.0, 0.0), 1e-12)); // vertex
        assert!(!t.contains(Point2::new(0.6, 0.6), 1e-12));
        assert!(!t.contains(Point2::new(-0.1, 0.5), 1e-12));
    }

    #[test]
    fn reference_map_round_trip() {
        let t = Triangle::new(
            Point2::new(1.0, 2.0),
            Point2::new(4.0, 2.5),
            Point2::new(2.0, 5.0),
        );
        for &(u, v) in &[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.25, 0.5), (0.3, 0.3)] {
            let p = t.map_from_unit(u, v);
            let (uu, vv) = t.map_to_unit(p).unwrap();
            assert!((uu - u).abs() < 1e-13 && (vv - v).abs() < 1e-13);
        }
    }

    #[test]
    fn degenerate_triangle_has_no_inverse_map() {
        let t = Triangle::new(
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(2.0, 2.0),
        );
        assert_eq!(t.area(), 0.0);
        assert!(t.map_to_unit(Point2::new(0.5, 0.5)).is_none());
    }

    #[test]
    fn jacobian_is_twice_signed_area() {
        let t = unit();
        assert_eq!(t.jacobian(), 2.0 * t.signed_area());
    }

    #[test]
    fn longest_edge() {
        let t = unit();
        assert!((t.longest_edge() - 2f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn translation_preserves_area() {
        let t = unit().translate(Vec2::new(3.0, -7.0));
        assert_eq!(t.area(), 0.5);
        assert_eq!(t.a, Point2::new(3.0, -7.0));
    }
}
