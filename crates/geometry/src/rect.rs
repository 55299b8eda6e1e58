//! Axis-aligned rectangles (stencil lattice squares).

use crate::aabb::Aabb;
use crate::point::Point2;
use crate::polygon::ConvexPolygon;

/// An axis-aligned rectangle given by its corner coordinates.
///
/// Stencil lattice cells (the "array of squares" of Figure 5 in the paper)
/// are represented as `Rect`s; clipping against a `Rect` uses a specialized
/// four-halfplane Sutherland–Hodgman pass that is branch-cheaper than the
/// general polygon clip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Left edge `x` coordinate.
    pub x0: f64,
    /// Bottom edge `y` coordinate.
    pub y0: f64,
    /// Right edge `x` coordinate.
    pub x1: f64,
    /// Top edge `y` coordinate.
    pub y1: f64,
}

impl Rect {
    /// Rectangle from corner coordinates; requires `x0 <= x1`, `y0 <= y1`.
    #[inline]
    pub const fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        Self { x0, y0, x1, y1 }
    }

    /// Conversion to a counter-clockwise convex polygon.
    pub fn to_polygon(&self) -> ConvexPolygon {
        ConvexPolygon::from_vertices(&[
            Point2::new(self.x0, self.y0),
            Point2::new(self.x1, self.y0),
            Point2::new(self.x1, self.y1),
            Point2::new(self.x0, self.y1),
        ])
    }

    /// Closed overlap test against a bounding box.
    #[inline]
    pub fn intersects_aabb(&self, b: &Aabb) -> bool {
        self.x0 <= b.max.x && b.min.x <= self.x1 && self.y0 <= b.max.y && b.min.y <= self.y1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Rect {
        /// Width in `x`.
        fn width(&self) -> f64 {
            self.x1 - self.x0
        }

        /// Height in `y`.
        fn height(&self) -> f64 {
            self.y1 - self.y0
        }

        /// Area.
        fn area(&self) -> f64 {
            self.width() * self.height()
        }

        /// Center point.
        fn center(&self) -> Point2 {
            Point2::new(0.5 * (self.x0 + self.x1), 0.5 * (self.y0 + self.y1))
        }

        /// Closed containment test.
        fn contains(&self, p: Point2) -> bool {
            p.x >= self.x0 && p.x <= self.x1 && p.y >= self.y0 && p.y <= self.y1
        }

        /// The rectangle translated by `(dx, dy)`.
        fn translate(&self, dx: f64, dy: f64) -> Rect {
            Rect::new(self.x0 + dx, self.y0 + dy, self.x1 + dx, self.y1 + dy)
        }
    }

    #[test]
    fn basic_measures() {
        let r = Rect::new(1.0, 2.0, 4.0, 6.0);
        assert_eq!(r.width(), 3.0);
        assert_eq!(r.height(), 4.0);
        assert_eq!(r.area(), 12.0);
        assert_eq!(r.center(), Point2::new(2.5, 4.0));
    }

    #[test]
    fn polygon_conversion_is_ccw_with_same_area() {
        let r = Rect::new(0.0, 0.0, 2.0, 1.0);
        let p = r.to_polygon();
        assert_eq!(p.len(), 4);
        assert_eq!(p.signed_area(), r.area());
    }

    #[test]
    fn containment_and_translation() {
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert!(r.contains(Point2::new(1.0, 1.0)));
        assert!(!r.contains(Point2::new(1.0001, 1.0)));
        let t = r.translate(5.0, -1.0);
        assert!(t.contains(Point2::new(5.5, -0.5)));
    }

    #[test]
    fn aabb_overlap() {
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        let inside = Aabb::new(Point2::new(0.25, 0.25), Point2::new(0.5, 0.5));
        let touching = Aabb::new(Point2::new(1.0, 0.0), Point2::new(2.0, 1.0));
        let outside = Aabb::new(Point2::new(2.0, 2.0), Point2::new(3.0, 3.0));
        assert!(r.intersects_aabb(&inside));
        assert!(r.intersects_aabb(&touching));
        assert!(!r.intersects_aabb(&outside));
    }
}
