//! Axis-aligned bounding boxes.

use crate::point::{Point2, Vec2};

/// An axis-aligned bounding box, stored as min/max corners.
///
/// An `Aabb` may be *empty* (min > max in some dimension); empty boxes behave
/// as the identity under [`Aabb::union`] and intersect nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Lower-left corner.
    pub min: Point2,
    /// Upper-right corner.
    pub max: Point2,
}

impl Aabb {
    /// The empty box: identity for [`union`](Self::union).
    pub const EMPTY: Aabb = Aabb {
        min: Point2::new(f64::INFINITY, f64::INFINITY),
        max: Point2::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
    };

    /// Box from explicit corners. `min` must be component-wise `<= max`
    /// for a non-empty box; no normalization is performed.
    #[inline]
    pub const fn new(min: Point2, max: Point2) -> Self {
        Self { min, max }
    }

    /// Smallest box containing all points of the iterator.
    pub fn from_points<I: IntoIterator<Item = Point2>>(points: I) -> Self {
        points
            .into_iter()
            .fold(Self::EMPTY, |b, p| b.union_point(p))
    }

    /// Width in `x`.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height in `y`.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Center point. Meaningless for empty boxes.
    #[inline]
    pub fn center(&self) -> Point2 {
        Point2::new(
            0.5 * (self.min.x + self.max.x),
            0.5 * (self.min.y + self.max.y),
        )
    }

    /// True when the two boxes share at least one point (closed test).
    #[inline]
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// Smallest box containing both inputs.
    #[inline]
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb::new(self.min.min(other.min), self.max.max(other.max))
    }

    /// Smallest box containing this box and the point.
    #[inline]
    pub fn union_point(&self, p: Point2) -> Aabb {
        Aabb::new(self.min.min(p), self.max.max(p))
    }

    /// The box grown by `margin` on every side.
    #[inline]
    pub fn inflate(&self, margin: f64) -> Aabb {
        let d = Vec2::new(margin, margin);
        Aabb::new(self.min - d, self.max + d)
    }

    /// The box translated by `offset`.
    #[inline]
    pub fn translate(&self, offset: Vec2) -> Aabb {
        Aabb::new(self.min + offset, self.max + offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Aabb {
        /// True when the box contains no points.
        fn is_empty(&self) -> bool {
            self.min.x > self.max.x || self.min.y > self.max.y
        }

        /// Closed containment test.
        fn contains(&self, p: Point2) -> bool {
            p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
        }

        /// Area of the box; zero for empty boxes.
        fn area(&self) -> f64 {
            if self.is_empty() {
                0.0
            } else {
                self.width() * self.height()
            }
        }
    }

    fn unit() -> Aabb {
        Aabb::new(Point2::new(0.0, 0.0), Point2::new(1.0, 1.0))
    }

    #[test]
    fn empty_box_properties() {
        assert!(Aabb::EMPTY.is_empty());
        assert_eq!(Aabb::EMPTY.area(), 0.0);
        let u = unit();
        assert_eq!(Aabb::EMPTY.union(&u), u);
        assert!(!Aabb::EMPTY.intersects(&u));
    }

    #[test]
    fn from_points_bounds_all() {
        let pts = [
            Point2::new(0.5, -1.0),
            Point2::new(-2.0, 3.0),
            Point2::new(1.0, 0.0),
        ];
        let b = Aabb::from_points(pts);
        assert_eq!(b.min, Point2::new(-2.0, -1.0));
        assert_eq!(b.max, Point2::new(1.0, 3.0));
        for p in pts {
            assert!(b.contains(p));
        }
    }

    #[test]
    fn intersection_is_symmetric_and_touching_counts() {
        let a = unit();
        let b = Aabb::new(Point2::new(1.0, 0.0), Point2::new(2.0, 1.0));
        assert!(a.intersects(&b)); // shares the edge x = 1
        assert!(b.intersects(&a));
        let c = Aabb::new(Point2::new(1.5, 0.0), Point2::new(2.0, 1.0));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn inflate_and_translate() {
        let b = unit().inflate(0.5);
        assert_eq!(b.min, Point2::new(-0.5, -0.5));
        assert_eq!(b.max, Point2::new(1.5, 1.5));
        let t = unit().translate(Vec2::new(2.0, -1.0));
        assert_eq!(t.min, Point2::new(2.0, -1.0));
        assert_eq!(t.center(), Point2::new(2.5, -0.5));
    }

    #[test]
    fn area_width_height() {
        let b = Aabb::new(Point2::new(0.0, 0.0), Point2::new(2.0, 3.0));
        assert_eq!(b.width(), 2.0);
        assert_eq!(b.height(), 3.0);
        assert_eq!(b.area(), 6.0);
    }
}
