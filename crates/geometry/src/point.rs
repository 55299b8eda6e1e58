//! Points and vectors in the plane.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A point in the plane, double precision.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

/// A displacement vector in the plane, double precision.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// Horizontal component.
    pub x: f64,
    /// Vertical component.
    pub y: f64,
}

impl Point2 {
    /// Constructs a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point2 = Point2::new(0.0, 0.0);

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(self, other: Point2) -> f64 {
        (self - other).norm()
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Point2, t: f64) -> Point2 {
        Point2::new(
            self.x + t * (other.x - self.x),
            self.y + t * (other.y - self.y),
        )
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: Point2) -> Point2 {
        Point2::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Point2) -> Point2 {
        Point2::new(self.x.max(other.x), self.y.max(other.y))
    }
}

impl Vec2 {
    /// Constructs a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The zero vector.
    pub const ZERO: Vec2 = Vec2::new(0.0, 0.0);

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2D cross product (the `z` component of the 3D cross product).
    ///
    /// Positive when `other` lies counter-clockwise of `self`.
    #[inline]
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }
}

impl Add<Vec2> for Point2 {
    type Output = Point2;
    #[inline]
    fn add(self, rhs: Vec2) -> Point2 {
        Point2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign<Vec2> for Point2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub<Vec2> for Point2 {
    type Output = Point2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Point2 {
        Point2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign<Vec2> for Point2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Sub for Point2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Point2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Mul<Vec2> for f64 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: Vec2) -> Vec2 {
        rhs * self
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

/// Signed area of the triangle `(a, b, c)`; positive when counter-clockwise.
#[inline]
pub fn orient2d(a: Point2, b: Point2, c: Point2) -> f64 {
    (b - a).cross(c - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Point2 {
        /// Squared Euclidean distance to another point.
        fn distance_sq(self, other: Point2) -> f64 {
            (self - other).norm_sq()
        }
    }

    impl Vec2 {
        /// The vector rotated 90 degrees counter-clockwise.
        fn perp(self) -> Vec2 {
            Vec2::new(-self.y, self.x)
        }

        /// Unit vector in the same direction, or `None` for (near-)zero
        /// vectors.
        fn normalized(self) -> Option<Vec2> {
            let n = self.norm();
            if n > 0.0 && n.is_finite() {
                Some(self / n)
            } else {
                None
            }
        }
    }

    #[test]
    fn point_vector_arithmetic_round_trips() {
        let p = Point2::new(1.0, 2.0);
        let v = Vec2::new(3.0, -4.0);
        let q = p + v;
        assert_eq!(q, Point2::new(4.0, -2.0));
        assert_eq!(q - p, v);
        assert_eq!(q - v, p);
    }

    #[test]
    fn dot_and_cross_products() {
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(0.0, 1.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 1.0);
        assert_eq!(b.cross(a), -1.0);
        assert_eq!(a.perp(), b);
    }

    #[test]
    fn norms() {
        let v = Vec2::new(3.0, 4.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.norm_sq(), 25.0);
        let u = v.normalized().unwrap();
        assert!((u.norm() - 1.0).abs() < 1e-15);
        assert!(Vec2::ZERO.normalized().is_none());
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(2.0, 4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point2::new(1.0, 2.0));
    }

    #[test]
    fn orientation_sign_convention() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(1.0, 0.0);
        let c = Point2::new(0.0, 1.0);
        assert!(orient2d(a, b, c) > 0.0); // counter-clockwise
        assert!(orient2d(a, c, b) < 0.0); // clockwise
        assert_eq!(orient2d(a, b, Point2::new(2.0, 0.0)), 0.0); // collinear
    }

    #[test]
    fn distances() {
        let a = Point2::new(1.0, 1.0);
        let b = Point2::new(4.0, 5.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_sq(b), 25.0);
    }

    #[test]
    fn component_min_max() {
        let a = Point2::new(1.0, 5.0);
        let b = Point2::new(3.0, 2.0);
        assert_eq!(a.min(b), Point2::new(1.0, 2.0));
        assert_eq!(a.max(b), Point2::new(3.0, 5.0));
    }
}
