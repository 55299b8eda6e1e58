//! The periodic unit-square domain.
//!
//! The paper's experiments use periodic boundary conditions over `[0, 1]^2`:
//! a stencil overhanging the domain boundary wraps around (Section 2.2).
//! Wrapping is implemented by testing the nine periodic translates of an
//! element against the (untranslated) stencil, keeping all stencil geometry
//! in one coordinate frame.

use ustencil_geometry::Vec2;

/// The nine lattice translations of the periodic unit square, the identity
/// first.
pub const PERIODIC_SHIFTS: [Vec2; 9] = [
    Vec2::new(0.0, 0.0),
    Vec2::new(1.0, 0.0),
    Vec2::new(-1.0, 0.0),
    Vec2::new(0.0, 1.0),
    Vec2::new(0.0, -1.0),
    Vec2::new(1.0, 1.0),
    Vec2::new(1.0, -1.0),
    Vec2::new(-1.0, 1.0),
    Vec2::new(-1.0, -1.0),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Wraps a coordinate into `[0, 1)`.
    fn wrap_unit(x: f64) -> f64 {
        let r = x - x.floor();
        // `x.floor()` of very small negatives can produce r == 1.0.
        if r >= 1.0 {
            r - 1.0
        } else {
            r
        }
    }

    /// Signed minimal-image difference `a - b` on the periodic unit interval,
    /// in `[-1/2, 1/2)`.
    fn minimal_image_delta(a: f64, b: f64) -> f64 {
        let d = a - b;
        d - (d + 0.5).floor()
    }

    #[test]
    fn wrap_unit_basic() {
        assert_eq!(wrap_unit(0.25), 0.25);
        assert_eq!(wrap_unit(1.25), 0.25);
        assert!((wrap_unit(-0.25) - 0.75).abs() < 1e-15);
        assert_eq!(wrap_unit(0.0), 0.0);
        assert_eq!(wrap_unit(1.0), 0.0);
        assert!(wrap_unit(-1e-18) < 1.0);
    }

    #[test]
    fn minimal_image_examples() {
        assert!((minimal_image_delta(0.1, 0.9) - 0.2).abs() < 1e-15); // wraps
        assert!((minimal_image_delta(0.9, 0.1) + 0.2).abs() < 1e-15);
        assert!((minimal_image_delta(0.3, 0.1) - 0.2).abs() < 1e-15);
    }

    #[test]
    fn minimal_image_in_half_open_interval() {
        for i in 0..100 {
            let a = i as f64 / 100.0;
            for j in 0..100 {
                let b = j as f64 / 100.0;
                let d = minimal_image_delta(a, b);
                assert!((-0.5..0.5).contains(&d), "a={a} b={b} d={d}");
            }
        }
    }

    #[test]
    fn shifts_cover_neighborhood() {
        assert_eq!(PERIODIC_SHIFTS.len(), 9);
        assert_eq!(PERIODIC_SHIFTS[0], Vec2::ZERO);
        // All distinct.
        for (i, a) in PERIODIC_SHIFTS.iter().enumerate() {
            for b in PERIODIC_SHIFTS.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }
}
