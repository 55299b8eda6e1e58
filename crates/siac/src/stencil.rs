//! The 2D tensor-product stencil geometry.
//!
//! In two dimensions the convolution kernel is the tensor product of 1D
//! kernels (Eq. 1), and its support is the `(3k+1) x (3k+1)` "array of
//! squares" of Figure 5, scaled by the characteristic length `h` and centered
//! on the evaluation point. Each lattice square carries a bi-degree-`k`
//! polynomial restriction of the kernel, so integrating over sub-regions of a
//! single square is exact with modest quadrature strength.

use crate::kernel::Kernel1d;
use std::sync::Arc;
use ustencil_geometry::{Point2, Rect};

/// A scaled, tensor-product SIAC stencil.
#[derive(Debug, Clone)]
pub struct Stencil2d {
    kernel: Arc<Kernel1d>,
    h: f64,
}

impl Stencil2d {
    /// Builds the symmetric stencil for smoothness `k` at mesh scale `h`
    /// (`h` is the longest mesh edge `s` in the paper's setup, so the
    /// stencil width is `w = (3k+1) s`).
    ///
    /// # Panics
    /// Panics for non-positive `h`.
    pub fn symmetric(k: usize, h: f64) -> Self {
        assert!(h > 0.0, "stencil scale must be positive");
        Self {
            kernel: Arc::new(Kernel1d::symmetric(k)),
            h,
        }
    }

    /// The underlying 1D kernel.
    #[inline]
    pub fn kernel(&self) -> &Arc<Kernel1d> {
        &self.kernel
    }

    /// The scale `h`.
    #[inline]
    pub fn h(&self) -> f64 {
        self.h
    }

    /// Lattice cells per side, `3k + 1`.
    #[inline]
    pub fn cells_per_side(&self) -> usize {
        self.kernel.n_cells()
    }

    /// Total stencil width `(3k + 1) h`.
    #[inline]
    pub fn width(&self) -> f64 {
        self.cells_per_side() as f64 * self.h
    }

    /// The full support rectangle for a stencil centered at `center`.
    pub fn support_rect(&self, center: Point2) -> Rect {
        let (lo, hi) = self.kernel.support();
        Rect::new(
            center.x + lo * self.h,
            center.y + lo * self.h,
            center.x + hi * self.h,
            center.y + hi * self.h,
        )
    }

    /// The lattice square at cell index `(i, j)` for a stencil centered at
    /// `center`; indices run over `0..cells_per_side()`.
    #[inline]
    pub fn cell_rect(&self, center: Point2, i: usize, j: usize) -> Rect {
        let (lo, _) = self.kernel.support();
        let x0 = center.x + (lo + i as f64) * self.h;
        let y0 = center.y + (lo + j as f64) * self.h;
        Rect::new(x0, y0, x0 + self.h, y0 + self.h)
    }

    /// The scaled 2D kernel value `K((p - center)/h) / h^2` at point `p`.
    #[inline]
    pub fn eval(&self, center: Point2, p: Point2) -> f64 {
        let inv_h = 1.0 / self.h;
        self.kernel.eval((p.x - center.x) * inv_h)
            * self.kernel.eval((p.y - center.y) * inv_h)
            * inv_h
            * inv_h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Stencil2d {
        /// Iterator over all lattice squares of the stencil at `center`.
        fn cells(&self, center: Point2) -> impl Iterator<Item = Rect> + '_ {
            let n = self.cells_per_side();
            (0..n).flat_map(move |j| (0..n).map(move |i| self.cell_rect(center, i, j)))
        }
    }

    #[test]
    fn width_matches_paper_formula() {
        for k in 0..=3usize {
            let st = Stencil2d::symmetric(k, 0.1);
            assert!((st.width() - (3 * k + 1) as f64 * 0.1).abs() < 1e-15);
            assert_eq!(st.cells_per_side(), 3 * k + 1);
        }
    }

    #[test]
    fn cells_tile_the_support() {
        let st = Stencil2d::symmetric(2, 0.25);
        let center = Point2::new(0.4, 0.6);
        let sup = st.support_rect(center);
        let total: f64 = st
            .cells(center)
            .map(|r| (r.x1 - r.x0) * (r.y1 - r.y0))
            .sum();
        assert!((total - (sup.x1 - sup.x0) * (sup.y1 - sup.y0)).abs() < 1e-12);
        let n = st.cells_per_side();
        assert_eq!(st.cells(center).count(), n * n);
        // First and last cell corners hit the support corners.
        let first = st.cell_rect(center, 0, 0);
        let last = st.cell_rect(center, n - 1, n - 1);
        assert!((first.x0 - sup.x0).abs() < 1e-12);
        assert!((last.x1 - sup.x1).abs() < 1e-9);
    }

    #[test]
    fn eval_is_separable_product() {
        let st = Stencil2d::symmetric(1, 0.5);
        let c = Point2::new(0.0, 0.0);
        let k = st.kernel();
        let p = Point2::new(0.3, -0.2);
        let want = k.eval(0.6) * k.eval(-0.4) / 0.25;
        assert!((st.eval(c, p) - want).abs() < 1e-12);
    }

    #[test]
    fn eval_vanishes_outside_support() {
        let st = Stencil2d::symmetric(1, 0.1);
        let c = Point2::new(0.5, 0.5);
        assert_eq!(st.eval(c, Point2::new(0.5 + 0.21, 0.5)), 0.0);
        assert_eq!(st.eval(c, Point2::new(0.5, 0.5 - 0.21)), 0.0);
    }

    #[test]
    fn unit_mass_in_2d() {
        // Riemann-sum check that ∫∫ K_h dx dy = 1.
        let st = Stencil2d::symmetric(1, 0.2);
        let c = Point2::new(0.0, 0.0);
        let n = 400;
        let (lo, hi) = st.kernel().support();
        let a = lo * st.h();
        let w = (hi - lo) * st.h();
        let dx = w / n as f64;
        let mut acc = 0.0;
        for i in 0..n {
            for j in 0..n {
                let p = Point2::new(a + (i as f64 + 0.5) * dx, a + (j as f64 + 0.5) * dx);
                acc += st.eval(c, p) * dx * dx;
            }
        }
        assert!((acc - 1.0).abs() < 1e-3, "mass {acc}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_panics() {
        let _ = Stencil2d::symmetric(1, 0.0);
    }
}
