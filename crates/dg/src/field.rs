//! Per-element modal coefficient storage.

use crate::basis::DubinerBasis;
use std::sync::Arc;

/// A discontinuous Galerkin field: one modal coefficient vector per element.
///
/// The coefficient layout is flat (`element * n_modes + mode`), matching the
/// "array of polynomial modes" the paper's post-processor consumes. The basis
/// is shared behind an [`Arc`] so fields are cheap to clone and to send
/// across worker threads.
#[derive(Debug, Clone)]
pub struct DgField {
    basis: Arc<DubinerBasis>,
    n_elements: usize,
    coeffs: Vec<f64>,
}

impl DgField {
    /// A zero field with `n_elements` elements of degree `p`.
    pub fn zeros(p: usize, n_elements: usize) -> Self {
        let basis = Arc::new(DubinerBasis::new(p));
        let n = basis.n_modes() * n_elements;
        Self {
            basis,
            n_elements,
            coeffs: vec![0.0; n],
        }
    }

    /// A field wrapping existing coefficients.
    ///
    /// # Panics
    /// Panics when `coeffs.len()` is not `n_elements * (p + 1)(p + 2) / 2`.
    pub fn from_coefficients(p: usize, n_elements: usize, coeffs: Vec<f64>) -> Self {
        let basis = Arc::new(DubinerBasis::new(p));
        assert_eq!(
            coeffs.len(),
            basis.n_modes() * n_elements,
            "coefficient buffer size mismatch"
        );
        Self {
            basis,
            n_elements,
            coeffs,
        }
    }

    /// Polynomial degree of the field.
    #[inline]
    pub fn degree(&self) -> usize {
        self.basis.degree()
    }

    /// Modes per element.
    #[inline]
    pub fn n_modes(&self) -> usize {
        self.basis.n_modes()
    }

    /// Number of elements.
    #[inline]
    pub fn n_elements(&self) -> usize {
        self.n_elements
    }

    /// The shared basis.
    #[inline]
    pub fn basis(&self) -> &Arc<DubinerBasis> {
        &self.basis
    }

    /// Modal coefficients of one element.
    #[inline]
    pub fn element_coeffs(&self, e: usize) -> &[f64] {
        let n = self.n_modes();
        &self.coeffs[e * n..(e + 1) * n]
    }

    /// Mutable modal coefficients of one element.
    #[inline]
    pub fn element_coeffs_mut(&mut self, e: usize) -> &mut [f64] {
        let n = self.n_modes();
        &mut self.coeffs[e * n..(e + 1) * n]
    }

    /// The whole flat coefficient buffer.
    #[inline]
    pub fn coefficients(&self) -> &[f64] {
        &self.coeffs
    }

    /// Mutable flat coefficient buffer.
    #[inline]
    pub fn coefficients_mut(&mut self) -> &mut [f64] {
        &mut self.coeffs
    }

    /// Evaluates the field at reference coordinates `(u, v)` of element `e`.
    #[inline]
    pub fn eval_ref(&self, e: usize, u: f64, v: f64) -> f64 {
        self.basis.eval_expansion(self.element_coeffs(e), u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustencil_geometry::Point2;
    use ustencil_mesh::TriMesh;

    impl DgField {
        /// Evaluates the field at a physical point known to lie in element
        /// `e` of `mesh`. Points outside the element are extrapolated (the
        /// element polynomial is global).
        fn eval_physical(&self, mesh: &TriMesh, e: usize, p: Point2) -> Option<f64> {
            let tri = mesh.triangle(e);
            let (u, v) = tri.map_to_unit(p)?;
            Some(self.eval_ref(e, u, v))
        }
    }

    #[test]
    fn zero_field_evaluates_to_zero() {
        let f = DgField::zeros(2, 5);
        assert_eq!(f.n_elements(), 5);
        assert_eq!(f.n_modes(), 6);
        assert_eq!(f.eval_ref(3, 0.25, 0.25), 0.0);
    }

    #[test]
    fn constant_field_round_trip() {
        // Setting only mode 0 yields a constant field with value
        // c0 * sqrt(2).
        let mut f = DgField::zeros(1, 2);
        f.element_coeffs_mut(1)[0] = 3.0;
        let got = f.eval_ref(1, 0.2, 0.6);
        assert!((got - 3.0 * 2f64.sqrt()).abs() < 1e-13);
        assert_eq!(f.eval_ref(0, 0.2, 0.6), 0.0);
    }

    #[test]
    fn physical_evaluation_uses_reference_map() {
        let mesh = TriMesh::from_raw(
            vec![
                Point2::new(0.0, 0.0),
                Point2::new(2.0, 0.0),
                Point2::new(0.0, 2.0),
            ],
            vec![[0, 1, 2]],
        );
        let mut f = DgField::zeros(0, 1);
        f.element_coeffs_mut(0)[0] = 1.0;
        let v = f.eval_physical(&mesh, 0, Point2::new(0.5, 0.5)).unwrap();
        assert!((v - 2f64.sqrt()).abs() < 1e-13);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_buffer_size_panics() {
        let _ = DgField::from_coefficients(1, 2, vec![0.0; 5]);
    }
}
