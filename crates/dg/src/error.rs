//! Quadrature-based error norms for dG fields.

use crate::field::DgField;
use ustencil_mesh::TriMesh;
use ustencil_quadrature::TriangleRule;

/// L2 norm of `field - f` over the mesh.
///
/// `extra_strength` raises the quadrature strength beyond `2p` for
/// non-polynomial references.
pub fn l2_error<F: Fn(f64, f64) -> f64>(
    mesh: &TriMesh,
    field: &DgField,
    f: F,
    extra_strength: usize,
) -> f64 {
    let rule = TriangleRule::with_strength(2 * field.degree() + extra_strength);
    let mut acc = 0.0;
    for e in 0..mesh.n_triangles() {
        let tri = mesh.triangle(e);
        let jac = tri.jacobian().abs();
        for (&(u, v), &w) in rule.points().iter().zip(rule.weights()) {
            let p = tri.map_from_unit(u, v);
            let d = field.eval_ref(e, u, v) - f(p.x, p.y);
            acc += w * jac * d * d;
        }
    }
    acc.sqrt()
}

#[cfg(test)]
/// Maximum absolute error of `field - f` sampled at the quadrature points of
/// every element.
pub(crate) fn linf_error<F: Fn(f64, f64) -> f64>(
    mesh: &TriMesh,
    field: &DgField,
    f: F,
    extra_strength: usize,
) -> f64 {
    let rule = TriangleRule::with_strength(2 * field.degree() + extra_strength);
    let mut max: f64 = 0.0;
    for e in 0..mesh.n_triangles() {
        let tri = mesh.triangle(e);
        for &(u, v) in rule.points() {
            let p = tri.map_from_unit(u, v);
            let d = (field.eval_ref(e, u, v) - f(p.x, p.y)).abs();
            max = max.max(d);
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::project::project_l2;
    use ustencil_mesh::{generate_mesh, MeshClass};

    #[test]
    fn zero_field_error_is_function_norm() {
        let mesh = generate_mesh(MeshClass::StructuredPattern, 32, 0);
        let field = DgField::zeros(1, mesh.n_triangles());
        // ||1||_L2 over unit square = 1.
        let err = l2_error(&mesh, &field, |_, _| 1.0, 0);
        assert!((err - 1.0).abs() < 1e-12);
        assert!((linf_error(&mesh, &field, |_, _| 1.0, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exact_projection_has_tiny_error() {
        let mesh = generate_mesh(MeshClass::LowVariance, 64, 4);
        let f = |x: f64, y: f64| 2.0 * x - 3.0 * y + 1.0;
        let field = project_l2(&mesh, 1, f, 0);
        assert!(l2_error(&mesh, &field, f, 2) < 1e-12);
    }

    #[test]
    fn l2_norm_of_constant_field() {
        let mesh = generate_mesh(MeshClass::StructuredPattern, 32, 0);
        let field = project_l2(&mesh, 1, |_, _| 2.0, 0);
        assert!((l2_error(&mesh, &field, |_, _| 0.0, 0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn linf_dominates_l2_on_unit_domain() {
        let mesh = generate_mesh(MeshClass::StructuredPattern, 128, 0);
        let f = |x: f64, y: f64| (x * y).sin();
        let field = project_l2(&mesh, 1, f, 4);
        let l2 = l2_error(&mesh, &field, f, 4);
        let li = linf_error(&mesh, &field, f, 4);
        assert!(li >= l2 / 2.0, "linf {li} vs l2 {l2}");
    }
}
