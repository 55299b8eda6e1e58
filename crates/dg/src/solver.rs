//! A linear-advection discontinuous Galerkin solver.
//!
//! Solves `u_t + c . grad(u) = 0` on the periodic unit square with upwind
//! numerical flux and SSP-RK3 time stepping. Its purpose in this library is
//! to manufacture *genuine* dG simulation fields — discontinuous across
//! element interfaces — for the SIAC post-processor to filter, as in the
//! paper's motivating application.
//!
//! Periodic coupling requires the mesh boundary traces on opposite sides of
//! the square to match (the structured-pattern generator guarantees this);
//! construction fails with a descriptive panic otherwise.

use crate::basis::DubinerBasis;
use crate::field::DgField;
use std::sync::Arc;
use ustencil_geometry::{Point2, Vec2};
use ustencil_mesh::TriMesh;
use ustencil_quadrature::GaussLegendre;

/// Configuration of the advection solve.
#[derive(Debug, Clone, Copy)]
pub struct AdvectionConfig {
    /// Constant advection velocity.
    pub velocity: (f64, f64),
    /// CFL number scaling the stable time step (0.1–0.3 is robust for RK3).
    pub cfl: f64,
}

impl Default for AdvectionConfig {
    fn default() -> Self {
        Self {
            velocity: (1.0, 0.5),
            cfl: 0.15,
        }
    }
}

/// Neighbor across one element edge.
#[derive(Debug, Clone, Copy)]
struct FaceNeighbor {
    /// Neighboring element.
    elem: u32,
    /// Periodic shift that maps our coordinates into the neighbor's frame.
    shift: Vec2,
}

/// Per-element constants reused every right-hand-side evaluation.
#[derive(Debug, Clone, Copy)]
struct ElemGeom {
    /// |det J|.
    jac: f64,
    /// `J^{-1} c` — the advection velocity pulled back to reference
    /// coordinates.
    cref: (f64, f64),
}

/// The assembled solver.
pub struct AdvectionSolver {
    mesh: TriMesh,
    basis: Arc<DubinerBasis>,
    config: AdvectionConfig,
    neighbors: Vec<[FaceNeighbor; 3]>,
    geom: Vec<ElemGeom>,
    /// Volume quadrature weights, with basis values and reference gradients
    /// tabulated at the matching points.
    vol_wts: Vec<f64>,
    vol_phi: Vec<f64>,
    vol_dphi: Vec<(f64, f64)>,
    /// Edge quadrature on [0, 1].
    edge_nodes: Vec<f64>,
    edge_wts: Vec<f64>,
    /// Basis values at each (edge, edge-node) reference location.
    edge_phi: Vec<f64>,
}

/// Reference coordinates of parameter `t` along local edge `k`
/// (counter-clockwise; edge 0 joins vertices 0-1, etc.).
#[inline]
fn edge_ref_coords(k: usize, t: f64) -> (f64, f64) {
    match k {
        0 => (t, 0.0),
        1 => (1.0 - t, t),
        _ => (0.0, 1.0 - t),
    }
}

impl AdvectionSolver {
    /// Assembles a solver of degree `p` over `mesh`.
    ///
    /// # Panics
    /// Panics when the mesh boundary cannot be matched periodically.
    pub fn new(mesh: TriMesh, p: usize, config: AdvectionConfig) -> Self {
        let basis = Arc::new(DubinerBasis::new(p));
        let n_modes = basis.n_modes();

        let neighbors = build_periodic_adjacency(&mesh);

        let c = Vec2::new(config.velocity.0, config.velocity.1);
        let geom: Vec<ElemGeom> = mesh
            .triangles()
            .map(|t| {
                let e1 = t.b - t.a;
                let e2 = t.c - t.a;
                let det = e1.cross(e2);
                // J^{-1} = 1/det [[e2y, -e2x], [-e1y, e1x]].
                let cref = (
                    (e2.y * c.x - e2.x * c.y) / det,
                    (-e1.y * c.x + e1.x * c.y) / det,
                );
                ElemGeom {
                    jac: det.abs(),
                    cref,
                }
            })
            .collect();

        // Volume quadrature of strength 2p (u is degree p, grad(phi) degree
        // p-1, but keep a margin of one).
        let rule = ustencil_quadrature::TriangleRule::with_strength(2 * p + 1);
        let vol_pts: &[(f64, f64)] = rule.points();
        let vol_wts = rule.weights().to_vec();
        let mut vol_phi = vec![0.0; vol_pts.len() * n_modes];
        let mut vol_dphi = vec![(0.0, 0.0); vol_pts.len() * n_modes];
        for (q, &(u, v)) in vol_pts.iter().enumerate() {
            basis.eval_all(u, v, &mut vol_phi[q * n_modes..(q + 1) * n_modes]);
            for m in 0..n_modes {
                vol_dphi[q * n_modes + m] = basis.grad_mode(m, u, v);
            }
        }

        // Edge quadrature of strength 2p + 1 on [0, 1].
        let gl = GaussLegendre::with_strength(2 * p + 1);
        let edge_nodes: Vec<f64> = gl.nodes().iter().map(|&x| 0.5 * (1.0 + x)).collect();
        let edge_wts: Vec<f64> = gl.weights().iter().map(|&w| 0.5 * w).collect();
        let mut edge_phi = vec![0.0; 3 * edge_nodes.len() * n_modes];
        for k in 0..3 {
            for (q, &t) in edge_nodes.iter().enumerate() {
                let (u, v) = edge_ref_coords(k, t);
                let off = (k * edge_nodes.len() + q) * n_modes;
                basis.eval_all(u, v, &mut edge_phi[off..off + n_modes]);
            }
        }

        Self {
            mesh,
            basis,
            config,
            neighbors,
            geom,
            vol_wts,
            vol_phi,
            vol_dphi,
            edge_nodes,
            edge_wts,
            edge_phi,
        }
    }

    /// Stable time step from the CFL condition (inradius-based element
    /// scale).
    pub fn stable_dt(&self) -> f64 {
        let c = Vec2::new(self.config.velocity.0, self.config.velocity.1);
        let speed = c.norm().max(1e-12);
        let p = self.basis.degree() as f64;
        let h_min = self
            .mesh
            .triangles()
            .map(|t| 2.0 * t.area() / t.longest_edge())
            .fold(f64::INFINITY, f64::min);
        self.config.cfl * h_min / (speed * (2.0 * p + 1.0))
    }

    /// Evaluates the semi-discrete right-hand side `du/dt` for the current
    /// coefficients into `out`.
    fn rhs(&self, field: &DgField, out: &mut [f64]) {
        let n_modes = self.basis.n_modes();
        let nq_edge = self.edge_nodes.len();
        out.fill(0.0);

        for e in 0..self.mesh.n_triangles() {
            let geom = self.geom[e];
            let coeffs = field.element_coeffs(e);
            let out_e = &mut out[e * n_modes..(e + 1) * n_modes];

            // Volume term: |J| * sum_q w_q u(q) (c_ref . grad_ref phi_m).
            for (q, &w) in self.vol_wts.iter().enumerate() {
                let row = &self.vol_phi[q * n_modes..(q + 1) * n_modes];
                let u_val: f64 = coeffs.iter().zip(row).map(|(c, p)| c * p).sum();
                let scale = w * u_val;
                for (m, o) in out_e.iter_mut().enumerate() {
                    let (du, dv) = self.vol_dphi[q * n_modes + m];
                    *o += scale * (geom.cref.0 * du + geom.cref.1 * dv);
                }
            }
            // The |J| of the volume integral cancels against the inverse
            // mass matrix M^{-1} = I / |J|, so the volume contribution above
            // is already in du/dt form. Face terms carry physical measure
            // and need the explicit division; accumulate them separately.
            let mut face_acc = [0.0f64; 16];
            debug_assert!(n_modes <= face_acc.len());

            let tri = self.mesh.triangle(e);
            let verts = tri.vertices();
            let c = Vec2::new(self.config.velocity.0, self.config.velocity.1);
            for k in 0..3 {
                let a = verts[k];
                let b = verts[(k + 1) % 3];
                let edge = b - a;
                let len = edge.norm();
                // Outward normal of a CCW triangle.
                let n = Vec2::new(edge.y, -edge.x) / len;
                let cn = c.dot(n);
                let nb = self.neighbors[e][k];
                let nb_coeffs = field.element_coeffs(nb.elem as usize);
                let nb_tri = self.mesh.triangle(nb.elem as usize);
                for (q, (&t, &w)) in self.edge_nodes.iter().zip(&self.edge_wts).enumerate() {
                    let x = a.lerp(b, t);
                    // Interior trace.
                    let row = &self.edge_phi
                        [(k * nq_edge + q) * n_modes..(k * nq_edge + q + 1) * n_modes];
                    let u_minus: f64 = coeffs.iter().zip(row).map(|(c, p)| c * p).sum();
                    let flux = if cn >= 0.0 {
                        cn * u_minus
                    } else {
                        // Exterior trace through the periodic shift.
                        let xn = x + nb.shift;
                        let (un, vn) = nb_tri
                            .map_to_unit(xn)
                            .expect("neighbor element is non-degenerate");
                        let u_plus = self.basis.eval_expansion(nb_coeffs, un, vn);
                        cn * u_plus
                    };
                    let scale = w * len * flux;
                    for m in 0..n_modes {
                        face_acc[m] += scale * row[m];
                    }
                }
            }

            let inv_jac = 1.0 / geom.jac;
            for (o, f) in out_e.iter_mut().zip(&face_acc) {
                *o -= f * inv_jac;
            }
        }
    }

    /// Advances `field` by one SSP-RK3 step of size `dt`.
    pub fn step(&self, field: &mut DgField, dt: f64) {
        let n = field.coefficients().len();
        let mut k1 = vec![0.0; n];
        let mut tmp = field.clone();

        // Stage 1.
        self.rhs(field, &mut k1);
        for (t, (u, r)) in tmp
            .coefficients_mut()
            .iter_mut()
            .zip(field.coefficients().iter().zip(&k1))
        {
            *t = u + dt * r;
        }
        // Stage 2.
        let mut k2 = vec![0.0; n];
        self.rhs(&tmp, &mut k2);
        for (t, (u, (r1, r2))) in tmp
            .coefficients_mut()
            .iter_mut()
            .zip(field.coefficients().iter().zip(k1.iter().zip(&k2)))
        {
            *t = 0.75 * u + 0.25 * (u + dt * r1 + dt * r2);
        }
        // Stage 3.
        let mut k3 = vec![0.0; n];
        self.rhs(&tmp, &mut k3);
        let two_thirds = 2.0 / 3.0;
        for (u, (t, r3)) in field
            .coefficients_mut()
            .iter_mut()
            .zip(tmp.coefficients().iter().zip(&k3))
        {
            *u = *u / 3.0 + two_thirds * (t + dt * r3);
        }
    }

    /// Advances `field` to time `t_end` (taking uniform stable steps) and
    /// returns the number of steps taken.
    pub fn advance(&self, field: &mut DgField, t_end: f64) -> usize {
        assert!(t_end >= 0.0);
        let dt0 = self.stable_dt();
        let n_steps = (t_end / dt0).ceil().max(1.0) as usize;
        let dt = t_end / n_steps as f64;
        for _ in 0..n_steps {
            self.step(field, dt);
        }
        n_steps
    }
}

/// Builds per-element, per-edge adjacency with periodic wrapping over the
/// unit square.
fn build_periodic_adjacency(mesh: &TriMesh) -> Vec<[FaceNeighbor; 3]> {
    use std::collections::HashMap;

    let quantize =
        |p: Point2| -> (i64, i64) { ((p.x * 1e9).round() as i64, (p.y * 1e9).round() as i64) };

    // Midpoint -> (element, local edge). Interior edges appear twice.
    let mut edge_map: HashMap<(i64, i64), Vec<(u32, u8)>> = HashMap::new();
    for (e, tri) in mesh.triangles().enumerate() {
        let verts = tri.vertices();
        for k in 0..3 {
            let mid = verts[k].lerp(verts[(k + 1) % 3], 0.5);
            edge_map
                .entry(quantize(mid))
                .or_default()
                .push((e as u32, k as u8));
        }
    }

    let dummy = FaceNeighbor {
        elem: u32::MAX,
        shift: Vec2::ZERO,
    };
    let mut neighbors = vec![[dummy; 3]; mesh.n_triangles()];

    for (e, tri) in mesh.triangles().enumerate() {
        let verts = tri.vertices();
        for k in 0..3 {
            let mid = verts[k].lerp(verts[(k + 1) % 3], 0.5);
            let entry = &edge_map[&quantize(mid)];
            if let Some(&(ne, _nk)) = entry.iter().find(|&&(ne, _)| ne != e as u32) {
                neighbors[e][k] = FaceNeighbor {
                    elem: ne,
                    shift: Vec2::ZERO,
                };
                continue;
            }
            // Boundary edge: search the periodic images.
            let mut found = false;
            for shift in [
                Vec2::new(1.0, 0.0),
                Vec2::new(-1.0, 0.0),
                Vec2::new(0.0, 1.0),
                Vec2::new(0.0, -1.0),
            ] {
                let img = quantize(mid + shift);
                if let Some(list) = edge_map.get(&img) {
                    if let Some(&(ne, _)) = list.first() {
                        neighbors[e][k] = FaceNeighbor { elem: ne, shift };
                        found = true;
                        break;
                    }
                }
            }
            assert!(
                found,
                "boundary edge of element {e} (midpoint {mid:?}) has no periodic partner; \
                 periodic advection requires matching boundary traces \
                 (use MeshClass::StructuredPattern)"
            );
        }
    }
    neighbors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::l2_error;
    use crate::project::project_l2;
    use ustencil_mesh::{generate_mesh, MeshClass};

    impl AdvectionSolver {
        /// Mesh-wide integral of the field (the conserved quantity of
        /// periodic advection).
        fn total_mass(&self, field: &DgField) -> f64 {
            // Integral over an element = |J| * c_0 * \int_ref phi_0 =
            // |J| c_0 * (1/2) * sqrt(2).
            let phi0_int = 0.5 * 2f64.sqrt();
            (0..self.mesh.n_triangles())
                .map(|e| self.geom[e].jac * field.element_coeffs(e)[0] * phi0_int)
                .sum()
        }
    }

    const TAU: f64 = std::f64::consts::TAU;

    #[test]
    fn constant_field_is_steady() {
        let mesh = generate_mesh(MeshClass::StructuredPattern, 2 * 8 * 8, 0);
        let solver = AdvectionSolver::new(mesh.clone(), 1, AdvectionConfig::default());
        let mut field = project_l2(&mesh, 1, |_, _| 3.0, 0);
        let before = field.coefficients().to_vec();
        solver.advance(&mut field, 0.05);
        for (a, b) in before.iter().zip(field.coefficients()) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn mass_is_conserved() {
        let mesh = generate_mesh(MeshClass::StructuredPattern, 2 * 8 * 8, 0);
        let solver = AdvectionSolver::new(mesh.clone(), 2, AdvectionConfig::default());
        let mut field = project_l2(&mesh, 2, |x, y| (TAU * x).sin() * (TAU * y).cos() + 0.5, 4);
        let m0 = solver.total_mass(&field);
        solver.advance(&mut field, 0.1);
        let m1 = solver.total_mass(&field);
        assert!((m0 - m1).abs() < 1e-10, "mass drifted {m0} -> {m1}");
    }

    #[test]
    fn advected_sine_matches_translated_exact_solution() {
        let mesh = generate_mesh(MeshClass::StructuredPattern, 2 * 12 * 12, 0);
        let cfg = AdvectionConfig {
            velocity: (1.0, 0.0),
            cfl: 0.15,
        };
        let solver = AdvectionSolver::new(mesh.clone(), 2, cfg);
        let f0 = |x: f64, y: f64| (TAU * x).sin() * (TAU * y).cos();
        let mut field = project_l2(&mesh, 2, f0, 4);
        let t = 0.25;
        solver.advance(&mut field, t);
        let exact = move |x: f64, y: f64| f0(x - t, y);
        let err = l2_error(&mesh, &field, exact, 4);
        assert!(err < 5e-3, "L2 error after advection: {err}");
    }

    #[test]
    fn error_decreases_under_refinement() {
        let cfg = AdvectionConfig {
            velocity: (1.0, 0.5),
            cfl: 0.15,
        };
        let f0 = |x: f64, y: f64| (TAU * x).sin() * (TAU * y).sin();
        let t = 0.1;
        let exact = move |x: f64, y: f64| f0(x - t, y - 0.5 * t);
        let mut errs = Vec::new();
        for n in [6usize, 12] {
            let mesh = generate_mesh(MeshClass::StructuredPattern, 2 * n * n, 0);
            let solver = AdvectionSolver::new(mesh.clone(), 1, cfg);
            let mut field = project_l2(&mesh, 1, f0, 4);
            solver.advance(&mut field, t);
            errs.push(l2_error(&mesh, &field, exact, 4));
        }
        assert!(errs[1] < errs[0] / 2.5, "no convergence: {:?}", errs);
    }

    #[test]
    #[should_panic(expected = "periodic partner")]
    fn unmatched_boundary_panics() {
        // Low-variance meshes have unmatched boundary traces.
        let mesh = generate_mesh(MeshClass::LowVariance, 100, 3);
        let _ = AdvectionSolver::new(mesh, 1, AdvectionConfig::default());
    }
}
