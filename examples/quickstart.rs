//! Five-minute tour: generate an unstructured mesh, project a smooth field
//! onto a dG space, SIAC-filter it with the per-element scheme, and verify
//! the filter improved the solution.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ustencil::dg::{l2_error, project_l2};
use ustencil::engine::prelude::*;
use ustencil::mesh::{generate_mesh, MeshClass};

fn main() {
    let tau = std::f64::consts::TAU;
    let f = move |x: f64, y: f64| (tau * x).sin() * (tau * y).cos();

    // 1. An unstructured Delaunay mesh of the periodic unit square with
    //    roughly uniform elements (the paper's low-variance class).
    let mesh = generate_mesh(MeshClass::LowVariance, 4_000, 42);
    println!(
        "mesh: {} triangles, longest edge s = {:.4}",
        mesh.n_triangles(),
        mesh.max_edge_length()
    );

    // 2. A quadratic dG field: the L2 projection of a smooth function.
    let p = 2;
    let field = project_l2(&mesh, p, f, 4);

    // 3. Evaluation points: the quadrature points of every element.
    let grid = ComputationGrid::quadrature_points(&mesh, p);
    println!("computation grid: {} points", grid.len());

    // 4. Post-process with the per-element scheme (Algorithm 3 of the
    //    paper) on 16 overlapped patches.
    let solution = PostProcessor::new(Scheme::PerElement)
        .blocks(16)
        .run(&mesh, &field, &grid);
    println!(
        "post-processed {} points in {:.2?} ({} stencil/element intersection tests)",
        solution.values.len(),
        solution.wall,
        solution.metrics.intersection_tests
    );

    // 5. Compare pointwise errors before and after filtering, away from the
    //    domain boundary (the periodic wrap is exact, but the projected
    //    field is smoothest in the interior).
    let dg_err = l2_error(&mesh, &field, f, 4);
    let mut filtered_err: f64 = 0.0;
    let mut raw_err: f64 = 0.0;
    let mut n = 0usize;
    for (i, pt) in grid.points().iter().enumerate() {
        let exact = f(pt.x, pt.y);
        let e = grid.owners()[i] as usize;
        let tri = mesh.triangle(e);
        let (u, v) = tri.map_to_unit(*pt).unwrap();
        raw_err += (field.eval_ref(e, u, v) - exact).powi(2);
        filtered_err += (solution.values[i] - exact).powi(2);
        n += 1;
    }
    let raw = (raw_err / n as f64).sqrt();
    let filtered = (filtered_err / n as f64).sqrt();
    println!("dG L2 error          : {dg_err:.3e}");
    println!("raw RMS at grid pts  : {raw:.3e}");
    println!("SIAC RMS at grid pts : {filtered:.3e}");
    println!(
        "error reduction      : {:.1}x",
        raw / filtered.max(f64::MIN_POSITIVE)
    );
    assert!(
        filtered < raw,
        "the SIAC filter must reduce the grid-point error"
    );
}
