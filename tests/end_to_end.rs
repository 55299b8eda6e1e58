//! Workspace integration tests: the full pipeline from mesh generation
//! through dG projection to SIAC post-processing, crossing every crate.

use ustencil::dg::project_l2;
use ustencil::engine::prelude::*;
use ustencil::mesh::{generate_mesh, MeshClass};

const TAU: f64 = std::f64::consts::TAU;

fn smooth(x: f64, y: f64) -> f64 {
    (TAU * x).sin() * (TAU * y).cos() + 0.5
}

/// The paper's central numerical claim: per-point and per-element compute
/// the same convolution, on every mesh class and polynomial degree.
#[test]
fn schemes_agree_across_classes_and_degrees() {
    for (class, n, p) in [
        (MeshClass::LowVariance, 250, 1),
        (MeshClass::LowVariance, 200, 2),
        (MeshClass::HighVariance, 220, 1),
        (MeshClass::StructuredPattern, 256, 2),
    ] {
        let mesh = generate_mesh(class, n, 31);
        let field = project_l2(&mesh, p, smooth, 4);
        let grid = ComputationGrid::quadrature_points(&mesh, p);
        let h_factor = (0.9 / ((3 * p + 1) as f64 * mesh.max_edge_length())).min(1.0);
        let a = PostProcessor::new(Scheme::PerPoint)
            .h_factor(h_factor)
            .run(&mesh, &field, &grid);
        let b = PostProcessor::new(Scheme::PerElement)
            .h_factor(h_factor)
            .run(&mesh, &field, &grid);
        let diff = a.max_abs_diff(&b);
        assert!(
            diff < 1e-9,
            "{:?} n={n} p={p}: schemes disagree by {diff}",
            class
        );
    }
}

/// Filtering a smooth projected field reduces the RMS error at the grid
/// points on a fine-enough unstructured mesh.
#[test]
fn filtering_reduces_error_on_unstructured_mesh() {
    // Fine enough for the quadratic filter's asymptotic regime (on coarse
    // unstructured meshes the smoothing error of the wide k=2 stencil can
    // exceed the projection error).
    let mesh = generate_mesh(MeshClass::LowVariance, 2_500, 5);
    let p = 2;
    let field = project_l2(&mesh, p, smooth, 4);
    let grid = ComputationGrid::quadrature_points(&mesh, p);
    let sol = PostProcessor::new(Scheme::PerElement).run(&mesh, &field, &grid);

    let mut raw = 0.0;
    let mut filtered = 0.0;
    for (i, pt) in grid.points().iter().enumerate() {
        let e = grid.owners()[i] as usize;
        let (u, v) = mesh.triangle(e).map_to_unit(*pt).unwrap();
        let exact = smooth(pt.x, pt.y);
        raw += (field.eval_ref(e, u, v) - exact).powi(2);
        filtered += (sol.values[i] - exact).powi(2);
    }
    assert!(
        filtered < raw * 0.5,
        "filtering should at least halve the squared error: {} -> {}",
        raw,
        filtered
    );
}

/// Periodic wrap: post-processing a globally smooth periodic field is
/// accurate at boundary-adjacent points too (the stencil wraps).
#[test]
fn periodic_wrap_is_seamless() {
    let mesh = generate_mesh(MeshClass::LowVariance, 700, 9);
    let p = 1;
    let field = project_l2(&mesh, p, smooth, 4);
    let grid = ComputationGrid::quadrature_points(&mesh, p);
    let sol = PostProcessor::new(Scheme::PerElement).run(&mesh, &field, &grid);
    let hw = sol.stencil_width / 2.0;

    // Compare the error distribution near the boundary against the
    // interior; the wrap should keep them comparable.
    let (mut near, mut near_n) = (0.0, 0);
    let (mut far, mut far_n) = (0.0, 0);
    for (i, pt) in grid.points().iter().enumerate() {
        let err = (sol.values[i] - smooth(pt.x, pt.y)).powi(2);
        let interior = pt.x > hw && pt.x < 1.0 - hw && pt.y > hw && pt.y < 1.0 - hw;
        if interior {
            far += err;
            far_n += 1;
        } else {
            near += err;
            near_n += 1;
        }
    }
    let near_rms = (near / near_n as f64).sqrt();
    let far_rms = (far / far_n as f64).sqrt();
    assert!(
        near_rms < 10.0 * far_rms + 1e-12,
        "boundary error {near_rms:e} blows up vs interior {far_rms:e}"
    );
}

/// Tiling granularity does not change the answer (Figure 7's overlapped
/// partial solutions sum back exactly).
#[test]
fn patch_count_is_transparent() {
    let mesh = generate_mesh(MeshClass::HighVariance, 300, 2);
    let p = 1;
    let field = project_l2(&mesh, p, smooth, 4);
    let grid = ComputationGrid::quadrature_points(&mesh, p);
    let h_factor = (0.9 / (4.0 * mesh.max_edge_length())).min(1.0);
    let reference = PostProcessor::new(Scheme::PerElement)
        .blocks(1)
        .h_factor(h_factor)
        .run(&mesh, &field, &grid);
    for blocks in [2usize, 5, 16, 37, 128] {
        let sol = PostProcessor::new(Scheme::PerElement)
            .blocks(blocks)
            .h_factor(h_factor)
            .run(&mesh, &field, &grid);
        let diff = sol.max_abs_diff(&reference);
        assert!(diff < 1e-10, "blocks={blocks}: diff {diff}");
    }
}

/// Custom (non-quadrature) evaluation grids work through the whole engine:
/// a visualization-style lattice of points, each tagged with its owning
/// element.
#[test]
fn custom_evaluation_grid() {
    let mesh = generate_mesh(MeshClass::LowVariance, 300, 21);
    let p = 1;
    let f = |x: f64, y: f64| 0.5 + x - 2.0 * y;
    let field = project_l2(&mesh, p, f, 0);

    // A coarse lattice of sample points; find each point's element by scan
    // (fine at this size).
    let mut points = Vec::new();
    let mut owners = Vec::new();
    for j in 1..8 {
        for i in 1..8 {
            let pt = ustencil::geometry::Point2::new(i as f64 / 8.0, j as f64 / 8.0);
            let inside = |e: &usize| {
                let uv = mesh.triangle(*e).map_to_unit(pt);
                uv.is_some_and(|(u, v)| u >= -1e-12 && v >= -1e-12 && u + v <= 1.0 + 1e-12)
            };
            if let Some(e) = (0..mesh.n_triangles()).find(inside) {
                points.push(pt);
                owners.push(e as u32);
            }
        }
    }
    assert!(points.len() > 40);
    let grid = ComputationGrid::from_points(points, owners);
    let sol = PostProcessor::new(Scheme::PerPoint).run(&mesh, &field, &grid);
    let hw = sol.stencil_width / 2.0;
    for (i, pt) in grid.points().iter().enumerate() {
        if pt.x > hw && pt.x < 1.0 - hw && pt.y > hw && pt.y < 1.0 - hw {
            assert!(
                (sol.values[i] - f(pt.x, pt.y)).abs() < 1e-8,
                "at {pt:?}: {}",
                sol.values[i]
            );
        }
    }
}

/// The device model orders the schemes the way the paper measures them, on
/// both mesh classes.
#[test]
fn simulated_speedup_matches_paper_direction() {
    let cfg = DeviceConfig::default();
    for class in [MeshClass::LowVariance, MeshClass::HighVariance] {
        let mesh = generate_mesh(class, 400, 3);
        let p = 1;
        let field = project_l2(&mesh, p, smooth, 4);
        let grid = ComputationGrid::quadrature_points(&mesh, p);
        let h_factor = (0.9 / (4.0 * mesh.max_edge_length())).min(1.0);
        let pp = PostProcessor::new(Scheme::PerPoint)
            .h_factor(h_factor)
            .run(&mesh, &field, &grid);
        let pe = PostProcessor::new(Scheme::PerElement)
            .h_factor(h_factor)
            .run(&mesh, &field, &grid);
        let speedup = pp.simulate(&cfg).total_ms / pe.simulate(&cfg).total_ms;
        assert!(
            speedup > 1.2,
            "{class:?}: simulated per-element speedup only {speedup}"
        );
    }
}
