//! One execution config, one place it is validated: whichever entry point
//! a bad `ExecConfig` reaches, it is `ExecConfig::resolve` that rejects it,
//! with the same message.

use std::panic::{catch_unwind, AssertUnwindSafe};
use ustencil::dg::project_l2;
use ustencil::engine::prelude::*;
use ustencil::mesh::{displace_band, generate_mesh, MeshClass};
use ustencil::{run_dist, DirtySet, DistOptions, EvalPlan, PatchError};

#[test]
fn every_entry_point_rejects_a_bad_config_with_resolves_message() {
    // 32 structured triangles: the longest edge is far too long for the
    // default `h_factor` of 1, so the first case is the too-wide stencil.
    // The last case fits the domain but asks for a degree whose modes the
    // kernels' fixed-size tables cannot hold.
    let mesh = generate_mesh(MeshClass::StructuredPattern, 32, 0);
    let cases = [
        (1, 1.0, "exceeds the periodic unit domain"),
        (1, 0.0, "h factor must be positive"),
        (1, -1.0, "h factor must be positive"),
        (1, f64::NAN, "h factor must be positive"),
        (4, 0.1, "degree 4 exceeds the kernels' maximum of 3"),
    ];
    for (degree, h_factor, want) in cases {
        let field = project_l2(&mesh, degree, |x, y| x - y, 0);
        let grid = ComputationGrid::quadrature_points(&mesh, degree);
        let config = ExecConfig {
            h_factor,
            ..ExecConfig::default()
        };
        let direct = || {
            PostProcessor::new(Scheme::PerElement)
                .h_factor(h_factor)
                .run(&mesh, &field, &grid);
        };
        let compile = || {
            EvalPlan::compile(&mesh, &grid, degree, &config);
        };
        let dist = || {
            let _ = run_dist(
                &mesh,
                &field,
                &grid,
                &DistOptions::new(2).h_factor(h_factor),
            );
        };
        let entries: [(&str, &dyn Fn()); 3] = [
            ("PostProcessor::run", &direct),
            ("EvalPlan::compile", &compile),
            ("run_dist", &dist),
        ];
        for (entry, call) in entries {
            let panic = catch_unwind(AssertUnwindSafe(call)).expect_err(&format!(
                "{entry} accepted degree {degree}, h_factor {h_factor}"
            ));
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            assert!(
                message.contains(want),
                "{entry}, degree {degree}, h_factor {h_factor}: panicked with {message:?}, want {want:?}"
            );
        }
    }
}

#[test]
fn patch_answers_a_config_it_cannot_use_with_a_typed_error() {
    // `patch` resolves only after its own checks, so a config that no
    // longer describes the plan's kernel — a bad width factor included —
    // is an error the caller can fall back from, never `resolve`'s panic.
    let options = ExecConfig {
        h_factor: 0.5,
        parallel: false,
        ..ExecConfig::default()
    };
    let mesh = generate_mesh(MeshClass::LowVariance, 150, 43);
    let grid = ComputationGrid::quadrature_points(&mesh, 1);
    let plan = EvalPlan::compile(&mesh, &grid, 1, &options);
    let moved = displace_band(&mesh, 0.3, 0.7, 0.2, 3);
    let moved_grid = ComputationGrid::quadrature_points(&moved, 1);
    let dirty = DirtySet::diff(&mesh, &grid, &moved, &moved_grid);
    assert!(plan.patch(&moved, &moved_grid, &dirty, &options).is_ok());

    for h_factor in [0.45, 0.0, -1.0, f64::NAN, 10.0] {
        let changed = ExecConfig {
            h_factor,
            ..options
        };
        let err = plan.patch(&moved, &moved_grid, &dirty, &changed);
        assert_eq!(err.unwrap_err(), PatchError::KernelChanged, "{h_factor}");
    }
    let other = generate_mesh(MeshClass::LowVariance, 100, 44);
    let other_grid = ComputationGrid::quadrature_points(&other, 1);
    let stale = DirtySet::diff(&other, &other_grid, &moved, &moved_grid);
    let err = plan.patch(&moved, &moved_grid, &stale, &options);
    assert_eq!(err.unwrap_err(), PatchError::ShapeMismatch);
}

#[test]
fn processor_builders_write_the_one_config() {
    let processor = PostProcessor::new(Scheme::PerElement)
        .h_factor(0.5)
        .blocks(7)
        .parallel(false)
        .instrument(true)
        .simd(SimdPolicy::Scalar);
    assert_eq!(
        processor.config(),
        &ExecConfig {
            h_factor: 0.5,
            n_blocks: 7,
            parallel: false,
            instrument: true,
            simd: SimdPolicy::Scalar,
        }
    );
    // Untouched, a processor runs under the paper's defaults.
    let defaults = ExecConfig::default();
    assert_eq!(PostProcessor::new(Scheme::PerPoint).config(), &defaults);
    assert_eq!((defaults.h_factor, defaults.n_blocks), (1.0, 16));
    assert!(defaults.parallel && !defaults.instrument);
    assert_eq!(defaults.simd, SimdPolicy::Auto);
}
