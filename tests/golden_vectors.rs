//! Golden-vector fixture: per-point, per-element, and plan outputs of one
//! small fixed configuration, committed as hex-encoded f64 bit patterns.
//!
//! Any refactor that changes results *bit-wise* fails this test loudly —
//! the complement of the tolerance-based property tests, in the same
//! spirit as the plan serialization round-trip. To regenerate after an
//! intentional numerical change:
//!
//! ```text
//! cargo test --test golden_vectors -- --ignored regenerate --nocapture \
//!   > /dev/null  # prints the new fixture to stderr
//! ```
//!
//! and replace `tests/golden/golden_vectors.txt` with the printed block.

use ustencil::dg::{project_l2, DgField};
use ustencil::engine::prelude::*;
use ustencil::geometry::Point2;
use ustencil::mesh::{generate_mesh, MeshClass, TriMesh};
use ustencil::plan::{CompileOptions, EvalPlan};

const GOLDEN: &str = include_str!("golden/golden_vectors.txt");
const DEGREE: usize = 2;

/// The fixed configuration: a 48-triangle low-variance mesh, a degree-2
/// field with mixed trigonometric/polynomial content, and a 6×6 interior
/// lattice of evaluation points.
fn fixture() -> (TriMesh, DgField, ComputationGrid, f64) {
    let mesh = generate_mesh(MeshClass::LowVariance, 48, 42);
    let field = project_l2(
        &mesh,
        DEGREE,
        |x, y| (x * 5.1).sin() + y * y - 0.3 * x * y,
        2,
    );
    let pts: Vec<Point2> = (0..6)
        .flat_map(|j| {
            (0..6).map(move |i| Point2::new((i as f64 + 0.5) / 6.0, (j as f64 + 0.5) / 6.0))
        })
        .collect();
    let owners = vec![0u32; pts.len()];
    let grid = ComputationGrid::from_points(pts, owners);
    let h_factor = (0.9 / ((3 * DEGREE + 1) as f64 * mesh.max_edge_length())).min(1.0);
    (mesh, field, grid, h_factor)
}

/// Computes the three output vectors, fully sequentially (blocking and
/// parallelism are transparency-tested elsewhere) and under
/// [`SimdPolicy::Scalar`]: the fixture pins the portable reduction
/// order, and the scalar policy is contractually bit-identical to the
/// pre-SIMD kernels. Vector policies are held to the 1e-12 refactor
/// tolerance against these same bits below.
fn outputs() -> [(&'static str, Vec<f64>); 3] {
    let (mesh, field, grid, h_factor) = fixture();
    let per_point = PostProcessor::new(Scheme::PerPoint)
        .h_factor(h_factor)
        .blocks(1)
        .parallel(false)
        .simd(SimdPolicy::Scalar)
        .run(&mesh, &field, &grid)
        .values;
    let per_element = PostProcessor::new(Scheme::PerElement)
        .h_factor(h_factor)
        .blocks(1)
        .parallel(false)
        .simd(SimdPolicy::Scalar)
        .run(&mesh, &field, &grid)
        .values;
    let options = CompileOptions {
        h_factor,
        n_blocks: 1,
        parallel: false,
        simd: SimdPolicy::Scalar,
        ..CompileOptions::default()
    };
    let plan = EvalPlan::compile(&mesh, &grid, DEGREE, &options)
        .apply_with(&field, &options)
        .values;
    [
        ("per_point", per_point),
        ("per_element", per_element),
        ("plan", plan),
    ]
}

fn encode(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{:016x}", v.to_bits()))
        .collect::<Vec<_>>()
        .join(" ")
}

fn parse_golden() -> Vec<(String, Vec<u64>)> {
    GOLDEN
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut it = l.split_whitespace();
            let name = it.next().expect("scheme label").to_string();
            let bits = it
                .map(|h| u64::from_str_radix(h, 16).expect("16-digit hex f64 bits"))
                .collect();
            (name, bits)
        })
        .collect()
}

#[test]
fn outputs_match_golden_bits() {
    let golden = parse_golden();
    assert_eq!(golden.len(), 3, "fixture must hold all three schemes");
    for ((name, values), (g_name, g_bits)) in outputs().iter().zip(&golden) {
        assert_eq!(name, g_name, "scheme order mismatch");
        assert_eq!(values.len(), g_bits.len(), "{name}: length changed");
        for (i, (v, &bits)) in values.iter().zip(g_bits).enumerate() {
            assert_eq!(
                v.to_bits(),
                bits,
                "{name}[{i}]: {v:e} != {:e} (bit-wise)",
                f64::from_bits(bits)
            );
        }
    }
}

/// Vector policies against the committed fixture: each forced width is
/// run-to-run *deterministic* (two independent compile+apply passes give
/// the same bits — the lane kernels use fixed-order reductions, never a
/// data race or dispatch wobble), and every value stays within the 1e-12
/// refactor tolerance of the scalar golden bits. Widths the host lacks
/// fall back to scalar, where determinism and the tolerance hold
/// trivially — so this runs unconditionally on every CI host.
#[test]
fn vector_policies_are_deterministic_and_near_the_golden() {
    use ustencil::engine::{SimdPolicy, SimdWidth};
    let golden = parse_golden();
    let (_, plan_bits) = &golden[2];
    assert_eq!(golden[2].0, "plan", "fixture row order changed");
    let (mesh, field, grid, h_factor) = fixture();
    for width in [SimdWidth::F64x4, SimdWidth::F64x8] {
        let policy = SimdPolicy::Forced(width);
        let run = || {
            let options = CompileOptions {
                h_factor,
                n_blocks: 1,
                parallel: false,
                simd: policy,
                ..CompileOptions::default()
            };
            EvalPlan::compile(&mesh, &grid, DEGREE, &options)
                .apply_with(&field, &options)
                .values
        };
        let (first, second) = (run(), run());
        assert_eq!(first.len(), plan_bits.len(), "{policy:?}: length changed");
        for (i, ((a, b), &bits)) in first.iter().zip(&second).zip(plan_bits).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{policy:?}[{i}]: two identical runs disagree bit-wise"
            );
            let g = f64::from_bits(bits);
            assert!(
                (a - g).abs() <= 1e-12,
                "{policy:?}[{i}]: {a:e} drifts from the golden {g:e}"
            );
        }
    }
}

/// Sanity-check the fixture itself: the three schemes agree with each other
/// to the refactor tolerance, so the committed vectors describe one
/// consistent convolution rather than three independent accidents.
#[test]
fn golden_schemes_mutually_consistent() {
    let [(_, pp), (_, pe), (_, pl)] = outputs();
    for i in 0..pp.len() {
        assert!((pp[i] - pe[i]).abs() < 1e-12, "pp vs pe at {i}");
        assert!((pp[i] - pl[i]).abs() < 1e-12, "pp vs plan at {i}");
    }
}

#[test]
#[ignore = "regeneration helper: prints a new fixture file to stderr"]
fn regenerate() {
    eprintln!("# Golden vectors: hex f64 bits of each scheme's sequential output.");
    eprintln!("# Fixture: LowVariance n=48 seed=42, p=2, 6x6 lattice; see golden_vectors.rs.");
    for (name, values) in outputs() {
        eprintln!("{name} {}", encode(&values));
    }
}
