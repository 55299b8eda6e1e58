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
//! and replace `tests/golden/golden_vectors.txt` with the printed scalar
//! block, `tests/golden/simd_vectors.txt` with the vector block after it.

use ustencil::dg::{project_l2, DgField};
use ustencil::engine::prelude::*;
use ustencil::geometry::Point2;
use ustencil::mesh::{generate_mesh, MeshClass, TriMesh};
use ustencil::plan::{CompileOptions, EvalPlan};

const GOLDEN: &str = include_str!("golden/golden_vectors.txt");
const SIMD_GOLDEN: &str = include_str!("golden/simd_vectors.txt");
const DEGREE: usize = 2;

/// The fixed configuration: a 48-triangle low-variance mesh, a
/// degree-`degree` field with mixed trigonometric/polynomial content, and
/// a 6×6 interior lattice of evaluation points.
fn fixture(degree: usize) -> (TriMesh, DgField, ComputationGrid, f64) {
    let mesh = generate_mesh(MeshClass::LowVariance, 48, 42);
    let field = project_l2(
        &mesh,
        degree,
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
    let h_factor = (0.9 / ((3 * degree + 1) as f64 * mesh.max_edge_length())).min(1.0);
    (mesh, field, grid, h_factor)
}

/// Computes the three output vectors, fully sequentially (blocking and
/// parallelism are transparency-tested elsewhere) and under
/// [`SimdPolicy::Scalar`]: the fixture pins the portable reduction
/// order, and the scalar policy is contractually bit-identical to the
/// pre-SIMD kernels. Vector policies are held to the 1e-12 refactor
/// tolerance against these same bits below, and to their own bits.
fn outputs() -> [(&'static str, Vec<f64>); 3] {
    outputs_under(DEGREE, SimdPolicy::Scalar)
}

fn outputs_under(degree: usize, simd: SimdPolicy) -> [(&'static str, Vec<f64>); 3] {
    let (mesh, field, grid, h_factor) = fixture(degree);
    let direct = |scheme| {
        PostProcessor::new(scheme)
            .h_factor(h_factor)
            .blocks(1)
            .parallel(false)
            .simd(simd)
            .run(&mesh, &field, &grid)
            .values
    };
    let options = CompileOptions {
        h_factor,
        n_blocks: 1,
        parallel: false,
        simd,
        ..CompileOptions::default()
    };
    let plan = EvalPlan::compile(&mesh, &grid, degree, &options)
        .apply_with(&field, &options)
        .values;
    [
        ("per_point", direct(Scheme::PerPoint)),
        ("per_element", direct(Scheme::PerElement)),
        ("plan", plan),
    ]
}

/// The vector fixture's rows: `per_element` and `plan` under each forced
/// width at degree 2 (16-node rule, one sub-triangle per block, gathered
/// kernel table) and at degree 1 (4-node rule: the paired 8-lane path and
/// the in-register kernel table), labelled `scheme/p<degree>/<policy>`.
/// A width the host resolves to scalar yields `None` in place of values.
fn vector_outputs() -> Vec<(String, Option<Vec<f64>>)> {
    use ustencil::engine::{SimdIsa, SimdWidth};
    let mut rows = Vec::new();
    for degree in [2, 1] {
        for width in [SimdWidth::F64x4, SimdWidth::F64x8] {
            let simd = SimdPolicy::Forced(width);
            let values = (simd.resolve() != SimdIsa::Scalar).then(|| outputs_under(degree, simd));
            for (i, scheme) in [(1, "per_element"), (2, "plan")] {
                let label = format!("{scheme}/p{degree}/{}", simd.label());
                rows.push((label, values.as_ref().map(|v| v[i].1.clone())));
            }
        }
    }
    rows
}

fn encode(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{:016x}", v.to_bits()))
        .collect::<Vec<_>>()
        .join(" ")
}

fn parse_golden() -> Vec<(String, Vec<u64>)> {
    parse_rows(GOLDEN)
}

fn parse_rows(text: &str) -> Vec<(String, Vec<u64>)> {
    text.lines()
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

fn assert_bits(name: &str, values: &[f64], golden: &[u64]) {
    assert_eq!(values.len(), golden.len(), "{name}: length changed");
    for (i, (v, &bits)) in values.iter().zip(golden).enumerate() {
        assert_eq!(
            v.to_bits(),
            bits,
            "{name}[{i}]: {v:e} != {:e} (bit-wise)",
            f64::from_bits(bits)
        );
    }
}

#[test]
fn outputs_match_golden_bits() {
    let golden = parse_golden();
    assert_eq!(golden.len(), 3, "fixture must hold all three schemes");
    for ((name, values), (g_name, g_bits)) in outputs().iter().zip(&golden) {
        assert_eq!(name, g_name, "scheme order mismatch");
        assert_bits(name, values, g_bits);
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
    let (mesh, field, grid, h_factor) = fixture(DEGREE);
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

/// Each vector ISA's instruction sequence is IEEE-deterministic, so its
/// bits are pinned like the scalar ones: a change to vector arithmetic
/// regenerates `simd_vectors.txt` and says so. Widths this host resolves
/// to scalar are skipped, by name.
#[test]
fn vector_policies_match_their_golden_bits() {
    let golden = parse_rows(SIMD_GOLDEN);
    let rows = vector_outputs();
    assert_eq!(golden.len(), rows.len(), "fixture must hold every row");
    for ((name, values), (g_name, g_bits)) in rows.iter().zip(&golden) {
        assert_eq!(name, g_name, "row order mismatch");
        let Some(values) = values else {
            eprintln!("skipped {name}: this host resolves the width to scalar");
            continue;
        };
        assert_bits(name, values, g_bits);
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
    eprintln!(
        "# Vector golden bits: the same fixture under each forced SIMD width, at p=2 and p=1."
    );
    eprintln!("# One row per scheme/degree/policy; valid on any host that has the ISA.");
    for (name, values) in vector_outputs() {
        let values = values.expect("regenerate on a host that resolves both vector widths");
        eprintln!("{name} {}", encode(&values));
    }
}
