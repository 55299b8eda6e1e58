//! Micro-benchmarks of the primitives inside the evaluation hot loop:
//! polygon clipping, kernel evaluation, basis/element evaluation, exact
//! sub-region integration, plus the setup-phase builders (Delaunay, hash
//! grids, partitioning).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use ustencil_dg::{project_l2, DubinerBasis};
use ustencil_geometry::{clip_triangle_rect, Point2, Rect, Triangle};
use ustencil_mesh::{generate_mesh, partition_recursive_bisection, MeshClass};
use ustencil_quadrature::TriangleRule;
use ustencil_siac::{BSpline, Kernel1d, Stencil2d};
use ustencil_spatial::{Boundary, PointGrid, TriangleGrid};

fn bench_clip(c: &mut Criterion) {
    let tri = Triangle::new(
        Point2::new(0.1, -0.5),
        Point2::new(1.5, 0.3),
        Point2::new(0.2, 1.2),
    );
    let rect = Rect::new(0.0, 0.0, 1.0, 1.0);
    c.bench_function("clip/triangle_vs_square", |b| {
        b.iter(|| clip_triangle_rect(black_box(&tri), black_box(&rect)))
    });
    // A miss is the common case in the halo region.
    let far = Rect::new(5.0, 5.0, 6.0, 6.0);
    c.bench_function("clip/miss", |b| {
        b.iter(|| clip_triangle_rect(black_box(&tri), black_box(&far)))
    });
}

fn bench_kernels(c: &mut Criterion) {
    for k in [1usize, 2, 3] {
        let kernel = Kernel1d::symmetric(k);
        c.bench_function(&format!("siac/kernel_eval_k{k}"), |b| {
            b.iter(|| kernel.eval(black_box(0.733)))
        });
    }
    let spline = BSpline::new(4);
    c.bench_function("siac/bspline_cox_de_boor_order4", |b| {
        b.iter(|| spline.eval(black_box(0.733)))
    });
    let stencil = Stencil2d::symmetric(2, 0.05);
    let center = Point2::new(0.5, 0.5);
    c.bench_function("siac/stencil2d_eval", |b| {
        b.iter(|| stencil.eval(black_box(center), black_box(Point2::new(0.52, 0.47))))
    });
}

fn bench_basis(c: &mut Criterion) {
    for p in [1usize, 2, 3] {
        let basis = DubinerBasis::new(p);
        let coeffs: Vec<f64> = (0..basis.n_modes()).map(|m| 0.3 + m as f64).collect();
        c.bench_function(&format!("dg/eval_expansion_p{p}"), |b| {
            b.iter(|| basis.eval_expansion(black_box(&coeffs), black_box(0.31), black_box(0.24)))
        });
    }
}

fn bench_integration(c: &mut Criterion) {
    let rule = TriangleRule::with_strength(6);
    let tri = Triangle::new(
        Point2::new(0.0, 0.0),
        Point2::new(0.01, 0.002),
        Point2::new(0.003, 0.009),
    );
    c.bench_function("quadrature/strength6_subregion", |b| {
        b.iter(|| rule.integrate_physical(black_box(&tri), |x, y| (x * 31.0).sin() * y + x * x))
    });
}

fn bench_builders(c: &mut Criterion) {
    let mut group = c.benchmark_group("builders");
    group.sample_size(10);
    group.bench_function("delaunay_2k", |b| {
        b.iter(|| generate_mesh(MeshClass::LowVariance, 2_000, black_box(3)))
    });
    let mesh = generate_mesh(MeshClass::LowVariance, 2_000, 3);
    group.bench_function("triangle_grid_2k", |b| {
        b.iter(|| TriangleGrid::build(black_box(&mesh), Boundary::Periodic))
    });
    let field = project_l2(&mesh, 1, |x, y| x + y, 0);
    let grid = ustencil_core::ComputationGrid::quadrature_points(&mesh, 1);
    let _ = field;
    group.bench_function("point_grid_2k", |b| {
        b.iter(|| {
            PointGrid::build_half_edge(
                black_box(grid.points()),
                mesh.max_edge_length(),
                Boundary::Clamped,
            )
        })
    });
    group.bench_function("partition_16_of_2k", |b| {
        b.iter(|| partition_recursive_bisection(black_box(&mesh), 16))
    });
    group.finish();
}

/// The square range query the per-element stencil search makes against the
/// point hash grid (Section 3).
fn bench_spatial_query(c: &mut Criterion) {
    let mesh = generate_mesh(MeshClass::LowVariance, 2_000, 3);
    let grid = ustencil_core::ComputationGrid::quadrature_points(&mesh, 1);
    let s = mesh.max_edge_length();
    let hash = PointGrid::build_half_edge(grid.points(), s, Boundary::Clamped);
    let bbox = ustencil_geometry::Aabb::new(Point2::new(0.4, 0.4), Point2::new(0.45, 0.44));
    let hw = 2.0 * s;
    let mut group = c.benchmark_group("spatial");
    group.bench_function("hash_grid_range_query", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            hash.for_each_candidate(black_box(&bbox), hw, |id| acc = acc.wrapping_add(id));
            acc
        })
    });
    group.finish();
}

/// Observability cost at the hot-loop call sites: a plain counter bump
/// (the seed behaviour) vs the same bump plus a disabled `Probe` record
/// (what every instrumented loop pays when tracing is off — must stay
/// within noise of the bare counter) vs an enabled probe (the price of
/// `--json`/`profile` runs).
fn bench_probe_overhead(c: &mut Criterion) {
    use ustencil_core::{Metrics, Probe};
    let mut group = c.benchmark_group("probe_overhead");
    group.bench_function("counter_only", |b| {
        let mut m = Metrics::default();
        b.iter(|| {
            for i in 0..1024u64 {
                m.quad_evals += black_box(i) & 0xf;
            }
            m.quad_evals
        })
    });
    group.bench_function("counter_plus_disabled_probe", |b| {
        let mut m = Metrics::default();
        let mut probe = Probe::new(black_box(false));
        b.iter(|| {
            for i in 0..1024u64 {
                let v = black_box(i) & 0xf;
                m.quad_evals += v;
                probe.record_quad_points(v);
            }
            m.quad_evals
        })
    });
    group.bench_function("counter_plus_enabled_probe", |b| {
        let mut m = Metrics::default();
        let mut probe = Probe::new(black_box(true));
        b.iter(|| {
            for i in 0..1024u64 {
                let v = black_box(i) & 0xf;
                m.quad_evals += v;
                probe.record_quad_points(v);
            }
            m.quad_evals
        })
    });
    group.finish();
}

/// The element-image integration strategies head to head, over one
/// realistic stencil query's worth of elements per polynomial degree
/// `k in {1, 2, 3}` (the mode count — 3, 6, 10 — is what the lane
/// kernels batch over, so the staged/SIMD win must be measured where it
/// differs): the pre-refactor fused evaluation (kernel × full basis
/// expansion at every quadrature point, reconstructed here from the
/// public primitives), the staged SoA cells-then-modes path with the
/// vector reduction forced off, and the same staged path on the widest
/// ISA the host supports.
fn bench_integration_kernel(c: &mut Criterion) {
    use ustencil_core::integrate::{ElementData, IntegrationCtx};
    use ustencil_core::kernel::{AccumulateSolution, QuadStage, StencilTraversal};
    use ustencil_core::{Metrics, SimdIsa, SimdPolicy};
    use ustencil_geometry::{fan_triangulate, Vec2, GEOM_EPS};

    let mesh = generate_mesh(MeshClass::LowVariance, 200, 7);
    for k in [1usize, 2, 3] {
        let field = project_l2(&mesh, k, |x, y| (x * 3.0).sin() + y * y - 0.3 * x * y, 1);
        let basis = field.basis().clone();
        let stencil = Stencil2d::symmetric(k, mesh.max_edge_length());
        let rule = TriangleRule::with_strength(IntegrationCtx::required_strength(k, k));
        let exps = basis.monomial_exponents();
        let center = Point2::new(0.5, 0.5);
        let support = stencil.support_rect(center);
        // The elements one central query actually touches, gathered up
        // front so every variant measures pure integration.
        let elems: Vec<ElementData> = (0..mesh.n_triangles())
            .map(|e| ElementData::gather(&mesh, &field, &basis, e))
            .filter(|ed| support.intersects_aabb(&ed.bbox))
            .collect();
        assert!(!elems.is_empty());

        let mut group = c.benchmark_group(&format!("integration_kernel_k{k}"));
        group.bench_function("fused_closure", |b| {
            b.iter(|| {
                let mut total = 0.0;
                for ed in &elems {
                    let h = stencil.h();
                    let n_cells = stencil.cells_per_side();
                    let (lo, _) = stencil.kernel().support();
                    let x_base = center.x + lo * h;
                    let y_base = center.y + lo * h;
                    let bbox = &ed.bbox;
                    let i0 = (((bbox.min.x - x_base) / h).floor().max(0.0)) as usize;
                    let j0 = (((bbox.min.y - y_base) / h).floor().max(0.0)) as usize;
                    if i0 >= n_cells || j0 >= n_cells || bbox.max.x < x_base || bbox.max.y < y_base
                    {
                        continue;
                    }
                    let i1 = ((((bbox.max.x - x_base) / h).floor()) as usize).min(n_cells - 1);
                    let j1 = ((((bbox.max.y - y_base) / h).floor()) as usize).min(n_cells - 1);
                    for j in j0..=j1 {
                        for i in i0..=i1 {
                            let cell = stencil.cell_rect(black_box(center), i, j);
                            let poly = clip_triangle_rect(&ed.tri, &cell);
                            if poly.is_degenerate(GEOM_EPS) {
                                continue;
                            }
                            for sub in fan_triangulate(&poly) {
                                total += rule.integrate_physical(&sub, |x, y| {
                                    let p = Point2::new(x, y);
                                    stencil.eval(center, p) * ed.eval(p, exps)
                                });
                            }
                        }
                    }
                }
                total
            })
        });
        for (variant, isa) in [
            ("staged_scalar", SimdIsa::Scalar),
            ("staged_simd", SimdPolicy::Auto.resolve()),
        ] {
            group.bench_function(variant, |b| {
                let trav =
                    StencilTraversal::new(&stencil, &rule, exps, basis.n_modes()).with_simd(isa);
                let mut stage = QuadStage::default();
                let mut metrics = Metrics::default();
                let mut sink = AccumulateSolution::new();
                b.iter(|| {
                    let mut total = 0.0;
                    for ed in &elems {
                        trav.integrate_image(
                            black_box(center),
                            ed,
                            Vec2::ZERO,
                            &mut stage,
                            &mut sink,
                            &mut metrics,
                        );
                        total += sink.take();
                    }
                    total
                })
            });
        }
        group.finish();
    }
}

criterion_group!(
    benches,
    bench_clip,
    bench_kernels,
    bench_basis,
    bench_integration,
    bench_integration_kernel,
    bench_builders,
    bench_spatial_query,
    bench_probe_overhead
);
criterion_main!(benches);
