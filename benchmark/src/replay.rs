//! Single-threaded stage replays: the per-layer share of a direct run, taken
//! by calling each layer's public function directly over a seeded 1-in-8
//! element sample of the workload's own inputs.
//!
//! The replays walk the pairs the per-element scheme walks (element image ×
//! candidate point, found through the point hash grid under the needed
//! periodic shifts) and enumerate lattice cells as
//! `benches/micro_kernels.rs::fused_closure` does.

use crate::spans::Recorder;
use crate::workloads::{splitmix64, Kind, Workload};
use std::hint::black_box;
use ustencil_core::integrate::{needed_shifts, ElementData, IntegrationCtx, MAX_MODES};
use ustencil_core::kernel::{ContributionSink, QuadStage, StencilTraversal};
use ustencil_core::{Metrics, SimdPolicy};
use ustencil_dg::DubinerBasis;
use ustencil_dist::ShardPlan;
use ustencil_geometry::{clip_triangle_rect, fan_triangulate, Aabb, Point2, Rect, Vec2, GEOM_EPS};
use ustencil_quadrature::TriangleRule;
use ustencil_siac::Stencil2d;
use ustencil_spatial::{Boundary, PointGrid};

/// One element in this many is replayed.
const SAMPLE_ONE_IN: u64 = 8;

/// A sink that keeps nothing: the traversal replay measures discovery,
/// clipping and the quadrature reduction, not what a scheme does with them.
struct Discard;

impl ContributionSink for Discard {
    fn absorb(&mut self, _elem: &ElementData, mono_sums: &[f64; MAX_MODES]) {
        black_box(mono_sums);
    }
}

/// An (element image, grid point) pair the point grid proposed.
struct Pair {
    sample: u32,
    point: u32,
    shift: Vec2,
}

/// Counts the replays produce; their times are the spans they record.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ReplayCounts {
    /// Elements replayed.
    pub sampled_elements: usize,
    /// Points the hash grid proposed (the attempts of `hit_ratio`).
    pub candidates: u64,
    /// Pairs whose clipped intersection had positive area (the useful ones).
    pub hits: u64,
    /// `clip_triangle_rect` calls.
    pub clips: u64,
    /// Sub-triangles `fan_triangulate` produced.
    pub subregions: u64,
}

/// Runs the stage replays for `workload`, recording one span per stage
/// (`siac.stencil`, `quadrature.rule`, `spatial.grid_build`,
/// `spatial.query`, `geometry.clip`, `core.traversal`, and for `dist` also
/// `dist.shard`).
pub fn run(workload: &Workload, seed: u64, rec: &mut Recorder) -> ReplayCounts {
    let mesh = &workload.mesh;
    let points = workload.grid.points();
    let degree = workload.spec.degree;
    let longest_edge = mesh.max_edge_length();
    let h = workload.h_factor * longest_edge;

    let stencil = rec.span("siac.stencil", |_| Stencil2d::symmetric(degree, h));
    let rule = rec.span("quadrature.rule", |_| {
        TriangleRule::with_strength(IntegrationCtx::required_strength(degree, degree))
    });
    let point_grid = rec.span("spatial.grid_build", |_| {
        PointGrid::build_half_edge(points, longest_edge, Boundary::Clamped)
    });
    let half_width = stencil.width() / 2.0;

    if workload.spec.kind == Kind::Dist {
        // The ghost-ring distance `run_dist` derives: half the stencil plus
        // one point-grid cell plus its tie epsilon.
        let halo_width = half_width + point_grid.grid().cell_size() + 1e-9;
        rec.span("dist.shard", |_| {
            black_box(ShardPlan::build(
                mesh,
                &workload.grid,
                workload.ranks,
                halo_width,
            ));
        });
    }

    let basis = DubinerBasis::new(degree);
    let sample: Vec<ElementData> = (0..mesh.n_triangles())
        .filter(|&e| splitmix64(seed ^ e as u64).is_multiple_of(SAMPLE_ONE_IN))
        .map(|e| ElementData::gather_geometry(mesh, e, basis.n_modes()))
        .collect();

    let mut pairs = Vec::new();
    rec.span("spatial.query", |_| {
        for (i, ed) in sample.iter().enumerate() {
            let inflated = Rect::new(
                ed.bbox.min.x - half_width,
                ed.bbox.min.y - half_width,
                ed.bbox.max.x + half_width,
                ed.bbox.max.y + half_width,
            );
            for sigma in needed_shifts(&inflated) {
                let query = Aabb::new(ed.bbox.min - sigma, ed.bbox.max - sigma);
                point_grid.for_each_candidate(&query, half_width, |point| {
                    pairs.push(Pair {
                        sample: i as u32,
                        point,
                        shift: -sigma,
                    })
                });
            }
        }
    });
    let candidates = pairs.len() as u64;

    // The scheme's cheap rejection test; what survives is clipped.
    pairs.retain(|pair| {
        let ed = &sample[pair.sample as usize];
        let image = Aabb::new(ed.bbox.min + pair.shift, ed.bbox.max + pair.shift);
        stencil
            .support_rect(points[pair.point as usize])
            .intersects_aabb(&image)
    });

    let (mut clips, mut subregions) = (0u64, 0u64);
    rec.span("geometry.clip", |_| {
        for pair in &pairs {
            let ed = &sample[pair.sample as usize];
            let center = points[pair.point as usize];
            let shifted = ed.tri.translate(pair.shift);
            for_each_overlapped_cell(&stencil, center, ed, pair.shift, |cell| {
                clips += 1;
                let poly = clip_triangle_rect(&shifted, &cell);
                if !poly.is_degenerate(GEOM_EPS) {
                    for sub in fan_triangulate(&poly) {
                        black_box(sub);
                        subregions += 1;
                    }
                }
            });
        }
    });

    let traversal =
        StencilTraversal::new(&stencil, &rule, basis.monomial_exponents(), basis.n_modes())
            .with_simd(SimdPolicy::Auto.resolve());
    let mut stage = QuadStage::default();
    let mut metrics = Metrics::default();
    let mut hits = 0u64;
    rec.span("core.traversal", |_| {
        for pair in &pairs {
            let ed = &sample[pair.sample as usize];
            let center = points[pair.point as usize];
            hits += traversal.integrate_image(
                center,
                ed,
                pair.shift,
                &mut stage,
                &mut Discard,
                &mut metrics,
            ) as u64;
        }
    });
    debug_assert_eq!(metrics.cell_clips, clips);

    ReplayCounts {
        sampled_elements: sample.len(),
        candidates,
        hits,
        clips,
        subregions,
    }
}

/// Calls `f` with every stencil lattice cell the image `elem + shift`'s
/// bounding box overlaps, for the stencil centred at `center`.
fn for_each_overlapped_cell(
    stencil: &Stencil2d,
    center: Point2,
    elem: &ElementData,
    shift: Vec2,
    mut f: impl FnMut(Rect),
) {
    let h = stencil.h();
    let n_cells = stencil.cells_per_side();
    let (lo, _) = stencil.kernel().support();
    let (min, max) = (elem.bbox.min + shift, elem.bbox.max + shift);
    let x_base = center.x + lo * h;
    let y_base = center.y + lo * h;
    let i0 = ((min.x - x_base) / h).floor().max(0.0) as usize;
    let j0 = ((min.y - y_base) / h).floor().max(0.0) as usize;
    if i0 >= n_cells || j0 >= n_cells || max.x < x_base || max.y < y_base {
        return;
    }
    let i1 = (((max.x - x_base) / h).floor() as usize).min(n_cells - 1);
    let j1 = (((max.y - y_base) / h).floor() as usize).min(n_cells - 1);
    for j in j0..=j1 {
        for i in i0..=i1 {
            f(stencil.cell_rect(center, i, j));
        }
    }
}
