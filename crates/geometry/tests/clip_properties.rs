//! Property-based tests for Sutherland–Hodgman clipping.
//!
//! These check the geometric invariants that the stencil evaluators rely on:
//! the clipped region is contained in both inputs, clipping against a
//! partition of the plane conserves area, and fan triangulation reproduces
//! the clipped area exactly — and that the slab formulation the traversal
//! runs (x-slab once per lattice column, y-slab per cell) returns the
//! historical four-pass clip's polygon bit for bit, degenerate placements
//! included.

use proptest::prelude::*;
use ustencil_geometry::point::orient2d;
use ustencil_geometry::{
    clip_polygon, clip_slab_x, clip_slab_y, clip_triangle_rect, fan_triangulate, ConvexPolygon,
    Point2, Rect, Triangle,
};

/// Closed containment of `p` in `t`, either orientation, to `eps` in
/// `orient2d`.
fn in_triangle(t: &Triangle, p: Point2, eps: f64) -> bool {
    let [a, b, c] = t.vertices();
    let d = [orient2d(a, b, p), orient2d(b, c, p), orient2d(c, a, p)];
    !(d.iter().any(|&x| x < -eps) && d.iter().any(|&x| x > eps))
}

/// The four-pass out-of-place clip `clip_triangle_rect` was before the slab
/// formulation, verbatim: the bitwise oracle.
fn reference_clip(tri: &Triangle, rect: &Rect) -> ConvexPolygon {
    let mut output = tri.to_polygon();
    let mut input = ConvexPolygon::empty();

    // Left edge: keep x >= x0.
    std::mem::swap(&mut input, &mut output);
    output.clear();
    clip_against_edge(&input, &mut output, |p| p.x - rect.x0);
    if output.is_empty() {
        return output;
    }

    // Right edge: keep x <= x1.
    std::mem::swap(&mut input, &mut output);
    output.clear();
    clip_against_edge(&input, &mut output, |p| rect.x1 - p.x);
    if output.is_empty() {
        return output;
    }

    // Bottom edge: keep y >= y0.
    std::mem::swap(&mut input, &mut output);
    output.clear();
    clip_against_edge(&input, &mut output, |p| p.y - rect.y0);
    if output.is_empty() {
        return output;
    }

    // Top edge: keep y <= y1.
    std::mem::swap(&mut input, &mut output);
    output.clear();
    clip_against_edge(&input, &mut output, |p| rect.y1 - p.y);
    output
}

fn clip_against_edge<F: Fn(Point2) -> f64>(
    input: &ConvexPolygon,
    output: &mut ConvexPolygon,
    signed_dist: F,
) {
    let verts = input.vertices();
    let n = verts.len();
    if n == 0 {
        return;
    }
    let mut s = verts[n - 1];
    let mut ds = signed_dist(s);
    for &e in verts {
        let de = signed_dist(e);
        if de >= 0.0 {
            if ds < 0.0 {
                output.push(intersect_at(s, e, ds, de));
            }
            output.push(e);
        } else if ds >= 0.0 {
            output.push(intersect_at(s, e, ds, de));
        }
        s = e;
        ds = de;
    }
}

fn intersect_at(s: Point2, e: Point2, ds: f64, de: f64) -> Point2 {
    let t = ds / (ds - de);
    s.lerp(e, t)
}

/// A stencil lattice as `Stencil2d` lays it out: `n × n` cells of side `h`
/// whose lower-left corner sits at `center + lo·h`, cell corners computed
/// with `Stencil2d::cell_rect`'s two expressions.
struct Lattice {
    center: Point2,
    h: f64,
    n: usize,
}

impl Lattice {
    fn lo(&self) -> f64 {
        -(self.n as f64) / 2.0
    }

    fn cell(&self, i: usize, j: usize) -> Rect {
        let x0 = self.center.x + (self.lo() + i as f64) * self.h;
        let y0 = self.center.y + (self.lo() + j as f64) * self.h;
        Rect::new(x0, y0, x0 + self.h, y0 + self.h)
    }

    fn support(&self) -> Rect {
        let half = 0.5 * self.n as f64 * self.h;
        let c = self.center;
        Rect::new(c.x - half, c.y - half, c.x + half, c.y + half)
    }
}

fn bits(poly: &ConvexPolygon) -> Vec<(u64, u64)> {
    let key = |p: &Point2| (p.x.to_bits(), p.y.to_bits());
    poly.vertices().iter().map(key).collect()
}

/// Clips `tri` against every cell of `lattice` three ways — the reference,
/// `clip_triangle_rect`, and the traversal's hoisted form (one x-slab per
/// column, one y-slab per cell) — and demands the same vertices, in order,
/// bit for bit; the cell polygons must tile `tri ∩ support`.
fn check_lattice(tri: &Triangle, lattice: &Lattice) -> Result<(), String> {
    let mut total = 0.0;
    for i in 0..lattice.n {
        let column = lattice.cell(i, 0);
        let mut strip = tri.to_polygon();
        clip_slab_x(&mut strip, column.x0, column.x1);
        for j in 0..lattice.n {
            let cell = lattice.cell(i, j);
            let want = reference_clip(tri, &cell);
            let direct = clip_triangle_rect(tri, &cell);
            let mut hoisted = strip;
            clip_slab_y(&mut hoisted, cell.y0, cell.y1);
            for (name, got) in [("clip_triangle_rect", direct), ("x-slab → y-slab", hoisted)] {
                if bits(&got) != bits(&want) {
                    return Err(format!(
                        "{name} differs from the reference in cell ({i}, {j}) of {tri:?}: \
                         {got:?} vs {want:?}"
                    ));
                }
            }
            total += want.area();
        }
    }
    let covered = reference_clip(tri, &lattice.support()).area();
    if (total - covered).abs() > 1e-12 {
        return Err(format!(
            "cells of {tri:?} sum to {total}, area(T ∩ support) is {covered}"
        ));
    }
    Ok(())
}

fn arb_point(range: f64) -> impl Strategy<Value = Point2> {
    (-range..range, -range..range).prop_map(|(x, y)| Point2::new(x, y))
}

fn arb_triangle(range: f64) -> impl Strategy<Value = Triangle> {
    (arb_point(range), arb_point(range), arb_point(range))
        .prop_map(|(a, b, c)| Triangle::new(a, b, c))
        .prop_filter("non-degenerate", |t| t.area() > 1e-6)
}

fn arb_rect(range: f64) -> impl Strategy<Value = Rect> {
    (-range..range, -range..range, 0.05..range, 0.05..range)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

/// An image whose bounding box is `span` cells wide and tall, placed
/// anywhere from one cell outside the 4 × 4 lattice to one cell outside its
/// far side: inside one cell (`span` < 1), across one or two lattice lines,
/// or up to three columns and rows wide, cut by the support's edge whenever
/// the placement overhangs it.
fn arb_image() -> impl Strategy<Value = (Lattice, Triangle)> {
    let unit = || (0.0..1.0f64, 0.0..1.0f64);
    (
        (0.3..0.7f64, 0.3..0.7f64, 0.05..0.2f64),
        (-1.0..4.0f64, -1.0..4.0f64, 0.2..2.6f64),
        (unit(), unit(), unit()),
        proptest::bool::ANY,
    )
        .prop_map(|((cx, cy, h), (ox, oy, span), (a, b, c), flip)| {
            let lattice = Lattice {
                center: Point2::new(cx, cy),
                h,
                n: 4,
            };
            let corner = lattice.cell(0, 0);
            let at = |(u, v): (f64, f64)| {
                Point2::new(
                    corner.x0 + (ox + u * span) * h,
                    corner.y0 + (oy + v * span) * h,
                )
            };
            let (b, c) = if flip { (c, b) } else { (b, c) };
            (lattice, Triangle::new(at(a), at(b), at(c)))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Seeded random images × lattices, both orientations, every footprint
    /// the traversal meets: the slab formulation is the four-pass clip.
    #[test]
    fn slab_clip_is_bitwise_the_four_pass_clip(image in arb_image()) {
        let (lattice, tri) = image;
        let verdict = check_lattice(&tri, &lattice);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }

    /// Every vertex of the clipped polygon lies in both the triangle and the
    /// rectangle (up to tolerance for constructed intersection points).
    #[test]
    fn clipped_polygon_contained_in_both(t in arb_triangle(2.0), r in arb_rect(2.0)) {
        let clipped = clip_triangle_rect(&t, &r);
        let eps = 1e-9;
        for &v in clipped.vertices() {
            prop_assert!(in_triangle(&t, v, eps), "vertex {:?} escapes triangle", v);
            prop_assert!(
                v.x >= r.x0 - eps && v.x <= r.x1 + eps && v.y >= r.y0 - eps && v.y <= r.y1 + eps,
                "vertex {:?} escapes rect", v
            );
        }
    }

    /// Clipped area never exceeds either input's area.
    #[test]
    fn clipped_area_bounded(t in arb_triangle(2.0), r in arb_rect(2.0)) {
        let a = clip_triangle_rect(&t, &r).area();
        prop_assert!(a <= t.area() + 1e-9);
        prop_assert!(a <= (r.x1 - r.x0) * (r.y1 - r.y0) + 1e-9);
    }

    /// Clipping against a grid of rects that tiles a region covering the
    /// triangle conserves the triangle's area exactly.
    #[test]
    fn grid_partition_conserves_area(t in arb_triangle(1.5)) {
        // 4x4 grid over [-2,2]^2 always covers the triangle.
        let mut total = 0.0;
        for i in 0..4 {
            for j in 0..4 {
                let r = Rect::new(
                    -2.0 + i as f64, -2.0 + j as f64,
                    -1.0 + i as f64, -1.0 + j as f64,
                );
                total += clip_triangle_rect(&t, &r).area();
            }
        }
        prop_assert!((total - t.area()).abs() < 1e-9 * (1.0 + t.area()),
            "partition area {} != triangle area {}", total, t.area());
    }

    /// Fan triangulation of the clipped polygon has the same area as the
    /// polygon itself.
    #[test]
    fn fan_triangulation_area(t in arb_triangle(2.0), r in arb_rect(2.0)) {
        let clipped = clip_triangle_rect(&t, &r);
        let fan: f64 = fan_triangulate(&clipped).map(|s| s.area()).sum();
        prop_assert!((fan - clipped.area()).abs() < 1e-12 + 1e-12 * clipped.area());
    }

    /// The specialized rect clip agrees with the general polygon clip.
    #[test]
    fn rect_clip_matches_general_clip(t in arb_triangle(2.0), r in arb_rect(2.0)) {
        let fast = clip_triangle_rect(&t, &r).area();
        let general = clip_polygon(&t.to_polygon(), &r.to_polygon()).area();
        prop_assert!((fast - general).abs() < 1e-10);
    }

    /// Clipping is monotone under rect growth: a larger rect never yields a
    /// smaller intersection.
    #[test]
    fn monotone_in_rect(t in arb_triangle(2.0), r in arb_rect(1.5), grow in 0.0..1.0f64) {
        let big = Rect::new(r.x0 - grow, r.y0 - grow, r.x1 + grow, r.y1 + grow);
        let a_small = clip_triangle_rect(&t, &r).area();
        let a_big = clip_triangle_rect(&t, &big).area();
        prop_assert!(a_big + 1e-12 >= a_small);
    }

    /// Triangle containment in its own AABB-derived rect is the identity.
    #[test]
    fn clip_by_own_bbox_is_identity(t in arb_triangle(2.0)) {
        let b = t.aabb();
        let r = Rect::new(b.min.x, b.min.y, b.max.x, b.max.y);
        let clipped = clip_triangle_rect(&t, &r);
        prop_assert!((clipped.area() - t.area()).abs() < 1e-10 * (1.0 + t.area()));
    }
}

/// Hand-written degenerate placements on a lattice of exactly representable
/// lines (x, y ∈ {0, ¼, ½, ¾, 1}), each in both orientations: the ties a
/// clip decides with `>= 0`, where a skipped pass and a run one could differ
/// if they were not the same pass.
#[test]
fn degenerate_placements_clip_bitwise_like_the_four_pass_clip() {
    let lattice = Lattice {
        center: Point2::new(0.5, 0.5),
        h: 0.25,
        n: 4,
    };
    assert_eq!(lattice.cell(1, 2), Rect::new(0.25, 0.5, 0.5, 0.75));
    let table: [(&str, [(f64, f64); 3]); 9] = [
        (
            "vertex on a lattice line",
            [(0.25, 0.3), (0.4, 0.35), (0.3, 0.45)],
        ),
        (
            "vertex on a lattice corner",
            [(0.5, 0.5), (0.7, 0.55), (0.55, 0.8)],
        ),
        (
            "edge collinear with a vertical line",
            [(0.25, 0.1), (0.25, 0.4), (0.1, 0.2)],
        ),
        (
            "edge collinear with a horizontal line",
            [(0.3, 0.5), (0.6, 0.5), (0.45, 0.7)],
        ),
        (
            "touches the support along its right edge",
            [(1.0, 0.2), (1.3, 0.3), (1.0, 0.6)],
        ),
        (
            "touches the support at one corner",
            [(1.0, 1.0), (1.2, 1.1), (1.1, 1.3)],
        ),
        (
            "zero-area sliver across three cells",
            [(0.1, 0.1), (0.4, 0.4), (0.7, 0.7)],
        ),
        (
            "covers whole cells",
            [(-1.0, -1.0), (3.0, -1.0), (0.5, 3.0)],
        ),
        (
            "is one cell's half",
            [(0.5, 0.25), (0.75, 0.25), (0.5, 0.5)],
        ),
    ];
    for (name, [a, b, c]) in table {
        let at = |(x, y)| Point2::new(x, y);
        for tri in [
            Triangle::new(at(a), at(b), at(c)),
            Triangle::new(at(a), at(c), at(b)),
        ] {
            if let Err(message) = check_lattice(&tri, &lattice) {
                panic!("a triangle that {name}: {message}");
            }
        }
    }
}
