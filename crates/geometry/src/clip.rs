//! Sutherland–Hodgman polygon clipping and fan triangulation.
//!
//! This is Algorithm 1 of the paper: the intersection of the convex *subject*
//! polygon (a mesh triangle) with the convex *clip* polygon (a stencil
//! lattice square) is computed by successively clipping the subject against
//! each directed edge of the clip polygon. The resulting convex intersection
//! polygon is then divided into triangular integration sub-regions by a fan
//! triangulation from its first vertex (Figure 4).

use crate::point::{orient2d, Point2};
use crate::polygon::ConvexPolygon;
use crate::rect::Rect;
use crate::triangle::Triangle;

/// Clips the convex `subject` polygon against the convex counter-clockwise
/// `clip` polygon, returning their intersection (possibly empty).
///
/// Both polygons must be convex; `clip` must be counter-clockwise so that
/// "inside" is the left side of each directed edge. The subject's orientation
/// is irrelevant (output orientation follows the subject's).
///
/// The intersection of convex polygons with `n` and `m` vertices has at most
/// `n + m` vertices, which must fit in [`ConvexPolygon::CAPACITY`]; the
/// library's own use (triangle vs. stencil square, at most 7) always does.
pub fn clip_polygon(subject: &ConvexPolygon, clip: &ConvexPolygon) -> ConvexPolygon {
    let mut output = *subject;
    let cv = clip.vertices();
    for (i, &e0) in cv.iter().enumerate() {
        let e1 = cv[(i + 1) % cv.len()];
        clip_pass(&mut output, |p| orient2d(e0, e1, p));
    }
    output
}

/// Clips a triangle against an axis-aligned rectangle: the x-slab, then the
/// y-slab (left, right, bottom, top). The half-plane tests are plain
/// coordinate differences instead of cross products, which is both faster
/// and exactly consistent with the lattice geometry.
///
/// The stencil traversal does not call this per lattice cell: it clips the
/// x-slab once per lattice column and only the y-slab per cell, which is
/// this function's result bit for bit (DESIGN.md §10, "Lattice clip").
pub fn clip_triangle_rect(tri: &Triangle, rect: &Rect) -> ConvexPolygon {
    let mut poly = tri.to_polygon();
    clip_slab_x(&mut poly, rect.x0, rect.x1);
    clip_slab_y(&mut poly, rect.y0, rect.y1);
    poly
}

/// Keeps, in place, the part of `poly` with `x0 <= x <= x1`.
#[inline]
pub fn clip_slab_x(poly: &mut ConvexPolygon, x0: f64, x1: f64) {
    clip_pass(poly, |p| p.x - x0);
    clip_pass(poly, |p| x1 - p.x);
}

/// Keeps, in place, the part of `poly` with `y0 <= y <= y1`.
#[inline]
pub fn clip_slab_y(poly: &mut ConvexPolygon, y0: f64, y1: f64) {
    clip_pass(poly, |p| p.y - y0);
    clip_pass(poly, |p| y1 - p.y);
}

/// One Sutherland–Hodgman pass, in place: keeps the part of `poly` where
/// `signed_dist >= 0`. `signed_dist` must be affine (a half-plane).
///
/// Every vertex is classified first. A polygon wholly inside is left
/// untouched — the pass would re-emit its vertices in order, so skipping it
/// moves no bit — and one wholly outside is emptied. Otherwise each edge
/// writes its crossing point and its end vertex unconditionally and advances
/// the output index only past the ones the pass keeps: the emission order of
/// the textbook loop without its data-dependent branches.
#[inline]
fn clip_pass(poly: &mut ConvexPolygon, signed_dist: impl Fn(Point2) -> f64) {
    const N: usize = ConvexPolygon::CAPACITY;
    let verts = poly.vertices();
    let n = verts.len();
    let mut dist = [0.0; N];
    let mut kept = 0;
    for (d, &v) in dist.iter_mut().zip(verts) {
        *d = signed_dist(v);
        kept += (*d >= 0.0) as usize;
    }
    if kept == n {
        return;
    }
    if kept == 0 {
        poly.clear();
        return;
    }
    // Slot `N` takes what the pass drops. Like `push`, a subject that emits
    // more than `N` vertices (no convex one does) asserts in debug builds
    // and keeps the first `N` in release.
    let mut out = [Point2::ORIGIN; N + 1];
    let mut len = 0;
    let (mut s, mut ds) = (verts[n - 1], dist[n - 1]);
    for (&e, &de) in verts.iter().zip(&dist) {
        let keep_e = de >= 0.0;
        // Where segment `s -> e` meets the zero level; meaningless (and
        // dropped) unless the edge crosses it.
        out[len.min(N)] = s.lerp(e, ds / (ds - de));
        len += if keep_e { ds < 0.0 } else { ds >= 0.0 } as usize;
        out[len.min(N)] = e;
        len += keep_e as usize;
        (s, ds) = (e, de);
    }
    debug_assert!(len <= N, "polygon vertex overflow");
    poly.clear();
    for &v in &out[..len.min(N)] {
        poly.push(v);
    }
}

/// Fan-triangulates a convex polygon from its first vertex.
///
/// Returns an iterator of triangles `(v0, v_i, v_{i+1})`; empty for polygons
/// with fewer than three vertices. The triangulation covers the polygon
/// exactly (areas sum to the polygon area).
pub fn fan_triangulate(poly: &ConvexPolygon) -> impl Iterator<Item = Triangle> + '_ {
    let verts = poly.vertices();
    let n = verts.len();
    (1..n.saturating_sub(1)).map(move |i| Triangle::new(verts[0], verts[i], verts[i + 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri(ax: f64, ay: f64, bx: f64, by: f64, cx: f64, cy: f64) -> Triangle {
        Triangle::new(
            Point2::new(ax, ay),
            Point2::new(bx, by),
            Point2::new(cx, cy),
        )
    }

    fn fan_area(poly: &ConvexPolygon) -> f64 {
        fan_triangulate(poly).map(|t| t.area()).sum()
    }

    #[test]
    fn triangle_fully_inside_rect_is_unchanged() {
        let t = tri(0.2, 0.2, 0.8, 0.2, 0.5, 0.8);
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        let clipped = clip_triangle_rect(&t, &r);
        assert_eq!(clipped.len(), 3);
        assert!((clipped.area() - t.area()).abs() < 1e-15);
    }

    #[test]
    fn triangle_fully_outside_rect_is_empty() {
        let t = tri(2.0, 2.0, 3.0, 2.0, 2.0, 3.0);
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert!(clip_triangle_rect(&t, &r).is_empty());
    }

    #[test]
    fn rect_inside_triangle_yields_rect() {
        let t = tri(-10.0, -10.0, 10.0, -10.0, 0.0, 10.0);
        let r = Rect::new(-0.5, -0.5, 0.5, 0.5);
        let clipped = clip_triangle_rect(&t, &r);
        assert_eq!(clipped.len(), 4);
        assert!((clipped.area() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn half_overlap_area() {
        // Right triangle with legs 2; rect covers x in [0,1]: clipped area is
        // the trapezoid under the hypotenuse y = 2 - x from x=0..1 => 1.5.
        let t = tri(0.0, 0.0, 2.0, 0.0, 0.0, 2.0);
        let r = Rect::new(0.0, 0.0, 1.0, 2.0);
        let clipped = clip_triangle_rect(&t, &r);
        assert!((clipped.area() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn clip_produces_at_most_seven_vertices() {
        // A triangle cutting all four rect corners produces the max vertex
        // count (7 = 3 + 4).
        let t = tri(0.5, -0.6, 1.6, 0.5, -0.6, 0.55);
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        let clipped = clip_triangle_rect(&t, &r);
        assert!(clipped.len() <= 7, "got {} vertices", clipped.len());
        assert!(!clipped.is_empty());
    }

    #[test]
    fn general_polygon_clip_matches_rect_clip() {
        let t = tri(0.1, -0.5, 1.5, 0.3, 0.2, 1.2);
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        let a = clip_triangle_rect(&t, &r);
        let b = clip_polygon(&t.to_polygon(), &r.to_polygon());
        assert!((a.area() - b.area()).abs() < 1e-13);
    }

    #[test]
    fn clip_against_self_is_identity_area() {
        let t = tri(0.0, 0.0, 1.0, 0.0, 0.3, 0.9);
        let p = t.to_polygon();
        let c = clip_polygon(&p, &p);
        assert!((c.area() - p.area()).abs() < 1e-14);
    }

    #[test]
    fn fan_triangulation_covers_polygon() {
        let t = tri(0.5, -0.6, 1.6, 0.5, -0.6, 0.55);
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        let clipped = clip_triangle_rect(&t, &r);
        assert!((fan_area(&clipped) - clipped.area()).abs() < 1e-13);
    }

    #[test]
    fn partition_of_rect_grid_recovers_triangle_area() {
        // Clip a triangle against every cell of a 4x4 grid covering it; the
        // clipped areas must sum to the full triangle area (no double count,
        // nothing missed).
        let t = tri(0.13, 0.21, 3.7, 0.6, 1.9, 3.4);
        let mut total = 0.0;
        for i in 0..4 {
            for j in 0..4 {
                let r = Rect::new(i as f64, j as f64, (i + 1) as f64, (j + 1) as f64);
                total += clip_triangle_rect(&t, &r).area();
            }
        }
        assert!(
            (total - t.area()).abs() < 1e-12,
            "{} vs {}",
            total,
            t.area()
        );
    }

    #[test]
    fn clockwise_subject_clips_to_same_area() {
        let ccw = tri(0.1, -0.5, 1.5, 0.3, 0.2, 1.2);
        let cw = Triangle::new(ccw.a, ccw.c, ccw.b);
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        let a = clip_triangle_rect(&ccw, &r).area();
        let b = clip_triangle_rect(&cw, &r).area();
        assert!((a - b).abs() < 1e-13);
    }

    #[test]
    fn degenerate_sliver_clips_to_zero_area() {
        let t = tri(0.0, 0.0, 1.0, 0.0, 2.0, 0.0);
        let r = Rect::new(0.0, -1.0, 1.0, 1.0);
        let clipped = clip_triangle_rect(&t, &r);
        assert!(clipped.area() < 1e-15);
    }

    #[test]
    fn touching_edge_yields_zero_area() {
        // Triangle sits exactly on top of the rect; intersection is a line.
        let t = tri(0.0, 1.0, 1.0, 1.0, 0.5, 2.0);
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        let clipped = clip_triangle_rect(&t, &r);
        assert!(clipped.area() < 1e-15);
    }
}
