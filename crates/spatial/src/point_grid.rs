//! The per-element hash grid over evaluation points.

use crate::grid::{Boundary, UniformGrid};
use ustencil_geometry::{Aabb, Point2};

/// Uniform hash grid storing evaluation points, used by the per-element
/// evaluation scheme.
///
/// Points are dimensionless, so there is no enclosure constraint and no halo
/// region: cells can be smaller than the longest edge (the paper uses
/// `c_e = s/2`), which tightens the per-element search window to `s + w`
/// against the per-point window of `2s + w` (Figure 6) — the source of the
/// intersection-test reduction in Table 1.
#[derive(Debug, Clone)]
pub struct PointGrid {
    grid: UniformGrid,
}

impl PointGrid {
    /// Builds the grid with explicit minimum cell size (the paper's default
    /// is half the longest mesh edge; see [`PointGrid::build_half_edge`]).
    pub fn build(points: &[Point2], min_cell: f64, boundary: Boundary) -> Self {
        // Positions may sit exactly on the domain boundary.
        let clamped: Vec<Point2> = points
            .iter()
            .map(|p| Point2::new(p.x.clamp(0.0, 1.0), p.y.clamp(0.0, 1.0)))
            .collect();
        Self {
            grid: UniformGrid::from_positions(&clamped, min_cell, boundary),
        }
    }

    /// Builds with the paper's cell size `c_e = s/2`.
    pub fn build_half_edge(points: &[Point2], max_edge: f64, boundary: Boundary) -> Self {
        Self::build(points, max_edge / 2.0, boundary)
    }

    /// The underlying grid.
    #[inline]
    pub fn grid(&self) -> &UniformGrid {
        &self.grid
    }

    /// Visits every point whose stencil of half-width `half_width` can
    /// intersect the element bounding box `bbox` (Eq. 3, per-element
    /// bounds): exactly the points inside the box inflated by `half_width`,
    /// rounded out to cell boundaries.
    pub fn for_each_candidate<F: FnMut(u32)>(&self, bbox: &Aabb, half_width: f64, f: F) {
        self.grid.for_each_in_rect(
            Point2::new(bbox.min.x - half_width, bbox.min.y - half_width),
            Point2::new(bbox.max.x + half_width, bbox.max.y + half_width),
            f,
        );
    }

    /// [`for_each_candidate`](Self::for_each_candidate), appending to
    /// `out`; returns how many cells the query walked (for the cost model).
    pub fn candidates(&self, bbox: &Aabb, half_width: f64, out: &mut Vec<u32>) -> usize {
        let lo = Point2::new(bbox.min.x - half_width, bbox.min.y - half_width);
        let hi = Point2::new(bbox.max.x + half_width, bbox.max.y + half_width);
        self.grid.for_each_in_rect(lo, hi, |id| out.push(id));
        self.grid.cells_in_rect(lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustencil_mesh::PERIODIC_SHIFTS;

    fn lattice(n: usize) -> Vec<Point2> {
        let mut pts = Vec::new();
        for j in 0..n {
            for i in 0..n {
                pts.push(Point2::new(
                    (i as f64 + 0.5) / n as f64,
                    (j as f64 + 0.5) / n as f64,
                ));
            }
        }
        pts
    }

    #[test]
    fn finds_all_points_whose_stencil_reaches_the_box() {
        let pts = lattice(20);
        let grid = PointGrid::build(&pts, 0.05, Boundary::Periodic);
        let bbox = Aabb::new(Point2::new(0.4, 0.4), Point2::new(0.45, 0.5));
        let hw = 0.12;
        let mut found = vec![false; pts.len()];
        grid.for_each_candidate(&bbox, hw, |id| found[id as usize] = true);
        for (i, p) in pts.iter().enumerate() {
            // Point's stencil reaches the box iff the point is within hw of
            // the box (in any periodic image).
            let reaches = PERIODIC_SHIFTS.iter().any(|&s| {
                let q = *p + s;
                q.x >= bbox.min.x - hw
                    && q.x <= bbox.max.x + hw
                    && q.y >= bbox.min.y - hw
                    && q.y <= bbox.max.y + hw
            });
            if reaches {
                assert!(found[i], "missed point {p:?}");
            }
        }
    }

    #[test]
    fn periodic_wrap_near_corner() {
        let pts = lattice(10);
        let grid = PointGrid::build(&pts, 0.1, Boundary::Periodic);
        // Element box at the top-right corner; nearby points wrap from the
        // bottom-left.
        let bbox = Aabb::new(Point2::new(0.97, 0.97), Point2::new(1.0, 1.0));
        let mut found = vec![false; pts.len()];
        grid.for_each_candidate(&bbox, 0.1, |id| found[id as usize] = true);
        // Point (0.05, 0.05) is within 0.1 of the box through the corner
        // wrap.
        let idx = pts
            .iter()
            .position(|p| (p.x - 0.05).abs() < 1e-12 && (p.y - 0.05).abs() < 1e-12)
            .unwrap();
        assert!(found[idx]);
    }

    #[test]
    fn no_duplicates_even_for_huge_queries() {
        let pts = lattice(8);
        let grid = PointGrid::build(&pts, 0.1, Boundary::Periodic);
        let bbox = Aabb::new(Point2::new(0.0, 0.0), Point2::new(1.0, 1.0));
        let mut counts = vec![0u32; pts.len()];
        grid.for_each_candidate(&bbox, 0.5, |id| counts[id as usize] += 1);
        assert!(counts.iter().all(|&c| c == 1));
    }

    #[test]
    fn half_edge_build_uses_smaller_cells() {
        let pts = lattice(16);
        let s = 0.2;
        let grid = PointGrid::build_half_edge(&pts, s, Boundary::Periodic);
        assert!(grid.grid().cell_size() < s);
        assert!(grid.grid().cell_size() >= s / 2.0);
    }

    #[test]
    fn boundary_points_accepted() {
        let pts = vec![Point2::new(0.0, 1.0), Point2::new(1.0, 0.0)];
        let grid = PointGrid::build(&pts, 0.25, Boundary::Clamped);
        assert_eq!(grid.grid().len(), 2);
    }
}
