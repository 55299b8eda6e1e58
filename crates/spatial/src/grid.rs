//! The flat uniform bucket grid.

use ustencil_geometry::Point2;

/// Boundary handling of grid queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// Cell indices wrap modulo the grid size (the paper's periodic
    /// setting).
    Periodic,
    /// Query ranges are clamped to the domain (one-sided boundary setting).
    Clamped,
}

/// A uniform hash grid over the unit square storing `u32` item ids per cell
/// in a CSR (offsets + items) layout — one flat allocation, cache-friendly
/// iteration, no per-cell `Vec` overhead.
#[derive(Debug, Clone)]
pub struct UniformGrid {
    n: usize,
    cell: f64,
    boundary: Boundary,
    offsets: Vec<u32>,
    items: Vec<u32>,
}

impl UniformGrid {
    /// Builds a grid over `[0,1]^2` from item positions.
    ///
    /// `min_cell` is the *minimum* cell size; the actual size is `1/n` for
    /// the largest integer `n` with `1/n >= min_cell` (so the enclosure
    /// guarantees that motivate `min_cell` are preserved — see Section 3.2's
    /// minimum-cell-size rule).
    ///
    /// # Panics
    /// Panics when `min_cell` is not positive or positions are outside
    /// `[0, 1]^2` by more than a rounding margin.
    pub fn from_positions(positions: &[Point2], min_cell: f64, boundary: Boundary) -> Self {
        assert!(min_cell > 0.0, "cell size must be positive");
        let n = ((1.0 / min_cell).floor() as usize).max(1);
        let cell = 1.0 / n as f64;

        // Counting pass.
        let mut counts = vec![0u32; n * n];
        let cell_index = |p: Point2| -> usize {
            debug_assert!(
                (-1e-9..=1.0 + 1e-9).contains(&p.x) && (-1e-9..=1.0 + 1e-9).contains(&p.y),
                "position {p:?} outside the unit square"
            );
            let ix = ((p.x / cell) as usize).min(n - 1);
            let iy = ((p.y / cell) as usize).min(n - 1);
            iy * n + ix
        };
        for &p in positions {
            counts[cell_index(p)] += 1;
        }
        // Prefix sum into offsets.
        let mut offsets = vec![0u32; n * n + 1];
        for i in 0..n * n {
            offsets[i + 1] = offsets[i] + counts[i];
        }
        // Fill pass.
        let mut cursor = offsets[..n * n].to_vec();
        let mut items = vec![0u32; positions.len()];
        for (id, &p) in positions.iter().enumerate() {
            let c = cell_index(p);
            items[cursor[c] as usize] = id as u32;
            cursor[c] += 1;
        }

        Self {
            n,
            cell,
            boundary,
            offsets,
            items,
        }
    }

    /// Cells per side.
    #[inline]
    pub fn cells_per_side(&self) -> usize {
        self.n
    }

    /// Actual cell width (`>= min_cell` requested at construction).
    #[inline]
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Items of one cell by `(ix, iy)` index (must be in range).
    #[inline]
    pub fn cell_items(&self, ix: usize, iy: usize) -> &[u32] {
        let c = iy * self.n + ix;
        &self.items[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }

    /// The inclusive wrapped/clamped cell span covering `[lo, hi]` along one
    /// axis, returned as `(first_index, count)`; `count` never exceeds the
    /// grid size, so no cell is visited twice even when the query is wider
    /// than the domain.
    pub fn axis_span(&self, lo: f64, hi: f64) -> (usize, usize) {
        debug_assert!(hi >= lo);
        let nf = self.n as f64;
        match self.boundary {
            Boundary::Periodic => {
                let i_lo = (lo / self.cell).floor() as i64;
                let i_hi = (hi / self.cell).floor() as i64;
                let count = ((i_hi - i_lo + 1).max(1) as usize).min(self.n);
                let first = i_lo.rem_euclid(self.n as i64) as usize;
                (first, count)
            }
            Boundary::Clamped => {
                let i_lo = (lo / self.cell).floor().clamp(0.0, nf - 1.0) as usize;
                let i_hi = (hi / self.cell).floor().clamp(0.0, nf - 1.0) as usize;
                (i_lo, i_hi - i_lo + 1)
            }
        }
    }

    /// Visits every item in cells covering the rectangle `[lo, hi]`,
    /// passing the item id. Cells are visited once; items in a cell are
    /// visited in insertion order.
    pub fn for_each_in_rect<F: FnMut(u32)>(&self, lo: Point2, hi: Point2, mut f: F) {
        let (x0, xc) = self.axis_span(lo.x, hi.x);
        let (y0, yc) = self.axis_span(lo.y, hi.y);
        for dy in 0..yc {
            let iy = (y0 + dy) % self.n;
            for dx in 0..xc {
                let ix = (x0 + dx) % self.n;
                for &id in self.cell_items(ix, iy) {
                    f(id);
                }
            }
        }
    }

    /// Number of cells a rect query would touch (used by the cost model).
    pub fn cells_in_rect(&self, lo: Point2, hi: Point2) -> usize {
        let (_, xc) = self.axis_span(lo.x, hi.x);
        let (_, yc) = self.axis_span(lo.y, hi.y);
        xc * yc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl UniformGrid {
        /// Total stored items.
        pub(crate) fn len(&self) -> usize {
            self.items.len()
        }
    }

    fn sample_points() -> Vec<Point2> {
        let mut pts = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                pts.push(Point2::new(
                    (i as f64 + 0.5) / 10.0,
                    (j as f64 + 0.5) / 10.0,
                ));
            }
        }
        pts
    }

    #[test]
    fn grid_size_respects_minimum_cell() {
        let g = UniformGrid::from_positions(&sample_points(), 0.3, Boundary::Periodic);
        assert_eq!(g.cells_per_side(), 3); // 1/3 >= 0.3
        assert!(g.cell_size() >= 0.3);
        let g = UniformGrid::from_positions(&sample_points(), 0.05, Boundary::Periodic);
        assert_eq!(g.cells_per_side(), 20);
    }

    #[test]
    fn all_items_stored_exactly_once() {
        let pts = sample_points();
        let g = UniformGrid::from_positions(&pts, 0.13, Boundary::Periodic);
        assert_eq!(g.len(), pts.len());
        let mut seen = vec![false; pts.len()];
        for iy in 0..g.cells_per_side() {
            for ix in 0..g.cells_per_side() {
                for &id in g.cell_items(ix, iy) {
                    assert!(!seen[id as usize]);
                    seen[id as usize] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn rect_query_finds_exactly_covering_cells_items() {
        let pts = sample_points();
        let g = UniformGrid::from_positions(&pts, 0.1, Boundary::Periodic);
        // Query around one point: must find it.
        let target = Point2::new(0.55, 0.35);
        let mut found = Vec::new();
        g.for_each_in_rect(
            Point2::new(target.x - 0.01, target.y - 0.01),
            Point2::new(target.x + 0.01, target.y + 0.01),
            |id| found.push(id),
        );
        assert!(found
            .iter()
            .any(|&id| pts[id as usize].distance(target) < 0.1));
    }

    #[test]
    fn query_is_superset_of_brute_force() {
        // Every point inside the query rect must be visited.
        let pts = sample_points();
        let g = UniformGrid::from_positions(&pts, 0.07, Boundary::Periodic);
        let lo = Point2::new(0.22, 0.41);
        let hi = Point2::new(0.63, 0.77);
        let mut visited = vec![false; pts.len()];
        g.for_each_in_rect(lo, hi, |id| visited[id as usize] = true);
        for (i, p) in pts.iter().enumerate() {
            if p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y {
                assert!(visited[i], "missed point {p:?}");
            }
        }
    }

    #[test]
    fn periodic_wrap_visits_each_cell_once() {
        let pts = sample_points();
        let g = UniformGrid::from_positions(&pts, 0.1, Boundary::Periodic);
        // Query wider than the domain must visit every item exactly once.
        let mut count = vec![0u32; pts.len()];
        g.for_each_in_rect(Point2::new(-2.0, -2.0), Point2::new(3.0, 3.0), |id| {
            count[id as usize] += 1
        });
        assert!(count.iter().all(|&c| c == 1), "duplicated visits");
    }

    #[test]
    fn periodic_query_crossing_boundary_finds_wrapped_items() {
        let pts = vec![Point2::new(0.02, 0.5), Point2::new(0.98, 0.5)];
        let g = UniformGrid::from_positions(&pts, 0.1, Boundary::Periodic);
        // Query just left of 0 wraps to the right edge.
        let mut found = Vec::new();
        g.for_each_in_rect(Point2::new(-0.06, 0.45), Point2::new(0.04, 0.55), |id| {
            found.push(id)
        });
        assert!(found.contains(&0));
        assert!(found.contains(&1), "wrapped item not found: {found:?}");
    }

    #[test]
    fn clamped_query_does_not_wrap() {
        let pts = vec![Point2::new(0.02, 0.5), Point2::new(0.98, 0.5)];
        let g = UniformGrid::from_positions(&pts, 0.1, Boundary::Clamped);
        let mut found = Vec::new();
        g.for_each_in_rect(Point2::new(-0.06, 0.45), Point2::new(0.04, 0.55), |id| {
            found.push(id)
        });
        assert!(found.contains(&0));
        assert!(!found.contains(&1));
    }

    #[test]
    fn cells_in_rect_counts() {
        let g = UniformGrid::from_positions(&sample_points(), 0.1, Boundary::Periodic);
        assert_eq!(
            g.cells_in_rect(Point2::new(0.05, 0.05), Point2::new(0.06, 0.06)),
            1
        );
        assert_eq!(
            g.cells_in_rect(Point2::new(0.05, 0.05), Point2::new(0.15, 0.06)),
            2
        );
        // Never more than the whole grid.
        assert_eq!(
            g.cells_in_rect(Point2::new(-5.0, -5.0), Point2::new(5.0, 5.0)),
            100
        );
    }

    #[test]
    fn boundary_edge_positions_are_accepted() {
        let pts = vec![Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)];
        let g = UniformGrid::from_positions(&pts, 0.25, Boundary::Periodic);
        assert_eq!(g.len(), 2);
    }
}
