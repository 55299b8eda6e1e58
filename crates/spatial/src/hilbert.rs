//! Hilbert space-filling-curve ordering for evaluation points and mesh
//! elements.
//!
//! The evaluation schemes decide *which* (element, point) pairs interact,
//! but nothing upstream controls *in what order* those pairs are visited.
//! A Hilbert curve maps the unit square onto a 1-D index such that points
//! close on the curve are close in the plane (and, unlike a Z-order curve,
//! without long diagonal jumps), so sorting points or element centroids by
//! their Hilbert index turns spatial locality into *memory* locality: CSR
//! rows of a compiled plan read nearby coefficient columns, and the direct
//! schemes revisit recently-touched elements while they are still cached.
//!
//! The module provides the curve itself ([`hilbert_d`]), a reusable
//! [`Permutation`] two-way index map, and the two orderings the engines
//! consume: [`hilbert_order_points`] for evaluation points and
//! [`hilbert_order_elements`] for mesh triangles (keyed by centroid).

use ustencil_geometry::{Aabb, Point2};
use ustencil_mesh::TriMesh;

/// Resolution of the discrete Hilbert curve used for ordering: the unit
/// square is quantized to a `2^ORDER × 2^ORDER` lattice. 16 bits per axis
/// puts distinct f64 coordinates in distinct cells for any mesh size this
/// library targets (a 1024k-element mesh has mean spacing ≈ 1e-3, versus a
/// cell size of 2^-16 ≈ 1.5e-5); ties that do collide are broken by index.
pub const HILBERT_ORDER: u32 = 16;

/// Distance along the Hilbert curve of order `order` for the lattice cell
/// `(x, y)`, with `x, y < 2^order`.
///
/// Standard bit-twiddling formulation (Lam & Shapiro): walk from the most
/// significant bit down, rotating/reflecting the quadrant frame as the
/// curve recurses.
pub fn hilbert_d(order: u32, mut x: u32, mut y: u32) -> u64 {
    debug_assert!(order <= 31);
    let mut d: u64 = 0;
    let mut s = 1u32 << (order - 1);
    while s > 0 {
        let rx = u32::from(x & s > 0);
        let ry = u32::from(y & s > 0);
        d += u64::from(s) * u64::from(s) * u64::from((3 * rx) ^ ry);
        // Rotate the quadrant so the sub-curve enters/exits correctly.
        if ry == 0 {
            if rx == 1 {
                x = s.wrapping_sub(1).wrapping_sub(x) & (s.wrapping_mul(2) - 1);
                y = s.wrapping_sub(1).wrapping_sub(y) & (s.wrapping_mul(2) - 1);
            }
            std::mem::swap(&mut x, &mut y);
        }
        s >>= 1;
    }
    d
}

/// Hilbert key of a point inside `bounds`, quantized to [`HILBERT_ORDER`]
/// bits per axis. Points outside the box are clamped to its edge.
pub fn hilbert_key(p: Point2, bounds: &Aabb) -> u64 {
    let side = 1u32 << HILBERT_ORDER;
    let fx = (p.x - bounds.min.x) / (bounds.max.x - bounds.min.x).max(f64::MIN_POSITIVE);
    let fy = (p.y - bounds.min.y) / (bounds.max.y - bounds.min.y).max(f64::MIN_POSITIVE);
    let q = |f: f64| -> u32 {
        let c = (f * f64::from(side)) as i64;
        c.clamp(0, i64::from(side) - 1) as u32
    };
    hilbert_d(HILBERT_ORDER, q(fx), q(fy))
}

/// A two-way index permutation between a *new* (reordered) numbering and
/// the *old* (original) numbering.
///
/// `forward[new] = old` and `inverse[old] = new`; both directions are
/// materialized because producers iterate in new order (forward lookup)
/// while consumers scatter results back to original indices (inverse
/// lookup). Indices are `u32` to match the mesh and CSR column width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    forward: Vec<u32>,
    inverse: Vec<u32>,
}

impl Permutation {
    /// Builds a permutation from its forward (new → old) map.
    ///
    /// # Panics
    /// In debug builds, if `forward` is not a permutation of `0..len`.
    pub fn from_forward(forward: Vec<u32>) -> Self {
        let mut inverse = vec![u32::MAX; forward.len()];
        for (new, &old) in forward.iter().enumerate() {
            debug_assert!(
                inverse[old as usize] == u32::MAX,
                "duplicate index {old} in permutation"
            );
            inverse[old as usize] = new as u32;
        }
        debug_assert!(inverse.iter().all(|&v| v != u32::MAX));
        Self { forward, inverse }
    }

    /// The identity permutation on `n` indices.
    pub fn identity(n: usize) -> Self {
        Self::from_forward((0..n as u32).collect())
    }

    /// Number of indices.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// Whether the permutation is empty.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// The original index stored at reordered position `new`.
    #[inline]
    pub fn old_of(&self, new: usize) -> usize {
        self.forward[new] as usize
    }

    /// The reordered position of original index `old`.
    #[inline]
    pub fn new_of(&self, old: usize) -> usize {
        self.inverse[old] as usize
    }

    /// Forward map (`forward[new] = old`).
    pub fn forward(&self) -> &[u32] {
        &self.forward
    }

    /// Inverse map (`inverse[old] = new`).
    pub fn inverse(&self) -> &[u32] {
        &self.inverse
    }

    /// Gathers `src` (indexed by old numbering) into new order:
    /// `out[new] = src[forward[new]]`.
    pub fn gather<T: Copy>(&self, src: &[T]) -> Vec<T> {
        assert_eq!(src.len(), self.forward.len());
        self.forward.iter().map(|&old| src[old as usize]).collect()
    }

    /// Scatters `src` (indexed by new numbering) back to old order:
    /// `out[forward[new]] = src[new]`.
    pub fn scatter<T: Copy + Default>(&self, src: &[T]) -> Vec<T> {
        assert_eq!(src.len(), self.forward.len());
        let mut out = vec![T::default(); src.len()];
        for (new, &old) in self.forward.iter().enumerate() {
            out[old as usize] = src[new];
        }
        out
    }
}

/// Sorts indices `0..keys.len()` by `(key, index)` and returns the
/// resulting new → old permutation. The index tie-break makes the order
/// total (and thus deterministic) even when Hilbert cells collide.
fn order_by_keys(keys: &[u64]) -> Permutation {
    let mut forward: Vec<u32> = (0..keys.len() as u32).collect();
    forward.sort_by_key(|&i| (keys[i as usize], i));
    Permutation::from_forward(forward)
}

/// Orders a point set along the Hilbert curve of its bounding box.
pub fn hilbert_order_points(points: &[Point2]) -> Permutation {
    let bounds = bounds_of(points.iter().copied());
    let keys: Vec<u64> = points.iter().map(|&p| hilbert_key(p, &bounds)).collect();
    order_by_keys(&keys)
}

/// Orders the triangles of a mesh along the Hilbert curve of the centroid
/// bounding box.
pub fn hilbert_order_elements(mesh: &TriMesh) -> Permutation {
    let centroids: Vec<Point2> = (0..mesh.n_triangles()).map(|i| mesh.centroid(i)).collect();
    hilbert_order_points(&centroids)
}

fn bounds_of(points: impl Iterator<Item = Point2>) -> Aabb {
    let bounds = Aabb::from_points(points);
    if bounds.is_empty() {
        // Empty input: any valid box works; keys are never computed.
        Aabb::new(Point2::ORIGIN, Point2::new(1.0, 1.0))
    } else {
        bounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hilbert_d_visits_every_cell_once() {
        for order in 1..=4u32 {
            let side = 1u32 << order;
            let mut seen = vec![false; (side * side) as usize];
            for x in 0..side {
                for y in 0..side {
                    let d = hilbert_d(order, x, y) as usize;
                    assert!(d < seen.len());
                    assert!(!seen[d], "cell ({x},{y}) repeats index {d}");
                    seen[d] = true;
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn hilbert_d_consecutive_indices_are_adjacent_cells() {
        // The defining property of the curve: stepping d -> d+1 moves to a
        // 4-neighbour cell (no diagonal jumps).
        let order = 5u32;
        let side = 1u32 << order;
        let mut cell_of = vec![(0u32, 0u32); (side * side) as usize];
        for x in 0..side {
            for y in 0..side {
                cell_of[hilbert_d(order, x, y) as usize] = (x, y);
            }
        }
        for w in cell_of.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            let dist = x0.abs_diff(x1) + y0.abs_diff(y1);
            assert_eq!(dist, 1, "jump between {:?} and {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn permutation_round_trip() {
        let p = Permutation::from_forward(vec![2, 0, 3, 1]);
        for old in 0..4 {
            assert_eq!(p.old_of(p.new_of(old)), old);
        }
        let data = [10.0, 11.0, 12.0, 13.0];
        let gathered = p.gather(&data);
        assert_eq!(gathered, vec![12.0, 10.0, 13.0, 11.0]);
        assert_eq!(p.scatter(&gathered), data.to_vec());
    }

    #[test]
    fn identity_is_identity() {
        let p = Permutation::identity(5);
        let data = [1, 2, 3, 4, 5];
        assert_eq!(p.gather(&data), data.to_vec());
        assert_eq!(p.scatter(&data), data.to_vec());
    }

    #[test]
    fn point_order_is_deterministic_and_complete() {
        let pts: Vec<Point2> = (0..100)
            .map(|i| {
                let t = i as f64 * 0.61803398875;
                Point2::new(t.fract(), (t * 1.32471795724).fract())
            })
            .collect();
        let a = hilbert_order_points(&pts);
        let b = hilbert_order_points(&pts);
        assert_eq!(a, b);
        let mut seen = a.forward().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..100u32).collect::<Vec<_>>());
    }

    #[test]
    fn hilbert_order_improves_neighbour_distance_over_shuffled() {
        // Mean distance between consecutive points in the ordering should
        // be much smaller after Hilbert sorting than in a scrambled order.
        let pts: Vec<Point2> = (0..400)
            .map(|i| {
                let t = i as f64 * 0.61803398875;
                Point2::new(t.fract(), (t * 1.32471795724).fract())
            })
            .collect();
        let mean_step = |order: &[u32]| -> f64 {
            order
                .windows(2)
                .map(|w| pts[w[0] as usize].distance(pts[w[1] as usize]))
                .sum::<f64>()
                / (order.len() - 1) as f64
        };
        let natural: Vec<u32> = (0..400).collect();
        let hilbert = hilbert_order_points(&pts);
        assert!(
            mean_step(hilbert.forward()) < 0.5 * mean_step(&natural),
            "hilbert {} vs natural {}",
            mean_step(hilbert.forward()),
            mean_step(&natural)
        );
    }
}
