//! Uniform hash grids for spatial queries over the periodic unit square.
//!
//! Section 3.2 of the paper builds two uniform subdivisions of the domain:
//!
//! * the **per-point** path stores triangle *centroids* in a grid with cell
//!   size `c_p = s` (the longest mesh edge), which guarantees *enclosure* —
//!   no triangle extends farther than one cell from its centroid cell — at
//!   the cost of a one-cell *halo ring* around every stencil query;
//! * the **per-element** path stores *evaluation points* in a grid with cell
//!   size `c_e = s/2`; points are dimensionless, so no halo is needed and
//!   the cells bound the query region tightly.
//!
//! Both are instances of [`UniformGrid`], a flat CSR-layout bucket grid with
//! periodic or clamped boundary handling. [`TriangleGrid`] and [`PointGrid`]
//! wrap it with the Eq. (3) query-bound conventions. Sizing the cells by
//! `s` is what makes a uniform grid enough (Section 3): a range query is an
//! index computation plus a bounded halo ring, with no tree to build or
//! descend.

#![deny(missing_docs)]

pub mod grid;
pub mod point_grid;
pub mod tri_grid;

pub use grid::{Boundary, UniformGrid};
pub use point_grid::PointGrid;
pub use tri_grid::TriangleGrid;
