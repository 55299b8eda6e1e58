//! Unstructured 2D triangular meshes over the periodic unit square.
//!
//! The paper evaluates its stencil schemes over Delaunay meshes of the unit
//! square in two statistical classes (Figures 9 and 10): *low variance*
//! (roughly uniform element sizes) and *high variance* (strongly graded
//! element sizes). This crate provides:
//!
//! * [`TriMesh`] — the mesh container with validation and derived geometry,
//! * [`delaunay`] — an incremental Bowyer–Watson Delaunay triangulator with
//!   walk-based point location,
//! * [`generate`] — seeded generators for the paper's mesh classes plus a
//!   structured-pattern mesh for convergence studies,
//! * [`partition`] — the recursive-bisection patch partitioner used by the
//!   overlapped tiling scheme (Section 4),
//! * [`periodic`] — the periodic translates of the unit-square domain,
//! * [`stats`] — element-size statistics (the "variance" classification),
//! * [`amr`] — deterministic mesh edits (midpoint refinement, band
//!   displacement) driving the incremental plan-recompilation workload.

#![deny(missing_docs)]

pub mod amr;
pub mod delaunay;
pub mod generate;
pub mod partition;
pub mod periodic;
pub mod stats;
pub mod trimesh;

pub use amr::{displace_band, elements_on_longest_edge, refine_elements};
pub use delaunay::delaunay_triangulate;
pub use generate::{generate_mesh, MeshClass};
pub use partition::{halo_elements, partition_recursive_bisection, partition_subset, Partition};
pub use periodic::PERIODIC_SHIFTS;
pub use stats::MeshStats;
pub use trimesh::{MeshError, TriMesh};
