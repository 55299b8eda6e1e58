//! Modal discontinuous Galerkin (dG) fields over unstructured triangular
//! meshes.
//!
//! The SIAC post-processor consumes "an array of the polynomial modes used in
//! the discontinuous Galerkin method" (Section 2.2). This crate provides the
//! dG substrate that produces and evaluates those modes:
//!
//! * [`DubinerBasis`] — the orthonormal Dubiner (collapsed-coordinate Jacobi)
//!   modal basis on the reference triangle; 3 / 6 / 10 modes for linear /
//!   quadratic / cubic elements, exactly the coefficient counts the paper
//!   reports,
//! * [`DgField`] — per-element modal coefficient storage with point
//!   evaluation,
//! * [`project`] — elementwise L2 projection of analytic functions,
//! * [`error`] — quadrature-based L2 / L∞ error norms.

#![deny(missing_docs)]

pub mod basis;
pub mod error;
pub mod field;
pub mod project;

pub use basis::DubinerBasis;
pub use error::l2_error;
pub use field::DgField;
pub use project::project_l2;
