//! # ustencil
//!
//! A scalable, efficient scheme for evaluating stencil computations over
//! unstructured meshes — a Rust implementation of King & Kirby (SC '13),
//! built around SIAC post-processing of discontinuous Galerkin solutions.
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! * [`geometry`] — clipping, triangulation, geometric primitives,
//! * [`quadrature`] — Gauss and triangle rules,
//! * [`mesh`] — unstructured triangular meshes and generators,
//! * [`dg`] — modal discontinuous Galerkin fields,
//! * [`siac`] — B-spline convolution kernels,
//! * [`spatial`] — uniform hash grids,
//! * [`engine`] — the per-point / per-element stencil evaluators, overlapped
//!   tiling and the streaming-device model,
//! * [`plan`] — the evaluation-plan compiler: precompute the stencil
//!   geometry once, apply it to many fields as a sparse operator
//!   (see DESIGN.md §9), plus the incremental patch engine that
//!   revalidates a compiled plan after a mesh edit (see DESIGN.md §16),
//! * [`dist`] — the rank-sharded execution runtime: explicit halo
//!   exchange over a serialized transport, dead-rank recovery, and
//!   per-rank comms accounting (see DESIGN.md §11),
//! * [`serve`] — the multi-tenant plan-cache service: a byte-budgeted
//!   concurrent cache with single-flight compilation and a bounded
//!   request queue with per-tenant ledgers (see DESIGN.md §14),
//! * [`trace`] — phase spans, streaming histograms, imbalance summaries and
//!   the JSON run reports (see DESIGN.md, "Observability").
//!
//! See `examples/quickstart.rs` for the five-minute tour and
//! `examples/timeseries_postprocess.rs` for the compile-once/apply-many
//! plan workflow.

#![deny(missing_docs)]

pub use ustencil_core as engine;
pub use ustencil_dg as dg;
pub use ustencil_dist as dist;
pub use ustencil_geometry as geometry;
pub use ustencil_mesh as mesh;
pub use ustencil_plan as plan;
pub use ustencil_quadrature as quadrature;
pub use ustencil_serve as serve;
pub use ustencil_siac as siac;
pub use ustencil_spatial as spatial;
pub use ustencil_trace as trace;

pub use ustencil_core::prelude::*;
pub use ustencil_dist::{run_dist, run_plan_dist, DistOptions, DistSolution};
pub use ustencil_plan::{DirtySet, EvalPlan, PatchError, PlanDelta, PlanKey};
pub use ustencil_serve::{PlanCache, PlanServer};
