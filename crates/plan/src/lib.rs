//! Evaluation plans: compile the stencil geometry once, apply it to many
//! fields as a sparse operator.
//!
//! Everything geometric in the convolution (Eq. 1–2) — stencil placement,
//! Sutherland–Hodgman clipping, fan triangulation, quadrature nodes, and the
//! `K(x)K(y) · φ_j` kernel-times-basis products — depends only on
//! `(mesh, grid, kernel)`, never on the dG coefficients. The direct
//! [`PostProcessor::run`](ustencil_core::PostProcessor::run) recomputes all
//! of it per call; for time-dependent output (the paper's motivating use of
//! SIAC filtering) that is the dominant redundant cost.
//!
//! An [`EvalPlan`] removes it. Compilation runs the per-element discovery
//! machinery once and folds quadrature × kernel × basis into per-mode
//! weights: each output point owns a row of `(element, weight[0..n_modes])`
//! entries, and the rows of one element's points are stored together as a
//! group, one column list and one dense weight block (DESIGN.md §9).
//! Applying the plan to a field is then a flat, cache-friendly SpMV-style
//! loop:
//!
//! ```text
//! value[row] = Σ_{entry ∈ row} Σ_m weight[entry][m] · coeff[col(entry)][m]
//! ```
//!
//! parallel over runs of whole row chunks, instrumented with the same
//! `Tracer` spans as the direct pipeline. Plans live in memory —
//! recompiling one is faster than loading it from disk (DESIGN.md §9) —
//! and their size/timing surface through
//! [`RunReport`](ustencil_core::RunReport) as
//! [`PlanStats`](ustencil_core::PlanStats).
//!
//! Entry points:
//!
//! * [`EvalPlan::compile`] — build a plan from a mesh, grid, and the one
//!   [`ExecConfig`](ustencil_core::ExecConfig) compile, patch and apply
//!   all run under;
//! * [`EvalPlan::apply`] / [`EvalPlan::apply_with`] — evaluate a field;
//! * [`PlanKey`] — the content key a plan is cached under (the cache
//!   itself is `ustencil-serve`'s `PlanCache`);
//! * [`EvalPlan::patch`] / [`EvalPlan::patched`] — after a mesh edit,
//!   re-integrate only the changed elements' pairs in the rows whose
//!   `(3k+1)h` footprint touches the dirty region ([`DirtySet::diff`]) and
//!   splice them in ([`PlanDelta`]), sharing untouched row chunks
//!   (DESIGN.md §16).

#![deny(missing_docs)]

mod apply;
mod compile;
mod delta;
#[cfg(test)]
mod gather;
mod key;
mod plan;
mod record;
#[cfg(test)]
mod tests;

pub use apply::PlanSolution;
pub use compile::CompileOptions;
pub use delta::{DirtySet, PatchError, PlanDelta, PATCH_SCHEME_LABEL};
pub use key::{grid_content_hash, mesh_content_hash, PlanKey};
pub use plan::{EvalPlan, SCHEME_LABEL};
