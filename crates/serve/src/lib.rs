//! Multi-tenant plan-cache service: the serving layer over `ustencil-plan`.
//!
//! The paper's economics are compile-once/apply-many: an
//! [`EvalPlan`](ustencil_plan::EvalPlan) costs seconds to compile and
//! milliseconds to apply. A production deployment — many clients querying
//! fields over a shared mesh catalog — therefore lives or dies on never
//! compiling the same plan twice. This crate is that layer, and the
//! workspace's one plan cache, in two pieces:
//!
//! * [`PlanCache`] — a concurrent cache keyed by
//!   [`PlanKey`](ustencil_plan::PlanKey) (content hashes, so same-shape
//!   different-content meshes can never alias). Cold keys compile under
//!   **single flight**: one compile per key no matter how many requesters
//!   race, the rest block and share the result. A compiled plan stays
//!   resident, in memory: loading a stored plan was measured slower than
//!   recompiling it (DESIGN.md §9).
//! * [`traffic`] — the deterministic zipf traffic generator behind
//!   `reproduce serve`: client threads that each look their plans up in
//!   the cache and apply them, or compile per request (the naive
//!   baseline), over the same seeded request stream. Every request is
//!   timed into per-tenant [`Hist64`](ustencil_trace::Hist64) ledgers
//!   surfaced as [`ServeStats`](ustencil_core::ServeStats) in `RunRecord`
//!   JSON.
//!
//! Correctness stance: caching changes *when* work happens, never *what*
//! is computed — every requester of a key receives the same shared plan
//! (tested in `tests/single_flight.rs`).

#![deny(missing_docs)]

mod cache;
pub mod traffic;

pub use cache::{CacheSnapshot, Outcome, PlanCache};
pub use traffic::{TrafficConfig, TrafficOutcome, SCHEME_LABEL};
