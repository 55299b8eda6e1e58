//! Multi-tenant plan-cache service: the serving layer over `ustencil-plan`.
//!
//! The paper's economics are compile-once/apply-many: an
//! [`EvalPlan`](ustencil_plan::EvalPlan) costs seconds to compile and
//! milliseconds to apply. A production deployment — many clients querying
//! fields over a shared mesh catalog — therefore lives or dies on never
//! compiling the same plan twice. This crate is that layer, and the
//! workspace's one plan cache, in three pieces:
//!
//! * [`PlanCache`] — a concurrent cache keyed by
//!   [`PlanKey`](ustencil_plan::PlanKey) (content hashes, so same-shape
//!   different-content meshes can never alias). Cold keys compile under
//!   **single flight**: one compile per key no matter how many requesters
//!   race, the rest block and share the result. A byte budget on the whole
//!   cache drives LRU eviction, and a mesh-edit miss patches a resident
//!   same-kernel sibling instead of compiling. The cache has one tier,
//!   memory: loading a stored plan was measured slower than recompiling it
//!   (DESIGN.md §9).
//! * [`PlanServer`] — worker threads behind a bounded submission queue
//!   (blocking admission = backpressure). A worker serves one request with
//!   one cache lookup and one apply. Every request is timed into per-tenant
//!   [`Hist64`](ustencil_trace::Hist64) ledgers surfaced as
//!   [`ServeStats`](ustencil_core::ServeStats) in `RunRecord` JSON.
//! * [`traffic`] — the deterministic zipf traffic generator behind
//!   `reproduce serve`, driving cached and naive-per-request-compile modes
//!   over the same seeded request stream for a side-by-side comparison.
//!
//! Correctness stance: caching changes *when* work happens, never *what*
//! is computed — every requester of a key receives the same shared plan,
//! and a patched plan is bitwise the fresh compile (tested in
//! `tests/{single_flight,patch_revalidation}.rs`).

#![deny(missing_docs)]

mod cache;
mod server;
pub mod traffic;

pub use cache::{CacheSnapshot, Outcome, PlanCache};
pub use server::{
    PlanServer, Problem, Response, ServeLedgers, ServerClient, ServerConfig, Ticket, WorkerStat,
};
pub use traffic::{TrafficConfig, TrafficOutcome, SCHEME_LABEL};
