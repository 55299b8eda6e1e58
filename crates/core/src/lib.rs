//! The stencil evaluation engine: per-point and per-element SIAC
//! post-processing over unstructured meshes, overlapped patch tiling, and a
//! streaming-device cost model.
//!
//! This crate implements the paper's two evaluation strategies
//! (Section 3) and its scalability machinery (Section 4):
//!
//! * [`kernel`] — the shared stencil-traversal layer: one allocation-free
//!   clip/fan-triangulate/quadrature driver parameterized by contribution
//!   sinks, used by every scheme below and by the plan compiler;
//! * [`per_point`] — Algorithm 2: center a stencil on every grid point and
//!   gather intersecting elements through a triangle hash grid (halo ring
//!   included);
//! * [`per_element`] — Algorithm 3: iterate elements, reuse each element's
//!   data across every integration, and scatter partial solutions to the
//!   grid points found through a point hash grid. Spatially overlapped
//!   tiling lives here too: disjoint element patches accumulate partial
//!   solutions in private scratch space, then a reduction sums overlapping
//!   contributions (Figure 7);
//! * [`simd`] — the SIMD policy, its resolution to an ISA, and the one lane
//!   type ([`simd::Lanes`]) each vector kernel is written against; no other
//!   file of the workspace names an intrinsic;
//! * [`device`] — a deterministic streaming-multiprocessor cost model that
//!   converts counted work ([`Metrics`]) into simulated execution time,
//!   standing in for the paper's GPUs (see DESIGN.md, substitutions);
//! * [`config`] / [`blocks`] — the one [`ExecConfig`] every entry point
//!   is configured with, its resolution into a validated [`KernelSetup`],
//!   and the block driver every sweep is cut, scheduled and measured by
//!   (per-block [`BlockStats`]);
//! * [`engine`] — the [`PostProcessor`] front door tying it all together;
//! * [`report`] — the observability layer: counters and per-block stats
//!   collected at join points, unified with phase spans and the cost model
//!   into a JSON-serializable [`RunReport`].
//!
//! The numerical contract: both schemes compute exactly the same convolution
//! (Eq. 1–2), so their outputs agree to rounding; the difference is purely
//! in work distribution, data reuse, and memory behaviour.

#![deny(missing_docs)]

pub mod blocks;
pub mod config;
pub mod device;
pub mod engine;
pub mod grid_points;
pub mod integrate;
pub mod kernel;
pub mod metrics;
pub mod per_element;
pub mod per_point;
pub mod report;
pub mod simd;

pub use blocks::BlockStats;
pub use config::{ExecConfig, KernelSetup};
pub use device::{simulate_ranks, CostModel, DeviceConfig, RankTraffic, SimReport};
pub use engine::{PostProcessor, Scheme, Solution};
pub use grid_points::ComputationGrid;
pub use kernel::{
    AccumulateSolution, AccumulateWeights, ContributionSink, QuadStage, Scratch, ScratchCapacity,
    StencilTraversal,
};
pub use metrics::Metrics;
pub use report::{
    DeltaStats, PlanStats, RankCommRecord, RunRecord, RunReport, ServeStats, SimdRecord,
    TenantLedger, REPORT_SCHEMA_VERSION,
};
pub use simd::{SimdIsa, SimdPolicy, SimdWidth};

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::blocks::BlockStats;
    pub use crate::config::{ExecConfig, KernelSetup};
    pub use crate::device::{simulate_ranks, CostModel, DeviceConfig, RankTraffic, SimReport};
    pub use crate::engine::{PostProcessor, Scheme, Solution};
    pub use crate::grid_points::ComputationGrid;
    pub use crate::metrics::Metrics;
    pub use crate::report::{
        DeltaStats, PlanStats, RankCommRecord, RunRecord, RunReport, ServeStats, SimdRecord,
        TenantLedger, REPORT_SCHEMA_VERSION,
    };
    pub use crate::simd::{SimdIsa, SimdPolicy, SimdWidth};
}
