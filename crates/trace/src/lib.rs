//! Observability primitives for the stencil evaluation pipeline.
//!
//! Everything here is dependency-free and designed to stay out of the hot
//! loop's way:
//!
//! * [`span`] — nested, scoped phase timers ([`Tracer`] / [`SpanGuard`])
//!   that compile down to nothing but a branch when disabled;
//! * [`hist`] — fixed-size, allocation-free log2-bucketed histograms
//!   ([`Hist64`]) for streaming distributions (the serve ledgers' request
//!   latencies);
//! * [`imbalance`] — per-patch load-balance summaries
//!   ([`ImbalanceSummary`]: max/mean, coefficient of variation, Gini);
//! * [`json`] — a hand-rolled JSON value type ([`Json`]) with writer *and*
//!   parser, so run reports round-trip without external crates;
//! * [`record`] — one declaration per report record: the [`JsonField`]
//!   trait and the [`json_record!`] / [`json_counters!`] macros that emit a
//!   struct together with its JSON form;
//! * [`comm`] — per-endpoint communication counters ([`CommStats`]) for
//!   the rank-sharded runtime's transports.
//!
//! The evaluation engine (`ustencil-core`) threads these through its
//! per-patch runs and surfaces them as a `RunReport`, which the
//! `reproduce` harness writes with `--json` and validates with `checkjson`.

#![deny(missing_docs)]

pub mod comm;
pub mod hist;
pub mod imbalance;
pub mod json;
pub mod record;
pub mod span;

pub use comm::CommStats;
pub use hist::Hist64;
pub use imbalance::ImbalanceSummary;
pub use json::Json;
pub use record::JsonField;
pub use span::{SpanGuard, SpanRecord, Tracer};
