//! Rank-sharded execution runtime: explicit halo exchange over a message
//! transport, dead-rank recovery, and comms accounting.
//!
//! The paper's scheme tiles an unstructured mesh into overlapped patches
//! whose evaluation needs no communication until an ordered reduction; this
//! crate pushes that structure across *ranks that share nothing*. The mesh is
//! sharded over ranks by the same recursive bisection the in-process
//! tiler uses, and each rank gets a ghost ring sized from the stencil extent
//! `(3k + 1) h`. The problem is scattered when a rank is spawned and its
//! result gathered when it is joined; the one thing that moves between
//! running ranks, the halo exchange, moves inside messages that own their
//! coefficients, through the [`Transport`] trait — no shared references to
//! field or solution data exist between ranks.
//!
//! The stack, bottom to top:
//!
//! * [`transport`] — the halo message and the transport contract: every
//!   accepted message is delivered exactly once, in any order, or the
//!   endpoint reports `Closed`;
//! * [`channel`] — the in-process fabric: `mpsc` channels, ranks on real
//!   threads;
//! * [`link`] — a rank's end of the wire: counts every wire byte. No
//!   protocol — delivery is the transport's contract;
//! * [`shard`] — who owns which elements and points, the ghost-ring width
//!   and the push sets a halo exchange must move;
//! * [`schedule`] — the one rank schedule: scatter at spawn, a thread per
//!   rank, the barrier body (post → drain → one pass) with its spans and
//!   exchange timing, the gather at join, and the assemble loop that
//!   re-resolves a dead rank through the same work's pass. It also owns
//!   what both paths share in public: [`DistOptions`], [`RankReport`] and
//!   [`DistSolution`] with its one set of accessors;
//! * [`push`] / [`pull`] — the two works the schedule runs over the same
//!   ghost ring and the same coefficient push. [`push`] is the sharded
//!   direct per-element scheme ([`run_dist`]): owned ∪ halo elements
//!   scattered onto owned points, two-stage reduction. [`pull`] is the
//!   sharded plan path ([`run_plan_dist`]): per-rank plan compile of owned
//!   rows, then a row-split SpMV — bitwise equal to a global plan apply.
//!
//! Work counters partition exactly (see the module docs of [`push`] and
//! [`pull`] for which components are bit-identical to a single-rank run),
//! wire traffic is counted per rank (every message sent is received once,
//! so Σ received = Σ sent), and both surface through
//! [`RunRecord`](ustencil_core::RunRecord) JSON and the device cost model's
//! communication term.

#![deny(missing_docs)]

pub mod channel;
pub mod link;
pub mod pull;
pub mod push;
pub mod schedule;
pub mod shard;
pub mod transport;

pub use channel::{ChannelEndpoint, ChannelFabric};
pub use link::{DistError, Link};
pub use pull::{run_plan_dist, run_plan_dist_on};
pub use push::{run_dist, run_dist_on};
pub use schedule::{DistOptions, DistSolution, RankReport, SCHEME_LABEL};
pub use shard::{ghost_ring_width, RankShard, ShardPlan};
pub use transport::{Message, Transport, TransportError, HEADER_BYTES};
