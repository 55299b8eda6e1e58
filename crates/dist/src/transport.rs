//! The message boundary: everything that crosses a rank goes through here.
//!
//! A [`Transport`] endpoint can send a [`Message`] to any rank and receive
//! messages addressed to itself. A message owns its typed [`Payload`]
//! outright — no shared reference to field or solution data crosses a rank
//! — so an in-process fabric moves it without serialising anything. The
//! contract is the one `mpsc`, TCP and MPI give: every accepted message is
//! delivered exactly once, or the endpoint reports
//! [`TransportError::Closed`]; order is not promised. Nothing above this
//! trait re-derives that guarantee — a lossy datagram transport would carry
//! its own acknowledgement protocol *inside* its `Transport` impl, where the
//! loss model is known. The one failure no transport can mask, a dead rank,
//! is the schedule's ([`schedule`](crate::schedule): gather deadline, then
//! re-resolve).

use std::time::Duration;
use ustencil_core::{BlockStats, Metrics};
use ustencil_trace::{CommStats, SpanRecord};

/// What a message carries: its [`Payload`]'s kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tag {
    /// Modal coefficients of a set of elements (the halo push).
    HaloCoeffs,
    /// A rank's finished owned-point values plus its execution summary,
    /// sent to the coordinator.
    OwnedValues,
}

impl Tag {
    /// Human-readable label (diagnostics).
    pub fn label(self) -> &'static str {
        match self {
            Tag::HaloCoeffs => "halo.coeffs",
            Tag::OwnedValues => "owned.values",
        }
    }
}

/// Bytes of the fixed message header charged to the wire alongside the
/// payload: `from` + `to` + tag + the 8-byte flow id of the retired
/// flow-traced layout, kept so the counted traffic stays comparable across
/// reports.
pub const HEADER_BYTES: u64 = 4 + 4 + 1 + 8;

/// The data one message hands its receiver.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// [`Tag::HaloCoeffs`]: the modal coefficients of elements `ids`,
    /// `values.len() / ids.len()` per element, in `ids` order.
    Coeffs {
        /// The elements whose coefficients these are.
        ids: Vec<u32>,
        /// Element-major coefficients.
        values: Vec<f64>,
    },
    /// [`Tag::OwnedValues`]: a rank's finished contribution.
    Result(Box<RankResult>),
}

/// One message between ranks. Cross-rank data exists *only* in this form.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Sending rank.
    pub from: u32,
    /// Destination rank.
    pub to: u32,
    /// What the message carries.
    pub payload: Payload,
}

impl Message {
    /// The payload's kind.
    pub fn tag(&self) -> Tag {
        match self.payload {
            Payload::Coeffs { .. } => Tag::HaloCoeffs,
            Payload::Result(_) => Tag::OwnedValues,
        }
    }

    /// Bytes this message would occupy on a wire: the header plus the
    /// payload in a little-endian, `u32`-length-prefixed layout (a `u32`
    /// per id, an `f64` per value, a `u64` per counter, a span's name as a
    /// prefixed byte string). This is what [`CommStats`] and the cost
    /// model's comm term charge.
    pub fn wire_bytes(&self) -> u64 {
        let list = |n: usize, item: usize| 4 + n * item;
        let payload = match &self.payload {
            Payload::Coeffs { ids, values } => list(ids.len(), 4) + 8 * values.len(),
            // Values; the comm counters and three times; per patch wall,
            // elements, points and the work counters; per span a name
            // prefix, depth, start and duration.
            Payload::Result(r) => {
                let names: usize = r.spans.iter().map(|s| s.name.len()).sum();
                list(r.values.len(), 8)
                    + 8 * (CommStats::N_COUNTERS + 3)
                    + list(r.patches.len(), 8 * (3 + Metrics::N_COUNTERS))
                    + list(r.spans.len(), 4 + 4 + 8 + 8)
                    + names
            }
        };
        HEADER_BYTES + payload as u64
    }
}

/// One rank's finished contribution: owned-point values (in the shard
/// plan's owned-point order, ids implicit) plus its execution summary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankResult {
    /// Values of the rank's owned points, shard order.
    pub values: Vec<f64>,
    /// Transport counters snapshotted *before* this message was sent (the
    /// message carrying the snapshot is necessarily excluded from it).
    pub comm: CommStats,
    /// Nanoseconds of communication: the post and the drain.
    pub exchange_ns: u64,
    /// Nanoseconds in the local evaluation pass.
    pub eval_ns: u64,
    /// Nanoseconds in the local reduce phase.
    pub reduce_ns: u64,
    /// Per-patch stats of the rank's evaluation (ranks evaluate unprobed).
    pub patches: Vec<BlockStats>,
    /// The rank's tracer spans (empty when instrumentation is off). Start
    /// offsets are measured from the run's shared epoch, so shipped spans
    /// land on the coordinator's time axis directly.
    pub spans: Vec<SpanRecord>,
}

/// Transport-level failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// The fabric (or the peer's endpoint) has shut down.
    Closed,
    /// No message arrived before the deadline.
    Timeout,
}

/// A reliable, unordered point-to-point message fabric endpoint.
///
/// An implementation delivers every message it accepts exactly once and
/// uncorrupted, in any order, or reports [`TransportError::Closed`]. One
/// endpoint belongs to exactly one rank and is used from that rank's thread
/// only.
pub trait Transport: Send {
    /// This endpoint's rank.
    fn rank(&self) -> u32;

    /// Total ranks in the fabric.
    fn n_ranks(&self) -> u32;

    /// Hands a message to the fabric. `Ok` means it will be delivered, not
    /// that the peer has read it.
    fn send(&mut self, msg: Message) -> Result<(), TransportError>;

    /// Receives the next message addressed to this rank, waiting at most
    /// `timeout`.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Message, TransportError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_include_header() {
        let m = |payload| Message {
            from: 0,
            to: 1,
            payload,
        };
        let coeffs = m(Payload::Coeffs {
            ids: vec![3, 7],
            values: vec![0.0; 6],
        });
        assert_eq!(coeffs.tag(), Tag::HaloCoeffs);
        assert_eq!(coeffs.wire_bytes(), HEADER_BYTES + 4 + 2 * 4 + 6 * 8);
        // Values count, eight fixed u64s, two empty list counts.
        let empty = m(Payload::Result(Box::default()));
        assert_eq!(empty.wire_bytes(), HEADER_BYTES + 4 + 8 * 8 + 2 * 4);
        // from + to + tag + the retired flow id.
        assert_eq!(HEADER_BYTES, 17);
    }
}
