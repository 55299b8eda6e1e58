//! The message boundary: everything that crosses a rank after the
//! scatter goes through here, and that is the halo exchange alone.
//!
//! A [`Transport`] endpoint can send a [`Message`] to any rank and receive
//! messages addressed to itself. A message owns its coefficients outright
//! — no shared reference to field or solution data crosses a rank — so an
//! in-process fabric moves it without serialising anything. The contract
//! is the one `mpsc`, TCP and MPI give: every accepted message is
//! delivered exactly once, or the endpoint reports
//! [`TransportError::Closed`]; order is not promised. Nothing above this
//! trait re-derives that guarantee — a lossy datagram transport would carry
//! its own acknowledgement protocol *inside* its `Transport` impl, where the
//! loss model is known. The one failure no transport can mask, a dead rank,
//! is the schedule's ([`schedule`](crate::schedule): the worker hands back
//! no result at join, and the coordinator re-resolves it).

use std::time::Duration;

/// Bytes of the fixed message header charged to the wire alongside the
/// payload: `from` + `to` + the kind byte and the 8-byte flow id of retired
/// layouts, kept so the counted traffic stays comparable across reports.
pub const HEADER_BYTES: u64 = 4 + 4 + 1 + 8;

/// One halo message: the modal coefficients of elements `ids`,
/// `values.len() / ids.len()` per element, in `ids` order. Cross-rank data
/// exists *only* in this form.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Sending rank.
    pub from: u32,
    /// Destination rank.
    pub to: u32,
    /// The elements whose coefficients these are.
    pub ids: Vec<u32>,
    /// Element-major coefficients.
    pub values: Vec<f64>,
}

impl Message {
    /// Bytes this message would occupy on a wire: the header, a
    /// `u32`-length-prefixed list of `u32` ids and an `f64` per value,
    /// little-endian. This is what [`CommStats`](ustencil_trace::CommStats)
    /// and the cost model's comm term charge.
    pub fn wire_bytes(&self) -> u64 {
        HEADER_BYTES + (4 + 4 * self.ids.len() + 8 * self.values.len()) as u64
    }
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
        let msg = Message {
            from: 0,
            to: 1,
            ids: vec![3, 7],
            values: vec![0.0; 6],
        };
        assert_eq!(msg.wire_bytes(), HEADER_BYTES + 4 + 2 * 4 + 6 * 8);
        // from + to + the kind byte + the retired flow id.
        assert_eq!(HEADER_BYTES, 17);
    }
}
