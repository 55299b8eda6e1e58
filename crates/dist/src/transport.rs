//! The message boundary: every byte that crosses a rank goes through here.
//!
//! A [`Transport`] endpoint can send a serialized [`Message`] to any rank
//! and receive messages addressed to itself. The contract is the one
//! `mpsc`, TCP and MPI give: every accepted message is delivered exactly
//! once, or the endpoint reports [`TransportError::Closed`]; order is not
//! promised. Nothing above this trait re-derives that guarantee — a lossy
//! datagram transport would carry its own acknowledgement protocol *inside*
//! its `Transport` impl, where the loss model is known. The one failure no
//! transport can mask, a dead rank, is the schedule's
//! ([`schedule`](crate::schedule): gather deadline, then re-resolve).

use std::time::Duration;

/// What a message carries. The tag is part of the wire header; payload
/// layouts per tag are defined in [`wire`](crate::wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tag {
    /// Modal coefficients of a set of elements (halo push, or the response
    /// to a [`Tag::HaloRequest`]).
    HaloCoeffs,
    /// A request for the coefficients of named elements (sharded plan
    /// apply pulls exactly the columns its rows reference).
    HaloRequest,
    /// A rank's finished owned-point values plus its execution summary,
    /// sent to the coordinator.
    OwnedValues,
}

impl Tag {
    /// Wire encoding of the tag.
    pub fn to_byte(self) -> u8 {
        match self {
            Tag::HaloCoeffs => 0,
            Tag::HaloRequest => 1,
            Tag::OwnedValues => 2,
        }
    }

    /// Human-readable label (timeline flow names, diagnostics).
    pub fn label(self) -> &'static str {
        match self {
            Tag::HaloCoeffs => "halo.coeffs",
            Tag::HaloRequest => "halo.request",
            Tag::OwnedValues => "owned.values",
        }
    }

    /// Decodes a tag byte.
    pub fn from_byte(b: u8) -> Option<Tag> {
        match b {
            0 => Some(Tag::HaloCoeffs),
            1 => Some(Tag::HaloRequest),
            2 => Some(Tag::OwnedValues),
            _ => None,
        }
    }
}

/// Bytes of the fixed message header (`from` + `to` + tag + `flow`): the
/// per-message overhead charged to the wire alongside the payload.
pub const HEADER_BYTES: u64 = 4 + 4 + 1 + 8;

/// One serialized message between ranks. Cross-rank data exists *only* in
/// this form — no shared references to field or solution data ever cross a
/// rank boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Sending rank.
    pub from: u32,
    /// Destination rank.
    pub to: u32,
    /// Payload discriminator.
    pub tag: Tag,
    /// Per-sender monotone flow id, stamped by the sender's
    /// [`Link`](crate::link::Link): `(from, flow)` names the message, and
    /// with it one send→recv arc in a trace timeline.
    pub flow: u64,
    /// Serialized payload (see [`wire`](crate::wire)).
    pub payload: Vec<u8>,
}

impl Message {
    /// Total bytes this message occupies on the wire.
    pub fn wire_bytes(&self) -> u64 {
        HEADER_BYTES + self.payload.len() as u64
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
    fn tag_bytes_round_trip() {
        for tag in [Tag::HaloCoeffs, Tag::HaloRequest, Tag::OwnedValues] {
            assert_eq!(Tag::from_byte(tag.to_byte()), Some(tag));
        }
        assert_eq!(Tag::from_byte(3), None);
        assert_eq!(Tag::from_byte(200), None);
    }

    #[test]
    fn wire_bytes_include_header() {
        let m = Message {
            from: 0,
            to: 1,
            tag: Tag::HaloCoeffs,
            flow: 9,
            payload: vec![0u8; 40],
        };
        assert_eq!(m.wire_bytes(), HEADER_BYTES + 40);
        // from + to + tag + flow.
        assert_eq!(HEADER_BYTES, 17);
    }
}
