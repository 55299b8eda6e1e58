//! Comm-flow tracing: per-endpoint send/recv event logs and the matching
//! pass that turns them into send→recv pairs.
//!
//! Every message carries a per-sender monotone flow id (see
//! [`Message::flow`](crate::transport::Message::flow)), so `(sender,
//! flow)` names one message. An instrumented [`Link`](crate::link::Link)
//! records a [`FlowPoint`] when a halo-phase message is sent and when it is
//! received; [`match_flow_logs`] joins the per-rank logs into
//! [`FlowPair`]s — the rank-to-rank arcs a trace timeline draws. A flow
//! that was sent but never received (its receiver died, or failed before
//! shipping its log) is *flagged*, never a panic: a degraded run must stay
//! analyzable.

use crate::transport::Tag;
use std::collections::BTreeMap;

/// One endpoint-local flow event: a message sent to (or received from)
/// `peer`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowPoint {
    /// The sender's flow id of the message.
    pub flow: u64,
    /// The other rank (destination for sends, source for recvs).
    pub peer: u32,
    /// Message tag.
    pub tag: Tag,
    /// Nanoseconds from the run epoch at which the event was recorded.
    pub ts_ns: u64,
    /// Wire bytes of the message.
    pub bytes: u64,
}

/// One endpoint's flow events, in recording order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowLog {
    /// Halo-phase messages sent.
    pub sends: Vec<FlowPoint>,
    /// Halo-phase messages received.
    pub recvs: Vec<FlowPoint>,
}

/// A matched send→recv pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowPair {
    /// Sending rank.
    pub src: u32,
    /// Receiving rank.
    pub dst: u32,
    /// The sender's flow id.
    pub flow: u64,
    /// Message tag.
    pub tag: Tag,
    /// Send instant, nanoseconds from the run epoch.
    pub send_ns: u64,
    /// Receive instant, nanoseconds from the run epoch.
    pub recv_ns: u64,
    /// Wire bytes of the message.
    pub bytes: u64,
}

/// Result of joining per-rank flow logs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowMatch {
    /// Matched pairs, sorted by `(src, flow)`.
    pub pairs: Vec<FlowPair>,
    /// Sends with no matching recv (lost messages), as `(src, point)`,
    /// sorted by `(src, flow)`.
    pub unmatched_sends: Vec<(u32, FlowPoint)>,
    /// Recvs with no matching send (sender not instrumented, or its log
    /// snapshot predates the send), as `(dst, point)`, sorted by
    /// `(peer, flow)`.
    pub unmatched_recvs: Vec<(u32, FlowPoint)>,
}

/// Joins per-rank [`FlowLog`]s on `(sender, flow)`. Input is
/// `(rank, log)` pairs; output ordering is canonical regardless of input
/// order.
pub fn match_flow_logs(logs: &[(u32, &FlowLog)]) -> FlowMatch {
    let mut sends: BTreeMap<(u32, u64), FlowPoint> = BTreeMap::new();
    for (rank, log) in logs {
        for &p in &log.sends {
            sends.insert((*rank, p.flow), p);
        }
    }
    let mut pairs = Vec::new();
    let mut unmatched_recvs = Vec::new();
    for (rank, log) in logs {
        for &p in &log.recvs {
            match sends.remove(&(p.peer, p.flow)) {
                Some(send) => pairs.push(FlowPair {
                    src: p.peer,
                    dst: *rank,
                    flow: p.flow,
                    tag: p.tag,
                    send_ns: send.ts_ns,
                    recv_ns: p.ts_ns,
                    bytes: p.bytes,
                }),
                None => unmatched_recvs.push((*rank, p)),
            }
        }
    }
    pairs.sort_by_key(|p| (p.src, p.flow));
    let mut unmatched_sends: Vec<(u32, FlowPoint)> =
        sends.into_iter().map(|((rank, _), p)| (rank, p)).collect();
    unmatched_sends.sort_by_key(|(rank, p)| (*rank, p.flow));
    unmatched_recvs.sort_by_key(|(_, p)| (p.peer, p.flow));
    FlowMatch {
        pairs,
        unmatched_sends,
        unmatched_recvs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(flow: u64, peer: u32, ts_ns: u64) -> FlowPoint {
        FlowPoint {
            flow,
            peer,
            tag: Tag::HaloCoeffs,
            ts_ns,
            bytes: 64,
        }
    }

    #[test]
    fn logs_join_into_pairs() {
        let log0 = FlowLog {
            sends: vec![point(0, 1, 10)],
            recvs: vec![point(0, 1, 40)],
        };
        let log1 = FlowLog {
            sends: vec![point(0, 0, 20)],
            recvs: vec![point(0, 0, 30)],
        };
        let matched = match_flow_logs(&[(0, &log0), (1, &log1)]);
        assert_eq!(matched.pairs.len(), 2);
        assert!(matched.unmatched_sends.is_empty());
        assert!(matched.unmatched_recvs.is_empty());
        let arcs: Vec<(u32, u32, u64, u64)> = matched
            .pairs
            .iter()
            .map(|p| (p.src, p.dst, p.send_ns, p.recv_ns))
            .collect();
        assert_eq!(arcs, vec![(0, 1, 10, 30), (1, 0, 20, 40)]);
    }

    #[test]
    fn lost_and_unknown_flows_are_flagged_not_dropped() {
        let log0 = FlowLog {
            sends: vec![point(0, 1, 10), point(1, 1, 20)],
            recvs: vec![point(7, 1, 50)],
        };
        let log1 = FlowLog {
            sends: vec![],
            recvs: vec![point(0, 0, 30)],
        };
        let matched = match_flow_logs(&[(0, &log0), (1, &log1)]);
        assert_eq!(matched.pairs.len(), 1);
        // Flow (0, 1) was sent but never received.
        assert_eq!(matched.unmatched_sends, vec![(0u32, point(1, 1, 20))]);
        // Rank 0 received flow 7 from rank 1, but rank 1 never logged it.
        assert_eq!(matched.unmatched_recvs, vec![(0u32, point(7, 1, 50))]);
    }

    #[test]
    fn join_order_is_canonical() {
        let log0 = FlowLog {
            sends: vec![point(1, 1, 15), point(0, 1, 10)],
            recvs: vec![],
        };
        let log1 = FlowLog {
            sends: vec![],
            recvs: vec![point(1, 0, 40), point(0, 0, 30)],
        };
        let a = match_flow_logs(&[(0, &log0), (1, &log1)]);
        let b = match_flow_logs(&[(1, &log1), (0, &log0)]);
        assert_eq!(a, b, "input order must not leak into the join");
        assert_eq!(a.pairs[0].flow, 0);
        assert_eq!(a.pairs[1].flow, 1);
    }
}
