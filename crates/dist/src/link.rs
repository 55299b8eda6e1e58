//! A rank's end of the wire: a [`Transport`] endpoint plus the bookkeeping
//! every message owes the run report.
//!
//! [`Link::send`] stamps the per-sender flow id; `send` and
//! [`Link::recv`] count wire bytes into [`CommStats`] and, on an
//! instrumented run, log the halo-phase [`FlowPoint`]s a timeline draws as
//! arrows. Delivery is the transport's contract, not this layer's: there is
//! no sequence number, window, acknowledgement or timer here.

use crate::flow::{FlowLog, FlowPoint};
use crate::transport::{Message, Payload, Tag, Transport, TransportError};
use std::time::{Duration, Instant};
use ustencil_trace::CommStats;

/// Failures surfaced by the distributed runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistError {
    /// A receive deadline passed with nothing arriving.
    Timeout,
    /// The fabric shut down underneath us.
    Closed,
    /// A peer sent a payload that does not fit the exchange (coefficients
    /// for elements outside the field, a request for elements the rank does
    /// not own), or a message the exchange does not owe it.
    Protocol(String),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Timeout => write!(f, "receive deadline passed"),
            DistError::Closed => write!(f, "transport closed"),
            DistError::Protocol(why) => write!(f, "protocol error: {why}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<TransportError> for DistError {
    fn from(e: TransportError) -> Self {
        match e {
            TransportError::Closed => DistError::Closed,
            TransportError::Timeout => DistError::Timeout,
        }
    }
}

/// One rank's counted, flow-stamped view of its transport endpoint.
pub struct Link<T: Transport> {
    transport: T,
    next_flow: u64,
    stats: CommStats,
    /// When set, halo-phase sends and recvs are logged as [`FlowPoint`]s
    /// with timestamps relative to this epoch.
    flow_epoch: Option<Instant>,
    flow_log: FlowLog,
}

impl<T: Transport> Link<T> {
    /// Wraps `transport`.
    pub fn new(transport: T) -> Self {
        Self {
            transport,
            next_flow: 0,
            stats: CommStats::default(),
            flow_epoch: None,
            flow_log: FlowLog::default(),
        }
    }

    /// Enables flow-point logging for halo-phase messages, with timestamps
    /// measured from `epoch` (share one epoch across ranks to put every
    /// log on the same time axis). Flow *ids* are always assigned; this
    /// only turns on the recording, so the disabled path stays free.
    pub fn instrument_flows(&mut self, epoch: Instant) {
        self.flow_epoch = Some(epoch);
    }

    /// The flow log recorded so far (empty unless
    /// [`instrument_flows`](Self::instrument_flows) was called).
    pub fn flow_log(&self) -> &FlowLog {
        &self.flow_log
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> u32 {
        self.transport.rank()
    }

    /// Messages and wire bytes so far, both directions.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// The flow point of `msg` against `peer`, if this message is logged:
    /// the run is instrumented and the tag belongs to the halo exchange.
    /// `OwnedValues` is excluded deliberately: a worker ships its flow log
    /// *inside* that message, so its own send point could never appear in
    /// the snapshot and every run would report a bogus unmatched recv at
    /// the coordinator.
    fn flow_point(&self, msg: &Message, peer: u32) -> Option<FlowPoint> {
        let epoch = self.flow_epoch?;
        let tag = msg.tag();
        (tag != Tag::OwnedValues).then(|| FlowPoint {
            flow: msg.flow,
            peer,
            tag,
            ts_ns: epoch.elapsed().as_nanos() as u64,
            bytes: msg.wire_bytes(),
        })
    }

    /// Hands `payload` to the transport, addressed to rank `to`.
    pub fn send(&mut self, to: u32, payload: Payload) -> Result<(), DistError> {
        let msg = Message {
            from: self.transport.rank(),
            to,
            flow: self.next_flow,
            payload,
        };
        self.next_flow += 1;
        self.stats.record_send(msg.wire_bytes());
        self.flow_log.sends.extend(self.flow_point(&msg, to));
        Ok(self.transport.send(msg)?)
    }

    /// Receives the next message, waiting at most `timeout`.
    pub fn recv(&mut self, timeout: Duration) -> Result<Message, DistError> {
        let msg = self.transport.recv_timeout(timeout)?;
        self.stats.record_recv(msg.wire_bytes());
        self.flow_log.recvs.extend(self.flow_point(&msg, msg.from));
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{ChannelEndpoint, ChannelFabric};
    use crate::flow::match_flow_logs;

    fn pair() -> (Link<ChannelEndpoint>, Link<ChannelEndpoint>) {
        let mut links = ChannelFabric::endpoints(2).into_iter().map(Link::new);
        (links.next().unwrap(), links.next().unwrap())
    }

    #[test]
    fn instrumented_links_log_matching_flow_points() {
        let (mut l0, mut l1) = pair();
        let epoch = Instant::now();
        l0.instrument_flows(epoch);
        l1.instrument_flows(epoch);
        let coeffs = Payload::Coeffs {
            ids: vec![4],
            values: vec![1.0, 2.0, 3.0],
        };
        l0.send(1, coeffs).unwrap();
        // The result tag is counted but never logged.
        l0.send(1, Payload::Result(Box::default())).unwrap();
        for _ in 0..2 {
            l1.recv(Duration::from_secs(5)).unwrap();
        }
        let matched = match_flow_logs(&[(0, l0.flow_log()), (1, l1.flow_log())]);
        assert_eq!(matched.pairs.len(), 1);
        assert!(matched.unmatched_sends.is_empty());
        assert!(matched.unmatched_recvs.is_empty());
        let p = matched.pairs[0];
        assert_eq!((p.src, p.dst, p.flow, p.tag), (0, 1, 0, Tag::HaloCoeffs));
        assert!(p.send_ns <= p.recv_ns, "send must precede the receive");
        assert_eq!(l0.stats().msgs_sent, 2);
        assert_eq!(l0.stats().bytes_sent, l1.stats().bytes_recv);
    }

    #[test]
    fn simultaneous_senders_do_not_deadlock() {
        let (mut l0, mut l1) = pair();
        let t1 = std::thread::spawn(move || {
            l1.send(0, Payload::Request(vec![1])).unwrap();
            l1.recv(Duration::from_secs(5)).unwrap().payload
        });
        l0.send(1, Payload::Request(vec![2])).unwrap();
        let got0 = l0.recv(Duration::from_secs(5)).unwrap().payload;
        let got1 = t1.join().unwrap();
        assert_eq!(got0, Payload::Request(vec![1]));
        assert_eq!(got1, Payload::Request(vec![2]));
    }
}
