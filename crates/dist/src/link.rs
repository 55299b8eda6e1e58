//! A rank's end of the wire: a [`Transport`] endpoint plus the bookkeeping
//! every message owes the run report.
//!
//! [`Link::send`] and [`Link::recv`] count wire bytes into [`CommStats`].
//! Delivery is the transport's contract, not this layer's: there is no
//! sequence number, window, acknowledgement or timer here.

use crate::transport::{Message, Transport, TransportError};
use std::time::Duration;
use ustencil_trace::CommStats;

/// Failures surfaced by the distributed runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistError {
    /// A receive deadline passed with nothing arriving.
    Timeout,
    /// The fabric shut down underneath us.
    Closed,
    /// A peer sent a payload that does not fit the exchange (coefficients
    /// for elements outside the field), or a message the exchange does not
    /// owe it.
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

/// One rank's counted view of its transport endpoint.
pub struct Link<T: Transport> {
    transport: T,
    stats: CommStats,
}

impl<T: Transport> Link<T> {
    /// Wraps `transport`.
    pub fn new(transport: T) -> Self {
        Self {
            transport,
            stats: CommStats::default(),
        }
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> u32 {
        self.transport.rank()
    }

    /// Messages and wire bytes so far, both directions.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// Hands the coefficients `values` of elements `ids` to the transport,
    /// addressed to rank `to`.
    pub fn send(&mut self, to: u32, ids: Vec<u32>, values: Vec<f64>) -> Result<(), DistError> {
        let msg = Message {
            from: self.transport.rank(),
            to,
            ids,
            values,
        };
        self.stats.record_send(msg.wire_bytes());
        Ok(self.transport.send(msg)?)
    }

    /// Receives the next message, waiting at most `timeout`.
    pub fn recv(&mut self, timeout: Duration) -> Result<Message, DistError> {
        let msg = self.transport.recv_timeout(timeout)?;
        self.stats.record_recv(msg.wire_bytes());
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{ChannelEndpoint, ChannelFabric};

    fn pair() -> (Link<ChannelEndpoint>, Link<ChannelEndpoint>) {
        let mut links = ChannelFabric::endpoints(2).into_iter().map(Link::new);
        (links.next().unwrap(), links.next().unwrap())
    }

    #[test]
    fn simultaneous_senders_do_not_deadlock() {
        let (mut l0, mut l1) = pair();
        let t1 = std::thread::spawn(move || {
            l1.send(0, vec![1], vec![1.0]).unwrap();
            l1.recv(Duration::from_secs(5)).unwrap()
        });
        l0.send(1, vec![2], vec![2.0]).unwrap();
        let got0 = l0.recv(Duration::from_secs(5)).unwrap();
        let got1 = t1.join().unwrap();
        assert_eq!((got0.from, got0.ids, got0.values), (1, vec![1], vec![1.0]));
        assert_eq!((got1.from, got1.ids, got1.values), (0, vec![2], vec![2.0]));
    }
}
