//! The in-process channel fabric: ranks on real threads, messages over
//! `std::sync::mpsc`.
//!
//! Each rank owns a receiver; every endpoint holds senders to all ranks.
//! `mpsc` loses, duplicates and corrupts nothing, which is the whole
//! [`Transport`] contract; it also happens to keep each sender's messages
//! in order, which nothing above relies on.

use crate::transport::{Message, Transport, TransportError};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// One rank's endpoint of the channel fabric.
pub struct ChannelEndpoint {
    rank: u32,
    rx: Receiver<Message>,
    txs: Vec<Sender<Message>>,
}

/// Builds connected endpoint sets for the channel fabric.
pub struct ChannelFabric;

impl ChannelFabric {
    /// `n` fully connected endpoints, in rank order.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn endpoints(n: usize) -> Vec<ChannelEndpoint> {
        assert!(n > 0, "need at least one rank");
        let (txs, rxs): (Vec<Sender<Message>>, Vec<Receiver<Message>>) =
            (0..n).map(|_| channel()).unzip();
        rxs.into_iter()
            .enumerate()
            .map(|(rank, rx)| ChannelEndpoint {
                rank: rank as u32,
                rx,
                txs: txs.clone(),
            })
            .collect()
    }
}

impl Transport for ChannelEndpoint {
    fn rank(&self) -> u32 {
        self.rank
    }

    fn n_ranks(&self) -> u32 {
        self.txs.len() as u32
    }

    fn send(&mut self, msg: Message) -> Result<(), TransportError> {
        let tx = self
            .txs
            .get(msg.to as usize)
            .ok_or(TransportError::Closed)?;
        tx.send(msg).map_err(|_| TransportError::Closed)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Message, TransportError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => TransportError::Timeout,
            RecvTimeoutError::Disconnected => TransportError::Closed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_delivery() {
        let mut eps = ChannelFabric::endpoints(2);
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        let msg = Message {
            from: 0,
            to: 1,
            ids: vec![1],
            values: vec![0.5],
        };
        e0.send(msg.clone()).unwrap();
        let got = e1.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(got, msg);
        assert!(matches!(
            e0.recv_timeout(Duration::from_millis(10)),
            Err(TransportError::Timeout)
        ));
        // A destination outside the fabric is refused, not dropped.
        let stray = Message { to: 2, ..msg };
        assert_eq!(e0.send(stray), Err(TransportError::Closed));
    }
}
