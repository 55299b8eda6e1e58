//! Communication counters for rank-sharded execution.
//!
//! The distributed runtime (`ustencil-dist`) moves every cross-rank byte
//! through a serialized transport; [`CommStats`] is the ledger each
//! endpoint keeps while doing so. The counters are plain saturating sums —
//! cheap enough to maintain unconditionally — and merge across ranks the
//! same way the engine's `Metrics` work counters do, so run reports can
//! show both total traffic and per-rank breakdowns.

crate::json_counters! {
    /// Per-endpoint communication counters.
    ///
    /// `bytes_*` count *wire* bytes (header + payload) of data messages and
    /// acknowledgements alike; `retransmits` counts payload messages sent
    /// more than once by the reliability layer; `timeouts` counts receive
    /// deadlines that expired without a matching acknowledgement.
    /// [`merge`](Self::merge) saturates.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CommStats merged by u64::saturating_add {
        /// Messages handed to the transport (including retransmissions and
        /// acknowledgements).
        pub msgs_sent,
        /// Wire bytes handed to the transport.
        pub bytes_sent,
        /// Messages received from the transport (including duplicates later
        /// discarded by the reliability layer).
        pub msgs_recv,
        /// Wire bytes received from the transport.
        pub bytes_recv,
        /// Payload messages sent more than once (retry after a lost or late
        /// acknowledgement).
        pub retransmits,
        /// Acknowledgement waits that expired and triggered a retry.
        pub timeouts,
        /// Payload messages received more than once and discarded by the
        /// reliability layer's dedup (the receive side of a retransmit).
        pub dup_payloads,
        /// Logical messages that travelled inside a coalesced bundle frame
        /// instead of their own wire message.
        pub coalesced,
    }
}

impl CommStats {
    /// Sums an iterator of counters.
    pub fn sum<'a, I: IntoIterator<Item = &'a CommStats>>(stats: I) -> CommStats {
        let mut out = CommStats::default();
        for s in stats {
            out.merge(s);
        }
        out
    }

    /// Records one sent message of `bytes` wire bytes.
    #[inline]
    pub fn record_send(&mut self, bytes: u64) {
        self.msgs_sent = self.msgs_sent.saturating_add(1);
        self.bytes_sent = self.bytes_sent.saturating_add(bytes);
    }

    /// Records one received message of `bytes` wire bytes.
    #[inline]
    pub fn record_recv(&mut self, bytes: u64) {
        self.msgs_recv = self.msgs_recv.saturating_add(1);
        self.bytes_recv = self.bytes_recv.saturating_add(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_merge_add_up() {
        let mut a = CommStats::default();
        a.record_send(100);
        a.record_send(50);
        a.record_recv(25);
        assert_eq!(a.msgs_sent, 2);
        assert_eq!(a.bytes_sent, 150);
        assert_eq!(a.msgs_recv, 1);
        assert_eq!(a.bytes_recv, 25);

        let mut b = CommStats {
            retransmits: 3,
            timeouts: 1,
            dup_payloads: 2,
            coalesced: 4,
            ..Default::default()
        };
        b.merge(&a);
        assert_eq!(b.msgs_sent, 2);
        assert_eq!(b.bytes_sent, 150);
        assert_eq!(b.retransmits, 3);
        assert_eq!(b.dup_payloads, 2);
        assert_eq!(b.coalesced, 4);

        let total = CommStats::sum([&a, &b]);
        assert_eq!(total.msgs_sent, 4);
        assert_eq!(total.bytes_sent, 300);
        assert_eq!(total.timeouts, 1);
    }

    #[test]
    fn merge_saturates() {
        let mut a = CommStats {
            bytes_sent: u64::MAX - 1,
            ..Default::default()
        };
        a.merge(&CommStats {
            bytes_sent: 10,
            ..Default::default()
        });
        assert_eq!(a.bytes_sent, u64::MAX);
    }
}
