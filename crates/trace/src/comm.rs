//! Communication counters for rank-sharded execution.
//!
//! The distributed runtime (`ustencil-dist`) moves its halo exchange
//! through a message transport; [`CommStats`] is the ledger each
//! endpoint keeps while doing so. The counters are plain saturating sums —
//! cheap enough to maintain unconditionally — and merge across ranks the
//! same way the engine's `Metrics` work counters do, so run reports can
//! show both total traffic and per-rank breakdowns.

crate::json_counters! {
    /// Per-endpoint communication counters.
    ///
    /// `bytes_*` count *wire* bytes (header + payload).
    /// [`merge`](Self::merge) saturates.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CommStats merged by u64::saturating_add {
        /// Messages handed to the transport.
        pub msgs_sent,
        /// Wire bytes handed to the transport.
        pub bytes_sent,
        /// Messages received from the transport.
        pub msgs_recv,
        /// Wire bytes received from the transport.
        pub bytes_recv,
        /// Always 0: the transport delivers or the rank is dead, so nothing
        /// is ever sent twice. The field outlives the reliability layer it
        /// counted for only because the frozen benchmark reads it
        /// (ROADMAP, "owed the day the freeze lifts").
        pub retransmits,
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
            msgs_recv: 3,
            ..Default::default()
        };
        b.merge(&a);
        assert_eq!(b.msgs_sent, 2);
        assert_eq!(b.bytes_sent, 150);
        assert_eq!(b.msgs_recv, 4);

        let total = CommStats::sum([&a, &b]);
        assert_eq!(total.msgs_sent, 4);
        assert_eq!(total.bytes_sent, 300);
        assert_eq!(total.msgs_recv, 5);
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
