//! Timeline analysis: exposed communication time, the cross-rank critical
//! path, and per-rank utilization.
//!
//! Works on the per-rank [`SpanRecord`] streams a shared-epoch run records
//! (see [`Tracer::with_epoch`](crate::Tracer::with_epoch)). Span names
//! classify by prefix, matching the runtime's phase vocabulary:
//!
//! * **communication** — `exchange.*` (halo push/pull and the waits inside);
//! * **computation** — `eval.*`, `apply.*`, `compile.*` (local work that
//!   could hide communication);
//! * everything else (`build.*`, `reduce.*`) is coordination and counts
//!   toward neither.
//!
//! **Exposed** communication is the part of a rank's communication
//! intervals not covered by any of its computation intervals — the wait
//! the run actually paid, as opposed to traffic hidden behind local work.
//! The dist runtime's interior-first schedule (post → interior eval →
//! drain → frontier eval) exists to shrink exactly this number:
//! this module is the instrument that shows how much of the exchange the
//! overlap actually hid.

use crate::span::SpanRecord;

/// True for span names that count as communication.
pub fn is_comm_span(name: &str) -> bool {
    name.starts_with("exchange.")
}

/// True for span names that count as computation.
pub fn is_compute_span(name: &str) -> bool {
    name.starts_with("eval.") || name.starts_with("apply.") || name.starts_with("compile.")
}

/// Merges possibly-overlapping `(start, end)` intervals into a disjoint,
/// sorted union.
fn union(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.retain(|&(s, e)| e > s);
    intervals.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for (s, e) in intervals {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

fn total_len(intervals: &[(u64, u64)]) -> u64 {
    intervals.iter().map(|&(s, e)| e - s).sum()
}

/// Total overlap between two disjoint sorted interval sets.
fn intersection_len(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut len) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            len += hi - lo;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    len
}

fn spans_of(spans: &[SpanRecord], pred: fn(&str) -> bool) -> Vec<(u64, u64)> {
    union(
        spans
            .iter()
            .filter(|s| pred(&s.name))
            .map(|s| (s.start_ns, s.start_ns.saturating_add(s.duration_ns)))
            .collect(),
    )
}

/// Nanoseconds of one rank's communication intervals not covered by any of
/// its computation intervals — the communication the run actually waited
/// on. Zero when the rank recorded no communication spans.
pub fn exposed_comms_ns(spans: &[SpanRecord]) -> u64 {
    let comm = spans_of(spans, is_comm_span);
    let compute = spans_of(spans, is_compute_span);
    total_len(&comm) - intersection_len(&comm, &compute)
}

/// One phase of the critical path: the bottleneck rank and how long it
/// held the phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseCost {
    /// Canonical phase name (`"build"`, `"exchange"`, `"eval"`,
    /// `"reduce"`).
    pub name: String,
    /// The rank whose phase time was the longest.
    pub rank: u64,
    /// That rank's time in the phase, nanoseconds.
    pub duration_ns: u64,
}

/// The cross-rank critical path of a phased run, plus per-rank
/// utilization.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Sum of the bottleneck phase durations: a lower bound on the wall
    /// time of any schedule that keeps the phase barriers.
    pub total_ns: u64,
    /// The phases in canonical order (phases nobody recorded are
    /// omitted).
    pub phases: Vec<PhaseCost>,
    /// Per-rank utilization: computation time divided by the rank's
    /// active window (first span start to last span end); 0 for ranks
    /// with no spans.
    pub utilization: Vec<f64>,
}

/// A predicate over span names selecting one phase group's spans.
type SpanPred = fn(&str) -> bool;

/// The canonical phase groups, in barrier order. `build.*` and `reduce.*`
/// live on the coordinator; `exchange.*` and the compute prefixes on every
/// rank.
const PHASE_GROUPS: [(&str, SpanPred); 4] = [
    ("build", |n| n.starts_with("build.")),
    ("exchange", is_comm_span),
    ("eval", is_compute_span),
    ("reduce", |n| n.starts_with("reduce.")),
];

/// Computes the critical path through
/// `build → exchange → eval → reduce` over per-rank span streams sharing
/// one epoch (`rank_spans[r]` is rank `r`'s records). Each phase is
/// charged to the rank that spent the most time in it; the total is the
/// sum of those bottlenecks.
pub fn critical_path(rank_spans: &[Vec<SpanRecord>]) -> CriticalPath {
    let mut phases = Vec::new();
    let mut total_ns = 0u64;
    for (phase, pred) in PHASE_GROUPS {
        let mut bottleneck: Option<(u64, u64)> = None; // (rank, ns)
        for (rank, spans) in rank_spans.iter().enumerate() {
            let ns = total_len(&spans_of(spans, pred));
            if ns > 0 && bottleneck.is_none_or(|(_, best)| ns > best) {
                bottleneck = Some((rank as u64, ns));
            }
        }
        if let Some((rank, duration_ns)) = bottleneck {
            total_ns += duration_ns;
            phases.push(PhaseCost {
                name: phase.to_string(),
                rank,
                duration_ns,
            });
        }
    }
    let utilization = rank_spans
        .iter()
        .map(|spans| {
            let lo = spans.iter().map(|s| s.start_ns).min();
            let hi = spans
                .iter()
                .map(|s| s.start_ns.saturating_add(s.duration_ns))
                .max();
            match (lo, hi) {
                (Some(lo), Some(hi)) if hi > lo => {
                    total_len(&spans_of(spans, is_compute_span)) as f64 / (hi - lo) as f64
                }
                _ => 0.0,
            }
        })
        .collect();
    CriticalPath {
        total_ns,
        phases,
        utilization,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, duration_ns: u64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            depth: 0,
            start_ns,
            duration_ns,
        }
    }

    #[test]
    fn fully_serial_exchange_is_fully_exposed() {
        let spans = vec![
            span("exchange.halo", 100, 400),
            span("eval.per_element", 500, 1_000),
        ];
        assert_eq!(exposed_comms_ns(&spans), 400);
    }

    #[test]
    fn overlapped_communication_is_not_exposed() {
        // Exchange 100..900, compute covers 300..700: 400 ns hidden.
        let spans = vec![
            span("exchange.halo", 100, 800),
            span("eval.per_element", 300, 400),
        ];
        assert_eq!(exposed_comms_ns(&spans), 400);
        // Full cover → nothing exposed.
        let covered = vec![span("exchange.halo", 100, 200), span("apply.spmv", 50, 500)];
        assert_eq!(exposed_comms_ns(&covered), 0);
        // No comm spans → zero.
        assert_eq!(exposed_comms_ns(&[span("eval.x", 0, 10)]), 0);
    }

    #[test]
    fn overlapping_comm_spans_are_counted_once() {
        let spans = vec![
            span("exchange.halo", 100, 400),
            span("exchange.halo", 300, 400),
        ];
        // Union is 100..700 = 600 ns, not 800.
        assert_eq!(exposed_comms_ns(&spans), 600);
    }

    #[test]
    fn critical_path_picks_the_bottleneck_rank_per_phase() {
        let rank0 = vec![
            span("build.shard_plan", 0, 1_000),
            span("exchange.halo", 1_000, 300),
            span("eval.per_element", 1_300, 2_000),
            span("reduce.gather", 3_300, 500),
        ];
        let rank1 = vec![
            span("exchange.halo", 1_000, 700),
            span("eval.per_element", 1_700, 1_500),
        ];
        let cp = critical_path(&[rank0, rank1]);
        let view: Vec<(&str, u64, u64)> = cp
            .phases
            .iter()
            .map(|p| (p.name.as_str(), p.rank, p.duration_ns))
            .collect();
        assert_eq!(
            view,
            vec![
                ("build", 0, 1_000),
                ("exchange", 1, 700),
                ("eval", 0, 2_000),
                ("reduce", 0, 500),
            ]
        );
        assert_eq!(cp.total_ns, 4_200);
        assert_eq!(cp.utilization.len(), 2);
        // Rank 0: 2_000 compute over a 3_800 window.
        assert!((cp.utilization[0] - 2_000.0 / 3_800.0).abs() < 1e-12);
        // Rank 1: 1_500 compute over a 2_200 window.
        assert!((cp.utilization[1] - 1_500.0 / 2_200.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_unknown_phases_are_omitted() {
        let cp = critical_path(&[vec![span("eval.per_element", 0, 100)], vec![]]);
        assert_eq!(cp.phases.len(), 1);
        assert_eq!(cp.phases[0].name, "eval");
        assert_eq!(cp.total_ns, 100);
        assert_eq!(cp.utilization[1], 0.0);
        let none = critical_path(&[]);
        assert_eq!(none.total_ns, 0);
        assert!(none.phases.is_empty());
    }
}
