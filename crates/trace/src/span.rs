//! Nested, scoped phase timers.
//!
//! A [`Tracer`] hands out [`SpanGuard`]s; dropping a guard closes its span.
//! Records keep their opening order (parents precede children) and carry a
//! nesting depth, so a renderer can print the phase tree without
//! reconstructing it. A disabled tracer costs one branch per span and
//! allocates nothing.
//!
//! Tracers are single-threaded by design: the engine opens phase spans on
//! the coordinating thread only, while per-patch timings travel through the
//! per-patch stats merged at join points (`BlockStats` in `ustencil-core`).

use std::cell::RefCell;
use std::time::Instant;

crate::json_record! {
    /// One closed (or still-open) span.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SpanRecord {
        /// Phase name, dot-separated by convention (e.g. `"build.hash_grid"`).
        pub name: String,
        /// Nesting depth: 0 for top-level phases.
        pub depth: u32,
        /// Start offset from the tracer's epoch, in nanoseconds.
        pub start_ns: u64,
        /// Span duration in nanoseconds (0 while still open).
        pub duration_ns: u64,
    }
}

struct TracerState {
    records: Vec<SpanRecord>,
    depth: u32,
}

/// Collects nested spans relative to one epoch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    state: RefCell<TracerState>,
}

impl Tracer {
    /// A tracer that records (`enabled = true`) or ignores everything.
    pub fn new(enabled: bool) -> Self {
        Self::with_epoch(enabled, Instant::now())
    }

    /// A tracer whose span offsets are measured from a caller-supplied
    /// epoch. Several tracers sharing one epoch (e.g. one per rank thread
    /// in the distributed runtime) produce records on a common time axis.
    pub fn with_epoch(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            state: RefCell::new(TracerState {
                records: Vec::new(),
                depth: 0,
            }),
        }
    }

    /// A tracer that records nothing at (almost) no cost.
    pub fn disabled() -> Self {
        Self::new(false)
    }

    /// The instant span offsets are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span; it closes when the returned guard drops.
    #[must_use = "the span closes when the guard drops"]
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: None,
                index: 0,
            };
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut st = self.state.borrow_mut();
        let index = st.records.len();
        let depth = st.depth;
        st.records.push(SpanRecord {
            name: name.to_string(),
            depth,
            start_ns,
            duration_ns: 0,
        });
        st.depth += 1;
        SpanGuard {
            tracer: Some(self),
            index,
        }
    }

    /// Snapshot of the recorded spans, sorted by `(start_ns, name)`.
    ///
    /// The sort makes the record stream deterministic for serialization:
    /// opening order and start order coincide on a single thread, but spans
    /// merged from several tracers (or drained in worker-completion order)
    /// would otherwise leak scheduling into report bytes. The sort is
    /// stable, so full ties keep opening order.
    pub fn records(&self) -> Vec<SpanRecord> {
        let mut records = self.state.borrow().records.clone();
        sort_records(&mut records);
        records
    }

    /// Consumes the tracer, returning the recorded spans sorted by
    /// `(start_ns, name)` (see [`records`](Self::records)).
    pub fn into_records(self) -> Vec<SpanRecord> {
        let mut records = self.state.into_inner().records;
        sort_records(&mut records);
        records
    }
}

/// Sorts span records into the canonical `(start_ns, name)` emission order.
fn sort_records(records: &mut [SpanRecord]) {
    records.sort_by(|a, b| {
        a.start_ns
            .cmp(&b.start_ns)
            .then_with(|| a.name.cmp(&b.name))
    });
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: Option<&'a Tracer>,
    index: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.tracer {
            let end_ns = t.epoch.elapsed().as_nanos() as u64;
            let mut st = t.state.borrow_mut();
            let rec = &mut st.records[self.index];
            rec.duration_ns = end_ns.saturating_sub(rec.start_ns);
            st.depth = st.depth.saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Tracer {
        /// Whether spans are being recorded.
        fn enabled(&self) -> bool {
            self.enabled
        }
    }

    #[test]
    fn nesting_depths_and_order() {
        let t = Tracer::new(true);
        {
            let _outer = t.span("outer");
            {
                let _inner = t.span("inner");
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            let _sibling = t.span("sibling");
        }
        let records = t.into_records();
        let view: Vec<(&str, u32)> = records.iter().map(|r| (r.name.as_str(), r.depth)).collect();
        assert_eq!(view, vec![("outer", 0), ("inner", 1), ("sibling", 1)]);
        assert!(records.iter().all(|r| r.duration_ns > 0));
        // The outer span covers the inner one.
        assert!(records[0].duration_ns >= records[1].duration_ns);
        assert!(records[0].start_ns <= records[1].start_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        {
            let _a = t.span("a");
            let _b = t.span("b");
        }
        assert!(!t.enabled());
        assert!(t.into_records().is_empty());
    }

    #[test]
    fn records_are_sorted_by_start_then_name() {
        let mut records = vec![
            SpanRecord {
                name: "b".into(),
                depth: 0,
                start_ns: 50,
                duration_ns: 1,
            },
            SpanRecord {
                name: "a".into(),
                depth: 0,
                start_ns: 50,
                duration_ns: 2,
            },
            SpanRecord {
                name: "z".into(),
                depth: 0,
                start_ns: 10,
                duration_ns: 3,
            },
        ];
        sort_records(&mut records);
        let names: Vec<&str> = records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["z", "a", "b"]);
    }

    #[test]
    fn shared_epoch_puts_tracers_on_one_axis() {
        let epoch = Instant::now();
        let a = Tracer::with_epoch(true, epoch);
        let b = Tracer::with_epoch(true, epoch);
        drop(a.span("first"));
        std::thread::sleep(std::time::Duration::from_micros(200));
        drop(b.span("second"));
        let ra = a.into_records();
        let rb = b.into_records();
        assert!(
            rb[0].start_ns > ra[0].start_ns,
            "a later span on a sibling tracer must have a later offset"
        );
    }

    #[test]
    fn sequential_spans_do_not_nest() {
        let t = Tracer::new(true);
        drop(t.span("first"));
        drop(t.span("second"));
        let records = t.into_records();
        assert_eq!(records[0].depth, 0);
        assert_eq!(records[1].depth, 0);
    }
}
