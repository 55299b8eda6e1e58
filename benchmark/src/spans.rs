//! The benchmark's own span recorder: one span around every call into a
//! layer, kept in memory and written out when the run ends.
//!
//! Spans are recorded from the benchmark's thread only (the calls it makes
//! into the layers are synchronous), so the parent of a new span is simply
//! the innermost open one.

use std::time::Instant;
use ustencil_trace::Json;

/// Frame id of spans recorded outside the frame loop (set-up, replays).
pub const NO_FRAME: i64 = -1;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `plan.apply`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The frame this span belongs to, or [`NO_FRAME`].
    pub frame: i64,
}

impl Span {
    /// Wall time of the span in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span store. Disabled, [`Recorder::span`] only calls its
/// closure, so the same frame code serves traced and untraced frames.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    frame: i64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            frame: NO_FRAME,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Switches recording on or off (between spans).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Tags the spans recorded from now on with `frame`.
    pub fn set_frame(&mut self, frame: i64) {
        self.frame = frame;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            frame: self.frame,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        result
    }

    /// Closes, as of now, the spans a panic left open by unwinding through
    /// [`span`](Self::span).
    pub fn close_dangling(&mut self) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        for index in self.open.drain(..) {
            self.spans[index].end_ns = now;
        }
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Ends recording and hands the spans over.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, in seconds: its duration minus the part of it
/// its direct children cover.
pub fn self_seconds(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::seconds).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.seconds();
        }
    }
    own
}

/// Number of spans called `name`.
pub fn calls(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// The trace file: every span with its parent link, frame id and self time.
pub fn to_json(spans: &[Span]) -> Json {
    let own = self_seconds(spans);
    let rows = spans
        .iter()
        .zip(&own)
        .enumerate()
        .map(|(id, (s, &self_s))| {
            Json::object()
                .set("id", id as f64)
                .set("name", s.name)
                .set("start_ns", s.start_ns as f64)
                .set("end_ns", s.end_ns as f64)
                .set(
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                )
                .set("frame", s.frame as f64)
                .set("self_s", self_s)
        })
        .collect();
    Json::object().set("spans", Json::Arr(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            frame: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // frame [0, 100) > a [10, 40) > a1 [15, 25); frame > b [50, 90).
        let spans = [
            span("frame", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        let own = self_seconds(&spans);
        let ns: Vec<u64> = own.iter().map(|s| (s * 1e9).round() as u64).collect();
        // Only direct children are subtracted: a1 comes off a, not frame.
        assert_eq!(ns, [30, 20, 10, 40]);
        // Self times of a tree add up to its root.
        assert_eq!(ns.iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_links_parents_and_tags_frames() {
        let mut rec = Recorder::new(true);
        rec.set_frame(7);
        let out = rec.span("frame", |rec| {
            rec.span("core.run", |_| ());
            rec.span("plan.apply", |rec| rec.span("inner", |_| 42))
        });
        assert_eq!(out, 42);
        let spans = rec.spans();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["frame", "core.run", "plan.apply", "inner"]);
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        assert!(spans.iter().all(|s| s.frame == 7 && s.end_ns >= s.start_ns));
        let own = self_seconds(spans);
        let total: f64 = own.iter().sum();
        assert!((total - spans[0].seconds()).abs() <= 0.01 * spans[0].seconds());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("frame", |_| 3), 3);
        assert!(rec.spans().is_empty());
        rec.set_enabled(true);
        rec.span("frame", |_| ());
        assert_eq!(calls(rec.spans(), "frame"), 1);
    }
}
