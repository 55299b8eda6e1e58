//! Chrome trace-event timelines: span records on named tracks, with
//! send→recv flow arrows, serialized as Perfetto-loadable JSON.
//!
//! A [`Timeline`] is a deliberately small model of the trace-event format
//! (<https://ui.perfetto.dev> loads it directly): *processes* group
//! *tracks* (one per rank or worker), tracks carry [`SpanRecord`]s as
//! complete (`"ph": "X"`) events, and [`FlowArrow`]s render as `"s"`/`"f"`
//! flow-event pairs — the rank-to-rank arcs a halo exchange draws.
//!
//! Emission is deterministic: processes sort by pid, tracks by
//! `(pid, tid)`, spans by `(start_ns, name)` within their track, and flow
//! arrows by id (ids are assigned in insertion order). Two runs that
//! record the same spans and flows produce byte-identical JSON.
//!
//! Timestamps are emitted in microseconds (the trace-event unit) as exact
//! `ns / 1000` fractions.

use crate::json::Json;
use crate::span::{sort_records, SpanRecord};

/// One track of a timeline: a `(pid, tid)` lane holding span events.
#[derive(Debug, Clone, PartialEq)]
pub struct Track {
    /// Process the track belongs to.
    pub pid: u64,
    /// Track id within the process (e.g. the rank).
    pub tid: u64,
    /// Display name (e.g. `"rank 2"`).
    pub name: String,
    /// The track's spans, sorted by `(start_ns, name)` on emission.
    pub spans: Vec<SpanRecord>,
}

/// One send→recv arc between two tracks.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowArrow {
    /// Trace-wide arrow id (assigned by [`Timeline::add_flow`]).
    pub id: u64,
    /// Display name (e.g. `"halo 1→3"`).
    pub name: String,
    /// Source `(pid, tid)`.
    pub from: (u64, u64),
    /// Destination `(pid, tid)`.
    pub to: (u64, u64),
    /// Send instant, nanoseconds from the timeline epoch.
    pub send_ns: u64,
    /// Receive instant, nanoseconds from the timeline epoch.
    pub recv_ns: u64,
}

/// A multi-track timeline, convertible to Chrome trace-event JSON.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    processes: Vec<(u64, String)>,
    tracks: Vec<Track>,
    flows: Vec<FlowArrow>,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Names a process (one per run/configuration). Re-naming an existing
    /// pid replaces the name.
    pub fn add_process(&mut self, pid: u64, name: &str) {
        if let Some(p) = self.processes.iter_mut().find(|(id, _)| *id == pid) {
            p.1 = name.to_string();
        } else {
            self.processes.push((pid, name.to_string()));
        }
    }

    /// Adds a track of spans under `(pid, tid)`.
    pub fn add_track(&mut self, pid: u64, tid: u64, name: &str, spans: Vec<SpanRecord>) {
        self.tracks.push(Track {
            pid,
            tid,
            name: name.to_string(),
            spans,
        });
    }

    /// Adds a flow arrow, assigning the next id in insertion order.
    /// Returns the assigned id.
    pub fn add_flow(
        &mut self,
        name: &str,
        from: (u64, u64),
        to: (u64, u64),
        send_ns: u64,
        recv_ns: u64,
    ) -> u64 {
        let id = self.flows.len() as u64;
        self.flows.push(FlowArrow {
            id,
            name: name.to_string(),
            from,
            to,
            send_ns,
            recv_ns,
        });
        id
    }

    /// The tracks added so far.
    pub fn tracks(&self) -> &[Track] {
        &self.tracks
    }

    /// The flow arrows added so far.
    pub fn flows(&self) -> &[FlowArrow] {
        &self.flows
    }

    /// The named processes added so far.
    pub fn processes(&self) -> &[(u64, String)] {
        &self.processes
    }

    /// Serializes to a trace-event JSON document:
    /// `{"displayTimeUnit": "ms", "traceEvents": [...]}` with metadata
    /// events first, then complete events, then flow pairs — each group in
    /// its canonical sort order.
    pub fn to_trace_events(&self) -> Json {
        let mut events: Vec<Json> = Vec::new();

        let mut processes = self.processes.clone();
        processes.sort_by_key(|p| p.0);
        for (pid, name) in &processes {
            events.push(
                Json::object()
                    .set("name", "process_name")
                    .set("ph", "M")
                    .set("pid", *pid)
                    .set("args", Json::object().set("name", name.as_str())),
            );
        }

        let mut tracks = self.tracks.clone();
        tracks.sort_by_key(|t| (t.pid, t.tid));
        for track in &tracks {
            events.push(
                Json::object()
                    .set("name", "thread_name")
                    .set("ph", "M")
                    .set("pid", track.pid)
                    .set("tid", track.tid)
                    .set("args", Json::object().set("name", track.name.as_str())),
            );
        }
        for track in &mut tracks {
            sort_records(&mut track.spans);
            for span in &track.spans {
                events.push(
                    Json::object()
                        .set("name", span.name.as_str())
                        .set("cat", "phase")
                        .set("ph", "X")
                        .set("ts", span.start_ns as f64 / 1000.0)
                        .set("dur", span.duration_ns as f64 / 1000.0)
                        .set("pid", track.pid)
                        .set("tid", track.tid)
                        .set("args", Json::object().set("depth", span.depth)),
                );
            }
        }

        let mut flows = self.flows.clone();
        flows.sort_by_key(|f| f.id);
        for flow in &flows {
            events.push(
                Json::object()
                    .set("name", flow.name.as_str())
                    .set("cat", "comm")
                    .set("ph", "s")
                    .set("id", flow.id)
                    .set("ts", flow.send_ns as f64 / 1000.0)
                    .set("pid", flow.from.0)
                    .set("tid", flow.from.1),
            );
            events.push(
                Json::object()
                    .set("name", flow.name.as_str())
                    .set("cat", "comm")
                    .set("ph", "f")
                    .set("bp", "e")
                    .set("id", flow.id)
                    .set("ts", flow.recv_ns as f64 / 1000.0)
                    .set("pid", flow.to.0)
                    .set("tid", flow.to.1),
            );
        }

        Json::object()
            .set("displayTimeUnit", "ms")
            .set("traceEvents", events)
    }

    /// Serializes to pretty-printed trace-event JSON text.
    pub fn to_pretty_string(&self) -> String {
        self.to_trace_events().to_pretty_string()
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

    fn sample() -> Timeline {
        let mut t = Timeline::new();
        t.add_process(1, "fig14 dist@2ranks");
        t.add_track(
            1,
            0,
            "rank 0",
            vec![
                span("exchange.halo", 1_000, 4_500),
                span("eval.per_element", 5_500, 20_000),
            ],
        );
        t.add_track(
            1,
            1,
            "rank 1",
            vec![
                span("exchange.halo", 1_200, 4_100),
                span("eval.per_element", 5_400, 19_000),
            ],
        );
        t.add_flow("halo 0→1", (1, 0), (1, 1), 1_100, 1_900);
        t.add_flow("halo 1→0", (1, 1), (1, 0), 1_300, 2_100);
        t
    }

    #[test]
    fn emission_is_deterministic_regardless_of_insertion_order() {
        let a = sample();
        // Same content, tracks and processes added in reverse.
        let mut b = Timeline::new();
        b.add_track(
            1,
            1,
            "rank 1",
            vec![
                span("eval.per_element", 5_400, 19_000),
                span("exchange.halo", 1_200, 4_100),
            ],
        );
        b.add_track(
            1,
            0,
            "rank 0",
            vec![
                span("eval.per_element", 5_500, 20_000),
                span("exchange.halo", 1_000, 4_500),
            ],
        );
        b.add_process(1, "fig14 dist@2ranks");
        b.add_flow("halo 0→1", (1, 0), (1, 1), 1_100, 1_900);
        b.add_flow("halo 1→0", (1, 1), (1, 0), 1_300, 2_100);
        assert_eq!(a.to_pretty_string(), b.to_pretty_string());
    }

    #[test]
    fn events_carry_the_trace_event_shape() {
        let doc = sample().to_trace_events();
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms")
        );
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        // 1 process + 2 thread metadata + 4 spans + 2 flows × 2 halves.
        assert_eq!(events.len(), 1 + 2 + 4 + 4);
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(
            phases,
            vec!["M", "M", "M", "X", "X", "X", "X", "s", "f", "s", "f"]
        );
        // Timestamps are microseconds: 1_000 ns = 1 µs.
        let first_span = &events[3];
        assert_eq!(first_span.get("ts").and_then(Json::as_f64), Some(1.0));
        assert_eq!(first_span.get("dur").and_then(Json::as_f64), Some(4.5));
        // The flow end carries the binding point marker Perfetto expects.
        assert_eq!(events[8].get("bp").and_then(Json::as_str), Some("e"));
    }
}
