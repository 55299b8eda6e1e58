//! Payload codecs: little-endian, length-prefixed, no external crates.
//!
//! Every payload layout the runtime puts on the wire is defined here, so
//! the message formats are auditable in one place:
//!
//! * **coeffs** — `u32 count`, then per element `u32 id` + `n_modes × f64`
//!   modal coefficients ([`Tag::HaloCoeffs`](crate::transport::Tag));
//! * **ids** — `u32 count` + `count × u32` element ids
//!   ([`Tag::HaloRequest`](crate::transport::Tag));
//! * **rank result** — owned-point values in shard order plus the rank's
//!   execution summary ([`Tag::OwnedValues`](crate::transport::Tag)).

use crate::flow::FlowPoint;
use crate::transport::Tag;
use ustencil_core::{BlockStats, Metrics, Probe};
use ustencil_trace::{CommStats, SpanRecord};

/// A growable little-endian byte writer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends each `u64` in order.
    pub fn u64s(&mut self, vs: &[u64]) {
        for &v in vs {
            self.u64(v);
        }
    }

    /// Appends an `f64` (bit pattern, exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Finishes, returning the payload bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// A bounds-checked little-endian byte reader.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("payload truncated at byte {}", self.pos))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(u64::from_le_bytes(
            self.take(8)?.try_into().unwrap(),
        )))
    }

    /// Reads `N` consecutive `u64`s (a counter struct's array form).
    pub fn u64s<const N: usize>(&mut self) -> Result<[u64; N], String> {
        let mut out = [0; N];
        for slot in &mut out {
            *slot = self.u64()?;
        }
        Ok(out)
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], String> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Reads a `u32` element count, rejecting one the remaining bytes
    /// cannot hold at `min_item_bytes` each — so a decoder never sizes an
    /// allocation from a number the payload itself does not back up.
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, String> {
        let n = self.u32()? as usize;
        let room = (self.buf.len() - self.pos) / min_item_bytes;
        if n > room {
            return Err(format!(
                "count {n} at byte {} exceeds the {room} items the payload can hold",
                self.pos - 4
            ));
        }
        Ok(n)
    }

    /// True when every byte has been consumed.
    pub fn exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Encodes the modal coefficients of `ids` (each `n_modes` long, sliced
/// out of the element-major `coeffs` array).
pub fn encode_coeffs(ids: &[u32], coeffs: &[f64], n_modes: usize) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u32(ids.len() as u32);
    for &e in ids {
        w.u32(e);
        for m in 0..n_modes {
            w.f64(coeffs[e as usize * n_modes + m]);
        }
    }
    w.finish()
}

/// Decodes a coeffs payload directly into an element-major destination
/// array, returning the element ids that were filled.
pub fn decode_coeffs_into(
    payload: &[u8],
    n_modes: usize,
    dest: &mut [f64],
) -> Result<Vec<u32>, String> {
    let mut r = WireReader::new(payload);
    let count = r.count(4 + 8 * n_modes)?;
    let mut ids = Vec::with_capacity(count);
    for _ in 0..count {
        let e = r.u32()? as usize;
        if (e + 1) * n_modes > dest.len() {
            return Err(format!("element id {e} out of range"));
        }
        for m in 0..n_modes {
            dest[e * n_modes + m] = r.f64()?;
        }
        ids.push(e as u32);
    }
    if !r.exhausted() {
        return Err("trailing bytes in coeffs payload".into());
    }
    Ok(ids)
}

/// Encodes a list of element ids (a halo request).
pub fn encode_ids(ids: &[u32]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u32(ids.len() as u32);
    for &e in ids {
        w.u32(e);
    }
    w.finish()
}

/// Decodes a list of element ids.
pub fn decode_ids(payload: &[u8]) -> Result<Vec<u32>, String> {
    let mut r = WireReader::new(payload);
    let count = r.count(4)?;
    let mut ids = Vec::with_capacity(count);
    for _ in 0..count {
        ids.push(r.u32()?);
    }
    if !r.exhausted() {
        return Err("trailing bytes in ids payload".into());
    }
    Ok(ids)
}

/// One rank's finished contribution: owned-point values (in the shard
/// plan's owned-point order, ids implicit) plus its execution summary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankResult {
    /// Values of the rank's owned points, shard order.
    pub values: Vec<f64>,
    /// Transport counters snapshotted *before* this message was sent (the
    /// message carrying the snapshot is necessarily excluded from it).
    pub comm: CommStats,
    /// Nanoseconds of *exposed* communication: the post + drain spans
    /// where the rank had nothing to compute (overlapped wire time hides
    /// under `eval_ns` and is deliberately not charged here).
    pub exchange_ns: u64,
    /// Nanoseconds in the local evaluation phases (interior + frontier).
    pub eval_ns: u64,
    /// Nanoseconds in the local reduce phase.
    pub reduce_ns: u64,
    /// Owned work units whose stencil footprint stays inside owned
    /// territory, evaluated while halo messages were in flight (elements
    /// for the push runtime, plan rows for the sharded plan path).
    pub interior: u64,
    /// Owned work units whose footprint touches a halo ring, evaluated
    /// after the drain. `interior + frontier` partitions the owned work.
    pub frontier: u64,
    /// Per-patch stats of the rank's evaluation (probes are not shipped —
    /// they are rank-local diagnostics).
    pub patches: Vec<BlockStats>,
    /// The rank's tracer spans (empty when instrumentation is off). Start
    /// offsets are measured from the run's shared epoch, so shipped spans
    /// land on the coordinator's time axis directly.
    pub spans: Vec<SpanRecord>,
    /// Flow-log send points (halo-phase messages only; see
    /// [`FlowLog`](crate::flow::FlowLog)).
    pub flow_sends: Vec<FlowPoint>,
    /// Flow-log receive points.
    pub flow_recvs: Vec<FlowPoint>,
}

fn encode_spans(w: &mut WireWriter, spans: &[SpanRecord]) {
    w.u32(spans.len() as u32);
    for s in spans {
        w.bytes(s.name.as_bytes());
        w.u32(s.depth);
        w.u64(s.start_ns);
        w.u64(s.duration_ns);
    }
}

fn decode_spans(r: &mut WireReader) -> Result<Vec<SpanRecord>, String> {
    // Per span: name length prefix, depth, start, duration.
    let n = r.count(4 + 4 + 8 + 8)?;
    let mut spans = Vec::with_capacity(n);
    for _ in 0..n {
        let name = std::str::from_utf8(r.bytes()?)
            .map_err(|_| "span name is not UTF-8".to_string())?
            .to_string();
        spans.push(SpanRecord {
            name,
            depth: r.u32()?,
            start_ns: r.u64()?,
            duration_ns: r.u64()?,
        });
    }
    Ok(spans)
}

fn encode_flow_points(w: &mut WireWriter, points: &[FlowPoint]) {
    w.u32(points.len() as u32);
    for p in points {
        w.u64(p.flow);
        w.u32(p.peer);
        w.u32(p.tag.to_byte() as u32);
        w.u64(p.ts_ns);
        w.u64(p.bytes);
    }
}

fn decode_flow_points(r: &mut WireReader) -> Result<Vec<FlowPoint>, String> {
    // Per point: flow, peer, tag, timestamp, bytes.
    let n = r.count(8 + 4 + 4 + 8 + 8)?;
    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        let flow = r.u64()?;
        let peer = r.u32()?;
        let tag_byte = r.u32()?;
        let tag = Tag::from_byte(tag_byte as u8)
            .ok_or_else(|| format!("unknown flow-point tag byte {tag_byte}"))?;
        points.push(FlowPoint {
            flow,
            peer,
            tag,
            ts_ns: r.u64()?,
            bytes: r.u64()?,
        });
    }
    Ok(points)
}

/// Encodes a [`RankResult`].
pub fn encode_rank_result(res: &RankResult) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u32(res.values.len() as u32);
    for &v in &res.values {
        w.f64(v);
    }
    w.u64s(&res.comm.counters());
    w.u64s(&[
        res.exchange_ns,
        res.eval_ns,
        res.reduce_ns,
        res.interior,
        res.frontier,
    ]);
    w.u32(res.patches.len() as u32);
    for p in &res.patches {
        w.u64s(&[p.wall_ns, p.elements, p.points]);
        w.u64s(&p.metrics.counters());
    }
    encode_spans(&mut w, &res.spans);
    encode_flow_points(&mut w, &res.flow_sends);
    encode_flow_points(&mut w, &res.flow_recvs);
    w.finish()
}

/// Decodes a [`RankResult`].
pub fn decode_rank_result(payload: &[u8]) -> Result<RankResult, String> {
    let mut r = WireReader::new(payload);
    let n = r.count(8)?;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(r.f64()?);
    }
    let comm = CommStats::from_counters(r.u64s()?);
    let [exchange_ns, eval_ns, reduce_ns, interior, frontier] = r.u64s()?;
    // Per patch: wall, elements, points, then the work counters.
    let n_patches = r.count(8 * (3 + Metrics::N_COUNTERS))?;
    let mut patches = Vec::with_capacity(n_patches);
    for _ in 0..n_patches {
        let [wall_ns, elements, points] = r.u64s()?;
        let metrics = Metrics::from_counters(r.u64s()?);
        patches.push(BlockStats {
            metrics,
            wall_ns,
            elements,
            points,
            probe: Probe::disabled(),
        });
    }
    let spans = decode_spans(&mut r)?;
    let flow_sends = decode_flow_points(&mut r)?;
    let flow_recvs = decode_flow_points(&mut r)?;
    if !r.exhausted() {
        return Err("trailing bytes in rank-result payload".into());
    }
    Ok(RankResult {
        values,
        comm,
        exchange_ns,
        eval_ns,
        reduce_ns,
        interior,
        frontier,
        patches,
        spans,
        flow_sends,
        flow_recvs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coeffs_round_trip_bit_exact() {
        let n_modes = 3;
        let coeffs: Vec<f64> = (0..12).map(|i| (i as f64).sqrt() * 0.1 - 0.3).collect();
        let payload = encode_coeffs(&[1, 3], &coeffs, n_modes);
        let mut dest = vec![0.0; 12];
        let ids = decode_coeffs_into(&payload, n_modes, &mut dest).unwrap();
        assert_eq!(ids, vec![1, 3]);
        for e in [1usize, 3] {
            for m in 0..n_modes {
                assert_eq!(
                    dest[e * n_modes + m].to_bits(),
                    coeffs[e * n_modes + m].to_bits()
                );
            }
        }
        assert_eq!(dest[0], 0.0, "unnamed elements stay untouched");
    }

    #[test]
    fn ids_round_trip() {
        let payload = encode_ids(&[7, 0, 42]);
        assert_eq!(decode_ids(&payload).unwrap(), vec![7, 0, 42]);
        assert_eq!(decode_ids(&encode_ids(&[])).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn rank_result_round_trip() {
        let res = RankResult {
            values: vec![1.5, -2.25, 0.0],
            comm: CommStats {
                msgs_sent: 4,
                bytes_sent: 900,
                msgs_recv: 3,
                bytes_recv: 700,
                retransmits: 0,
            },
            exchange_ns: 123,
            eval_ns: 456,
            reduce_ns: 789,
            interior: 40,
            frontier: 9,
            patches: vec![BlockStats {
                metrics: Metrics {
                    flops: 10,
                    intersection_tests: 3,
                    ..Default::default()
                },
                wall_ns: 99,
                elements: 5,
                points: 7,
                probe: Probe::disabled(),
            }],
            spans: vec![
                SpanRecord {
                    name: "exchange.halo".into(),
                    depth: 0,
                    start_ns: 100,
                    duration_ns: 50,
                },
                SpanRecord {
                    name: "eval.per_element".into(),
                    depth: 1,
                    start_ns: 160,
                    duration_ns: 40,
                },
            ],
            flow_sends: vec![FlowPoint {
                flow: 0,
                peer: 1,
                tag: Tag::HaloCoeffs,
                ts_ns: 105,
                bytes: 64,
            }],
            flow_recvs: vec![FlowPoint {
                flow: 3,
                peer: 2,
                tag: Tag::HaloRequest,
                ts_ns: 130,
                bytes: 33,
            }],
        };
        let decoded = decode_rank_result(&encode_rank_result(&res)).unwrap();
        assert_eq!(decoded.values, res.values);
        assert_eq!(decoded.comm, res.comm);
        assert_eq!((decoded.interior, decoded.frontier), (40, 9));
        assert_eq!(decoded.patches.len(), 1);
        assert_eq!(decoded.patches[0].metrics, res.patches[0].metrics);
        assert_eq!(decoded.patches[0].wall_ns, 99);
        assert_eq!(decoded.spans, res.spans);
        assert_eq!(decoded.flow_sends, res.flow_sends);
        assert_eq!(decoded.flow_recvs, res.flow_recvs);
    }

    /// Four corrupt bytes must not size an allocation: every
    /// length-prefixed list refuses a count its payload cannot back.
    #[test]
    fn oversized_counts_are_rejected_before_allocating() {
        let huge = u32::MAX.to_le_bytes();
        let with_huge = |prefix: &[u8], tail: &[u8]| [prefix, &huge, tail].concat();

        assert!(decode_ids(&with_huge(&[], &[0; 8])).is_err());
        assert!(decode_coeffs_into(&with_huge(&[], &[0; 24]), 2, &mut [0.0; 4]).is_err());
        assert!(decode_spans(&mut WireReader::new(&with_huge(&[], &[0; 48]))).is_err());
        assert!(decode_flow_points(&mut WireReader::new(&with_huge(&[], &[0; 64]))).is_err());

        // The rank result's two own lists: values lead the payload, the
        // patch count follows the ten fixed u64 fields.
        let empty = encode_rank_result(&RankResult::default());
        assert!(decode_rank_result(&empty).is_ok());
        assert!(decode_rank_result(&with_huge(&[], &empty[4..])).is_err());
        let patches_at = 4 + 10 * 8;
        let corrupt = with_huge(&empty[..patches_at], &empty[patches_at + 4..]);
        assert!(decode_rank_result(&corrupt).is_err());

        // A count the bytes do back is still accepted right at the limit.
        assert_eq!(WireReader::new(&[2, 0, 0, 0, 9, 9]).count(1), Ok(2));
        assert!(WireReader::new(&[3, 0, 0, 0, 9, 9]).count(1).is_err());
    }

    #[test]
    fn truncated_payloads_are_rejected() {
        let payload = encode_ids(&[7, 8, 9]);
        assert!(decode_ids(&payload[..payload.len() - 1]).is_err());
        let mut extended = payload.clone();
        extended.push(0);
        assert!(decode_ids(&extended).is_err());
        let coeffs = encode_coeffs(&[0], &[1.0, 2.0], 2);
        let mut small = vec![0.0; 2];
        assert!(decode_coeffs_into(&coeffs[..6], 2, &mut small).is_err());
        // Out-of-range element ids are rejected, not written.
        let bad = encode_coeffs(&[5], &[0.0; 12], 2);
        assert!(decode_coeffs_into(&bad, 2, &mut small).is_err());
    }
}
