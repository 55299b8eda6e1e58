//! Fixed-size streaming histograms with logarithmic (base-2) buckets.
//!
//! [`Hist64`] is `Copy`, lives on the stack, and records in a handful of
//! integer instructions — no allocation, no floating point — so per-patch
//! workers can own one privately and merge at join points, exactly like the
//! work counters in `ustencil-core::Metrics`.

use crate::{Json, JsonField};

/// Number of buckets: one for zero plus one per power of two.
pub const N_BUCKETS: usize = 64;

/// A log2-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds exact zeros; bucket `b >= 1` holds values in
/// `[2^(b-1), 2^b - 1]` (the last bucket absorbs everything above).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hist64 {
    buckets: [u64; N_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Hist64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Hist64 {
    /// An empty histogram.
    pub const fn new() -> Self {
        Self {
            buckets: [0; N_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The bucket index a value falls into.
    #[inline]
    pub const fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            let b = 64 - v.leading_zeros() as usize;
            if b > N_BUCKETS - 1 {
                N_BUCKETS - 1
            } else {
                b
            }
        }
    }

    /// Inclusive value range covered by bucket `b`.
    pub const fn bucket_bounds(b: usize) -> (u64, u64) {
        if b == 0 {
            (0, 0)
        } else if b >= N_BUCKETS - 1 {
            (1u64 << (N_BUCKETS - 2), u64::MAX)
        } else {
            (1u64 << (b - 1), (1u64 << b) - 1)
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        if v > self.max {
            self.max = v;
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Hist64) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Iterates `(bucket index, count)` over non-empty buckets.
    pub fn iter_nonempty(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (b, c))
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`); 0 when empty. Exact to bucket resolution.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Never report beyond the observed maximum.
                return Self::bucket_bounds(b).1.min(self.max);
            }
        }
        self.max
    }

    /// Restores a histogram from its serialized parts. Bucket indices out
    /// of range are rejected.
    pub fn from_parts(sparse_buckets: &[(usize, u64)], sum: u64, max: u64) -> Result<Self, String> {
        let mut h = Self::new();
        for &(b, c) in sparse_buckets {
            if b >= N_BUCKETS {
                return Err(format!("histogram bucket index {b} out of range"));
            }
            h.buckets[b] = c;
            h.count += c;
        }
        h.sum = sum;
        h.max = max;
        Ok(h)
    }
}

/// `count`/`sum`/`max` plus the non-empty buckets. Each bucket's `lo`/`hi`
/// bounds (and the total `count`) are emitted for readers and recomputed
/// from the bucket index on parse.
impl JsonField for Hist64 {
    fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .iter_nonempty()
            .map(|(b, c)| {
                let (lo, hi) = Self::bucket_bounds(b);
                Json::object()
                    .set("bucket", b)
                    .set("lo", lo)
                    .set("hi", hi.min(self.max))
                    .set("count", c)
            })
            .collect();
        Json::object()
            .set("count", self.count)
            .set("sum", self.sum)
            .set("max", self.max)
            .set("buckets", buckets)
    }

    fn from_json(doc: &Json) -> Result<Self, String> {
        let sparse = doc
            .field::<Vec<Json>>("buckets")?
            .iter()
            .map(|b| Ok((b.field::<u64>("bucket")? as usize, b.field("count")?)))
            .collect::<Result<Vec<_>, String>>()?;
        Self::from_parts(&sparse, doc.field("sum")?, doc.field("max")?)
    }
}

#[cfg(test)]
impl Hist64 {
    fn sum(&self) -> u64 {
        self.sum
    }

    fn max(&self) -> u64 {
        self.max
    }

    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        // Zero gets its own bucket; powers of two open new buckets.
        assert_eq!(Hist64::bucket_of(0), 0);
        assert_eq!(Hist64::bucket_of(1), 1);
        assert_eq!(Hist64::bucket_of(2), 2);
        assert_eq!(Hist64::bucket_of(3), 2);
        assert_eq!(Hist64::bucket_of(4), 3);
        assert_eq!(Hist64::bucket_of(7), 3);
        assert_eq!(Hist64::bucket_of(8), 4);
        assert_eq!(Hist64::bucket_of((1 << 20) - 1), 20);
        assert_eq!(Hist64::bucket_of(1 << 20), 21);
        assert_eq!(Hist64::bucket_of(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_partition_the_domain() {
        assert_eq!(Hist64::bucket_bounds(0), (0, 0));
        assert_eq!(Hist64::bucket_bounds(1), (1, 1));
        assert_eq!(Hist64::bucket_bounds(2), (2, 3));
        assert_eq!(Hist64::bucket_bounds(5), (16, 31));
        // Consecutive buckets tile the integers with no gaps or overlaps.
        for b in 0..N_BUCKETS - 1 {
            let (_, hi) = Hist64::bucket_bounds(b);
            let (lo_next, _) = Hist64::bucket_bounds(b + 1);
            assert_eq!(hi + 1, lo_next, "gap between buckets {b} and {}", b + 1);
        }
        assert_eq!(Hist64::bucket_bounds(N_BUCKETS - 1).1, u64::MAX);
        // Every value lands in the bucket whose bounds contain it.
        for v in [0u64, 1, 2, 3, 4, 5, 63, 64, 65, 1023, 1024, u64::MAX] {
            let (lo, hi) = Hist64::bucket_bounds(Hist64::bucket_of(v));
            assert!(lo <= v && v <= hi, "value {v} escapes its bucket");
        }
    }

    #[test]
    fn record_and_stats() {
        let mut h = Hist64::new();
        for v in [0u64, 1, 1, 2, 5, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 109);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 109.0 / 6.0).abs() < 1e-12);
        assert_eq!(h.buckets[0], 1); // the zero
        assert_eq!(h.buckets[1], 2); // the ones
        assert_eq!(h.buckets[2], 1); // the two
    }

    #[test]
    fn merge_matches_combined_recording() {
        let mut a = Hist64::new();
        let mut b = Hist64::new();
        let mut combined = Hist64::new();
        for v in 0..50u64 {
            a.record(v * 3);
            combined.record(v * 3);
        }
        for v in 0..30u64 {
            b.record(v * 7 + 1);
            combined.record(v * 7 + 1);
        }
        a.merge(&b);
        assert_eq!(a, combined);
    }

    #[test]
    fn quantiles_bracket_the_distribution() {
        let mut h = Hist64::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.quantile_upper_bound(1.0), 1000);
        let p50 = h.quantile_upper_bound(0.5);
        // Bucket resolution: p50 must be within the bucket containing 500.
        assert!((500..=1023).contains(&p50), "p50 = {p50}");
        assert_eq!(Hist64::new().quantile_upper_bound(0.5), 0);
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty histogram: every quantile is 0.
        let empty = Hist64::new();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(empty.quantile_upper_bound(q), 0);
        }
        // q = 0.0 targets the first sample (rank at least 1, never 0).
        let mut h = Hist64::new();
        for v in [1u64, 100, 10_000] {
            h.record(v);
        }
        assert_eq!(h.quantile_upper_bound(0.0), 1);
        // q = 1.0 reports exactly the observed maximum, clamped below the
        // bucket's upper bound.
        assert_eq!(h.quantile_upper_bound(1.0), 10_000);
        // Out-of-range q values clamp instead of panicking.
        assert_eq!(h.quantile_upper_bound(-0.5), h.quantile_upper_bound(0.0));
        assert_eq!(h.quantile_upper_bound(1.5), h.quantile_upper_bound(1.0));
    }

    #[test]
    fn single_bucket_quantiles_report_the_max() {
        // All samples in one bucket (5, 6, 7 share bucket 3 = [4, 7]):
        // every quantile must report the observed max, not the bucket
        // bound.
        let mut h = Hist64::new();
        for v in [5u64, 6, 7, 5] {
            h.record(v);
        }
        for q in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(h.quantile_upper_bound(q), 7, "q = {q}");
        }
        // A single zero sample lives in the zero bucket.
        let mut z = Hist64::new();
        z.record(0);
        assert_eq!(z.quantile_upper_bound(0.5), 0);
        assert_eq!(z.quantile_upper_bound(1.0), 0);
        assert_eq!(z.count(), 1);
    }

    #[test]
    fn merge_then_quantile_matches_combined_recording() {
        let mut a = Hist64::new();
        let mut b = Hist64::new();
        let mut combined = Hist64::new();
        for v in 0..200u64 {
            a.record(v * 5);
            combined.record(v * 5);
        }
        for v in 0..77u64 {
            b.record(v * v + 3);
            combined.record(v * v + 3);
        }
        a.merge(&b);
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(
                a.quantile_upper_bound(q),
                combined.quantile_upper_bound(q),
                "q = {q}"
            );
        }
        // Merging an empty histogram changes nothing.
        let before = a;
        a.merge(&Hist64::new());
        assert_eq!(a, before);
    }

    #[test]
    fn from_parts_round_trips() {
        let mut h = Hist64::new();
        for v in [3u64, 9, 9, 200, 0] {
            h.record(v);
        }
        let sparse: Vec<(usize, u64)> = h.iter_nonempty().collect();
        let restored = Hist64::from_parts(&sparse, h.sum(), h.max()).unwrap();
        assert_eq!(restored, h);
        assert!(Hist64::from_parts(&[(N_BUCKETS, 1)], 0, 0).is_err());
    }
}
