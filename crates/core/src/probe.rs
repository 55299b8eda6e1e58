//! Per-block instrumentation: distribution probes and per-patch stats.
//!
//! Like [`Metrics`], everything here follows the
//! merge-at-join design: each worker owns its [`Probe`] and [`BlockStats`]
//! privately, the coordinator merges after the join. A disabled probe
//! reduces every `record_*` call to a single predictable branch, so the
//! evaluation hot loops stay a plain integer increment when observability
//! is off (guarded by the `probe_overhead` micro-benchmark).

use ustencil_trace::Hist64;

use crate::metrics::Metrics;

/// Streaming distribution recorders for one block/patch of work.
///
/// Three distributions drive the paper's data-structure and work-volume
/// arguments:
///
/// * **candidates per query** — how many ids each hash-grid range query
///   delivers (halo false positives included), the Section 3 search cost;
/// * **sub-regions per element** — how many triangular integration regions
///   clipping produces per processed element, the Section 3.2 clip volume;
/// * **quadrature points per integration** — integrand evaluations per
///   stencil/element integration, the inner-loop trip count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    enabled: bool,
    candidates_per_query: Hist64,
    subregions_per_element: Hist64,
    quad_points_per_integration: Hist64,
}

impl Probe {
    /// A probe that records (`enabled = true`) or ignores all samples.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            candidates_per_query: Hist64::new(),
            subregions_per_element: Hist64::new(),
            quad_points_per_integration: Hist64::new(),
        }
    }

    /// A probe that drops every sample after one branch.
    pub fn disabled() -> Self {
        Self::new(false)
    }

    /// Records how many candidates one hash-grid query delivered.
    #[inline]
    pub fn record_candidates(&mut self, n: u64) {
        if self.enabled {
            self.candidates_per_query.record(n);
        }
    }

    /// Records how many integration sub-regions one element produced.
    #[inline]
    pub fn record_subregions(&mut self, n: u64) {
        if self.enabled {
            self.subregions_per_element.record(n);
        }
    }

    /// Records how many quadrature points one integration evaluated.
    #[inline]
    pub fn record_quad_points(&mut self, n: u64) {
        if self.enabled {
            self.quad_points_per_integration.record(n);
        }
    }

    /// Merges another probe's samples into this one. The merged probe is
    /// enabled when either side was.
    pub fn merge(&mut self, other: &Probe) {
        self.enabled |= other.enabled;
        self.candidates_per_query.merge(&other.candidates_per_query);
        self.subregions_per_element
            .merge(&other.subregions_per_element);
        self.quad_points_per_integration
            .merge(&other.quad_points_per_integration);
    }

    /// Candidates-per-query distribution.
    pub fn candidates_per_query(&self) -> &Hist64 {
        &self.candidates_per_query
    }

    /// Sub-regions-per-element distribution.
    pub fn subregions_per_element(&self) -> &Hist64 {
        &self.subregions_per_element
    }

    /// Quadrature-points-per-integration distribution.
    pub fn quad_points_per_integration(&self) -> &Hist64 {
        &self.quad_points_per_integration
    }
}

/// Everything observed about one block/patch of work.
///
/// Blocks are the unit of device scheduling, so the spread of these values
/// across a run *is* its load-imbalance story (`RunReport` summarizes it
/// with max/mean, CoV, and Gini).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockStats {
    /// The block's work counters.
    pub metrics: Metrics,
    /// Host wall-clock time spent evaluating the block, in nanoseconds.
    pub wall_ns: u64,
    /// Mesh elements assigned to the block (0 for per-point blocks, which
    /// own point ranges instead).
    pub elements: u64,
    /// Grid points the block wrote: owned points for per-point blocks,
    /// touched partial-solution slots for per-element patches.
    pub points: u64,
    /// The block's distribution probe.
    pub probe: Probe,
}

impl BlockStats {
    /// Projects per-block metrics out of a stats slice (the shape the
    /// device cost model consumes).
    pub fn metrics_of(stats: &[BlockStats]) -> Vec<Metrics> {
        stats.iter().map(|s| s.metrics).collect()
    }

    /// Merges every block's probe into one run-wide probe.
    pub fn merged_probe(stats: &[BlockStats]) -> Probe {
        let mut total = Probe::disabled();
        for s in stats {
            total.merge(&s.probe);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probe_records_nothing() {
        let mut p = Probe::disabled();
        p.record_candidates(10);
        p.record_subregions(3);
        p.record_quad_points(7);
        assert!(!p.enabled);
        assert!(p.candidates_per_query().is_empty());
        assert!(p.subregions_per_element().is_empty());
        assert!(p.quad_points_per_integration().is_empty());
    }

    #[test]
    fn enabled_probe_records_all_three() {
        let mut p = Probe::new(true);
        p.record_candidates(10);
        p.record_candidates(20);
        p.record_subregions(3);
        p.record_quad_points(7);
        assert_eq!(p.candidates_per_query().count(), 2);
        assert_eq!(p.candidates_per_query().sum(), 30);
        assert_eq!(p.subregions_per_element().count(), 1);
        assert_eq!(p.quad_points_per_integration().max(), 7);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = Probe::new(true);
        let mut b = Probe::new(true);
        a.record_candidates(1);
        b.record_candidates(100);
        a.merge(&b);
        assert_eq!(a.candidates_per_query().count(), 2);
        assert_eq!(a.candidates_per_query().max(), 100);
        // Merging an enabled probe into a disabled one enables it.
        let mut d = Probe::disabled();
        d.merge(&a);
        assert!(d.enabled);
        assert_eq!(d.candidates_per_query().count(), 2);
    }

    #[test]
    fn merged_probe_over_blocks() {
        let block = |n| {
            BlockStats::measure(true, 0, |p| {
                p.record_candidates(n);
                ((), Metrics::default())
            })
            .1
        };
        let stats = vec![block(4), block(8)];
        let merged = BlockStats::merged_probe(&stats);
        assert_eq!(merged.candidates_per_query().count(), 2);
        assert_eq!(merged.candidates_per_query().sum(), 12);
    }
}
