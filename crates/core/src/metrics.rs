//! Work counters threaded through the evaluation hot loops.
//!
//! Metrics are accumulated in plain (non-atomic) per-worker structs and
//! merged at join points, so the hot loop pays only an integer increment.
//! They feed the streaming-device cost model
//! ([`device`](crate::device)) and surface to users through
//! [`RunReport`](crate::report::RunReport): the one field list below is
//! the struct, its `merge`, the JSON `"metrics"` object and the array the
//! rank wire codec ships. The per-block view (wall time, ownership)
//! lives in [`BlockStats`](crate::blocks::BlockStats).

ustencil_trace::json_counters! {
    /// Counted work of one evaluation run (or one block/patch of it).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct Metrics merged by std::ops::Add::add {
        /// Stencil/element candidate pairs examined — the paper's
        /// "intersection tests" (Table 1). Every candidate delivered by the
        /// hash grid counts, including halo false positives.
        pub intersection_tests,
        /// Candidate pairs whose clipped intersection had positive area.
        pub true_intersections,
        /// Sutherland–Hodgman clip invocations (one per stencil lattice
        /// square tested against an element).
        pub cell_clips,
        /// Triangular integration sub-regions produced by clipping.
        pub subregions,
        /// Quadrature-point integrand evaluations.
        pub quad_evals,
        /// Estimated double-precision floating-point operations.
        pub flops,
        /// Hash-grid cells visited by queries.
        pub cells_visited,
        /// f64 values of *element data* read from global memory (modal
        /// coefficients + vertex data). Charged per integration in the
        /// per-point scheme, once per element in the per-element scheme —
        /// the data-reuse asymmetry at the heart of the paper.
        pub elem_data_loads,
        /// f64 values of per-point data read (spatial offsets: 2 per
        /// integration in the per-element scheme).
        pub point_data_loads,
        /// f64 solution values written (including partial-solution writes).
        pub solution_writes,
        /// Partial-solution storage slots allocated by overlapped tiling
        /// (equals the final solution size when untiled).
        pub partial_slots,
    }
}

impl Metrics {
    /// Element-data footprint in f64 values for polynomial degree `p`:
    /// `(p+1)(p+2)/2` modal coefficients plus 3 values of vertex/bounds
    /// data, as counted in Sections 3.3–3.4 of the paper.
    pub const fn element_data_values(p: usize) -> u64 {
        ((p + 1) * (p + 2) / 2 + 3) as u64
    }

    /// Sum of a sequence of metric blocks.
    pub fn sum<'a, I: IntoIterator<Item = &'a Metrics>>(blocks: I) -> Metrics {
        let mut total = Metrics::default();
        for b in blocks {
            total.merge(b);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = Metrics {
            intersection_tests: 10,
            flops: 100,
            ..Default::default()
        };
        let b = Metrics {
            intersection_tests: 5,
            true_intersections: 3,
            flops: 50,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.intersection_tests, 15);
        assert_eq!(a.true_intersections, 3);
        assert_eq!(a.flops, 150);
    }

    #[test]
    fn sum_of_blocks() {
        let blocks = vec![
            Metrics {
                quad_evals: 1,
                ..Default::default()
            };
            4
        ];
        assert_eq!(Metrics::sum(&blocks).quad_evals, 4);
    }

    #[test]
    fn element_data_footprint_matches_paper() {
        // Paper: (P+1)(P+2)/2 + 3 values; 6 / 9 / 13 for P = 1 / 2 / 3.
        assert_eq!(Metrics::element_data_values(1), 6);
        assert_eq!(Metrics::element_data_values(2), 9);
        assert_eq!(Metrics::element_data_values(3), 13);
    }
}
