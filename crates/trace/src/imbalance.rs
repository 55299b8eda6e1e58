//! Load-imbalance summaries over per-patch costs.
//!
//! Overlapped tiling (paper, Section 4) only scales when patch costs are
//! even; these statistics quantify how even they are. The headline numbers
//! are `max/mean` (the idealized parallel-efficiency loss: a device is as
//! slow as its busiest patch chain), the coefficient of variation, and the
//! Gini coefficient Luporini-style tiling analyses report.

crate::json_record! {
    /// Distribution summary of one per-patch cost vector (times, elements, ...).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct ImbalanceSummary {
        /// Number of patches summarized.
        pub n: usize,
        /// Smallest patch cost.
        pub min: f64,
        /// Largest patch cost.
        pub max: f64,
        /// Mean patch cost.
        pub mean: f64,
        /// `max / mean` — 1.0 is perfectly balanced.
        pub max_over_mean: f64,
        /// Coefficient of variation (population stddev / mean).
        pub cov: f64,
        /// Gini coefficient in `[0, 1)` — 0 is perfectly balanced.
        pub gini: f64,
    }
}

impl ImbalanceSummary {
    /// Summarizes a cost vector. Empty or all-zero inputs yield the
    /// degenerate balanced summary (ratios 1/0 where division is
    /// undefined).
    pub fn from_values(values: &[f64]) -> Self {
        let n = values.len();
        if n == 0 {
            return Self {
                n: 0,
                min: 0.0,
                max: 0.0,
                mean: 0.0,
                max_over_mean: 1.0,
                cov: 0.0,
                gini: 0.0,
            };
        }
        let sum: f64 = values.iter().sum();
        let mean = sum / n as f64;
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        let (max_over_mean, cov, gini) = if mean > 0.0 {
            let mut sorted = values.to_vec();
            sorted.sort_by(|a, b| a.total_cmp(b));
            // Gini via the sorted form:
            // G = (2 * sum_i (i+1) x_(i)) / (n * sum) - (n + 1) / n.
            let weighted: f64 = sorted
                .iter()
                .enumerate()
                .map(|(i, &x)| (i + 1) as f64 * x)
                .sum();
            let g = (2.0 * weighted) / (n as f64 * sum) - (n as f64 + 1.0) / n as f64;
            (max / mean, var.sqrt() / mean, g.max(0.0))
        } else {
            (1.0, 0.0, 0.0)
        };
        Self {
            n,
            min,
            max,
            mean,
            max_over_mean,
            cov,
            gini,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_costs_score_perfect() {
        let s = ImbalanceSummary::from_values(&[2.0; 8]);
        assert_eq!(s.n, 8);
        assert_eq!(s.max_over_mean, 1.0);
        assert_eq!(s.cov, 0.0);
        assert!(s.gini.abs() < 1e-12);
    }

    #[test]
    fn one_hot_costs_score_maximal() {
        // One patch does all the work: max/mean = n, Gini -> (n-1)/n.
        let mut v = vec![0.0; 10];
        v[3] = 5.0;
        let s = ImbalanceSummary::from_values(&v);
        assert!((s.max_over_mean - 10.0).abs() < 1e-12);
        assert!((s.gini - 0.9).abs() < 1e-12);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    fn known_gini_value() {
        // {1, 3}: mean 2, |1-3| pairs -> G = 2 / (2 * 2^2 * ... ) = 0.25.
        let s = ImbalanceSummary::from_values(&[1.0, 3.0]);
        assert!((s.gini - 0.25).abs() < 1e-12);
        assert!((s.max_over_mean - 1.5).abs() < 1e-12);
        assert!((s.cov - 0.5).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        let empty = ImbalanceSummary::from_values(&[]);
        assert_eq!(empty.n, 0);
        assert_eq!(empty.max_over_mean, 1.0);
        let zeros = ImbalanceSummary::from_values(&[0.0, 0.0]);
        assert_eq!(zeros.max_over_mean, 1.0);
        assert_eq!(zeros.gini, 0.0);
    }
}
