//! Contribution sinks: what a traversal *does* with each integrated
//! element image.
//!
//! The traversal driver discovers intersections and reduces every element
//! image to monomial-power sums; a [`ContributionSink`] decides what those
//! sums become. Two production sinks exist:
//!
//! * [`AccumulateSolution`] contracts the sums against the element's own
//!   monomial coefficients — the direct evaluation all three schemes
//!   (per-point, per-element, tiled) perform;
//! * [`AccumulateWeights`] keeps the sums symbolic and folds them into
//!   per-mode CSR weights — the evaluation-plan compiler's path.
//!
//! New backends (f32, SIMD batches, GPU staging) plug in here: implement
//! the trait, reuse the driver unchanged.

use crate::integrate::{ElementData, MAX_MODES};
use ustencil_dg::DubinerBasis;

/// Consumer of per-element-image integration results.
///
/// The driver calls [`absorb`](Self::absorb) once per element image whose
/// clipped intersection has positive area, and
/// [`finish_candidate`](Self::finish_candidate) once per candidate element
/// after all of its periodic images have been processed.
pub trait ContributionSink {
    /// Absorbs the monomial-power sums `Σ_q w_q u^a v^b` of one element
    /// image (`elem` is the element the sums belong to).
    fn absorb(&mut self, elem: &ElementData, mono_sums: &[f64; MAX_MODES]);

    /// Called after the last periodic image of candidate `id`; `hit` is
    /// true when any image truly intersected the stencil.
    fn finish_candidate(&mut self, id: u32, hit: bool) {
        let _ = (id, hit);
    }
}

/// The direct-evaluation sink: contracts each element image's monomial
/// sums against the element polynomial, accumulating the post-processed
/// solution value of the current query point.
#[derive(Debug, Clone, Copy, Default)]
pub struct AccumulateSolution {
    value: f64,
}

impl AccumulateSolution {
    /// A sink with a zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the accumulated value and resets the accumulator for the
    /// next query.
    #[inline]
    pub fn take(&mut self) -> f64 {
        std::mem::take(&mut self.value)
    }
}

impl ContributionSink for AccumulateSolution {
    #[inline]
    fn absorb(&mut self, elem: &ElementData, mono_sums: &[f64; MAX_MODES]) {
        self.value += elem.dot_mono(mono_sums);
    }
}

/// The plan-compilation sink: accumulates each candidate's monomial sums
/// across its periodic images, then transforms monomial → modal once per
/// surviving candidate and appends the per-mode weights to its CSR row.
#[derive(Debug, Clone)]
pub struct AccumulateWeights<'a> {
    basis: &'a DubinerBasis,
    mono_w: [f64; MAX_MODES],
    cols: Vec<u32>,
    weights: Vec<f64>,
    row_entries: u32,
}

impl<'a> AccumulateWeights<'a> {
    /// A sink producing weights in `basis`'s modal expansion.
    pub fn new(basis: &'a DubinerBasis) -> Self {
        Self {
            basis,
            mono_w: [0.0; MAX_MODES],
            cols: Vec::new(),
            weights: Vec::new(),
            row_entries: 0,
        }
    }

    /// Starts a new CSR row (one per query point).
    #[inline]
    pub fn begin_row(&mut self) {
        self.row_entries = 0;
    }

    /// Entries appended to the current row so far.
    #[inline]
    pub fn row_entries(&self) -> u32 {
        self.row_entries
    }

    /// Consumes the sink, returning the accumulated CSR column ids and the
    /// `n_modes`-strided weight array.
    pub fn into_csr(self) -> (Vec<u32>, Vec<f64>) {
        (self.cols, self.weights)
    }
}

impl ContributionSink for AccumulateWeights<'_> {
    #[inline]
    fn absorb(&mut self, elem: &ElementData, mono_sums: &[f64; MAX_MODES]) {
        for (w, s) in self.mono_w.iter_mut().zip(mono_sums).take(elem.n_modes()) {
            *w += s;
        }
    }

    fn finish_candidate(&mut self, id: u32, hit: bool) {
        if hit {
            // Monomial → modal: the transpose of the basis change
            // `ElementData::gather` applies to coefficients.
            let n_modes = self.basis.n_modes();
            self.cols.push(id);
            for m in 0..n_modes {
                let mc = self.basis.monomial_coefficients(m);
                let mut w = 0.0;
                for (slot, &c) in mc.iter().enumerate().take(n_modes) {
                    w += c * self.mono_w[slot];
                }
                self.weights.push(w);
            }
            self.row_entries += 1;
        }
        self.mono_w = [0.0; MAX_MODES];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustencil_dg::project_l2;
    use ustencil_mesh::{generate_mesh, MeshClass};

    #[test]
    fn solution_sink_contracts_monomials() {
        let mesh = generate_mesh(MeshClass::LowVariance, 40, 1);
        let field = project_l2(&mesh, 1, |x, y| 1.0 + x + y, 0);
        let basis = field.basis().clone();
        let ed = ElementData::gather(&mesh, &field, &basis, 0);
        let mut sink = AccumulateSolution::new();
        // Sums that pick out the constant monomial only.
        let mut sums = [0.0; MAX_MODES];
        sums[0] = 2.0;
        sink.absorb(&ed, &sums);
        let got = sink.take();
        assert_eq!(sink.take(), 0.0, "take must reset");
        // dot_mono with the constant slot equals 2 * mono[0]; cross-check
        // against eval at the element origin (u = v = 0).
        let tri = mesh.triangle(0);
        let at_origin = ed.eval(tri.a, basis.monomial_exponents());
        assert!((got - 2.0 * at_origin).abs() < 1e-12 * at_origin.abs().max(1.0));
    }

    #[test]
    fn weights_sink_rows_and_reset() {
        let basis = DubinerBasis::new(1);
        let mesh = generate_mesh(MeshClass::LowVariance, 40, 1);
        let ed = ElementData::gather_geometry(&mesh, 0, basis.n_modes());
        let mut sink = AccumulateWeights::new(&basis);
        sink.begin_row();
        let mut sums = [0.0; MAX_MODES];
        sums[0] = 1.0;
        sink.absorb(&ed, &sums);
        sink.finish_candidate(7, true);
        // A missed candidate appends nothing but still clears the sums.
        sink.absorb(&ed, &sums);
        sink.finish_candidate(8, false);
        assert_eq!(sink.row_entries(), 1);
        let (cols, weights) = sink.into_csr();
        assert_eq!(cols, vec![7]);
        assert_eq!(weights.len(), basis.n_modes());
        // Constant-monomial sums transform to the modal coefficients of the
        // constant: weight[m] = mc_m[0].
        for (m, &w) in weights.iter().enumerate() {
            assert_eq!(w, basis.monomial_coefficients(m)[0]);
        }
    }
}
