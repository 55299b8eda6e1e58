//! Contribution sinks: what a traversal *does* with each integrated
//! element image.
//!
//! The traversal driver discovers intersections and reduces every element
//! image to monomial-power sums; a [`ContributionSink`] decides what those
//! sums become:
//!
//! * [`AccumulateSolution`] contracts the sums against the element's own
//!   monomial coefficients — the direct evaluation every scheme performs;
//! * [`AccumulateWeights`] keeps them symbolic and folds each
//!   `(point, element)` pair's into per-mode weights — the evaluation-plan
//!   compiler's path.
//!
//! New backends (f32, SIMD batches, GPU staging) plug in here: implement
//! the trait, reuse the driver unchanged.

use crate::integrate::{ElementData, MAX_MODES};
use ustencil_dg::DubinerBasis;
use ustencil_geometry::Vec2;

/// Consumer of per-element-image integration results.
///
/// The driver calls [`absorb`](Self::absorb) once per element image whose
/// clipped intersection has positive area.
pub trait ContributionSink {
    /// Absorbs the monomial-power sums `Σ_q w_q u^a v^b` of one element
    /// image (`elem` is the element the sums belong to).
    fn absorb(&mut self, elem: &ElementData, mono_sums: &[f64; MAX_MODES]);
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

/// The plan-compilation sink: keeps the sums symbolic. Driven by
/// [`element_query`](super::StencilTraversal::element_query), it records
/// one hit per element image that met a point ([`hit`](Self::hit)), and
/// [`finish_element`](Self::finish_element) turns the element's hits into
/// one entry per point: the point, the element and its monomial sums,
/// kept until [`clear`](Self::clear), which keeps the buffers. The caller
/// turns an entry's sums into per-mode weights as it stores them
/// ([`modal`](Self::modal)).
#[derive(Debug, Clone, Default)]
pub struct AccumulateWeights {
    /// The basis's monomial coefficients, one row of `n_modes` per mode.
    modal: Vec<f64>,
    n_modes: usize,
    points: Vec<u32>,
    elements: Vec<u32>,
    weights: Vec<f64>,
    absorbed: bool,
    images: bool,
    /// The image path's buffers: its hits' sort keys and their sums.
    keys: Vec<u64>,
    sums: Vec<f64>,
}

impl AccumulateWeights {
    /// A sink producing weights in `basis`'s modal expansion.
    pub fn new(basis: &DubinerBasis) -> Self {
        let n_modes = basis.n_modes();
        let rows = (0..n_modes).map(|m| basis.monomial_coefficients(m));
        let modal = rows.flat_map(|c| c.iter().copied()).collect();
        Self {
            modal,
            n_modes,
            ..Self::default()
        }
    }

    /// Records that the image `elem + shift` just integrated met `point`.
    #[inline]
    pub fn hit(&mut self, point: u32, shift: Vec2) {
        self.images |= shift != Vec2::ZERO;
        self.points.push(point);
        if !std::mem::take(&mut self.absorbed) {
            self.weights.resize(self.weights.len() + self.n_modes, 0.0);
        }
    }

    /// Closes element `elem` into its entries. A point met through several
    /// images (a support nearly as wide as the domain) sums them from `0.0`
    /// as met, σ over `[0, −1, +1]` per axis: `needed_shifts`' order of a
    /// point query's shifts `−σ`, as no accepted support meets both the `−1`
    /// and `+1` image on one axis.
    pub fn finish_element(&mut self, elem: u32) {
        let (first, nm) = (self.elements.len(), self.n_modes);
        if std::mem::take(&mut self.images) {
            let (keys, images) = (&mut self.keys, &mut self.sums);
            let hits = self.points[first..].iter().enumerate();
            keys.clear();
            keys.extend(hits.map(|(k, &p)| (p as u64) << 32 | k as u64));
            keys.sort_unstable();
            if keys.windows(2).any(|w| w[0] >> 32 == w[1] >> 32) {
                images.clear();
                images.extend(self.weights.drain(first * nm..));
                self.points.truncate(first);
                for pair in keys.chunk_by(|a, b| a >> 32 == b >> 32) {
                    let mut sum = [0.0; MAX_MODES];
                    for k in pair.iter().map(|&key| key as u32 as usize) {
                        let image = &images[k * nm..(k + 1) * nm];
                        sum.iter_mut().zip(image).for_each(|(w, s)| *w += s);
                    }
                    self.points.push((pair[0] >> 32) as u32);
                    self.weights.extend_from_slice(&sum[..nm]);
                }
            }
        }
        self.elements.resize(self.points.len(), elem);
    }

    /// An entry's per-mode weights from its monomial sums `mono`, in mode
    /// order: `w[m] = Σ_slot c[m][slot] · s[slot]` from `0.0`, the
    /// transpose of `ElementData::gather`'s basis change.
    #[inline]
    pub fn modal<'s>(&'s self, mono: &'s [f64]) -> impl Iterator<Item = f64> + 's {
        let rows = self.modal.chunks_exact(self.n_modes);
        rows.map(move |c| c.iter().zip(mono).fold(0.0, |w, (c, s)| w + c * s))
    }

    /// Between elements, the entries since the last [`clear`](Self::clear),
    /// in order: points, elements, and `n_modes` monomial sums each.
    pub fn entries(&self) -> (&[u32], &[u32], &[f64]) {
        (&self.points, &self.elements, &self.weights)
    }

    /// Drops every entry, keeping the buffers' capacity.
    pub fn clear(&mut self) {
        self.points.clear();
        self.elements.clear();
        self.weights.clear();
    }
}

impl ContributionSink for AccumulateWeights {
    #[inline]
    fn absorb(&mut self, _: &ElementData, mono_sums: &[f64; MAX_MODES]) {
        self.weights.extend_from_slice(&mono_sums[..self.n_modes]);
        self.absorbed = true;
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
        let mut sums = [0.0; MAX_MODES];
        sums[0] = 1.0;
        // Point 7 met through two images, point 8 through one that
        // absorbed nothing (every sub-triangle degenerate).
        sink.absorb(&ed, &sums);
        sink.hit(7, Vec2::ZERO);
        sink.hit(8, Vec2::ZERO);
        sink.absorb(&ed, &sums);
        sink.hit(7, Vec2::new(1.0, 0.0));
        sink.finish_element(3);
        sink.finish_element(4);
        let (points, elements, sums) = sink.entries();
        assert_eq!((points, elements), (&[7, 8][..], &[3, 3][..]), "4 met none");
        let nm = basis.n_modes();
        assert_eq!(sums[..nm], [2.0, 0.0, 0.0], "the two images, summed");
        assert_eq!(sums[nm..], [0.0; 3], "none absorbed");
        // Constant-monomial sums transform to the modal coefficients of the
        // constant: weight[m] = 2 · mc_m[0] for the two images, 0 for none.
        for (m, w) in sink.modal(&sums[..nm]).enumerate() {
            assert_eq!(w, 2.0 * basis.monomial_coefficients(m)[0]);
        }
        assert!(sink.modal(&sums[nm..]).all(|w| w == 0.0));
        sink.clear();
        assert_eq!(sink.entries(), (&[][..], &[][..], &[][..]));
    }

    /// Meets points through several images, as a compile meets an element
    /// once per chunk that reaches it: a second pass allocates nothing.
    #[test]
    fn imaged_hits_reuse_the_sinks_buffers() {
        let basis = DubinerBasis::new(2);
        let mesh = generate_mesh(MeshClass::LowVariance, 40, 1);
        let ed = ElementData::gather_geometry(&mesh, 0, basis.n_modes());
        let mut sink = AccumulateWeights::new(&basis);
        let sums = [1.0; MAX_MODES];
        let pass = |sink: &mut AccumulateWeights| {
            for element in 0..50 {
                for (k, shift) in [Vec2::ZERO, Vec2::new(-1.0, 0.0)].into_iter().enumerate() {
                    for point in 0..20 + element % 7 {
                        sink.absorb(&ed, &sums);
                        sink.hit(point + k as u32, shift);
                    }
                }
                sink.finish_element(element);
            }
            assert!(!sink.entries().0.is_empty());
            sink.clear();
            let s = &*sink;
            [
                s.points.capacity(),
                s.elements.capacity(),
                s.weights.capacity(),
                s.keys.capacity(),
                s.sums.capacity(),
            ]
        };
        let warm = pass(&mut sink);
        assert!(warm[3] > 0 && warm[4] > 0, "the image path ran");
        assert_eq!(pass(&mut sink), warm);
    }
}
