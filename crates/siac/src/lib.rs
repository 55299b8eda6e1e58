//! Smoothness-increasing accuracy-conserving (SIAC) convolution kernels.
//!
//! The post-processor of the paper convolves a dG solution against
//!
//! ```text
//! K^{r+1, k+1}(x) = sum_{γ=0}^{r} c_γ ψ^{(k+1)}(x - x_γ),   x_γ = -r/2 + γ,
//! ```
//!
//! a linear combination of `r + 1 = 2k + 1` central B-splines of order
//! `k + 1` centered on an integer lattice (Section 2.2). The coefficients
//! `c_γ` are fixed by requiring the kernel to reproduce polynomials of
//! degree up to `r = 2k` under convolution, equivalently by the moment
//! conditions `μ_0(K) = 1`, `μ_j(K) = 0` for `j = 1..r`.
//!
//! This crate provides:
//!
//! * [`bspline`] — central B-splines: Cox–de Boor evaluation, breakpoints,
//!   exact moments,
//! * [`kernel`] — the 1D symmetric SIAC kernel with coefficients solved from
//!   the moment conditions and a piecewise-polynomial compiled form for fast
//!   exact evaluation,
//! * [`stencil`] — the 2D tensor-product stencil geometry: the
//!   `(3k+1) x (3k+1)` lattice of squares of side `h` (Figure 5) whose
//!   cells never cross a kernel breakpoint.

#![deny(missing_docs)]

pub mod bspline;
pub mod kernel;
pub mod stencil;

pub use bspline::BSpline;
pub use kernel::Kernel1d;
pub use stencil::Stencil2d;

#[cfg(test)]
mod filter1d;
