//! The [`PostProcessor`] front door: one configuration surface for every
//! scheme / tiling / parallelism combination the paper evaluates.

use crate::blocks::BlockStats;
use crate::config::ExecConfig;
use crate::device::{simulate_ranks, DeviceConfig, RankTraffic, SimReport};
use crate::grid_points::ComputationGrid;
use crate::metrics::Metrics;
use crate::per_element::{reduce_patches, PerElementRun};
use crate::per_point::PerPointRun;
use crate::report::SimdRecord;
use crate::simd::SimdPolicy;
use std::time::{Duration, Instant};
use ustencil_dg::DgField;
use ustencil_mesh::{partition_recursive_bisection, TriMesh};
use ustencil_spatial::{Boundary, PointGrid, TriangleGrid};
use ustencil_trace::{SpanRecord, Tracer};

/// Which evaluation strategy to run (Section 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Gather: iterate grid points, search elements (Algorithm 2).
    PerPoint,
    /// Scatter: iterate elements, search grid points, tile into patches
    /// with private partial solutions (Algorithm 3 + Section 4).
    PerElement,
}

impl Scheme {
    /// Every scheme, in declaration order. New variants must be added here;
    /// [`from_label`](Self::from_label) is derived from this list, so the
    /// label round-trip can never drift variant by variant.
    pub const ALL: [Scheme; 2] = [Scheme::PerPoint, Scheme::PerElement];

    /// Canonical label for this scheme — used both for display by the
    /// benchmark harness and as the `"scheme"` value in `RunReport` JSON,
    /// so the two never drift apart.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::PerPoint => "per-point",
            Scheme::PerElement => "per-element",
        }
    }

    /// The scheme a [`label`](Self::label) string names. Implemented as a
    /// search over [`Scheme::ALL`] so it is the exact inverse of
    /// [`label`](Self::label) by construction.
    pub fn from_label(label: &str) -> Option<Scheme> {
        Self::ALL.into_iter().find(|s| s.label() == label)
    }
}

/// Configured SIAC post-processor.
///
/// ```
/// use ustencil_core::prelude::*;
/// use ustencil_dg::project_l2;
/// use ustencil_mesh::{generate_mesh, MeshClass};
///
/// let mesh = generate_mesh(MeshClass::LowVariance, 150, 42);
/// let field = project_l2(&mesh, 1, |x, y| 1.0 + x - y, 0);
/// let grid = ComputationGrid::quadrature_points(&mesh, 1);
/// let solution = PostProcessor::new(Scheme::PerElement)
///     .blocks(4)
///     .h_factor(0.25) // small demo mesh: keep the stencil inside the domain
///     .run(&mesh, &field, &grid);
/// assert_eq!(solution.values.len(), grid.len());
/// // The kernel reproduces linears: interior values equal the input field.
/// let hw = solution.stencil_width / 2.0;
/// for (i, p) in grid.points().iter().enumerate() {
///     if p.x > hw && p.x < 1.0 - hw && p.y > hw && p.y < 1.0 - hw {
///         assert!((solution.values[i] - (1.0 + p.x - p.y)).abs() < 1e-8);
///     }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct PostProcessor {
    scheme: Scheme,
    config: ExecConfig,
}

impl PostProcessor {
    /// A post-processor with the paper's defaults
    /// ([`ExecConfig::default`]): `h` equal to the longest mesh edge, 16
    /// blocks (one per M2090 SM), parallel execution on, instrumentation
    /// off. The kernel smoothness is always the field degree.
    pub fn new(scheme: Scheme) -> Self {
        Self {
            scheme,
            config: ExecConfig::default(),
        }
    }

    /// Scales the kernel width: `h = h_factor * s` (default 1.0).
    /// [`run`](Self::run) rejects non-positive factors.
    pub fn h_factor(mut self, factor: f64) -> Self {
        self.config.h_factor = factor;
        self
    }

    /// Sets the number of concurrent blocks: point blocks for per-point,
    /// mesh patches for per-element (`N_GPU x N_SM` in the paper's
    /// multi-device runs).
    ///
    /// # Panics
    /// Panics for zero blocks.
    pub fn blocks(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one block");
        self.config.n_blocks = n;
        self
    }

    /// Enables or disables thread parallelism (rayon).
    pub fn parallel(mut self, on: bool) -> Self {
        self.config.parallel = on;
        self
    }

    /// Enables observability: phase spans on the coordinating thread
    /// (default off). Counters and per-block stats are kept either way.
    pub fn instrument(mut self, on: bool) -> Self {
        self.config.instrument = on;
        self
    }

    /// Sets the SIMD dispatch policy of the evaluation kernels (default
    /// [`SimdPolicy::Auto`]: the widest ISA this host supports).
    ///
    /// [`SimdPolicy::Scalar`] runs the bit-exact pre-SIMD loops; vector
    /// ISAs agree with scalar to ≤1e-12 (the reductions are reassociated
    /// and FMA-contracted). For a fixed policy on a fixed CPU, results are
    /// deterministic.
    pub fn simd(mut self, policy: SimdPolicy) -> Self {
        self.config.simd = policy;
        self
    }

    /// The execution config `run` uses — what plan compilers and other
    /// front ends pass on to mirror its kernel/quadrature choices.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// Runs the post-processor over `grid`'s evaluation points.
    ///
    /// # Panics
    /// Panics when the config does not [resolve](ExecConfig::resolve) (the
    /// `(3k+1) h <= 1` requirement, a non-positive `h_factor`, a field
    /// degree above `MAX_DEGREE`) or the field does not match the mesh.
    pub fn run(&self, mesh: &TriMesh, field: &DgField, grid: &ComputationGrid) -> Solution {
        assert_eq!(
            field.n_elements(),
            mesh.n_triangles(),
            "field does not match mesh"
        );
        let config = &self.config;
        let tracer = Tracer::new(config.instrument);
        let setup = {
            let _span = tracer.span("setup.kernel");
            config.resolve(mesh, field.degree())
        };

        let start = Instant::now();
        let (values, block_stats) = match self.scheme {
            Scheme::PerPoint => {
                let tri_grid = {
                    let _span = tracer.span("build.tri_grid");
                    TriangleGrid::build(mesh, Boundary::Periodic)
                };
                let run = PerPointRun {
                    mesh,
                    field,
                    grid,
                    setup: &setup,
                    tri_grid: &tri_grid,
                };
                let _span = tracer.span("eval.per_point");
                run.run(config)
            }
            Scheme::PerElement => {
                let point_grid = {
                    let _span = tracer.span("build.point_grid");
                    let s = mesh.max_edge_length();
                    PointGrid::build_half_edge(grid.points(), s, Boundary::Clamped)
                };
                let partition = {
                    let _span = tracer.span("build.partition");
                    partition_recursive_bisection(mesh, config.n_blocks)
                };
                let run = PerElementRun {
                    mesh,
                    field,
                    grid,
                    setup: &setup,
                    point_grid: &point_grid,
                };
                let (results, stats) = {
                    let _span = tracer.span("eval.per_element");
                    run.run_patches(&partition, config)
                };
                let values = {
                    let _span = tracer.span("reduce.patches");
                    reduce_patches(&results, grid.len())
                };
                (values, stats)
            }
        };
        let wall = start.elapsed();
        let metrics = Metrics::sum(&BlockStats::metrics_of(&block_stats));
        let simd = SimdRecord::measured(config.simd, setup.isa, metrics.flops, wall.as_secs_f64());

        Solution {
            values,
            metrics,
            block_stats,
            spans: tracer.records(),
            wall,
            stencil_width: setup.stencil.width(),
            scheme: self.scheme,
            simd,
        }
    }
}

/// Result of a post-processing run.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Post-processed value at each grid point.
    pub values: Vec<f64>,
    /// Aggregated work counters.
    pub metrics: Metrics,
    /// Per-block (per-patch) stats, the unit of device scheduling: counters
    /// plus wall time and element/point ownership.
    pub block_stats: Vec<BlockStats>,
    /// Phase spans of the run (empty unless instrumented).
    pub spans: Vec<SpanRecord>,
    /// Wall-clock time of the run on the host.
    pub wall: Duration,
    /// The stencil width `(3k+1) h` used.
    pub stencil_width: f64,
    /// The scheme that produced this solution.
    pub scheme: Scheme,
    /// SIMD dispatch summary: requested policy, resolved ISA, lanes and
    /// GFLOP/s.
    pub simd: SimdRecord,
}

impl Solution {
    /// Simulated execution time of this run's blocks on the configured
    /// streaming devices: the blocks dealt round-robin to the devices, with
    /// no traffic between them.
    pub fn simulate(&self, config: &DeviceConfig) -> SimReport {
        let n = config.n_devices;
        let dealt: Vec<Vec<Metrics>> = (0..n)
            .map(|d| {
                self.block_stats
                    .iter()
                    .skip(d)
                    .step_by(n)
                    .map(|s| s.metrics)
                    .collect()
            })
            .collect();
        simulate_ranks(
            self.scheme,
            &dealt,
            &vec![RankTraffic::default(); n],
            config,
        )
    }

    /// Maximum absolute difference against another solution (for scheme
    /// equivalence checks).
    pub fn max_abs_diff(&self, other: &Solution) -> f64 {
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustencil_dg::project_l2;
    use ustencil_mesh::{generate_mesh, MeshClass};

    const TAU: f64 = std::f64::consts::TAU;

    #[test]
    fn schemes_agree_on_low_variance_mesh() {
        let mesh = generate_mesh(MeshClass::LowVariance, 200, 11);
        let field = project_l2(&mesh, 1, |x, y| (TAU * x).sin() * (TAU * y).cos(), 4);
        let grid = ComputationGrid::quadrature_points(&mesh, 1);
        let a = PostProcessor::new(Scheme::PerPoint)
            .parallel(false)
            .run(&mesh, &field, &grid);
        let b = PostProcessor::new(Scheme::PerElement)
            .parallel(false)
            .run(&mesh, &field, &grid);
        let diff = a.max_abs_diff(&b);
        assert!(diff < 1e-9, "schemes disagree by {diff}");
    }

    #[test]
    fn schemes_agree_on_high_variance_mesh_quadratic() {
        let mesh = generate_mesh(MeshClass::HighVariance, 150, 19);
        let field = project_l2(&mesh, 2, |x, y| x * x - y + 0.3 * x * y, 2);
        let grid = ComputationGrid::quadrature_points(&mesh, 2);
        // The coarse high-variance test mesh has a long max edge; shrink h
        // to keep the stencil inside the periodic domain.
        let a = PostProcessor::new(Scheme::PerPoint)
            .h_factor(0.25)
            .parallel(false)
            .run(&mesh, &field, &grid);
        let b = PostProcessor::new(Scheme::PerElement)
            .h_factor(0.25)
            .blocks(8)
            .parallel(false)
            .run(&mesh, &field, &grid);
        assert!(a.max_abs_diff(&b) < 1e-9);
    }

    #[test]
    fn polynomial_reproduction_at_interior_points() {
        // dG projection of a degree-p polynomial is exact, and the kernel
        // reproduces degree 2p >= p, so interior post-processed values must
        // equal the polynomial to rounding.
        let mesh = generate_mesh(MeshClass::LowVariance, 250, 5);
        let f = |x: f64, y: f64| 0.4 + 1.3 * x - 0.7 * y + 0.2 * x * y;
        let field = project_l2(&mesh, 2, f, 0);
        let grid = ComputationGrid::quadrature_points(&mesh, 2);
        let sol = PostProcessor::new(Scheme::PerElement)
            .h_factor(0.5)
            .run(&mesh, &field, &grid);
        let hw = sol.stencil_width / 2.0;
        let mut checked = 0;
        for (i, pt) in grid.points().iter().enumerate() {
            let interior = pt.x - hw > 0.0 && pt.x + hw < 1.0 && pt.y - hw > 0.0 && pt.y + hw < 1.0;
            if interior {
                let want = f(pt.x, pt.y);
                assert!(
                    (sol.values[i] - want).abs() < 1e-8,
                    "point {pt:?}: {} vs {want}",
                    sol.values[i]
                );
                checked += 1;
            }
        }
        assert!(checked > 50, "too few interior points checked: {checked}");
    }

    #[test]
    fn per_element_does_fewer_intersection_tests() {
        let mesh = generate_mesh(MeshClass::LowVariance, 400, 13);
        let field = project_l2(&mesh, 1, |x, _| x, 0);
        let grid = ComputationGrid::quadrature_points(&mesh, 1);
        let pp = PostProcessor::new(Scheme::PerPoint).run(&mesh, &field, &grid);
        let pe = PostProcessor::new(Scheme::PerElement).run(&mesh, &field, &grid);
        assert!(
            pe.metrics.intersection_tests < pp.metrics.intersection_tests,
            "per-element {} !< per-point {}",
            pe.metrics.intersection_tests,
            pp.metrics.intersection_tests
        );
    }

    #[test]
    fn simulated_per_element_is_faster() {
        let mesh = generate_mesh(MeshClass::LowVariance, 300, 3);
        let field = project_l2(&mesh, 1, |x, y| x + y, 0);
        let grid = ComputationGrid::quadrature_points(&mesh, 1);
        let cfg = DeviceConfig::default();
        let pp = PostProcessor::new(Scheme::PerPoint).run(&mesh, &field, &grid);
        let pe = PostProcessor::new(Scheme::PerElement).run(&mesh, &field, &grid);
        let t_pp = pp.simulate(&cfg).total_ms;
        let t_pe = pe.simulate(&cfg).total_ms;
        assert!(
            t_pe < t_pp,
            "simulated per-element {t_pe} ms !< per-point {t_pp} ms"
        );
    }

    /// Every bit of the simulated report of one fixed run at 1, 2, 4 and 8
    /// devices: the blocks dealt round-robin to the devices, no traffic.
    #[test]
    fn simulated_report_bits_are_pinned() {
        let mesh = generate_mesh(MeshClass::LowVariance, 300, 3);
        let field = project_l2(&mesh, 1, |x, y| x + y, 0);
        let grid = ComputationGrid::quadrature_points(&mesh, 1);
        let sol = PostProcessor::new(Scheme::PerElement).run(&mesh, &field, &grid);
        // (devices, device_ms, reduction_ms, total_ms) as bits; comms_ms
        // is 0 and flops 115 307 220 at every count.
        let pinned: [(usize, &[u64], u64, u64); 4] = [
            (
                1,
                &[0x3ff35e108c3f3e04],
                0x3f6be59bf1b546c0,
                0x3ff36c035a3818a7,
            ),
            (
                2,
                &[0x3ff315ebffb904fc, 0x3ff35e108c3f3e04],
                0x3f616f8177114c38,
                0x3ff366c84cfac6aa,
            ),
            (
                4,
                &[
                    0x3ff315ebffb904fc,
                    0x3ff35e108c3f3e04,
                    0x3ff14fad1f4647f4,
                    0x3ff2deda7fe227ea,
                ],
                0x3f5868e8737e9de8,
                0x3ff3642ac65c1dab,
            ),
            (
                8,
                &[
                    0x3ff315ebffb904fc,
                    0x3ff2b24c1c27c007,
                    0x3ff14fad1f4647f4,
                    0x3ff132df505d0fa6,
                    0x3ff20603fec3d063,
                    0x3ff35e108c3f3e04,
                    0x3ff0cee985bcd021,
                    0x3ff2deda7fe227ea,
                ],
                0x3f532ddb362ca0a4,
                0x3ff362dc030cc92c,
            ),
        ];
        for (n_devices, device_ms, reduction_ms, total_ms) in pinned {
            let rep = sol.simulate(&DeviceConfig {
                n_devices,
                ..DeviceConfig::default()
            });
            let bits: Vec<u64> = rep.device_ms.iter().map(|t| t.to_bits()).collect();
            assert_eq!(bits, device_ms, "{n_devices} devices");
            assert_eq!(
                rep.reduction_ms.to_bits(),
                reduction_ms,
                "{n_devices} devices"
            );
            assert_eq!(rep.comms_ms.to_bits(), 0, "{n_devices} devices");
            assert_eq!(rep.total_ms.to_bits(), total_ms, "{n_devices} devices");
            assert_eq!(rep.flops, 115_307_220, "{n_devices} devices");
        }
    }

    #[test]
    fn rms_error_of_constant_filter() {
        let mesh = generate_mesh(MeshClass::LowVariance, 120, 1);
        let field = project_l2(&mesh, 1, |_, _| 2.0, 0);
        let grid = ComputationGrid::quadrature_points(&mesh, 1);
        // The 120-triangle mesh is coarse; shrink h so the stencil fits the
        // periodic domain.
        let sol = PostProcessor::new(Scheme::PerElement)
            .h_factor(0.2)
            .run(&mesh, &field, &grid);
        assert_eq!(sol.values.len(), grid.len());
        assert!(sol.values.iter().all(|v| (v - 2.0).abs() < 1e-9));
    }

    #[test]
    fn instrumented_run_records_phases() {
        let mesh = generate_mesh(MeshClass::LowVariance, 150, 8);
        let field = project_l2(&mesh, 1, |x, y| x + y, 0);
        let grid = ComputationGrid::quadrature_points(&mesh, 1);
        let sol = PostProcessor::new(Scheme::PerElement)
            .blocks(4)
            .h_factor(0.5)
            .parallel(false)
            .instrument(true)
            .run(&mesh, &field, &grid);
        let names: Vec<&str> = sol.spans.iter().map(|r| r.name.as_str()).collect();
        for phase in [
            "setup.kernel",
            "build.point_grid",
            "build.partition",
            "eval.per_element",
            "reduce.patches",
        ] {
            assert!(names.contains(&phase), "missing span {phase}: {names:?}");
        }
        let eval = sol
            .spans
            .iter()
            .find(|r| r.name == "eval.per_element")
            .unwrap();
        assert!(eval.duration_ns > 0);

        let pp = PostProcessor::new(Scheme::PerPoint)
            .h_factor(0.5)
            .instrument(true)
            .parallel(false)
            .run(&mesh, &field, &grid);
        assert!(pp.spans.iter().any(|r| r.name == "build.tri_grid"));
        assert!(pp.spans.iter().any(|r| r.name == "eval.per_point"));

        // Uninstrumented runs record nothing.
        let plain = PostProcessor::new(Scheme::PerPoint)
            .h_factor(0.5)
            .parallel(false)
            .run(&mesh, &field, &grid);
        assert!(plain.spans.is_empty());
    }

    #[test]
    fn scheme_labels_round_trip_over_all_variants() {
        // Exhaustive over Scheme::ALL: CLI parsing (`from_label`) and JSON
        // emission (`label`) can never drift for any variant, and labels
        // must be pairwise distinct for the round trip to be injective.
        for scheme in Scheme::ALL {
            assert_eq!(Scheme::from_label(scheme.label()), Some(scheme));
        }
        let labels: Vec<&str> = Scheme::ALL.iter().map(|s| s.label()).collect();
        for (i, a) in labels.iter().enumerate() {
            for b in &labels[i + 1..] {
                assert_ne!(a, b, "duplicate scheme label breaks from_label");
            }
        }
        assert_eq!(Scheme::from_label("per-face"), None);
        assert_eq!(Scheme::from_label(""), None);
    }

    #[test]
    fn simd_policies_agree_across_schemes_and_meshes() {
        // Auto (widest vector ISA), every forced width, and scalar must
        // agree ≤1e-12 on random meshes under both direct schemes; the
        // record must name the resolved ISA and its lane width.
        for (seed, class) in [
            (31u64, MeshClass::LowVariance),
            (77, MeshClass::HighVariance),
        ] {
            let mesh = generate_mesh(class, 160, seed);
            let field = project_l2(
                &mesh,
                2,
                |x, y| (TAU * x).sin() - 0.6 * y * y,
                seed as usize,
            );
            let grid = ComputationGrid::quadrature_points(&mesh, 2);
            for scheme in Scheme::ALL {
                let scalar = PostProcessor::new(scheme)
                    .h_factor(0.25)
                    .parallel(false)
                    .simd(SimdPolicy::Scalar)
                    .run(&mesh, &field, &grid);
                assert_eq!(scalar.simd.isa, "scalar");
                assert_eq!(scalar.simd.lanes, 1);
                for policy in SimdPolicy::ALL {
                    let sol = PostProcessor::new(scheme)
                        .h_factor(0.25)
                        .parallel(false)
                        .simd(policy)
                        .run(&mesh, &field, &grid);
                    let diff = sol.max_abs_diff(&scalar);
                    assert!(diff <= 1e-12, "{scheme:?}/{policy:?}: diff {diff}");
                    // Work counters model the traversal, not the ISA.
                    assert_eq!(sol.metrics, scalar.metrics, "{scheme:?}/{policy:?}");
                    assert_eq!(sol.simd.policy, policy.label());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "stencil width")]
    fn oversized_stencil_is_rejected() {
        let mesh = generate_mesh(MeshClass::StructuredPattern, 8, 0);
        let field = project_l2(&mesh, 3, |x, _| x, 0);
        let grid = ComputationGrid::quadrature_points(&mesh, 3);
        // 10 * s with s = 0.5 is far wider than the domain.
        let _ = PostProcessor::new(Scheme::PerPoint).run(&mesh, &field, &grid);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_field_is_rejected() {
        let mesh = generate_mesh(MeshClass::StructuredPattern, 32, 0);
        let field = ustencil_dg::DgField::zeros(1, 3);
        let grid = ComputationGrid::quadrature_points(&mesh, 1);
        let _ = PostProcessor::new(Scheme::PerPoint).run(&mesh, &field, &grid);
    }
}
