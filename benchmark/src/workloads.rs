//! The seven workloads: what each generates in set-up, what one frame of it
//! calls, and which independent path checks its output.
//!
//! Every workload uses `Layout::Natural`, `SimdPolicy::Auto`, 16 blocks and
//! thread parallelism on. The kernel scale `h` is the longest edge typical
//! of the mesh class at that size rather than the longest edge of the one
//! mesh the seed happened to draw (see [`kernel_h_factor`]).

use crate::frames::{FrameSource, Outputs};
use crate::spans::Recorder;
use ustencil_core::{BlockStats, ComputationGrid, Metrics, PostProcessor, Scheme};
use ustencil_dg::{project_l2, DgField};
use ustencil_dist::{run_dist, run_plan_dist, DistOptions, RankReport};
use ustencil_mesh::{elements_on_longest_edge, generate_mesh, refine_elements, MeshClass, TriMesh};
use ustencil_plan::{CompileOptions, DirtySet, EvalPlan};

/// Translating-wave fields kept in the ring a frame loop cycles through.
pub const FIELD_RING: usize = 8;
const BLOCKS: usize = 16;
/// Largest difference a check accepts between a frame and its reference.
const CHECK_TOLERANCE: f64 = 1e-10;

/// Width of `amr`'s refined band and its advance per frame, in domain
/// units (the recipe of `reproduce amr`).
const FRONT_WIDTH: f64 = 0.004;
const FRONT_STEP: f64 = 0.008;

/// What one frame of a workload calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `PostProcessor::new(PerElement).run`.
    Direct,
    /// `EvalPlan::compile` + one `apply`.
    Compile,
    /// `plan.apply` on a plan compiled in set-up.
    Timeseries,
    /// `DirtySet::diff` + `EvalPlan::patch` + `PlanDelta::splice` + `apply`
    /// on a mesh whose refined front moved.
    Amr,
    /// `run_dist` then `run_plan_dist` on the same inputs.
    Dist,
}

/// Size and shape of a workload's inputs.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The frame's calls.
    pub kind: Kind,
    /// The paper's low- or high-variance Delaunay class.
    pub class: MeshClass,
    /// Target triangle count of the generated mesh.
    pub triangles: usize,
    /// Polynomial degree of the field (and smoothness of the kernel).
    pub degree: usize,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const SPECS: [Spec; 7] = [
    spec("direct-p1", Kind::Direct, MeshClass::LowVariance, 8_000, 1),
    spec("direct-p2", Kind::Direct, MeshClass::LowVariance, 1_000, 2),
    spec("direct-hv", Kind::Direct, MeshClass::HighVariance, 2_000, 1),
    spec("compile", Kind::Compile, MeshClass::LowVariance, 4_000, 1),
    spec(
        "timeseries",
        Kind::Timeseries,
        MeshClass::LowVariance,
        16_000,
        1,
    ),
    spec("amr", Kind::Amr, MeshClass::LowVariance, 16_000, 1),
    spec("dist", Kind::Dist, MeshClass::LowVariance, 4_000, 1),
];

const fn spec(
    name: &'static str,
    kind: Kind,
    class: MeshClass,
    triangles: usize,
    degree: usize,
) -> Spec {
    Spec {
        name,
        kind,
        class,
        triangles,
        degree,
    }
}

/// The workload called `name`.
pub fn find(name: &str) -> Option<Spec> {
    SPECS.into_iter().find(|s| s.name == name)
}

/// One value a traced frame's public calls returned, on its way to a
/// per-layer metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// The per-layer metric it feeds.
    pub name: &'static str,
    /// The value this frame saw.
    pub value: f64,
    /// A counter that repeats exactly for one seed (the first traced frame's
    /// value is reported), as opposed to a timing (the median is).
    pub exact: bool,
}

fn count(name: &'static str, value: f64) -> Observation {
    Observation {
        name,
        value,
        exact: true,
    }
}

fn timed(name: &'static str, value: f64) -> Observation {
    Observation {
        name,
        value,
        exact: false,
    }
}

/// What the last frame's calls returned besides the values.
enum Raw {
    None,
    Direct {
        metrics: Metrics,
        blocks: Vec<BlockStats>,
    },
    Patch {
        dirty_elements: u64,
        respliced_rows: usize,
        rows: usize,
    },
    Dist {
        walls: [f64; 2],
        ranks: [Vec<RankReport>; 2],
    },
}

/// Frame `t`'s analytic field: the test wave translated by `0.03 t`.
fn wave(phase: f64, t: usize) -> impl Fn(f64, f64) -> f64 {
    let tau = std::f64::consts::TAU;
    let offset = phase + 0.03 * t as f64;
    move |x, y| (tau * (x - offset)).sin() * (tau * y).cos() + 0.5
}

/// The `h_factor` every layer is handed (`h = h_factor * longest edge`).
///
/// `crates/bench` takes `h` = the mesh's longest edge, capped so the stencil
/// stays inside the periodic unit square. The longest edge of a random
/// Delaunay mesh is an extreme value: it moves by ±6% from seed to seed, and
/// the work of a frame by its square. So that `--seed` changes the inputs
/// and not the size of the problem, `h` is set to the longest edge *typical*
/// of the class at this size — `3.17 / sqrt(n)` on low-variance meshes,
/// `7.0 / sqrt(n)` on high-variance ones, fitted over seeds at 1k to 16k
/// triangles — under the same cap.
fn kernel_h_factor(class: MeshClass, mesh: &TriMesh, degree: usize) -> f64 {
    let typical_edges_per_side = match class {
        MeshClass::HighVariance => 7.0,
        _ => 3.17,
    };
    let h = typical_edges_per_side / (mesh.n_triangles() as f64).sqrt();
    let widest = 0.98 / (3 * degree + 1) as f64;
    h.min(widest) / mesh.max_edge_length()
}

/// splitmix64, the repository's deterministic hash-RNG step.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A workload with its inputs generated and, where its frames reuse one,
/// its plan compiled.
pub struct Workload {
    /// What this is.
    pub spec: Spec,
    /// Rank count of `dist` (`min(2, cores)`).
    pub ranks: usize,
    /// The mesh the frames run on (for `amr`, the current frame's).
    pub mesh: TriMesh,
    /// The evaluation grid on `mesh`.
    pub grid: ComputationGrid,
    /// Kernel width factor handed to every layer.
    pub h_factor: f64,
    /// The plan `timeseries` and `amr` reuse across frames.
    pub plan: Option<EvalPlan>,
    /// What traced frames observed, in frame order.
    pub observations: Vec<Vec<Observation>>,
    phase: f64,
    fields: Vec<DgField>,
    /// `amr` only: the unrefined mesh every frame's mesh derives from, and
    /// its elements that may not be refined.
    base: Option<(TriMesh, Vec<bool>)>,
    /// `amr` only: the next frame's inputs, generated by `prepare`.
    next: Option<(TriMesh, ComputationGrid, DgField)>,
    /// Large values a frame replaced, dropped outside the timed region.
    retired: Vec<Box<dyn std::any::Any>>,
    raw: Raw,
}

impl Workload {
    /// Generates the inputs from `seed` and compiles what the frames reuse.
    /// This is everything `setup_s` covers.
    pub fn setup(spec: Spec, seed: u64, ranks: usize, rec: &mut Recorder) -> Workload {
        let degree = spec.degree;
        let phase = (splitmix64(seed) >> 11) as f64 / (1u64 << 53) as f64;
        let generated = rec.span("mesh.generate", |_| {
            generate_mesh(spec.class, spec.triangles, seed)
        });
        let mut base = None;
        let mut h_factor = kernel_h_factor(spec.class, &generated, degree);
        let mesh = if spec.kind == Kind::Amr {
            // Kernel scaled to the refined elements, and elements owning the
            // longest edge pinned so `h` never changes under the front.
            h_factor *= 0.5;
            let pinned = elements_on_longest_edge(&generated);
            let mesh = rec.span("mesh.refine", |_| front_mesh(&generated, &pinned, 0));
            base = Some((generated, pinned));
            mesh
        } else {
            generated
        };
        let grid = rec.span("core.grid_points", |_| {
            ComputationGrid::quadrature_points(&mesh, degree)
        });
        // `amr` projects each frame's field on that frame's mesh instead.
        let ring = if spec.kind == Kind::Amr {
            0
        } else {
            FIELD_RING
        };
        let fields = (0..ring)
            .map(|t| {
                rec.span("dg.project", |_| {
                    project_l2(&mesh, degree, wave(phase, t), 4)
                })
            })
            .collect();
        let mut workload = Workload {
            spec,
            ranks,
            mesh,
            grid,
            h_factor,
            plan: None,
            observations: Vec::new(),
            phase,
            fields,
            base,
            next: None,
            retired: Vec::new(),
            raw: Raw::None,
        };
        if matches!(spec.kind, Kind::Timeseries | Kind::Amr) {
            workload.plan = Some(rec.span("plan.compile", |_| workload.compile_here()));
        }
        workload
    }

    /// Frame `t`'s field on the (fixed) mesh.
    pub fn field(&self, t: usize) -> &DgField {
        &self.fields[t % FIELD_RING]
    }

    /// Grid points, the `points` of `points_per_s`.
    pub fn points(&self) -> usize {
        self.grid.len()
    }

    /// The compile options every plan of this workload is built with.
    pub fn compile_options(&self) -> CompileOptions {
        CompileOptions {
            h_factor: self.h_factor,
            n_blocks: BLOCKS,
            parallel: true,
            ..CompileOptions::default()
        }
    }

    fn compile_here(&self) -> EvalPlan {
        EvalPlan::compile(
            &self.mesh,
            &self.grid,
            self.spec.degree,
            &self.compile_options(),
        )
    }

    fn processor(&self, scheme: Scheme) -> PostProcessor {
        PostProcessor::new(scheme)
            .blocks(BLOCKS)
            .h_factor(self.h_factor)
            .parallel(true)
    }

    /// `amr` only: mesh, grid and field of frame `t`.
    fn amr_inputs(&self, t: usize, rec: &mut Recorder) -> (TriMesh, ComputationGrid, DgField) {
        let (base, pinned) = self.base.as_ref().expect("amr keeps its base mesh");
        let degree = self.spec.degree;
        let mesh = rec.span("mesh.refine", |_| front_mesh(base, pinned, t));
        let grid = rec.span("core.grid_points", |_| {
            ComputationGrid::quadrature_points(&mesh, degree)
        });
        let field = rec.span("dg.project", |_| {
            project_l2(&mesh, degree, wave(self.phase, t), 4)
        });
        (mesh, grid, field)
    }

    /// Compares frame `t`'s outputs with an independent path on the same
    /// inputs and returns the largest absolute difference.
    pub fn check(&self, t: usize, outputs: &Outputs, rec: &mut Recorder) -> f64 {
        let reference = rec.span("check.reference", |rec| match self.spec.kind {
            Kind::Direct => {
                self.processor(Scheme::PerPoint)
                    .run(&self.mesh, self.field(t), &self.grid)
                    .values
            }
            Kind::Compile | Kind::Timeseries | Kind::Dist => {
                self.processor(Scheme::PerElement)
                    .run(&self.mesh, self.field(t), &self.grid)
                    .values
            }
            Kind::Amr => {
                // Frame `t` patched towards mesh `t + 1`.
                let (mesh, grid, field) = self.amr_inputs(t + 1, rec);
                let options = self.compile_options();
                EvalPlan::compile(&mesh, &grid, self.spec.degree, &options)
                    .apply(&field)
                    .values
            }
        });
        outputs
            .iter()
            .map(|values| {
                if values.len() != reference.len() {
                    return f64::INFINITY;
                }
                values
                    .iter()
                    .zip(&reference)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max)
            })
            .fold(0.0, f64::max)
    }

    /// Largest error [`check`](Self::check) may return: `amr` is compared
    /// bitwise, everything else to [`CHECK_TOLERANCE`].
    pub fn check_tolerance(&self) -> f64 {
        if self.spec.kind == Kind::Amr {
            0.0
        } else {
            CHECK_TOLERANCE
        }
    }
}

impl FrameSource for Workload {
    fn expected_len(&self) -> usize {
        match &self.next {
            Some((_, grid, _)) => grid.len(),
            None => self.grid.len(),
        }
    }

    fn prepare(&mut self, t: usize, rec: &mut Recorder) {
        self.retired.clear();
        if self.spec.kind == Kind::Compile {
            // A cold start holds no earlier plan; the last frame's stays for
            // the per-layer counters.
            self.plan = None;
        }
        if self.spec.kind == Kind::Amr {
            // Frame 0's mesh was compiled in set-up; the frames patch towards
            // meshes 1, 2, ...
            self.next = Some(self.amr_inputs(t + 1, rec));
        }
    }

    fn frame(&mut self, t: usize, rec: &mut Recorder) -> Result<Outputs, String> {
        match self.spec.kind {
            Kind::Direct => {
                let sol = rec.span("core.run", |_| {
                    self.processor(Scheme::PerElement)
                        .run(&self.mesh, self.field(t), &self.grid)
                });
                self.raw = Raw::Direct {
                    metrics: sol.metrics,
                    blocks: sol.block_stats,
                };
                Ok(vec![sol.values])
            }
            Kind::Compile => {
                let plan = rec.span("plan.compile", |_| self.compile_here());
                let sol = rec.span("plan.apply", |_| plan.apply(self.field(t)));
                self.plan = Some(plan);
                Ok(vec![sol.values])
            }
            Kind::Timeseries => {
                let plan = self.plan.as_ref().expect("timeseries compiles in set-up");
                let sol = rec.span("plan.apply", |_| plan.apply(self.field(t)));
                Ok(vec![sol.values])
            }
            Kind::Amr => {
                let plan = self.plan.as_ref().expect("amr compiles frame 0 in set-up");
                let (mesh, grid, field) = self.next.take().expect("prepare ran");
                let options = self.compile_options();
                let dirty = rec.span("plan.diff", |_| {
                    DirtySet::diff(&self.mesh, &self.grid, &mesh, &grid)
                });
                let delta = rec
                    .span("plan.patch", |_| plan.patch(&mesh, &grid, &dirty, &options))
                    .map_err(|e| format!("cannot patch: {e}"))?;
                let patched = rec.span("plan.splice", |_| delta.splice(plan));
                let sol = rec.span("plan.apply", |_| patched.apply(&field));
                self.raw = Raw::Patch {
                    dirty_elements: delta.dirty_elements(),
                    respliced_rows: delta.respliced_rows(),
                    rows: patched.rows(),
                };
                let old_plan = self.plan.replace(patched);
                let old_mesh = std::mem::replace(&mut self.mesh, mesh);
                let old_grid = std::mem::replace(&mut self.grid, grid);
                self.retired
                    .push(Box::new((old_plan, old_mesh, old_grid, delta, dirty)));
                Ok(vec![sol.values])
            }
            Kind::Dist => {
                let options = DistOptions::new(self.ranks)
                    .sm_patches(BLOCKS)
                    .h_factor(self.h_factor);
                let field = self.field(t);
                let push = rec
                    .span("dist.run_dist", |_| {
                        run_dist(&self.mesh, field, &self.grid, &options)
                    })
                    .map_err(|e| format!("run_dist: {e}"))?;
                let pull = rec
                    .span("dist.run_plan_dist", |_| {
                        run_plan_dist(&self.mesh, field, &self.grid, &options)
                    })
                    .map_err(|e| format!("run_plan_dist: {e}"))?;
                self.raw = Raw::Dist {
                    walls: [push.wall.as_secs_f64(), pull.wall.as_secs_f64()],
                    ranks: [push.ranks, pull.ranks],
                };
                Ok(vec![push.values, pull.values])
            }
        }
    }

    /// Turns what the last (traced) frame's calls returned into
    /// observations. Not timed.
    fn observe(&mut self) {
        let mut obs = Vec::new();
        match std::mem::replace(&mut self.raw, Raw::None) {
            Raw::None => {}
            Raw::Direct { metrics, blocks } => {
                obs.push(count(
                    "core.run.intersection_tests",
                    metrics.intersection_tests as f64,
                ));
                obs.push(count("core.run.quad_evals", metrics.quad_evals as f64));
                obs.push(count("core.run.flops", metrics.flops as f64));
                let walls: Vec<f64> = blocks.iter().map(|b| b.wall_ns as f64).collect();
                obs.push(timed("core.run.block_imbalance", max_over_mean(&walls)));
            }
            Raw::Patch {
                dirty_elements,
                respliced_rows,
                rows,
            } => {
                obs.push(count("plan.diff.dirty_elements", dirty_elements as f64));
                obs.push(count("plan.patch.respliced_rows", respliced_rows as f64));
                obs.push(count(
                    "plan.patch.row_ratio",
                    respliced_rows as f64 / rows as f64,
                ));
            }
            Raw::Dist { walls, ranks } => {
                let all = || ranks.iter().flatten();
                let sum_s = |f: fn(&RankReport) -> u64| all().map(f).sum::<u64>() as f64 * 1e-9;
                let eval_s = sum_s(|r| r.eval_ns);
                let comm_s = sum_s(|r| r.exchange_ns);
                let reduce_s = sum_s(|r| r.reduce_ns);
                let rank_seconds = self.ranks as f64 * (walls[0] + walls[1]);
                obs.push(timed("dist.eval_s", eval_s));
                obs.push(timed("dist.exposed_comm_s", comm_s));
                obs.push(timed("dist.reduce_s", reduce_s));
                obs.push(timed(
                    "dist.wait_s",
                    rank_seconds - eval_s - comm_s - reduce_s,
                ));
                let evals: Vec<f64> = all().map(|r| r.eval_ns as f64).collect();
                obs.push(timed("dist.rank_imbalance", max_over_mean(&evals)));
                let sum = |f: fn(&RankReport) -> u64| all().map(f).sum::<u64>() as f64;
                obs.push(count("dist.msgs_sent", sum(|r| r.comm.msgs_sent)));
                obs.push(count("dist.bytes_sent", sum(|r| r.comm.bytes_sent)));
                obs.push(count("dist.retransmits", sum(|r| r.comm.retransmits)));
                obs.push(count("dist.reresolved_ranks", sum(|r| r.reresolved as u64)));
                let interior = sum(|r| r.interior);
                obs.push(count(
                    "dist.interior_ratio",
                    interior / (interior + sum(|r| r.frontier)),
                ));
            }
        }
        self.observations.push(obs);
    }
}

/// Frame `t`'s `amr` mesh: `base` with the band under the front at
/// `0.25 + t * FRONT_STEP` (periodic) midpoint-refined. Every frame derives
/// from the base, so the front moves without accumulating, and the diff
/// between consecutive frames refines ahead of it and coarsens behind it.
fn front_mesh(base: &TriMesh, pinned: &[bool], t: usize) -> TriMesh {
    let front = (0.25 + t as f64 * FRONT_STEP).fract();
    let band: Vec<u32> = (0..base.n_triangles() as u32)
        .filter(|&e| {
            let c = base.centroid(e as usize);
            !pinned[e as usize] && (c.x - front).abs() <= FRONT_WIDTH / 2.0
        })
        .collect();
    refine_elements(base, &band)
}

/// Largest over mean: 1 when perfectly balanced, 0 for no samples.
fn max_over_mean(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    if sum <= 0.0 {
        return 0.0;
    }
    xs.iter().copied().fold(0.0, f64::max) * xs.len() as f64 / sum
}
