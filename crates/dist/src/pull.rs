//! The pull work: rank-sharded plan compile and apply. Each rank compiles
//! the rows of its owned grid points, then applies them as a local
//! SpMV over owned + pulled halo coefficients.
//!
//! The exchange is *pull*-based, unlike the push work's coefficient
//! scatter: a compiled plan knows exactly which element columns its rows
//! reference, so each rank requests precisely those columns from their
//! owners ([`Tag::HaloRequest`], one per peer, in `exchange.post`) and the
//! schedule's drain answers each with one [`Tag::HaloCoeffs`] reply. No
//! geometric halo estimate is involved — the requested set is the support
//! the plan actually stored, and the shard plan is built with a zero ring.
//! The drain fills every column a group reads, so the pass is one
//! [`EvalPlan::apply_with`] of the rank's rows.
//!
//! ## Numerical contract
//!
//! Plan rows depend only on the grid point they belong to (compilation
//! walks the full mesh replica through the same `TriangleGrid`), so the
//! per-rank rows are *bit-identical* to the corresponding rows of a
//! single-rank plan, and each output value is produced by the same
//! entry-order dot product. Sharded plan application is therefore bitwise
//! equal to a global [`EvalPlan::apply`], for any rank count, and the
//! row-partitioned apply counters sum exactly.

use crate::channel::ChannelFabric;
use crate::link::DistError;
use crate::schedule::{run_schedule, DistOptions, DistSolution, Site, Work};
use crate::shard::RankShard;
use crate::transport::{Payload, RankResult, Tag, Transport};
use std::time::Instant;
use ustencil_core::{ComputationGrid, ExecConfig, KernelSetup, Scheme};
use ustencil_dg::DgField;
use ustencil_mesh::TriMesh;
use ustencil_plan::EvalPlan;
use ustencil_trace::Tracer;

/// The row-split SpMV, configured once for every rank.
pub(crate) struct PullWork {
    degree: usize,
    /// The run's config; each rank compiles and applies sequentially and
    /// unprobed.
    exec: ExecConfig,
}

/// A rank's compiled rows and the columns it must pull to apply them.
pub(crate) struct PullLocal {
    plan: EvalPlan,
    /// Per peer: the deduplicated element columns the rows reference that
    /// the peer owns (empty for this rank's own slot).
    wanted: Vec<Vec<u32>>,
}

impl Work for PullWork {
    type Local = PullLocal;
    const SCHEME: Scheme = Scheme::PerPoint;
    const POST: Tag = Tag::HaloRequest;

    fn new(setup: KernelSetup, exec: &ExecConfig) -> Self {
        Self {
            degree: setup.degree,
            exec: ExecConfig {
                parallel: false,
                instrument: false,
                ..*exec
            },
        }
    }

    /// The exchange needs only ownership — the plan's stored columns are
    /// the exact pull set — and zero keeps the shard build from computing
    /// rings nobody reads.
    fn halo_width(&self, _: &TriMesh) -> f64 {
        0.0
    }

    /// Compiles the rows of the rank's owned points over the full mesh
    /// replica (compilation is pure geometry — no cross-rank data). The
    /// compile time is reported as the rank's `reduce_ns`.
    fn localize(&self, site: &Site, tracer: &Tracer, res: &mut RankResult) -> PullLocal {
        let compile_start = Instant::now();
        let plan = {
            let _span = tracer.span("compile.plan");
            EvalPlan::compile(site.mesh, site.grid, self.degree, &self.exec)
        };
        res.reduce_ns = compile_start.elapsed().as_nanos() as u64;

        let mut needed: Vec<u32> = plan.cols().collect();
        needed.sort_unstable();
        needed.dedup();
        let mut wanted = vec![Vec::new(); site.plan.n_ranks()];
        for e in needed {
            let owner = site.plan.owner_of(e) as usize;
            if owner != site.rank {
                wanted[owner].push(e);
            }
        }
        PullLocal { plan, wanted }
    }

    fn post(&self, _: &Site, local: &PullLocal, _: &DgField, peer: usize) -> Payload {
        Payload::Request(local.wanted[peer].clone())
    }

    fn owned_units(shard: &RankShard) -> usize {
        shard.owned_points.len()
    }

    /// Applies the rank's rows, sequentially and unprobed.
    fn pass(&self, _: &Site, local: &PullLocal, field: &DgField, res: &mut RankResult) {
        let eval_start = Instant::now();
        let sol = local.plan.apply_with(field, &self.exec);
        res.values = sol.values;
        res.patches = sol.block_stats;
        res.eval_ns = eval_start.elapsed().as_nanos() as u64;
    }
}

/// Runs the rank-sharded plan compile + apply over the in-process channel
/// fabric.
///
/// # Panics
/// Panics when the field does not match the mesh, the stencil exceeds the
/// periodic domain, or `options.n_ranks == 0`.
pub fn run_plan_dist(
    mesh: &TriMesh,
    field: &DgField,
    grid: &ComputationGrid,
    options: &DistOptions,
) -> Result<DistSolution, DistError> {
    let transports = ChannelFabric::endpoints(options.n_ranks);
    run_plan_dist_on(mesh, field, grid, options, transports)
}

/// [`run_plan_dist`] over caller-provided transport endpoints (see
/// [`run_dist_on`](crate::push::run_dist_on)).
///
/// # Panics
/// Panics on the same conditions as [`run_plan_dist`], or when the
/// endpoint count disagrees with `options.n_ranks`.
pub fn run_plan_dist_on<T: Transport>(
    mesh: &TriMesh,
    field: &DgField,
    grid: &ComputationGrid,
    options: &DistOptions,
    transports: Vec<T>,
) -> Result<DistSolution, DistError> {
    run_schedule::<PullWork, T>(mesh, field, grid, options, transports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SCHEME_LABEL;
    use ustencil_dg::project_l2;
    use ustencil_mesh::{generate_mesh, MeshClass};

    fn fixture(n_tri: usize, p: usize, seed: u64) -> (TriMesh, DgField, ComputationGrid) {
        let mesh = generate_mesh(MeshClass::LowVariance, n_tri, seed);
        let field = project_l2(&mesh, p, |x, y| 0.2 + 0.7 * x + 0.3 * y - x * y, 2);
        let grid = ComputationGrid::quadrature_points(&mesh, p);
        (mesh, field, grid)
    }

    #[test]
    fn sharded_apply_is_bitwise_the_global_plan_apply() {
        let (mesh, field, grid) = fixture(300, 1, 17);
        let global = EvalPlan::compile(&mesh, &grid, 1, &ExecConfig::default());
        let reference = global.apply(&field);
        for ranks in [1usize, 2, 4] {
            let dist = run_plan_dist(&mesh, &field, &grid, &DistOptions::new(ranks)).unwrap();
            assert_eq!(
                dist.values, reference.values,
                "{ranks}-rank plan apply must be bitwise equal"
            );
            assert_eq!(
                dist.metrics.solution_writes,
                reference.metrics.solution_writes
            );
            assert_eq!(
                dist.metrics.elem_data_loads,
                reference.metrics.elem_data_loads
            );
            assert_eq!(dist.metrics.flops, reference.metrics.flops);
            // One request and one reply per ordered pair of ranks.
            let comm = dist.total_comm();
            assert_eq!(comm.msgs_sent, (2 * ranks * (ranks - 1)) as u64);
            assert_eq!(comm.bytes_sent > 0, ranks > 1, "halo pull must move bytes");
        }
    }

    #[test]
    fn sharded_apply_poisons_the_global_apply_rows_on_a_nan_coefficient() {
        let (mesh, field, grid) = fixture(2000, 1, 17);
        let global = EvalPlan::compile(&mesh, &grid, 1, &ExecConfig::default());
        for e in (0..mesh.n_triangles()).step_by(250) {
            let mut field = field.clone();
            field.coefficients_mut()[3 * e] = f64::NAN;
            let reference = global.apply(&field).values;
            assert!(reference.iter().any(|v| v.is_nan()));
            let dist = run_plan_dist(&mesh, &field, &grid, &DistOptions::new(2)).unwrap();
            for (r, (a, b)) in dist.values.iter().zip(&reference).enumerate() {
                let same = a.to_bits() == b.to_bits() || a.is_nan() && b.is_nan();
                assert!(same, "NaN on element {e}, row {r}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn record_carries_comms_and_barrier_spans() {
        let (mesh, field, grid) = fixture(200, 1, 3);
        let dist =
            run_plan_dist(&mesh, &field, &grid, &DistOptions::new(2).instrument(true)).unwrap();
        let record = dist.to_run_record("test/plan@2ranks", mesh.n_triangles(), None);
        assert_eq!(record.scheme, SCHEME_LABEL);
        assert_eq!(record.comms.len(), 2);
        let names: Vec<&str> = dist.spans.iter().map(|s| s.name.as_str()).collect();
        for phase in [
            "compile.plan",
            "exchange.post",
            "exchange.drain",
            "eval",
            "reduce.gather",
        ] {
            assert!(names.contains(&phase), "missing span {phase}: {names:?}");
        }
        for r in &dist.ranks {
            let rank_names: Vec<&str> = r.spans.iter().map(|s| s.name.as_str()).collect();
            for phase in ["exchange.post", "exchange.drain", "eval"] {
                assert!(rank_names.contains(&phase), "rank {} lacks {phase}", r.rank);
            }
            // One plan row per owned grid point, all evaluated after the
            // drain.
            assert_eq!(
                (r.interior, r.frontier),
                (0, r.owned_points),
                "rank {}",
                r.rank
            );
        }
    }
}
