//! The plan work: rank-sharded plan compile and apply. Each rank compiles
//! the rows of its owned grid points, then applies them as a local SpMV
//! over its owned and halo coefficients.
//!
//! The exchange is the schedule's, the same as [`push`](crate::push)'s:
//! the shard plan carries the direct path's ghost ring, and each rank
//! pushes every peer the owned elements in that peer's ring. A stored
//! column is an element whose periodic image meets a row's support box,
//! half a stencil width around an owned point, and the ring keeps every
//! element whose image comes within half a stencil width plus a cell of
//! the owned elements' box — so the drain fills every column a group
//! reads, and the pass is one compile and one [`EvalPlan::apply_with`] of
//! the rank's rows.
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
use crate::schedule::{run_schedule, DistOptions, DistSolution, RankResult, Site, Work};
use crate::shard::RankShard;
use crate::transport::Transport;
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
    /// untraced.
    exec: ExecConfig,
}

impl Work for PullWork {
    const SCHEME: Scheme = Scheme::PerPoint;

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

    fn owned_units(shard: &RankShard) -> usize {
        shard.owned_points.len()
    }

    /// Compiles the rows of the rank's owned points over the full mesh
    /// replica (compilation is pure geometry — no cross-rank data), then
    /// applies them, sequentially and untraced. The compile time is
    /// reported as the rank's `reduce_ns`.
    fn pass(&self, site: &Site, field: &DgField, tracer: &Tracer, res: &mut RankResult) {
        let compile_start = Instant::now();
        let plan = {
            let _span = tracer.span("compile.plan");
            EvalPlan::compile(site.mesh, site.grid, self.degree, &self.exec)
        };
        res.reduce_ns = compile_start.elapsed().as_nanos() as u64;

        let eval_start = Instant::now();
        let sol = plan.apply_with(field, &self.exec);
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
            // One coefficient message per ordered pair of ranks.
            let comm = dist.total_comm();
            assert_eq!(comm.msgs_sent, (ranks * (ranks - 1)) as u64);
            assert_eq!(comm.bytes_sent > 0, ranks > 1, "halo push must move bytes");
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
