//! The push work: the direct per-element scheme, sharded. Each rank
//! pushes its boundary coefficients to the peers whose ghost rings hold
//! them and scatters owned ∪ halo elements onto its owned points.
//!
//! The exchange is the schedule's, shared with [`pull`](crate::pull): the
//! replicated [`ShardPlan`](crate::shard::ShardPlan) tells each rank which
//! peers' rings contain its owned elements
//! ([`push_set`](crate::shard::ShardPlan::push_set)), one halo
//! [`Message`](crate::transport::Message) per peer goes out — an empty
//! set still sends its empty message — and the drain waits for the one
//! every peer owes back. The pass then scatters owned ∪ halo elements, one
//! patch partition over both.
//!
//! ## Numerical contract
//!
//! A rank evaluates its owned ∪ halo elements against a point grid built
//! over its owned points only. The halo ring is sized
//! ([`ghost_ring_width`](crate::shard::ghost_ring_width)) so that every
//! element whose cell-rounded candidate search can reach an owned point is
//! present locally, and
//! per-rank point grids share the global grid's cell geometry (cell size
//! depends only on `max_edge/2`). Each global `(element, point)` candidate
//! pair is therefore tested on exactly one rank, which makes the summed
//! pair-driven work counters (`intersection_tests`, `true_intersections`,
//! `cell_clips`, `subregions`, `quad_evals`, `flops`, `point_data_loads`,
//! `solution_writes`) *bit-identical* to a single-rank run. Element-driven
//! counters (`cells_visited`, `elem_data_loads`) and `partial_slots` count
//! halo replication and per-rank patch shapes, so they grow with the rank
//! count — that duplicated work is the scheme's replication cost and is
//! reported as such.
//!
//! Values agree with a single-rank run to rounding (the per-rank patch
//! decomposition changes the floating-point summation order, nothing
//! else); with one rank the patch decomposition is identical and the
//! values are bitwise equal to the engine's per-element path.

use crate::channel::ChannelFabric;
use crate::link::DistError;
use crate::schedule::{run_schedule, DistOptions, DistSolution, RankResult, Site, Work};
use crate::shard::RankShard;
use crate::transport::Transport;
use std::time::Instant;
use ustencil_core::per_element::{add_partials, PerElementRun};
use ustencil_core::{ComputationGrid, ExecConfig, KernelSetup, Scheme};
use ustencil_dg::DgField;
use ustencil_mesh::{partition_subset, TriMesh};
use ustencil_spatial::{Boundary, PointGrid};
use ustencil_trace::Tracer;

/// The per-element scatter, configured once for every rank.
pub(crate) struct PushWork {
    setup: KernelSetup,
    sm_patches: usize,
}

impl Work for PushWork {
    const SCHEME: Scheme = Scheme::PerElement;

    fn new(setup: KernelSetup, exec: &ExecConfig) -> Self {
        Self {
            setup,
            sm_patches: exec.n_blocks,
        }
    }

    fn owned_units(shard: &RankShard) -> usize {
        shard.owned_elements.len()
    }

    /// Scatters the rank's owned ∪ halo elements onto its owned points,
    /// patch by patch, then runs the local (stage-1) reduce with the same
    /// [`add_partials`] accumulation as the in-process `reduce_patches`.
    fn pass(&self, site: &Site, field: &DgField, _: &Tracer, res: &mut RankResult) {
        let eval_start = Instant::now();
        let mesh = site.mesh;
        let shard = site.plan.shard(site.rank);
        // Owned and halo elements are disjoint: their union, ascending.
        let mut ids = [&shard.owned_elements[..], &shard.halo_elements].concat();
        ids.sort_unstable();
        let point_grid = PointGrid::build_half_edge(
            site.grid.points(),
            mesh.max_edge_length(),
            Boundary::Clamped,
        );
        let run = PerElementRun {
            mesh,
            field,
            grid: site.grid,
            setup: &self.setup,
            point_grid: &point_grid,
        };
        let partition = partition_subset(mesh, &ids, self.sm_patches);
        let mut results = Vec::with_capacity(partition.n_patches());
        for patch in partition.patches() {
            let (result, stats) = run.run_patch(patch);
            results.push(result);
            res.patches.push(stats);
        }
        res.eval_ns = eval_start.elapsed().as_nanos() as u64;

        let reduce_start = Instant::now();
        for result in &results {
            add_partials(&result.partials, &mut res.values);
        }
        res.reduce_ns = reduce_start.elapsed().as_nanos() as u64;
    }
}

/// Runs the rank-sharded per-element scheme over the in-process channel
/// fabric (one OS thread per rank).
///
/// # Panics
/// Panics when the field does not match the mesh, the stencil exceeds the
/// periodic domain, or `options.n_ranks == 0`.
pub fn run_dist(
    mesh: &TriMesh,
    field: &DgField,
    grid: &ComputationGrid,
    options: &DistOptions,
) -> Result<DistSolution, DistError> {
    let transports = ChannelFabric::endpoints(options.n_ranks);
    run_dist_on(mesh, field, grid, options, transports)
}

/// [`run_dist`] over caller-provided transport endpoints (one per rank, in
/// rank order) — the seam another fabric, or a test's wrapper that kills
/// or reorders, plugs into.
///
/// # Panics
/// Panics on the same conditions as [`run_dist`], or when the endpoint
/// count disagrees with `options.n_ranks`.
pub fn run_dist_on<T: Transport>(
    mesh: &TriMesh,
    field: &DgField,
    grid: &ComputationGrid,
    options: &DistOptions,
    transports: Vec<T>,
) -> Result<DistSolution, DistError> {
    run_schedule::<PushWork, T>(mesh, field, grid, options, transports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SCHEME_LABEL;
    use ustencil_core::{DeviceConfig, Metrics, PostProcessor};
    use ustencil_dg::project_l2;
    use ustencil_mesh::{generate_mesh, MeshClass};

    fn fixture(n_tri: usize, p: usize, seed: u64) -> (TriMesh, DgField, ComputationGrid) {
        let mesh = generate_mesh(MeshClass::LowVariance, n_tri, seed);
        let field = project_l2(&mesh, p, |x, y| 0.3 + x - 0.4 * y + 0.8 * x * y, 2);
        let grid = ComputationGrid::quadrature_points(&mesh, p);
        (mesh, field, grid)
    }

    #[test]
    fn sharded_run_matches_single_rank() {
        let (mesh, field, grid) = fixture(300, 1, 21);
        let single = run_dist(&mesh, &field, &grid, &DistOptions::new(1)).unwrap();
        for ranks in [2usize, 4] {
            let multi = run_dist(&mesh, &field, &grid, &DistOptions::new(ranks)).unwrap();
            let diff = multi.max_abs_diff(&single.values);
            assert!(diff <= 1e-12, "{ranks} ranks diverge by {diff}");
            // Candidate-pair counters are partitioned exactly.
            for (name, f) in [
                (
                    "intersection_tests",
                    (|m: &Metrics| m.intersection_tests) as fn(&Metrics) -> u64,
                ),
                ("true_intersections", |m| m.true_intersections),
                ("quad_evals", |m| m.quad_evals),
                ("flops", |m| m.flops),
                ("solution_writes", |m| m.solution_writes),
            ] {
                assert_eq!(
                    f(&multi.metrics),
                    f(&single.metrics),
                    "{name} must partition exactly across {ranks} ranks"
                );
            }
            // Halo replication shows up in the element-driven counters.
            assert!(multi.metrics.elem_data_loads > single.metrics.elem_data_loads);
            // Traffic was actually counted.
            let comm = multi.total_comm();
            assert!(comm.bytes_sent > 0);
            // One coefficient message per ordered pair of ranks, exactly.
            assert_eq!(comm.msgs_sent, (ranks * (ranks - 1)) as u64);
        }
    }

    #[test]
    fn single_rank_is_bitwise_the_engine_per_element_path() {
        let (mesh, field, grid) = fixture(250, 1, 5);
        let dist = run_dist(&mesh, &field, &grid, &DistOptions::new(1)).unwrap();
        let engine = PostProcessor::new(Scheme::PerElement)
            .parallel(false)
            .run(&mesh, &field, &grid);
        assert_eq!(dist.values, engine.values, "one rank must be bitwise equal");
        assert_eq!(dist.metrics, engine.metrics);
    }

    #[test]
    fn instrumented_run_records_phases_and_comms() {
        let (mesh, field, grid) = fixture(200, 1, 9);
        let sol = run_dist(&mesh, &field, &grid, &DistOptions::new(2).instrument(true)).unwrap();
        let names: Vec<&str> = sol.spans.iter().map(|s| s.name.as_str()).collect();
        for phase in [
            "build.shard_plan",
            "exchange.post",
            "exchange.drain",
            "eval",
            "reduce.gather",
        ] {
            assert!(names.contains(&phase), "missing span {phase}: {names:?}");
        }
        assert_eq!(sol.ranks.len(), 2);
        for r in &sol.ranks {
            assert!(!r.reresolved);
            assert!(r.comm.bytes_sent > 0);
            assert!(r.eval_ns > 0);
            assert_eq!((r.interior, r.frontier), (0, r.owned_elements));
            // Every rank handed its spans back on the shared axis.
            let rank_names: Vec<&str> = r.spans.iter().map(|s| s.name.as_str()).collect();
            for phase in ["exchange.post", "exchange.drain", "eval"] {
                assert!(rank_names.contains(&phase), "rank {} lacks {phase}", r.rank);
            }
        }
        let record = sol.to_run_record("test/dist@2ranks", mesh.n_triangles(), None);
        assert_eq!(record.scheme, SCHEME_LABEL);
        assert_eq!(record.comms.len(), 2);
        let sim = sol.simulate(&DeviceConfig::default());
        assert!(sim.comms_ms > 0.0, "counted traffic must be charged");
    }

    #[test]
    fn uninstrumented_run_ships_no_observability_payload() {
        let (mesh, field, grid) = fixture(200, 1, 9);
        let sol = run_dist(&mesh, &field, &grid, &DistOptions::new(2)).unwrap();
        assert!(sol.ranks.iter().all(|r| r.spans.is_empty()));
    }
}
