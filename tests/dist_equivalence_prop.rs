//! Property and fault-injection tests of the rank-sharded runtime:
//! sharded runs must agree with single-rank runs across rank counts and
//! kernel smoothness, candidate-pair work counters must partition exactly,
//! and injected transport faults (drops, reorders, a failed rank) must
//! never change the answer — on either work the one schedule runs.

use proptest::prelude::*;
use std::time::Duration;
use ustencil::dg::project_l2;
use ustencil::dist::{
    run_dist, run_dist_on, run_plan_dist, run_plan_dist_on, ChannelFabric, Disposition,
    DistOptions, DistSolution, FaultPlan, FaultRule, LinkConfig, RecordingFabric, Tag, Transport,
};
use ustencil::engine::prelude::*;
use ustencil::mesh::{generate_mesh, MeshClass};
use ustencil::plan::{CompileOptions, EvalPlan};

fn build(
    n: usize,
    p: usize,
    seed: u64,
) -> (
    ustencil::mesh::TriMesh,
    ustencil::dg::DgField,
    ComputationGrid,
) {
    let mesh = generate_mesh(MeshClass::LowVariance, n, seed);
    let field = project_l2(&mesh, p, |x, y| (x * 4.2).sin() + 0.6 * y - 0.3 * x * y, 2);
    let grid = ComputationGrid::quadrature_points(&mesh, p);
    (mesh, field, grid)
}

/// Largest `h_factor` keeping a smoothness-`k` stencil inside the domain,
/// with margin.
fn safe_h(mesh: &ustencil::mesh::TriMesh, k: usize) -> f64 {
    (0.9 / ((3 * k + 1) as f64 * mesh.max_edge_length())).min(1.0)
}

/// The work counters that partition exactly across ranks: every component
/// driven by (element, point) candidate pairs. Element-driven counters
/// (`cells_visited`, `elem_data_loads`, `partial_slots`) measure halo
/// replication and are intentionally excluded.
fn pair_counters(m: &Metrics) -> [u64; 8] {
    [
        m.intersection_tests,
        m.true_intersections,
        m.cell_clips,
        m.subregions,
        m.quad_evals,
        m.flops,
        m.point_data_loads,
        m.solution_writes,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Sharded direct evaluation agrees with a single rank for random
    /// meshes, smoothness, and rank counts, and the pair-driven counters
    /// sum bit-identically.
    #[test]
    fn sharded_per_element_matches_single_rank(
        seed in 0u64..1000,
        n in 120usize..300,
        k in 1usize..=3,
        ranks_ix in 0usize..3,
    ) {
        let ranks = [2usize, 4, 8][ranks_ix];
        let p = k.min(2);
        let (mesh, field, grid) = build(n, p, seed);
        let h = safe_h(&mesh, k);
        let single = run_dist(&mesh, &field, &grid,
            &DistOptions::new(1).smoothness(k).h_factor(h)).unwrap();
        let multi = run_dist(&mesh, &field, &grid,
            &DistOptions::new(ranks).smoothness(k).h_factor(h)).unwrap();
        let diff = multi.max_abs_diff(&single.values);
        prop_assert!(diff <= 1e-12, "{ranks} ranks, k={k}: diff {diff}");
        prop_assert!(
            pair_counters(&multi.metrics) == pair_counters(&single.metrics),
            "pair-driven counters must partition exactly: {:?} vs {:?}",
            pair_counters(&multi.metrics),
            pair_counters(&single.metrics)
        );
    }

    /// Sharded plan apply is bitwise the single-rank plan apply for random
    /// meshes and rank counts.
    #[test]
    fn sharded_plan_apply_matches_single_rank(
        seed in 0u64..1000,
        n in 120usize..300,
        k in 1usize..=2,
        ranks_ix in 0usize..3,
    ) {
        let ranks = [2usize, 4, 8][ranks_ix];
        let p = k.min(2);
        let (mesh, field, grid) = build(n, p, seed);
        let h = safe_h(&mesh, k);
        let single = run_plan_dist(&mesh, &field, &grid,
            &DistOptions::new(1).smoothness(k).h_factor(h)).unwrap();
        let multi = run_plan_dist(&mesh, &field, &grid,
            &DistOptions::new(ranks).smoothness(k).h_factor(h)).unwrap();
        prop_assert!(multi.values == single.values,
            "plan rows are point-local, so sharded apply must be bitwise");
        prop_assert!(multi.metrics.solution_writes == single.metrics.solution_writes);
        prop_assert!(multi.metrics.elem_data_loads == single.metrics.elem_data_loads);
        prop_assert!(multi.metrics.flops == single.metrics.flops);
    }
}

/// The two works the one schedule runs; every fault test below drives
/// both through the same injected faults.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Path {
    /// `run_dist`: per-element scatter, coefficients pushed.
    Push,
    /// `run_plan_dist`: row-split SpMV, coefficients pulled.
    Pull,
}

const PATHS: [Path; 2] = [Path::Push, Path::Pull];

/// A four-rank fixture, its options, and the fault-free values of `path`.
/// On the pull path those are also checked bitwise against the global
/// `EvalPlan::apply`, so "equals the clean run" means "equals the plan".
struct Case {
    mesh: ustencil::mesh::TriMesh,
    field: ustencil::dg::DgField,
    grid: ComputationGrid,
    opts: DistOptions,
    clean: DistSolution,
}

impl Case {
    fn new(path: Path, seed: u64) -> Self {
        let (mesh, field, grid) = build(200, 1, seed);
        let h_factor = safe_h(&mesh, 1);
        let opts = DistOptions::new(4).h_factor(h_factor);
        let clean = match path {
            Path::Push => run_dist(&mesh, &field, &grid, &opts),
            Path::Pull => run_plan_dist(&mesh, &field, &grid, &opts),
        }
        .unwrap();
        if path == Path::Pull {
            let compile = CompileOptions {
                h_factor,
                ..CompileOptions::default()
            };
            let global = EvalPlan::compile(&mesh, &grid, 1, &compile).apply(&field);
            assert_eq!(clean.values, global.values, "pull path must be bitwise");
        }
        Self {
            mesh,
            field,
            grid,
            opts,
            clean,
        }
    }

    fn run_on<T: Transport>(
        &self,
        path: Path,
        opts: &DistOptions,
        endpoints: Vec<T>,
    ) -> DistSolution {
        match path {
            Path::Push => run_dist_on(&self.mesh, &self.field, &self.grid, opts, endpoints),
            Path::Pull => run_plan_dist_on(&self.mesh, &self.field, &self.grid, opts, endpoints),
        }
        .unwrap()
    }
}

/// Interior + frontier partition each rank's owned work: elements on the
/// push path, plan rows (one per owned point) on the pull path.
fn assert_split_partitions_owned_work(path: Path, sol: &DistSolution) {
    for r in &sol.ranks {
        let owned = match path {
            Path::Push => r.owned_elements,
            Path::Pull => r.owned_points,
        };
        assert_eq!(r.interior + r.frontier, owned, "{path:?} rank {}", r.rank);
    }
}

/// A dropped-then-retransmitted halo message must not change the result:
/// the reliability layer retries, the receiver deduplicates, and the
/// recorded wire history shows the drop followed by a delivery.
#[test]
fn dropped_halo_messages_are_retried_without_changing_results() {
    for path in PATHS {
        let case = Case::new(path, 77);
        // One drop per message kind the path puts on the wire.
        let drops: &[(u32, Tag)] = match path {
            Path::Push => &[(1, Tag::HaloCoeffs), (2, Tag::OwnedValues)],
            Path::Pull => &[
                (1, Tag::HaloRequest),
                (3, Tag::HaloCoeffs),
                (2, Tag::OwnedValues),
            ],
        };
        let faults = drops.iter().fold(FaultPlan::none(), |plan, &(from, tag)| {
            plan.with_rule(FaultRule::drop_first(from, tag, 1))
        });
        let (fabric, endpoints) = RecordingFabric::with_faults(4, faults);
        let opts = case.opts.link(LinkConfig {
            ack_timeout: Duration::from_millis(50),
            max_retries: 6,
            ..LinkConfig::default()
        });
        let faulty = case.run_on(path, &opts, endpoints);

        assert_eq!(
            faulty.values, case.clean.values,
            "{path:?}: retried messages must leave the values bit-identical"
        );
        assert_eq!(
            pair_counters(&faulty.metrics),
            pair_counters(&case.clean.metrics)
        );
        // The halo-phase retransmit is visible in the shipped counters; the
        // result-message retransmit happens after the stats snapshot (a
        // rank's result cannot count itself) and is asserted through the
        // wire log below instead.
        let total = faulty.total_comm();
        assert!(
            total.retransmits >= 1,
            "{path:?}: the halo drop must force a retransmit"
        );
        assert!(faulty.ranks.iter().all(|r| !r.reresolved));
        assert_split_partitions_owned_work(path, &faulty);

        // The wire log shows each injected drop followed by a successful
        // retransmission of the same message.
        let log = fabric.log();
        for &(from, tag) in drops {
            let dropped = log
                .iter()
                .find(|r| r.from == from && r.tag == tag && r.disposition == Disposition::Dropped)
                .expect("injected drop must be recorded");
            assert!(
                log.iter().any(|r| r.from == from
                    && r.tag == tag
                    && r.seq == dropped.seq
                    && r.disposition == Disposition::Delivered),
                "{path:?}: the dropped message must eventually be delivered"
            );
        }
    }
}

/// Held (reordered) messages must not change the result: receivers match
/// halo payloads by content, not arrival order.
#[test]
fn reordered_messages_leave_results_unchanged() {
    for path in PATHS {
        let case = Case::new(path, 78);
        let faults = FaultPlan::none().with_rule(FaultRule::hold_first(1, 0, 1));
        let endpoints = ChannelFabric::endpoints_with_faults(4, faults);
        let faulty = case.run_on(path, &case.opts, endpoints);

        assert_eq!(faulty.values, case.clean.values, "{path:?}");
        assert_eq!(
            pair_counters(&faulty.metrics),
            pair_counters(&case.clean.metrics)
        );
    }
}

/// A rank whose result message never arrives is re-resolved by the
/// coordinator through the same work's two passes: the run still returns,
/// values are identical, the failed rank is flagged, and its ledger has
/// the split and patch shapes the rank itself would have shipped.
#[test]
fn failed_rank_is_reresolved_by_the_coordinator() {
    for path in PATHS {
        let case = Case::new(path, 79);
        // Rank 3 completes its exchange but its result message is
        // swallowed forever — from the coordinator's view the rank died
        // after the halo phase.
        let faults =
            FaultPlan::none().with_rule(FaultRule::drop_first(3, Tag::OwnedValues, u32::MAX));
        let endpoints = ChannelFabric::endpoints_with_faults(4, faults);
        let opts = case
            .opts
            .link(LinkConfig {
                ack_timeout: Duration::from_millis(20),
                max_retries: 2,
                ..LinkConfig::default()
            })
            .gather_timeout(Duration::from_millis(500));
        let recovered = case.run_on(path, &opts, endpoints);

        assert_eq!(
            recovered.values, case.clean.values,
            "{path:?}: re-resolved rows must be bitwise what the rank would have sent"
        );
        assert!(recovered.ranks[3].reresolved, "rank 3 must be flagged");
        assert!(
            recovered.ranks.iter().filter(|r| r.reresolved).count() == 1,
            "only the failed rank is re-resolved"
        );
        assert_split_partitions_owned_work(path, &recovered);
        let (lost, kept) = (&recovered.ranks[3], &case.clean.ranks[3]);
        assert_eq!(
            (lost.interior, lost.frontier),
            (kept.interior, kept.frontier)
        );
        let shapes = |r: &ustencil::dist::RankReport| -> Vec<Metrics> {
            r.patches.iter().map(|p| p.metrics).collect()
        };
        assert_eq!(
            shapes(lost),
            shapes(kept),
            "{path:?}: recovered patch shapes"
        );
        assert_eq!(lost.comm.msgs_sent, 0, "a re-resolved rank has no link");
    }
}
