//! Property and failure tests of the rank-sharded runtime: sharded runs
//! must agree with single-rank runs across rank counts and field degrees
//! (the kernel smoothness is the degree), candidate-pair work counters must
//! partition exactly, and what a transport may do (reorder) or a rank may
//! suffer (death, by a refused message or by panic) must never change the
//! answer — on either work the one schedule runs. A transport that breaks
//! its contract (a duplicate) gives a typed error or a re-resolved rank,
//! never a changed value, and a rank that dies after its post is
//! re-resolved without waiting out the exchange deadline.

use proptest::prelude::*;
use std::time::{Duration, Instant};
use ustencil::dg::project_l2;
use ustencil::dist::{
    run_dist, run_dist_on, run_plan_dist, run_plan_dist_on, ChannelEndpoint, ChannelFabric,
    DistError, DistOptions, DistSolution, Message, Transport, TransportError,
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

/// Largest `h_factor` keeping a degree-`p` stencil inside the domain,
/// with margin.
fn safe_h(mesh: &ustencil::mesh::TriMesh, p: usize) -> f64 {
    (0.9 / ((3 * p + 1) as f64 * mesh.max_edge_length())).min(1.0)
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
    /// meshes, degrees, and rank counts, and the pair-driven counters
    /// sum bit-identically.
    #[test]
    fn sharded_per_element_matches_single_rank(
        seed in 0u64..1000,
        n in 120usize..300,
        p in 1usize..=3,
        ranks_ix in 0usize..3,
    ) {
        let ranks = [2usize, 4, 8][ranks_ix];
        let (mesh, field, grid) = build(n, p, seed);
        let h = safe_h(&mesh, p);
        let single = run_dist(&mesh, &field, &grid,
            &DistOptions::new(1).h_factor(h)).unwrap();
        let multi = run_dist(&mesh, &field, &grid,
            &DistOptions::new(ranks).h_factor(h)).unwrap();
        let diff = multi.max_abs_diff(&single.values);
        prop_assert!(diff <= 1e-12, "{ranks} ranks, p={p}: diff {diff}");
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
        p in 1usize..=2,
        ranks_ix in 0usize..3,
    ) {
        let ranks = [2usize, 4, 8][ranks_ix];
        let (mesh, field, grid) = build(n, p, seed);
        let h = safe_h(&mesh, p);
        let single = run_plan_dist(&mesh, &field, &grid,
            &DistOptions::new(1).h_factor(h)).unwrap();
        let multi = run_plan_dist(&mesh, &field, &grid,
            &DistOptions::new(ranks).h_factor(h)).unwrap();
        prop_assert!(multi.values == single.values,
            "plan rows are point-local, so sharded apply must be bitwise");
        prop_assert!(multi.metrics.solution_writes == single.metrics.solution_writes);
        prop_assert!(multi.metrics.elem_data_loads == single.metrics.elem_data_loads);
        prop_assert!(multi.metrics.flops == single.metrics.flops);
    }
}

/// The two works the one schedule runs; every failure test below drives
/// both through the same meddling.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Path {
    /// `run_dist`: per-element scatter, coefficients pushed.
    Push,
    /// `run_plan_dist`: row-split SpMV over the same pushed ring.
    Pull,
}

const PATHS: [Path; 2] = [Path::Push, Path::Pull];

/// A four-rank fixture, its options, and the undisturbed values of `path`.
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

    /// Runs `path` on four channel endpoints whose messages go through
    /// `rule`, with the drains waiting at most `deadline`.
    fn run_meddled(
        &self,
        path: Path,
        deadline: Duration,
        rule: fn(&Message) -> Do,
    ) -> Result<DistSolution, DistError> {
        let mut opts = self.opts;
        opts.exchange_timeout = deadline;
        let endpoints = ChannelFabric::endpoints(4)
            .into_iter()
            .map(|inner| Meddler {
                inner,
                rule,
                held: Vec::new(),
                again: None,
            })
            .collect();
        match path {
            Path::Push => run_dist_on(&self.mesh, &self.field, &self.grid, &opts, endpoints),
            Path::Pull => run_plan_dist_on(&self.mesh, &self.field, &self.grid, &opts, endpoints),
        }
    }
}

/// A drain deadline short enough to wait out.
const SHORT: Duration = Duration::from_millis(500);

/// What a [`Meddler`] does with one message.
enum Do {
    Pass,
    /// Delivered behind the sender's later messages: when it has posted
    /// them all and first receives.
    HoldBehindPost,
    /// Received twice, back to back — a transport breaking its contract.
    /// Done by the receiving endpoint, so that no thread schedule can part
    /// the copies.
    Twice,
    /// The sending rank dies mid-send.
    PanicSending,
    /// The receiving rank dies on receipt, after its own post.
    PanicReceiving,
}

/// The test-side transport: a channel endpoint that asks a rule, deciding
/// by message identity alone (sender and destination), what to do with
/// each message. `crates/dist` has no injector; `run_*_on` being generic
/// over the transport is the seam.
struct Meddler {
    inner: ChannelEndpoint,
    rule: fn(&Message) -> Do,
    held: Vec<Message>,
    again: Option<Message>,
}

impl Transport for Meddler {
    fn rank(&self) -> u32 {
        self.inner.rank()
    }
    fn n_ranks(&self) -> u32 {
        self.inner.n_ranks()
    }
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Message, TransportError> {
        for held in std::mem::take(&mut self.held) {
            self.inner.send(held)?;
        }
        if let Some(copy) = self.again.take() {
            return Ok(copy);
        }
        let msg = self.inner.recv_timeout(timeout)?;
        match (self.rule)(&msg) {
            Do::Twice => self.again = Some(msg.clone()),
            Do::PanicReceiving => panic!("rank {} dies receiving from rank {}", msg.to, msg.from),
            _ => {}
        }
        Ok(msg)
    }
    fn send(&mut self, msg: Message) -> Result<(), TransportError> {
        match (self.rule)(&msg) {
            Do::HoldBehindPost => {
                self.held.push(msg);
                Ok(())
            }
            Do::PanicSending => panic!("rank {} dies sending to rank {}", msg.from, msg.to),
            _ => self.inner.send(msg),
        }
    }
}

/// Every rank reports all of its owned work as evaluated after the drain:
/// elements on the push path, plan rows (one per owned point) on the pull
/// path.
fn assert_owned_work_runs_after_the_drain(path: Path, sol: &DistSolution) {
    for r in &sol.ranks {
        let owned = match path {
            Path::Push => r.owned_elements,
            Path::Pull => r.owned_points,
        };
        assert_eq!(
            (r.interior, r.frontier),
            (0, owned),
            "{path:?} rank {}",
            r.rank
        );
    }
}

/// Held (reordered) messages must not change the result: receivers match
/// halo payloads by content, not arrival order.
#[test]
fn reordered_messages_leave_results_unchanged() {
    for path in PATHS {
        let case = Case::new(path, 78);
        // Rank 1's first message, its push to rank 0, now leaves behind
        // its pushes to ranks 2 and 3.
        let faulty = case
            .run_meddled(path, SHORT, |m| match (m.from, m.to) {
                (1, 0) => Do::HoldBehindPost,
                _ => Do::Pass,
            })
            .unwrap();

        assert_eq!(faulty.values, case.clean.values, "{path:?}");
        assert_eq!(
            pair_counters(&faulty.metrics),
            pair_counters(&case.clean.metrics)
        );
    }
}

/// A rank that hands back no result is re-resolved by the coordinator
/// through the same work's pass: the run still returns, values are
/// identical, the failed rank is flagged, and its ledger has the patch
/// shapes the rank itself would have handed back.
#[test]
fn failed_rank_is_reresolved_by_the_coordinator() {
    for path in PATHS {
        let case = Case::new(path, 79);
        // Rank 3 posts, then receives rank 0's push twice and refuses the
        // copy: it dies after the halo phase's post.
        let recovered = case
            .run_meddled(path, SHORT, |m| match (m.from, m.to) {
                (0, 3) => Do::Twice,
                _ => Do::Pass,
            })
            .unwrap();

        assert_eq!(
            recovered.values, case.clean.values,
            "{path:?}: re-resolved rows must be bitwise what the rank would have sent"
        );
        assert!(recovered.ranks[3].reresolved, "rank 3 must be flagged");
        assert!(
            recovered.ranks.iter().filter(|r| r.reresolved).count() == 1,
            "only the failed rank is re-resolved"
        );
        assert_owned_work_runs_after_the_drain(path, &recovered);
        let (lost, kept) = (&recovered.ranks[3], &case.clean.ranks[3]);
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

/// Exactly rank `r` of `sol` was re-resolved, to the clean run's bits.
fn assert_only_rank_reresolved(path: Path, case: &Case, sol: &DistSolution, r: usize) {
    assert_eq!(sol.values, case.clean.values, "{path:?}");
    let flagged: Vec<u32> = sol
        .ranks
        .iter()
        .filter(|r| r.reresolved)
        .map(|r| r.rank)
        .collect();
    assert_eq!(flagged, [r as u32], "{path:?}");
}

/// The one rank death an in-process run can suffer — a worker thread
/// panicking — is a dead rank like any other: after its post it is
/// re-resolved; before it, its peers' drains time out and the run fails
/// with the typed error. The panic never leaves `run_*_on`.
#[test]
fn panicking_rank_is_a_dead_rank() {
    for path in PATHS {
        let case = Case::new(path, 80);
        let recovered = case
            .run_meddled(path, SHORT, |m| match (m.from, m.to) {
                (0, 3) => Do::PanicReceiving,
                _ => Do::Pass,
            })
            .unwrap();
        assert_only_rank_reresolved(path, &case, &recovered, 3);

        let err = case
            // Rank 3's first message: its post to rank 0.
            .run_meddled(path, SHORT, |m| match (m.from, m.to) {
                (3, 0) => Do::PanicSending,
                _ => Do::Pass,
            })
            .unwrap_err();
        assert_eq!(err, DistError::Timeout, "{path:?}");
    }
}

/// The drain counts senders, not messages: a second `HaloCoeffs` from one
/// peer must not stand in for the one still missing (the pass would read
/// zeros). At the coordinator it fails the run by name; at a
/// worker it fails that rank, which is re-resolved.
#[test]
fn duplicated_halo_message_is_refused_not_counted() {
    for path in PATHS {
        let case = Case::new(path, 81);
        let err = case
            .run_meddled(path, SHORT, |m| match (m.from, m.to) {
                (1, 0) => Do::Twice,
                _ => Do::Pass,
            })
            .unwrap_err();
        assert!(
            matches!(&err, DistError::Protocol(why) if why.contains("by rank 1")),
            "{path:?}: {err}"
        );

        let recovered = case
            .run_meddled(path, SHORT, |m| match (m.from, m.to) {
                (1, 2) => Do::Twice,
                _ => Do::Pass,
            })
            .unwrap();
        assert_only_rank_reresolved(path, &case, &recovered, 2);
    }
}

/// A rank that dies after its post is seen dead when it is joined, not
/// when a deadline passes: under a 30 s exchange deadline both works
/// return, the rank re-resolved, in a fraction of it.
#[test]
fn rank_dead_after_its_post_is_reresolved_without_waiting_out_the_deadline() {
    for path in PATHS {
        let case = Case::new(path, 83);
        let start = Instant::now();
        let recovered = case
            .run_meddled(path, Duration::from_secs(30), |m| match (m.from, m.to) {
                (0, 3) => Do::PanicReceiving,
                _ => Do::Pass,
            })
            .unwrap();
        let took = start.elapsed();
        assert_only_rank_reresolved(path, &case, &recovered, 3);
        assert!(took < Duration::from_secs(10), "{path:?}: took {took:?}");
    }
}

/// A run's values are a function of its inputs alone: at 2 and 4 ranks,
/// instrumented or not, three runs of either work give the same bits (the
/// instrumented ones included, so tracing changes no value).
#[test]
fn repeated_runs_are_bitwise_identical() {
    let (mesh, field, grid) = build(300, 1, 82);
    let h_factor = safe_h(&mesh, 1);
    for path in PATHS {
        for ranks in [2, 4] {
            let runs: Vec<Vec<f64>> = [false, true]
                .into_iter()
                .flat_map(|instrument| (0..3).map(move |_| instrument))
                .map(|instrument| {
                    let opts = DistOptions::new(ranks)
                        .h_factor(h_factor)
                        .instrument(instrument);
                    match path {
                        Path::Push => run_dist(&mesh, &field, &grid, &opts),
                        Path::Pull => run_plan_dist(&mesh, &field, &grid, &opts),
                    }
                    .unwrap()
                    .values
                })
                .collect();
            for (i, run) in runs.iter().enumerate() {
                let same = run
                    .iter()
                    .zip(&runs[0])
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "{path:?}, {ranks} ranks: run {i} moved a bit");
            }
        }
    }
}
