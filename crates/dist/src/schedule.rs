//! The one rank schedule: scatter at spawn, one thread per rank, the
//! barrier body, the gather at join, and the assemble loop with
//! rank-failure recovery — generic over the `Work` it feeds.
//!
//! Each rank owns a contiguous shard of mesh elements (recursive
//! bisection) and resolves exactly the grid points that live on its owned
//! elements. Its inputs are handed over when its thread is spawned and its
//! finished values handed back when the thread is joined; the only data
//! that crosses ranks in between is the halo exchange, messages that own
//! their dG coefficients, through the [`Transport`] boundary, which
//! delivers every message exactly once or reports the endpoint closed.
//!
//! ## The barrier body
//!
//! 1. `exchange.post` — the rank pushes one coefficient message to every
//!    peer: the owned elements in that peer's ghost ring;
//! 2. `exchange.drain` — the rank receives the one coefficient message
//!    every peer owes it;
//! 3. `eval` — one pass over the rank's work, against the completed
//!    coefficient set.
//!
//! The exchange is four messages on the benchmark's two ranks, well under
//! 1 % of a frame, and hiding it behind an interior pass measured no faster
//! (DESIGN.md §15), so nothing overlaps it: `exchange_ns` is the post and
//! the drain, and the cost model charges the whole counted wire time.
//!
//! ## Two works
//!
//! The direct per-element path ([`push`](crate::push)) and the plan path
//! ([`pull`](crate::pull)) share the ghost ring and the exchange; a `Work`
//! supplies only how one pass over the completed coefficient vector is
//! evaluated. Everything else — including recovery, which runs *the same
//! work's* pass against the caller's field with no link — is here, once.
//!
//! ## A dead rank
//!
//! The one failure a reliable transport cannot mask. A worker whose body
//! returns an error *or panics* hands back no result at join, and the
//! coordinator re-resolves its points at once. Its endpoint stays open
//! until every worker is joined, so its peers never race its teardown.

use crate::link::{DistError, Link};
use crate::shard::{ghost_ring_width, RankShard, ShardPlan};
use crate::transport::{Message, Transport};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use ustencil_core::{
    simulate_ranks, BlockStats, ComputationGrid, DeviceConfig, ExecConfig, KernelSetup, Metrics,
    RankCommRecord, RankTraffic, RunRecord, Scheme, SimReport, SimdPolicy, SimdRecord,
};
use ustencil_dg::DgField;
use ustencil_mesh::TriMesh;
use ustencil_trace::{CommStats, SpanRecord, Tracer};

/// The `"scheme"` label rank-sharded runs carry in `RunReport` JSON.
pub const SCHEME_LABEL: &str = "dist";

/// Configuration of a rank-sharded run: the rank count, the one deadline,
/// and the one [`ExecConfig`] every rank evaluates under, set through the
/// kernel/patch/instrument/SIMD builders.
#[derive(Debug, Clone, Copy)]
pub struct DistOptions {
    /// Number of ranks (worker threads; rank 0 runs on the caller's
    /// thread and coordinates the gather).
    pub n_ranks: usize,
    /// How long a rank's halo drain waits for the messages it is owed
    /// before it fails with [`DistError::Timeout`]: at rank 0 that fails
    /// the run, at a worker it makes a dead rank, re-resolved at join.
    pub exchange_timeout: Duration,
    /// What every rank runs under. `n_blocks` is the patches per rank;
    /// `parallel` is unused, the ranks being the threads.
    pub(crate) exec: ExecConfig,
}

impl DistOptions {
    /// Defaults for `n_ranks` ranks: 16 patches per rank, paper kernel
    /// defaults, a generous deadline, no instrumentation.
    pub fn new(n_ranks: usize) -> Self {
        Self {
            n_ranks,
            exchange_timeout: Duration::from_secs(120),
            exec: ExecConfig::default(),
        }
    }

    /// Scales the kernel width: `h = h_factor * max_edge` (default 1.0).
    pub fn h_factor(mut self, factor: f64) -> Self {
        self.exec.h_factor = factor;
        self
    }

    /// Sets the per-rank patch count — the SM-granularity tiling each rank
    /// applies to its local element set (default 16, matching the engine).
    pub fn sm_patches(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one patch per rank");
        self.exec.n_blocks = n;
        self
    }

    /// Enables phase spans on every rank. Workers measure against the
    /// run's shared epoch and hand their records back at join, so the whole
    /// run lands on one time axis; off (the default) costs nothing on the
    /// hot path.
    pub fn instrument(mut self, on: bool) -> Self {
        self.exec.instrument = on;
        self
    }

    /// Sets the SIMD policy of every rank's evaluation (default
    /// [`SimdPolicy::Auto`]). Resolution is deterministic per process, so
    /// all ranks — and the re-resolve recovery path — run the same ISA,
    /// which keeps recovered shards bitwise identical to what the failed
    /// rank would have produced.
    pub fn simd(mut self, policy: SimdPolicy) -> Self {
        self.exec.simd = policy;
        self
    }
}

/// One rank's ledger in a finished run.
#[derive(Debug, Clone)]
pub struct RankReport {
    /// The rank.
    pub rank: u32,
    /// Elements the rank owned.
    pub owned_elements: u64,
    /// Ghost-ring elements replicated onto the rank.
    pub halo_elements: u64,
    /// Grid points the rank resolved.
    pub owned_points: u64,
    /// Transport counters (zero when the rank failed and its points were
    /// re-resolved by the coordinator).
    pub comm: CommStats,
    /// 0: nothing is evaluated before the drain. Kept, like
    /// `CommStats::retransmits`, for the callers that read it.
    pub interior: u64,
    /// The rank's owned work, all of it evaluated after the drain: owned
    /// elements (push) or owned points (pull).
    pub frontier: u64,
    /// Nanoseconds of communication: the post and the drain.
    pub exchange_ns: u64,
    /// Nanoseconds evaluating the pass.
    pub eval_ns: u64,
    /// Nanoseconds in the local reduce (push), or in the local plan
    /// *compile* (pull — there is no per-rank reduce there: owned rows
    /// assemble by placement).
    pub reduce_ns: u64,
    /// Whether the coordinator re-resolved this rank's points because the
    /// rank handed back no result (rank-failure recovery).
    pub reresolved: bool,
    /// Per-patch stats of the rank's evaluation.
    pub patches: Vec<BlockStats>,
    /// The rank's phase spans, on the run's shared time axis (empty unless
    /// instrumented; rank 0's also carry `build.shard_plan` and
    /// `reduce.gather`).
    pub spans: Vec<SpanRecord>,
}

/// Result of a rank-sharded run, on either path.
#[derive(Debug, Clone)]
pub struct DistSolution {
    /// Post-processed value at each grid point (global order).
    pub values: Vec<f64>,
    /// Work counters summed over every rank's patches. On the push path
    /// this includes the halo replication cost (see [`push`](crate::push)
    /// for which components stay exactly equal to a single-rank run); on
    /// the pull path the counters are row-partitioned, so the sum is
    /// exactly a single-rank apply's.
    pub metrics: Metrics,
    /// Per-rank ledgers.
    pub ranks: Vec<RankReport>,
    /// Phase spans of rank 0 (empty unless instrumented).
    pub spans: Vec<SpanRecord>,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// The stencil width `(3k+1) h` used.
    pub stencil_width: f64,
    /// SIMD dispatch record of the run (the ISA every rank resolved, with
    /// aggregate throughput over the run's wall time).
    pub simd: SimdRecord,
    /// The traversal the cost model charges the per-patch counters as.
    scheme: Scheme,
}

impl DistSolution {
    /// Maximum absolute difference against another value vector.
    pub fn max_abs_diff(&self, other: &[f64]) -> f64 {
        self.values
            .iter()
            .zip(other)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Transport counters summed over every rank.
    pub fn total_comm(&self) -> CommStats {
        let stats: Vec<CommStats> = self.ranks.iter().map(|r| r.comm).collect();
        CommStats::sum(&stats)
    }

    /// Simulated execution time on `n_ranks` devices: each rank's patches
    /// on its own device, plus the counted wire traffic through the cost
    /// model's comms term.
    pub fn simulate(&self, config: &DeviceConfig) -> SimReport {
        let blocks: Vec<Vec<Metrics>> = self
            .ranks
            .iter()
            .map(|r| r.patches.iter().map(|s| s.metrics).collect())
            .collect();
        let traffic: Vec<RankTraffic> = self
            .ranks
            .iter()
            .map(|r| RankTraffic {
                bytes_sent: r.comm.bytes_sent,
                msgs_sent: r.comm.msgs_sent,
            })
            .collect();
        simulate_ranks(self.scheme, &blocks, &traffic, config)
    }

    /// Builds the `RunReport` record of this run: scheme `"dist"`, patches
    /// flattened across ranks and one comms ledger per rank; no plan shape,
    /// on either work.
    pub fn to_run_record(
        &self,
        label: &str,
        n_triangles: usize,
        device_sim: Option<SimReport>,
    ) -> RunRecord {
        RunRecord {
            label: label.to_string(),
            scheme: SCHEME_LABEL.to_string(),
            n_triangles: n_triangles as u64,
            n_points: self.values.len() as u64,
            wall_ms: self.wall.as_secs_f64() * 1e3,
            metrics: self.metrics,
            spans: self.spans.clone(),
            patches: self
                .ranks
                .iter()
                .flat_map(|r| r.patches.iter())
                .map(Into::into)
                .collect(),
            device_sim,
            plan: None,
            comms: self
                .ranks
                .iter()
                .map(|r| RankCommRecord {
                    rank: r.rank as u64,
                    owned_elements: r.owned_elements,
                    halo_elements: r.halo_elements,
                    owned_points: r.owned_points,
                    msgs_sent: r.comm.msgs_sent,
                    bytes_sent: r.comm.bytes_sent,
                    msgs_recv: r.comm.msgs_recv,
                    bytes_recv: r.comm.bytes_recv,
                    exchange_ns: r.exchange_ns,
                    eval_ns: r.eval_ns,
                    reduce_ns: r.reduce_ns,
                })
                .collect(),
            simd: Some(self.simd.clone()),
            ..RunRecord::default()
        }
    }
}

/// One rank's finished contribution, handed back at join: owned-point
/// values (in the shard plan's owned-point order, ids implicit) plus its
/// execution summary.
#[derive(Debug, Default)]
pub(crate) struct RankResult {
    /// Values of the rank's owned points, shard order.
    pub values: Vec<f64>,
    /// Transport counters as the rank's body ended.
    pub comm: CommStats,
    /// Nanoseconds of communication: the post and the drain.
    pub exchange_ns: u64,
    /// Nanoseconds in the local evaluation pass.
    pub eval_ns: u64,
    /// Nanoseconds in the local reduce phase.
    pub reduce_ns: u64,
    /// Per-patch stats of the rank's evaluation.
    pub patches: Vec<BlockStats>,
    /// The rank's tracer spans (empty when instrumentation is off), on the
    /// run's shared time axis.
    pub spans: Vec<SpanRecord>,
}

/// Where a work evaluates: one rank's view of the replicated geometry.
pub(crate) struct Site<'a> {
    pub mesh: &'a TriMesh,
    pub plan: &'a ShardPlan,
    pub rank: usize,
    /// The rank's owned grid points, in `owned_points` order.
    pub grid: &'a ComputationGrid,
}

/// What differs between the push-scatter and the plan-SpMV path: how one
/// pass over the rank's work is evaluated. The exchange before it is the
/// schedule's, the same for both.
pub(crate) trait Work: Sync {
    /// The traversal the cost model charges this work's counters as.
    const SCHEME: Scheme;

    /// Configures the work for a run from the kernel the coordinator
    /// resolved once, so every rank and the recovery path evaluate the
    /// same stencil on the same ISA; shared by reference across ranks.
    fn new(setup: KernelSetup, exec: &ExecConfig) -> Self;

    /// The rank's owned work units: owned elements (push) or owned points
    /// (pull).
    fn owned_units(shard: &RankShard) -> usize;

    /// Evaluates the rank's work against `field`, whose owned and halo
    /// slots are all filled, writing values, timings and patch stats into
    /// `res`. `res.values` starts at zero, one slot per owned point.
    fn pass(&self, site: &Site, field: &DgField, tracer: &Tracer, res: &mut RankResult);
}

/// The coefficients of elements `ids`, copied out of `field`.
fn coeffs_of(ids: &[u32], field: &DgField) -> Vec<f64> {
    let values = ids.iter().flat_map(|&e| field.element_coeffs(e as usize));
    values.copied().collect()
}

/// Writes received coefficients into `field`'s slots for `ids`. A payload
/// that does not hold `n_modes` values per id, or names an element outside
/// the field, is refused before anything is written.
fn fill(field: &mut DgField, ids: &[u32], values: &[f64]) -> Result<(), DistError> {
    let (nm, n) = (field.n_modes(), field.n_elements());
    if values.len() != ids.len() * nm || ids.iter().any(|&e| e as usize >= n) {
        return Err(DistError::Protocol(format!(
            "{} coefficients for {} elements of {nm} modes do not fit {n} elements",
            values.len(),
            ids.len()
        )));
    }
    for (&e, v) in ids.iter().zip(values.chunks_exact(nm)) {
        field.element_coeffs_mut(e as usize).copy_from_slice(v);
    }
    Ok(())
}

/// The peers a drain is still owed a coefficient message by. The
/// transport delivers exactly once, so a message from a rank that owes
/// none — a second one from the same peer, one from the rank itself or
/// from outside the fabric — is a protocol violation. It must not count
/// toward the drain: the pass would read zeros where the message still
/// missing belongs.
struct Owed(Vec<bool>);

impl Owed {
    /// One message from every rank but `rank`.
    fn by_peers(n_ranks: usize, rank: usize) -> Self {
        Self((0..n_ranks).map(|q| q != rank).collect())
    }

    fn settled(&self) -> bool {
        !self.0.contains(&true)
    }

    /// Accepts `msg` as its sender's one owed message.
    fn take(&mut self, rank: usize, msg: &Message) -> Result<(), DistError> {
        match self.0.get_mut(msg.from as usize) {
            Some(owed) if *owed => {
                *owed = false;
                Ok(())
            }
            _ => Err(DistError::Protocol(format!(
                "rank {rank} is not owed a halo message by rank {}",
                msg.from
            ))),
        }
    }
}

/// Everything a rank needs, scattered at spawn. The mesh and shard plan
/// are read-only problem geometry and are *replicated* per rank; the field
/// carries only that rank's owned coefficients (every other slot is zero
/// until the drain fills the ones the work reads) and the grid only its
/// owned points. No field data is shared: coefficients move only inside
/// halo messages, and values come back when the rank is joined.
struct RankCtx {
    mesh: TriMesh,
    plan: ShardPlan,
    field: DgField,
    grid: ComputationGrid,
    options: DistOptions,
    /// The run's shared time origin: every rank's tracer measures offsets
    /// from this one instant, so spans handed back land on the
    /// coordinator's time axis directly.
    epoch: Instant,
}

/// Rank `shard`'s owned points (and their owning elements) as a grid.
fn local_grid(grid: &ComputationGrid, shard: &RankShard) -> ComputationGrid {
    let owned = shard.owned_points.iter().map(|&i| i as usize);
    ComputationGrid::from_points(
        owned.clone().map(|i| grid.points()[i]).collect(),
        owned.map(|i| grid.owners()[i]).collect(),
    )
}

/// One rank's barrier run: post, drain, one pass. The result carries the
/// link's counters as the body ends; the caller adds the spans.
fn rank_body<W: Work, T: Transport>(
    work: &W,
    ctx: RankCtx,
    link: &mut Link<T>,
    tracer: &Tracer,
) -> Result<RankResult, DistError> {
    let (rank, n_ranks) = (link.rank() as usize, ctx.plan.n_ranks());
    let site = Site {
        mesh: &ctx.mesh,
        plan: &ctx.plan,
        rank,
        grid: &ctx.grid,
    };
    let mut field = ctx.field;
    let mut res = RankResult {
        values: vec![0.0; site.grid.len()],
        ..RankResult::default()
    };

    // Building the payloads is part of the exchange.
    let exchange_start = Instant::now();
    {
        let _span = tracer.span("exchange.post");
        (0..n_ranks).filter(|&q| q != rank).try_for_each(|peer| {
            let ids = site.plan.push_set(rank, peer);
            let values = coeffs_of(&ids, &field);
            link.send(peer as u32, ids, values)
        })?;
    }
    {
        let _span = tracer.span("exchange.drain");
        drain(&site, &mut field, link, ctx.options.exchange_timeout)?;
    }
    res.exchange_ns = exchange_start.elapsed().as_nanos() as u64;

    let _span = tracer.span("eval");
    work.pass(&site, &field, tracer, &mut res);
    res.comm = link.stats();
    Ok(res)
}

/// Receives the one coefficient message every peer owes the rank into
/// `field`.
fn drain<T: Transport>(
    site: &Site,
    field: &mut DgField,
    link: &mut Link<T>,
    timeout: Duration,
) -> Result<(), DistError> {
    let rank = site.rank;
    let mut coeffs = Owed::by_peers(site.plan.n_ranks(), rank);
    let deadline = Instant::now() + timeout;
    loop {
        // Once nothing is owed the drain takes only what is already
        // waiting — none of it owed, so a violation — and ends on an empty
        // inbox.
        let settled = coeffs.settled();
        let wait = if settled {
            Duration::ZERO
        } else {
            deadline.saturating_duration_since(Instant::now())
        };
        let msg = match link.recv(wait) {
            Err(DistError::Timeout) if settled => break,
            received => received?,
        };
        coeffs.take(rank, &msg)?;
        fill(field, &msg.ids, &msg.values)?;
    }
    Ok(())
}

/// Rank-failure recovery: the failed rank's pass, run by the coordinator
/// against the caller's field with no link. The pass reads only the
/// coefficients the rank's exchange would have filled, so values *and*
/// patch shapes are bitwise what the rank would have shipped.
fn reresolve<W: Work>(work: &W, site: &Site, field: &DgField) -> RankResult {
    let mut res = RankResult {
        values: vec![0.0; site.grid.len()],
        ..RankResult::default()
    };
    work.pass(site, field, &Tracer::disabled(), &mut res);
    res
}

/// Runs work `W` over `transports` (one endpoint per rank, in rank
/// order): one OS thread per rank, rank 0 on the caller's thread.
///
/// # Panics
/// Panics when the field does not match the mesh, the stencil exceeds the
/// periodic domain, `options.n_ranks == 0`, or the endpoint count
/// disagrees with it.
pub(crate) fn run_schedule<W: Work, T: Transport>(
    mesh: &TriMesh,
    field: &DgField,
    grid: &ComputationGrid,
    options: &DistOptions,
    mut transports: Vec<T>,
) -> Result<DistSolution, DistError> {
    assert!(options.n_ranks > 0, "need at least one rank");
    assert_eq!(
        transports.len(),
        options.n_ranks,
        "one transport endpoint per rank"
    );
    assert_eq!(
        field.n_elements(),
        mesh.n_triangles(),
        "field does not match mesh"
    );

    let start = Instant::now();
    let tracer = Tracer::new(options.exec.instrument);
    let epoch = tracer.epoch();
    let n = options.n_ranks;
    let degree = field.degree();
    let setup = options.exec.resolve(mesh, degree);
    let (stencil_width, isa) = (setup.stencil.width(), setup.isa);
    let nm = field.n_modes();
    let work = &W::new(setup, &options.exec);

    let plan = {
        let _span = tracer.span("build.shard_plan");
        let halo_width = ghost_ring_width(mesh.max_edge_length(), stencil_width);
        ShardPlan::build(mesh, grid, n, halo_width)
    };

    // Static scatter: each rank gets the mesh + plan replicas, its own
    // coefficients in an otherwise-zero field, and its own grid points.
    let mut ctxs = (0..n).map(|r| {
        let shard = plan.shard(r);
        let mut coeffs = vec![0.0; mesh.n_triangles() * nm];
        for &e in &shard.owned_elements {
            let slot = e as usize * nm..(e as usize + 1) * nm;
            coeffs[slot.clone()].copy_from_slice(&field.coefficients()[slot]);
        }
        RankCtx {
            mesh: mesh.clone(),
            plan: plan.clone(),
            field: DgField::from_coefficients(degree, mesh.n_triangles(), coeffs),
            grid: local_grid(grid, shard),
            options: *options,
            epoch,
        }
    });
    let ctx0 = ctxs.next().expect("n_ranks > 0");
    let transport0 = transports.remove(0);
    let workers: Vec<(RankCtx, T)> = ctxs.zip(transports).collect();

    let slots = std::thread::scope(|scope| -> Result<Vec<Option<RankResult>>, DistError> {
        let workers: Vec<_> = workers
            .into_iter()
            .map(|(ctx, transport)| {
                scope.spawn(move || {
                    let tracer = Tracer::with_epoch(ctx.options.exec.instrument, ctx.epoch);
                    let mut link = Link::new(transport);
                    // A failed exchange or a panic (the transport's, a
                    // poisoned lock's, an assert on the evaluation path) is
                    // a dead rank: it hands back no result. The link goes
                    // back with it, open until every worker is joined, so a
                    // peer posting to a dead rank never races a `Closed`.
                    let body = catch_unwind(AssertUnwindSafe(|| {
                        rank_body(work, ctx, &mut link, &tracer)
                    }));
                    let res = body.ok().and_then(Result::ok).map(|res| RankResult {
                        spans: tracer.into_records(),
                        ..res
                    });
                    (link, res)
                })
            })
            .collect();

        let mut link = Link::new(transport0);
        let mut own = rank_body(work, ctx0, &mut link, &tracer)?;
        let joined: Vec<_> = {
            let _span = tracer.span("reduce.gather");
            workers.into_iter().map(|w| w.join()).collect()
        };
        own.spans = tracer.into_records();
        let rest = joined.into_iter().map(|j| j.ok().and_then(|(_, res)| res));
        Ok(std::iter::once(Some(own)).chain(rest).collect())
    })?;
    // Assemble: owned-point shards are disjoint, so the cross-rank stage
    // is pure placement.
    let mut values = vec![0.0; grid.len()];
    let mut ranks = Vec::with_capacity(n);
    for (r, slot) in slots.into_iter().enumerate() {
        let shard = plan.shard(r);
        let reresolved = slot.is_none();
        let result = slot.unwrap_or_else(|| {
            let site = Site {
                mesh,
                plan: &plan,
                rank: r,
                grid: &local_grid(grid, shard),
            };
            reresolve(work, &site, field)
        });
        debug_assert_eq!(result.values.len(), shard.owned_points.len());
        for (&global, &v) in shard.owned_points.iter().zip(&result.values) {
            values[global as usize] = v;
        }
        ranks.push(RankReport {
            rank: r as u32,
            owned_elements: shard.owned_elements.len() as u64,
            halo_elements: shard.halo_elements.len() as u64,
            owned_points: shard.owned_points.len() as u64,
            comm: result.comm,
            interior: 0,
            frontier: W::owned_units(shard) as u64,
            exchange_ns: result.exchange_ns,
            eval_ns: result.eval_ns,
            reduce_ns: result.reduce_ns,
            reresolved,
            patches: result.patches,
            spans: result.spans,
        });
    }

    let spans = ranks[0].spans.clone();
    let patch_metrics: Vec<Metrics> = ranks
        .iter()
        .flat_map(|r| r.patches.iter().map(|s| s.metrics))
        .collect();
    let metrics = Metrics::sum(&patch_metrics);
    let wall = start.elapsed();
    let simd = SimdRecord::measured(options.exec.simd, isa, metrics.flops, wall.as_secs_f64());
    Ok(DistSolution {
        values,
        metrics,
        ranks,
        spans,
        wall,
        stencil_width,
        simd,
        scheme: W::SCHEME,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustencil_mesh::{generate_mesh, MeshClass};

    #[test]
    fn empty_push_set_still_sends_its_one_empty_message() {
        let mesh = generate_mesh(MeshClass::LowVariance, 200, 4);
        let grid = ComputationGrid::quadrature_points(&mesh, 1);
        // Sixteen shards under a zero-width ring: some pair does not touch,
        // so one has nothing to push — and the other is owed a message
        // anyway.
        let plan = ShardPlan::build(&mesh, &grid, 16, 0.0);
        let (rank, peer) = (0..16)
            .flat_map(|r| (0..16).map(move |q| (r, q)))
            .find(|&(r, q)| r != q && plan.push_set(r, q).is_empty())
            .expect("distant shards share no ring");
        let field = DgField::zeros(1, mesh.n_triangles());
        assert!(coeffs_of(&plan.push_set(rank, peer), &field).is_empty());
    }

    #[test]
    fn coeffs_that_do_not_fit_the_field_are_a_protocol_error() {
        let mut field = DgField::zeros(1, 4);
        assert_eq!(fill(&mut field, &[2], &[1.0, 2.0, 3.0]), Ok(()));
        assert_eq!(&field.coefficients()[6..9], &[1.0, 2.0, 3.0]);
        // Too few values for the ids, or an id past the last element: refused
        // before anything is written.
        for (ids, values) in [(&[0, 1][..], &[5.0; 3][..]), (&[0, 4], &[5.0; 6])] {
            let err = fill(&mut field, ids, values).unwrap_err();
            assert!(matches!(err, DistError::Protocol(_)), "{err}");
        }
        assert_eq!(&field.coefficients()[..3], &[0.0; 3]);
    }

    #[test]
    fn coeffs_from_a_rank_that_owes_none_are_a_protocol_error() {
        // The transport delivers exactly once, so each peer is owed one
        // message: a rank outside the fabric, the rank itself, or a peer's
        // second message is refused by name — never counted.
        let from = |from: u32| Message {
            from,
            to: 0,
            ids: Vec::new(),
            values: Vec::new(),
        };
        let mut owed = Owed::by_peers(2, 0);
        for stranger in [2, u32::MAX, 0] {
            let err = owed.take(0, &from(stranger)).unwrap_err();
            assert!(
                matches!(&err, DistError::Protocol(why) if why.contains(&format!("rank {stranger}"))),
                "{err}"
            );
        }
        assert!(!owed.settled());
        assert_eq!(owed.take(0, &from(1)), Ok(()));
        assert!(owed.settled());
        assert!(matches!(
            owed.take(0, &from(1)),
            Err(DistError::Protocol(_))
        ));
        // A lone rank is owed nothing.
        assert!(Owed::by_peers(1, 0).settled());
    }
}
