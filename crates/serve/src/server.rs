//! The request layer: a bounded submission queue in front of worker
//! threads.
//!
//! Clients [`submit`](ServerClient::submit) field-evaluation requests and
//! block on a [`Ticket`] for the answer. A worker pops one request, looks
//! its plan up ([`PlanCache::get_or_patch`] — hit, single-flight wait,
//! sibling patch or compile) and applies it to the request's field.
//! One lookup per request is what makes the ledger conserve:
//! `hits + misses + single_flight_waits == requests`. (Coalescing queued
//! same-plan requests into one batch was measured and retired, DESIGN.md
//! §14: with one apply per field a batch shared a map lookup, not a pass
//! over the weights.)
//!
//! Admission is backpressured: the queue holds at most 64 requests
//! (`QUEUE_CAPACITY`) and `submit` blocks until space frees, so a burst slows
//! producers instead of growing memory without bound.
//!
//! Every request is timed with two microsecond clocks — queue wait
//! (admission → a worker picks it up) and service latency (admission →
//! answer ready) — recorded into per-tenant [`Hist64`] ledgers; the
//! run-wide histograms, where the reported p50/p99 come from, are their
//! merge.

use crate::cache::{Outcome, PlanCache};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use ustencil_core::{ComputationGrid, ExecConfig, Metrics, TenantLedger};
use ustencil_dg::DgField;
use ustencil_mesh::TriMesh;
use ustencil_plan::{EvalPlan, PlanKey};
use ustencil_trace::Hist64;

/// Requests the submission queue holds before `submit` blocks.
const QUEUE_CAPACITY: usize = 64;

/// Configuration of a [`PlanServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads draining the queue (default 2; clamped to ≥ 1).
    pub workers: usize,
    /// What cache-miss compiles, sibling patches and the applies all run
    /// under (also part of every request's [`PlanKey`], so two servers with
    /// different kernels never share plans by accident).
    pub exec: ExecConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            exec: ExecConfig::default(),
        }
    }
}

/// A shared evaluation problem: the mesh and grid a tenant's fields live
/// on. Wrapped in `Arc`s so a popular catalog entry is shared, not cloned,
/// across requests.
#[derive(Debug, Clone)]
pub struct Problem {
    /// The mesh.
    pub mesh: Arc<TriMesh>,
    /// The evaluation grid.
    pub grid: Arc<ComputationGrid>,
    /// Field polynomial degree.
    pub degree: usize,
}

/// The answer to one request.
#[derive(Debug, Clone)]
pub struct Response {
    /// Post-processed value at each grid point.
    pub values: Vec<f64>,
    /// Microseconds between admission and a worker picking the request up.
    pub queue_wait_us: u64,
    /// Microseconds between admission and this response being ready.
    pub service_us: u64,
    /// How the request's plan lookup was satisfied.
    pub outcome: Outcome,
}

/// A pending answer; [`wait`](Ticket::wait) blocks until the serving
/// worker replies.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Response>,
}

impl Ticket {
    /// Blocks until the response arrives.
    ///
    /// # Panics
    /// Panics if the server shut down without answering (a bug: shutdown
    /// drains the queue first).
    pub fn wait(self) -> Response {
        self.rx.recv().expect("server dropped a pending request")
    }
}

struct Pending {
    tenant: usize,
    key: PlanKey,
    problem: Arc<Problem>,
    field: DgField,
    enqueued: Instant,
    reply: mpsc::Sender<Response>,
}

struct QueueState {
    queue: VecDeque<Pending>,
    closed: bool,
}

/// A tenant's ledger before its first request.
pub(crate) fn empty_ledger(tenant: usize) -> TenantLedger {
    TenantLedger {
        tenant: tenant as u64,
        requests: 0,
        hits: 0,
        misses: 0,
        compiles: 0,
        rows: 0,
        queue_wait_us: Hist64::new(),
        service_us: Hist64::new(),
    }
}

/// The run-wide (queue-wait, service-latency) histograms: the tenants' merged.
pub(crate) fn merged_latencies(tenants: &[TenantLedger]) -> (Hist64, Hist64) {
    let mut merged = (Hist64::new(), Hist64::new());
    for t in tenants {
        merged.0.merge(&t.queue_wait_us);
        merged.1.merge(&t.service_us);
    }
    merged
}

/// One worker's service totals, surfaced as a `RunRecord` patch.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStat {
    /// Nanoseconds the worker spent serving requests (not idle waiting).
    pub busy_ns: u64,
    /// Output rows the worker evaluated.
    pub rows: u64,
    /// Summed apply metrics of the worker's requests.
    pub metrics: Metrics,
}

/// Everything the server observed, returned by
/// [`shutdown`](PlanServer::shutdown).
#[derive(Debug, Clone)]
pub struct ServeLedgers {
    /// Per-tenant ledgers, ordered by tenant id.
    pub tenants: Vec<TenantLedger>,
    /// Per-worker service totals.
    pub workers: Vec<WorkerStat>,
    /// Final cache counters and resident size.
    pub cache: crate::cache::CacheSnapshot,
    /// Output rows evaluated across all requests.
    pub rows: u64,
    /// Submissions that had to block on a full queue (backpressure events).
    pub blocked_submits: u64,
    /// Run-wide queue-wait distribution (the tenants' merged), microseconds.
    pub queue_wait_us: Hist64,
    /// Run-wide service-latency distribution, microseconds.
    pub service_us: Hist64,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Signals workers that work arrived (or the queue closed).
    work: Condvar,
    /// Signals submitters that queue space freed.
    space: Condvar,
    cache: PlanCache,
    exec: ExecConfig,
    ledgers: Mutex<Vec<TenantLedger>>,
    worker_stats: Mutex<Vec<WorkerStat>>,
    blocked_submits: AtomicU64,
}

/// The running service: a [`PlanCache`] fronted by worker threads and a
/// bounded submission queue.
#[derive(Debug)]
pub struct PlanServer {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("cache", &self.cache)
            .finish()
    }
}

/// A cloneable submission handle.
#[derive(Debug, Clone)]
pub struct ServerClient {
    shared: Arc<Shared>,
}

impl PlanServer {
    /// Starts `config.workers` worker threads over `cache`, tracking
    /// `n_tenants` ledgers (a request under a tenant id beyond them is
    /// served but enters no ledger or latency histogram).
    pub fn start(cache: PlanCache, config: ServerConfig, n_tenants: usize) -> Self {
        let n_workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                closed: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            cache,
            exec: config.exec,
            ledgers: Mutex::new((0..n_tenants).map(empty_ledger).collect()),
            worker_stats: Mutex::new(vec![WorkerStat::default(); n_workers]),
            blocked_submits: AtomicU64::new(0),
        });
        let workers = (0..n_workers)
            .map(|w| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn serve worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// A cloneable handle for submitting requests.
    pub fn client(&self) -> ServerClient {
        ServerClient {
            shared: self.shared.clone(),
        }
    }

    /// Closes the queue, drains remaining requests, joins the workers, and
    /// returns every ledger the run accumulated.
    pub fn shutdown(self) -> ServeLedgers {
        {
            let mut state = self.shared.state.lock().expect("queue poisoned");
            state.closed = true;
        }
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        for w in self.workers {
            w.join().expect("serve worker panicked");
        }
        let shared = &self.shared;
        let tenants = shared.ledgers.lock().expect("ledgers poisoned").clone();
        let workers = shared.worker_stats.lock().expect("stats poisoned").clone();
        let (queue_wait_us, service_us) = merged_latencies(&tenants);
        ServeLedgers {
            rows: workers.iter().map(|w: &WorkerStat| w.rows).sum(),
            tenants,
            workers,
            cache: shared.cache.snapshot(),
            blocked_submits: shared.blocked_submits.load(Ordering::Relaxed),
            queue_wait_us,
            service_us,
        }
    }
}

impl ServerClient {
    /// Submits `field` for evaluation on `problem`, blocking while the
    /// queue is full (backpressure). Returns a [`Ticket`] to wait on.
    ///
    /// # Panics
    /// Panics when called after [`PlanServer::shutdown`].
    pub fn submit(&self, tenant: usize, problem: &Arc<Problem>, field: DgField) -> Ticket {
        let key = PlanKey::new(
            &problem.mesh,
            &problem.grid,
            problem.degree,
            &self.shared.exec,
        );
        let (tx, rx) = mpsc::channel();
        let pending = Pending {
            tenant,
            key,
            problem: problem.clone(),
            field,
            enqueued: Instant::now(),
            reply: tx,
        };
        let mut state = self.shared.state.lock().expect("queue poisoned");
        while state.queue.len() >= QUEUE_CAPACITY && !state.closed {
            self.shared.blocked_submits.fetch_add(1, Ordering::Relaxed);
            state = self.shared.space.wait(state).expect("queue poisoned");
        }
        assert!(!state.closed, "submit after server shutdown");
        state.queue.push_back(pending);
        drop(state);
        self.shared.work.notify_one();
        Ticket { rx }
    }
}

/// Pops the queue head, or `None` when the queue is closed and drained.
fn next_request(shared: &Shared) -> Option<Pending> {
    let mut state = shared.state.lock().expect("queue poisoned");
    loop {
        if let Some(head) = state.queue.pop_front() {
            shared.space.notify_one();
            return Some(head);
        }
        if state.closed {
            return None;
        }
        state = shared.work.wait(state).expect("queue poisoned");
    }
}

fn worker_loop(shared: &Shared, worker: usize) {
    while let Some(pending) = next_request(shared) {
        let started = Instant::now();
        let problem = &pending.problem;
        let exec = &shared.exec;
        // Delta-aware lookup: a mesh-edit miss patches the resident
        // sibling plan instead of recompiling from scratch.
        let (plan, outcome) =
            shared
                .cache
                .get_or_patch(pending.key, &problem.mesh, &problem.grid, exec, || {
                    EvalPlan::compile(&problem.mesh, &problem.grid, problem.degree, exec)
                });
        let solution = plan.apply_with(&pending.field, exec);
        let queue_wait_us = (started - pending.enqueued).as_micros() as u64;
        let service_us = pending.enqueued.elapsed().as_micros() as u64;
        let rows = solution.values.len() as u64;
        if let Some(ledger) = shared
            .ledgers
            .lock()
            .expect("ledgers poisoned")
            .get_mut(pending.tenant)
        {
            ledger.requests += 1;
            ledger.rows += rows;
            match outcome {
                Outcome::Compiled => {
                    ledger.misses += 1;
                    ledger.compiles += 1;
                }
                // Sibling patches and single-flight rides answer from a
                // plan the tenant did not pay a full compile for.
                Outcome::Hit | Outcome::Waited | Outcome::Patched => ledger.hits += 1,
            }
            ledger.queue_wait_us.record(queue_wait_us);
            ledger.service_us.record(service_us);
        }
        // A dropped ticket just means the client stopped caring.
        let _ = pending.reply.send(Response {
            values: solution.values,
            queue_wait_us,
            service_us,
            outcome,
        });
        let mut stats = shared.worker_stats.lock().expect("stats poisoned");
        let stat = &mut stats[worker];
        stat.busy_ns += started.elapsed().as_nanos() as u64;
        stat.rows += rows;
        stat.metrics.merge(&solution.metrics);
    }
}
