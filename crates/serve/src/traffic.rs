//! Deterministic synthetic traffic: N client threads replaying a seeded
//! zipf-distributed request stream over a fixture catalog, against either
//! the cached service or a naive per-request compile baseline.
//!
//! Determinism is end to end: the catalog meshes are seeded, each client's
//! RNG is derived from `(seed, client)` with SplitMix64, and the zipf
//! sampler uses platform-independent transcendental kernels (see the
//! `rand` shim), so a `(config, seed)` pair replays the same request
//! sequence everywhere. What *is* timing-dependent — which lookups ride
//! single-flight — changes only service latency, never any returned value:
//! every request for a key gets the same shared plan.

use crate::cache::{CacheConfig, PlanCache};
use crate::disk::DiskTier;
use crate::server::{
    empty_ledger, merged_latencies, PlanServer, Problem, ServerConfig, WorkerStat,
};
use rand::distributions::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use ustencil_core::report::PatchRecord;
use ustencil_core::{ComputationGrid, ExecConfig, Metrics, RunRecord, ServeStats, TenantLedger};
use ustencil_dg::project_l2;
use ustencil_mesh::{generate_mesh, MeshClass, TriMesh};
use ustencil_plan::EvalPlan;
use ustencil_trace::Tracer;

/// Scheme label serve runs carry in `RunRecord` JSON.
pub const SCHEME_LABEL: &str = "serve";

/// Configuration of a synthetic traffic run.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Client threads (default 8).
    pub clients: usize,
    /// Total requests across all clients (default 200).
    pub requests: usize,
    /// Master seed: catalog meshes, client RNGs, zipf draws.
    pub seed: u64,
    /// Distinct meshes in the fixture catalog (default 6).
    pub catalog: usize,
    /// Target triangles per catalog mesh (default 600).
    pub mesh_size: usize,
    /// Field polynomial degree (default 1).
    pub degree: usize,
    /// Zipf popularity exponent over the catalog (default 1.1).
    pub zipf_s: f64,
    /// Cache byte budget, 0 = unbounded (default 0).
    pub byte_budget: u64,
    /// Server worker threads (default 2).
    pub workers: usize,
    /// Bounded queue capacity (default 64).
    pub queue_capacity: usize,
    /// Warm-start disk tier directory (default none).
    pub disk_dir: Option<PathBuf>,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        Self {
            clients: 8,
            requests: 200,
            seed: 42,
            catalog: 6,
            mesh_size: 600,
            degree: 1,
            zipf_s: 1.1,
            byte_budget: 0,
            workers: 2,
            queue_capacity: 64,
            disk_dir: None,
        }
    }
}

/// Everything a traffic run produced: the aggregate [`ServeStats`], the
/// `RunRecord` for report JSON, and the headline wall/throughput numbers.
#[derive(Debug, Clone)]
pub struct TrafficOutcome {
    /// Wall-clock milliseconds of the request-driving phase.
    pub wall_ms: f64,
    /// Requests per second over the driving phase.
    pub throughput_rps: f64,
    /// The aggregate service ledger.
    pub stats: ServeStats,
    /// The serve-scheme run record (spans, patches, and `serve` stats).
    pub record: RunRecord,
}

impl TrafficOutcome {
    /// Upper bound of quantile `q` of the service-latency distribution,
    /// microseconds.
    pub fn latency_us(&self, q: f64) -> u64 {
        self.stats.service_us.quantile_upper_bound(q)
    }
}

/// One catalog entry: a shared problem and the fields tenants evaluate on
/// it.
struct Fixture {
    problem: Arc<Problem>,
    field: ustencil_dg::DgField,
}

/// Derives a per-client RNG seed from the master seed (SplitMix64 step, so
/// adjacent client ids land far apart in seed space).
fn client_seed(seed: u64, client: usize) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((client as u64) << 16);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The widest kernel factor that keeps the stencil inside the unit square
/// (same guard the bench workloads use).
fn safe_h_factor(mesh: &TriMesh, p: usize) -> f64 {
    let width = (3 * p + 1) as f64 * mesh.max_edge_length();
    if width <= 0.98 {
        1.0
    } else {
        0.98 / width
    }
}

/// Builds the seeded fixture catalog: `catalog` meshes of `mesh_size`
/// triangles, one degree-`degree` field each. The compile width factor is
/// the tightest safe factor across the catalog, so every fixture shares
/// one `ExecConfig` (and plans differ only by content, never kernel).
fn build_catalog(cfg: &TrafficConfig) -> (Vec<Fixture>, ExecConfig) {
    let meshes: Vec<TriMesh> = (0..cfg.catalog)
        .map(|i| {
            generate_mesh(
                MeshClass::LowVariance,
                cfg.mesh_size,
                cfg.seed.wrapping_add(i as u64),
            )
        })
        .collect();
    let h_factor = meshes
        .iter()
        .map(|m| safe_h_factor(m, cfg.degree))
        .fold(1.0, f64::min);
    let exec = ExecConfig {
        h_factor,
        ..ExecConfig::default()
    };
    let fixtures = meshes
        .into_iter()
        .enumerate()
        .map(|(i, mesh)| {
            let shift = 0.1 * i as f64;
            let field = project_l2(
                &mesh,
                cfg.degree,
                move |x, y| {
                    let tau = std::f64::consts::TAU;
                    (tau * (x + shift)).sin() * (tau * y).cos() + 0.5
                },
                2,
            );
            let grid = ComputationGrid::quadrature_points(&mesh, cfg.degree);
            Fixture {
                problem: Arc::new(Problem {
                    mesh: Arc::new(mesh),
                    grid: Arc::new(grid),
                    degree: cfg.degree,
                }),
                field,
            }
        })
        .collect();
    (fixtures, exec)
}

/// Splits `total` requests across `clients`, front-loading the remainder.
fn requests_of(total: usize, clients: usize, client: usize) -> usize {
    total / clients + usize::from(client < total % clients)
}

/// Drives the cached service with zipf traffic and returns its ledger.
pub fn run_cached(cfg: &TrafficConfig) -> TrafficOutcome {
    let tracer = Tracer::new(true);
    let (fixtures, exec) = {
        let _span = tracer.span("serve.catalog");
        build_catalog(cfg)
    };
    let disk = cfg
        .disk_dir
        .as_ref()
        .map(|d| DiskTier::new(d).expect("disk tier directory"));
    let cache = PlanCache::new(CacheConfig {
        byte_budget: cfg.byte_budget,
        disk,
    });
    let server = PlanServer::start(
        cache,
        ServerConfig {
            workers: cfg.workers,
            queue_capacity: cfg.queue_capacity,
            exec,
        },
        cfg.clients,
    );
    let zipf = Zipf::new(fixtures.len(), cfg.zipf_s);
    let started = Instant::now();
    {
        let _span = tracer.span("serve.traffic");
        std::thread::scope(|s| {
            for client in 0..cfg.clients {
                let handle = server.client();
                let zipf = &zipf;
                let fixtures = &fixtures;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(client_seed(cfg.seed, client));
                    for _ in 0..requests_of(cfg.requests, cfg.clients, client) {
                        let fixture = &fixtures[zipf.sample(&mut rng)];
                        let ticket = handle.submit(client, &fixture.problem, fixture.field.clone());
                        let response = ticket.wait();
                        debug_assert_eq!(
                            response.values.len(),
                            fixture.problem.grid.len(),
                            "response rows match the requested grid"
                        );
                    }
                });
            }
        });
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let ledgers = {
        let _span = tracer.span("serve.drain");
        server.shutdown()
    };
    let stats = ServeStats {
        clients: cfg.clients as u64,
        requests: ledgers.tenants.iter().map(|t| t.requests).sum(),
        catalog: fixtures.len() as u64,
        hits: ledgers.cache.hits,
        misses: ledgers.cache.misses,
        compiles: ledgers.cache.compiles,
        single_flight_waits: ledgers.cache.single_flight_waits,
        disk_loads: ledgers.cache.disk_loads,
        patches: ledgers.cache.patches,
        evictions: ledgers.cache.evictions,
        rows: ledgers.rows,
        cache_bytes: ledgers.cache.resident_bytes,
        queue_wait_us: ledgers.queue_wait_us,
        service_us: ledgers.service_us,
        tenants: ledgers.tenants.clone(),
    };
    let record = build_record(
        "serve/cached",
        &fixtures,
        &stats,
        &ledgers.workers,
        wall_ms,
        &tracer,
    );
    TrafficOutcome {
        wall_ms,
        throughput_rps: stats.requests as f64 / (wall_ms / 1e3),
        stats,
        record,
    }
}

/// Drives the identical request stream with no service at all: every
/// request compiles its own plan and applies it once. This is the paper's
/// "recompute the geometry every time" economics, and the baseline the
/// cached throughput is compared against.
pub fn run_naive(cfg: &TrafficConfig) -> TrafficOutcome {
    let tracer = Tracer::new(true);
    let (fixtures, exec) = {
        let _span = tracer.span("serve.catalog");
        build_catalog(cfg)
    };
    let zipf = Zipf::new(fixtures.len(), cfg.zipf_s);
    let ledgers: Mutex<Vec<(TenantLedger, WorkerStat)>> = Mutex::new(Vec::new());
    let started = Instant::now();
    {
        let _span = tracer.span("serve.traffic");
        std::thread::scope(|s| {
            for client in 0..cfg.clients {
                let zipf = &zipf;
                let fixtures = &fixtures;
                let exec = &exec;
                let ledgers = &ledgers;
                s.spawn(move || {
                    let mut ledger = empty_ledger(client);
                    let mut stat = WorkerStat::default();
                    let mut rng = StdRng::seed_from_u64(client_seed(cfg.seed, client));
                    for _ in 0..requests_of(cfg.requests, cfg.clients, client) {
                        let fixture = &fixtures[zipf.sample(&mut rng)];
                        let t0 = Instant::now();
                        let plan = EvalPlan::compile(
                            &fixture.problem.mesh,
                            &fixture.problem.grid,
                            fixture.problem.degree,
                            exec,
                        );
                        let solution = plan.apply(&fixture.field);
                        let us = t0.elapsed().as_micros() as u64;
                        ledger.requests += 1;
                        ledger.misses += 1;
                        ledger.compiles += 1;
                        ledger.rows += solution.values.len() as u64;
                        ledger.queue_wait_us.record(0);
                        ledger.service_us.record(us);
                        stat.busy_ns += t0.elapsed().as_nanos() as u64;
                        stat.rows += solution.values.len() as u64;
                        stat.metrics.merge(&solution.metrics);
                    }
                    ledgers
                        .lock()
                        .expect("ledgers poisoned")
                        .push((ledger, stat));
                });
            }
        });
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut pairs = ledgers.into_inner().expect("ledgers poisoned");
    pairs.sort_by_key(|(l, _)| l.tenant);
    let (tenants, workers): (Vec<TenantLedger>, Vec<WorkerStat>) = pairs.into_iter().unzip();
    let (queue_wait_us, service_us) = merged_latencies(&tenants);
    let requests: u64 = tenants.iter().map(|t| t.requests).sum();
    let stats = ServeStats {
        clients: cfg.clients as u64,
        requests,
        catalog: fixtures.len() as u64,
        hits: 0,
        misses: requests,
        compiles: requests,
        single_flight_waits: 0,
        disk_loads: 0,
        patches: 0,
        evictions: 0,
        rows: workers.iter().map(|w| w.rows).sum(),
        cache_bytes: 0,
        queue_wait_us,
        service_us,
        tenants,
    };
    let record = build_record("serve/naive", &fixtures, &stats, &workers, wall_ms, &tracer);
    TrafficOutcome {
        wall_ms,
        throughput_rps: requests as f64 / (wall_ms / 1e3),
        stats,
        record,
    }
}

/// Assembles the serve-scheme [`RunRecord`]: spans from the run's tracer,
/// one patch per worker (or naive client), and the aggregate stats.
fn build_record(
    label: &str,
    fixtures: &[Fixture],
    stats: &ServeStats,
    workers: &[WorkerStat],
    wall_ms: f64,
    tracer: &Tracer,
) -> RunRecord {
    let mut metrics = Metrics::default();
    for w in workers {
        metrics.merge(&w.metrics);
    }
    RunRecord {
        label: label.to_string(),
        scheme: SCHEME_LABEL.to_string(),
        n_triangles: fixtures
            .iter()
            .map(|f| f.problem.mesh.n_triangles() as u64)
            .sum(),
        n_points: fixtures.iter().map(|f| f.problem.grid.len() as u64).sum(),
        wall_ms,
        metrics,
        spans: tracer.records(),
        patches: workers
            .iter()
            .map(|w| PatchRecord {
                wall_ns: w.busy_ns,
                elements: 0,
                points: w.rows,
                metrics: w.metrics,
            })
            .collect(),
        serve: Some(stats.clone()),
        // No `simd`: serve aggregates many per-plan applies with
        // heterogeneous wall shares, and one ISA record would misattribute.
        ..RunRecord::default()
    }
}

/// One line of the config for log output, e.g.
/// `8 clients x 200 requests over 6 meshes (zipf s=1.1, seed 42)`.
pub fn describe(cfg: &TrafficConfig) -> String {
    format!(
        "{} clients x {} requests over {} meshes (zipf s={}, seed {})",
        cfg.clients, cfg.requests, cfg.catalog, cfg.zipf_s, cfg.seed
    )
}
