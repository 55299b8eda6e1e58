//! Deterministic synthetic traffic: N client threads replaying a seeded
//! zipf-distributed request stream over a fixture catalog, against either
//! the plan cache or a naive per-request compile baseline.
//!
//! Each client answers its own requests on its own thread: one
//! [`PlanCache::get`] lookup and one apply (cached), or one
//! compile and one apply (naive), so both modes are measured the same way.
//! One lookup per request is what makes the ledger conserve:
//! `hits + misses + single_flight_waits == requests`.
//!
//! Determinism is end to end: the catalog meshes are seeded, each client's
//! RNG is derived from `(seed, client)` with SplitMix64, and the zipf
//! sampler uses platform-independent transcendental kernels (see the
//! `rand` shim), so a `(config, seed)` pair replays the same request
//! sequence everywhere. What *is* timing-dependent — which lookups ride
//! single-flight — changes only service latency, never any returned value:
//! every request for a key gets the same shared plan.

use crate::cache::{CacheSnapshot, Outcome, PlanCache};
use rand::distributions::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use ustencil_core::report::PatchRecord;
use ustencil_core::{ComputationGrid, ExecConfig, Metrics, RunRecord, ServeStats, TenantLedger};
use ustencil_dg::{project_l2, DgField};
use ustencil_mesh::{generate_mesh, MeshClass, TriMesh};
use ustencil_plan::{EvalPlan, PlanKey, PlanSolution};
use ustencil_trace::{Hist64, Tracer};

/// Scheme label serve runs carry in `RunRecord` JSON.
pub const SCHEME_LABEL: &str = "serve";

/// Distinct meshes in the fixture catalog.
const CATALOG: usize = 6;
/// Target triangles per catalog mesh.
const TRIANGLES: usize = 600;
/// Field polynomial degree.
const DEGREE: usize = 1;
/// Zipf popularity exponent over the catalog.
const ZIPF_S: f64 = 1.1;

/// Configuration of a synthetic traffic run.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Client threads (default 8).
    pub clients: usize,
    /// Total requests across all clients (default 200).
    pub requests: usize,
    /// Master seed: catalog meshes, client RNGs, zipf draws.
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        Self {
            clients: 8,
            requests: 200,
            seed: 42,
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

/// One catalog entry: a mesh, its grid, the key of their plan and the
/// field tenants evaluate on it.
struct Fixture {
    mesh: TriMesh,
    grid: ComputationGrid,
    key: PlanKey,
    field: DgField,
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

/// Builds the seeded fixture catalog: [`CATALOG`] meshes of [`TRIANGLES`]
/// triangles, one degree-[`DEGREE`] field each. The compile width factor is
/// the tightest safe factor across the catalog, so every fixture shares
/// one `ExecConfig` (and plans differ only by content, never kernel).
fn build_catalog(cfg: &TrafficConfig) -> (Vec<Fixture>, ExecConfig) {
    let meshes: Vec<TriMesh> = (0..CATALOG)
        .map(|i| {
            generate_mesh(
                MeshClass::LowVariance,
                TRIANGLES,
                cfg.seed.wrapping_add(i as u64),
            )
        })
        .collect();
    let h_factor = meshes
        .iter()
        .map(|m| safe_h_factor(m, DEGREE))
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
                DEGREE,
                move |x, y| {
                    let tau = std::f64::consts::TAU;
                    (tau * (x + shift)).sin() * (tau * y).cos() + 0.5
                },
                2,
            );
            let grid = ComputationGrid::quadrature_points(&mesh, DEGREE);
            Fixture {
                key: PlanKey::new(&mesh, &grid, DEGREE, &exec),
                mesh,
                grid,
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

/// Drives the plan cache with zipf traffic: each request is one
/// [`PlanCache::get`] lookup and one apply.
pub fn run_cached(cfg: &TrafficConfig) -> TrafficOutcome {
    let cache = PlanCache::new();
    drive(cfg, "serve/cached", Some(&cache), |f, exec| {
        let (plan, outcome) =
            cache.get(f.key, || EvalPlan::compile(&f.mesh, &f.grid, DEGREE, exec));
        (plan.apply_with(&f.field, exec), outcome)
    })
}

/// Drives the identical request stream with no cache at all: every
/// request compiles its own plan and applies it once. This is the paper's
/// "recompute the geometry every time" economics, and the baseline the
/// cached throughput is compared against.
pub fn run_naive(cfg: &TrafficConfig) -> TrafficOutcome {
    drive(cfg, "serve/naive", None, |f, exec| {
        let plan = EvalPlan::compile(&f.mesh, &f.grid, DEGREE, exec);
        (plan.apply_with(&f.field, exec), Outcome::Compiled)
    })
}

/// Runs `cfg.clients` client threads over the seeded request stream; each
/// client answers its own requests with `serve` and times them into its
/// ledger. The cache counters come from `cache`, or, with none, from the
/// requests themselves: every one a compiled miss.
fn drive(
    cfg: &TrafficConfig,
    label: &str,
    cache: Option<&PlanCache>,
    serve: impl Fn(&Fixture, &ExecConfig) -> (PlanSolution, Outcome) + Sync,
) -> TrafficOutcome {
    let tracer = Tracer::new(true);
    let (fixtures, exec) = {
        let _span = tracer.span("serve.catalog");
        build_catalog(cfg)
    };
    let zipf = Zipf::new(fixtures.len(), ZIPF_S);
    let started = Instant::now();
    let clients: Vec<(TenantLedger, PatchRecord)> = {
        let _span = tracer.span("serve.traffic");
        let (fixtures, zipf, exec, serve) = (&fixtures, &zipf, &exec, &serve);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..cfg.clients)
                .map(|c| s.spawn(move || client_loop(cfg, c, fixtures, zipf, exec, serve)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client panicked"))
                .collect()
        })
    };
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let (tenants, patches): (Vec<TenantLedger>, Vec<PatchRecord>) = clients.into_iter().unzip();
    let requests: u64 = tenants.iter().map(|t| t.requests).sum();
    let counters = cache.map_or(
        CacheSnapshot {
            misses: requests,
            compiles: requests,
            ..CacheSnapshot::default()
        },
        PlanCache::snapshot,
    );
    let mut service_us = Hist64::new();
    let mut metrics = Metrics::default();
    for (t, p) in tenants.iter().zip(&patches) {
        service_us.merge(&t.service_us);
        metrics.merge(&p.metrics);
    }
    let stats = ServeStats {
        clients: cfg.clients as u64,
        requests,
        catalog: fixtures.len() as u64,
        hits: counters.hits,
        misses: counters.misses,
        compiles: counters.compiles,
        single_flight_waits: counters.single_flight_waits,
        rows: tenants.iter().map(|t| t.rows).sum(),
        cache_bytes: counters.resident_bytes,
        service_us,
        tenants,
    };
    let record = RunRecord {
        label: label.to_string(),
        scheme: SCHEME_LABEL.to_string(),
        n_triangles: fixtures.iter().map(|f| f.mesh.n_triangles() as u64).sum(),
        n_points: fixtures.iter().map(|f| f.grid.len() as u64).sum(),
        wall_ms,
        metrics,
        spans: tracer.records(),
        patches,
        serve: Some(stats.clone()),
        // No `simd`: serve aggregates many per-plan applies with
        // heterogeneous wall shares, and one ISA record would misattribute.
        ..RunRecord::default()
    };
    TrafficOutcome {
        wall_ms,
        throughput_rps: requests as f64 / (wall_ms / 1e3),
        stats,
        record,
    }
}

/// One client's closed loop over its share of the request stream: each
/// request is answered by `serve`, then entered in the client's ledger and
/// in its patch (service time, rows and apply metrics).
fn client_loop(
    cfg: &TrafficConfig,
    client: usize,
    fixtures: &[Fixture],
    zipf: &Zipf,
    exec: &ExecConfig,
    serve: &impl Fn(&Fixture, &ExecConfig) -> (PlanSolution, Outcome),
) -> (TenantLedger, PatchRecord) {
    let mut ledger = TenantLedger {
        tenant: client as u64,
        requests: 0,
        hits: 0,
        misses: 0,
        compiles: 0,
        rows: 0,
        service_us: Hist64::new(),
    };
    let (mut busy_ns, mut metrics) = (0, Metrics::default());
    let mut rng = StdRng::seed_from_u64(client_seed(cfg.seed, client));
    for _ in 0..requests_of(cfg.requests, cfg.clients, client) {
        let fixture = &fixtures[zipf.sample(&mut rng)];
        let t0 = Instant::now();
        let (solution, outcome) = serve(fixture, exec);
        let elapsed = t0.elapsed();
        ledger.requests += 1;
        ledger.rows += solution.values.len() as u64;
        match outcome {
            Outcome::Compiled => {
                ledger.misses += 1;
                ledger.compiles += 1;
            }
            // A single-flight ride answers from a plan the tenant did not
            // compile, so the tenant books it as a hit.
            Outcome::Hit | Outcome::Waited => ledger.hits += 1,
        }
        ledger.service_us.record(elapsed.as_micros() as u64);
        busy_ns += elapsed.as_nanos() as u64;
        metrics.merge(&solution.metrics);
    }
    let patch = PatchRecord {
        wall_ns: busy_ns,
        elements: 0,
        points: ledger.rows,
        metrics,
    };
    (ledger, patch)
}

/// One line of the config for log output, e.g.
/// `8 clients x 200 requests over 6 meshes (zipf s=1.1, seed 42)`.
pub fn describe(cfg: &TrafficConfig) -> String {
    format!(
        "{} clients x {} requests over {} meshes (zipf s={}, seed {})",
        cfg.clients, cfg.requests, CATALOG, ZIPF_S, cfg.seed
    )
}
