//! Single-flight stress tests: K concurrent requesters for the same cold
//! key must trigger exactly one compile, and every requester's result must
//! be bitwise identical to a fresh compile.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use ustencil_core::{ComputationGrid, ExecConfig};
use ustencil_dg::project_l2;
use ustencil_mesh::{generate_mesh, MeshClass, TriMesh};
use ustencil_plan::{EvalPlan, PlanKey};
use ustencil_serve::{CacheConfig, Outcome, PlanCache, PlanServer, Problem, ServerConfig};

fn fixture(seed: u64) -> (TriMesh, ComputationGrid, ExecConfig) {
    let mesh = generate_mesh(MeshClass::LowVariance, 150, seed);
    let grid = ComputationGrid::quadrature_points(&mesh, 1);
    let options = ExecConfig {
        h_factor: 0.5,
        parallel: false,
        ..ExecConfig::default()
    };
    (mesh, grid, options)
}

/// Two plans are the same operator if every CSR array matches bit for bit.
fn bitwise_equal(a: &EvalPlan, b: &EvalPlan) {
    assert_eq!(a.rows(), b.rows());
    assert_eq!(a.cols(), b.cols());
    assert!(a.weights_bits().eq(b.weights_bits()), "weights differ");
}

#[test]
fn k_requesters_one_compile_bitwise_identical() {
    let (mesh, grid, options) = fixture(11);
    let key = PlanKey::new(&mesh, &grid, 1, &options);
    let cache = PlanCache::new(CacheConfig::default());
    let probes = AtomicUsize::new(0);

    const K: usize = 16;
    let results: Vec<(Arc<EvalPlan>, Outcome)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..K)
            .map(|_| {
                s.spawn(|| {
                    cache.get_or_compile(key, || {
                        probes.fetch_add(1, Ordering::SeqCst);
                        EvalPlan::compile(&mesh, &grid, 1, &options)
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Exactly one compile ran, no matter how the K threads interleaved.
    assert_eq!(probes.load(Ordering::SeqCst), 1, "duplicated compile");
    let compiled = results
        .iter()
        .filter(|(_, o)| *o == Outcome::Compiled)
        .count();
    assert_eq!(compiled, 1, "exactly one leader");
    // Everyone else either waited on the flight or hit the finished entry.
    assert!(results
        .iter()
        .all(|(_, o)| matches!(o, Outcome::Compiled | Outcome::Waited | Outcome::Hit)));
    // All K received literally the same plan...
    for (plan, _) in &results {
        assert!(Arc::ptr_eq(plan, &results[0].0));
    }
    // ...and that plan is bitwise identical to an independent fresh compile.
    let fresh = EvalPlan::compile(&mesh, &grid, 1, &options);
    bitwise_equal(&results[0].0, &fresh);

    let snap = cache.snapshot();
    assert_eq!(snap.misses, 1);
    assert_eq!(snap.compiles, 1);
    assert_eq!(
        snap.hits + snap.single_flight_waits,
        (K - 1) as u64,
        "followers are waits or hits: {snap:?}"
    );
}

#[test]
fn concurrent_distinct_keys_compile_once_each() {
    const MESHES: usize = 4;
    const PER_KEY: usize = 6;
    let fixtures: Vec<_> = (0..MESHES as u64).map(fixture).collect();
    let keys: Vec<PlanKey> = fixtures
        .iter()
        .map(|(m, g, o)| PlanKey::new(m, g, 1, o))
        .collect();
    let cache = PlanCache::new(CacheConfig::default());
    let probes: Vec<AtomicUsize> = (0..MESHES).map(|_| AtomicUsize::new(0)).collect();

    std::thread::scope(|s| {
        for worker in 0..MESHES * PER_KEY {
            let i = worker % MESHES;
            let (mesh, grid, options) = &fixtures[i];
            let key = keys[i];
            let probe = &probes[i];
            let cache = &cache;
            s.spawn(move || {
                let (plan, _) = cache.get_or_compile(key, || {
                    probe.fetch_add(1, Ordering::SeqCst);
                    EvalPlan::compile(mesh, grid, 1, options)
                });
                assert_eq!(plan.rows(), grid.len());
            });
        }
    });

    for (i, probe) in probes.iter().enumerate() {
        assert_eq!(probe.load(Ordering::SeqCst), 1, "key {i} compiled twice");
    }
    let snap = cache.snapshot();
    assert_eq!(snap.compiles, MESHES as u64);
    assert_eq!(snap.misses, MESHES as u64);
    assert_eq!(cache.len(), MESHES);
}

#[test]
fn server_coalesced_answers_match_fresh_compile_apply() {
    let (mesh, grid, options) = fixture(23);
    let field = project_l2(&mesh, 1, |x, y| x * y + 0.25, 2);
    let problem = Arc::new(Problem {
        mesh: Arc::new(mesh),
        grid: Arc::new(grid),
        degree: 1,
    });

    let server = PlanServer::start(
        PlanCache::new(CacheConfig::default()),
        ServerConfig {
            workers: 2,
            exec: options,
            ..ServerConfig::default()
        },
        4,
    );
    const K: usize = 12;
    let responses: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..K)
            .map(|i| {
                let client = server.client();
                let problem = &problem;
                let field = field.clone();
                s.spawn(move || client.submit(i % 4, problem, field).wait())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let ledgers = server.shutdown();

    // However the requests batched, every answer is bitwise the fresh
    // compile-and-apply result.
    let fresh = EvalPlan::compile(&problem.mesh, &problem.grid, 1, &options).apply(&field);
    for r in &responses {
        assert_eq!(r.values.len(), fresh.values.len());
        assert!(
            r.values
                .iter()
                .zip(&fresh.values)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "batched answer differs from fresh apply"
        );
        assert!(r.batch_size >= 1);
    }
    // One key, so one compile however many batches ran.
    assert_eq!(ledgers.cache.compiles, 1);
    assert_eq!(ledgers.batched_rows, (K * fresh.values.len()) as u64);
    let requests: u64 = ledgers.tenants.iter().map(|t| t.requests).sum();
    assert_eq!(requests, K as u64);
    let compiles: u64 = ledgers.tenants.iter().map(|t| t.compiles).sum();
    assert_eq!(compiles, 1, "exactly one tenant paid the compile");
    // Latency histograms saw every request.
    assert_eq!(ledgers.service_us.count(), K as u64);
    assert_eq!(ledgers.queue_wait_us.count(), K as u64);
}
