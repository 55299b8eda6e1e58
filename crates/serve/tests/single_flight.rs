//! Single-flight stress tests: K concurrent requesters for the same cold
//! key must trigger exactly one compile, and every requester's result must
//! be bitwise identical to a fresh compile. Also the byte budget's LRU
//! eviction and the server queue's backpressure.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use ustencil_core::{ComputationGrid, ExecConfig};
use ustencil_dg::project_l2;
use ustencil_mesh::{generate_mesh, MeshClass, TriMesh};
use ustencil_plan::{EvalPlan, PlanKey};
use ustencil_serve::{Outcome, PlanCache, PlanServer, Problem, ServerConfig};

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
    let cache = PlanCache::new(0);
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
    let cache = PlanCache::new(0);
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
        PlanCache::new(0),
        ServerConfig {
            workers: 2,
            exec: options,
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

    // However the requests interleaved, every answer is bitwise the fresh
    // compile-and-apply result.
    let fresh = EvalPlan::compile(&problem.mesh, &problem.grid, 1, &options).apply(&field);
    for r in &responses {
        assert_eq!(r.values.len(), fresh.values.len());
        assert!(
            r.values
                .iter()
                .zip(&fresh.values)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "served answer differs from fresh apply"
        );
    }
    // One key, so one compile; one lookup per request, each counted once.
    let cache = ledgers.cache;
    assert_eq!(cache.compiles, 1);
    assert_eq!(
        cache.hits + cache.misses + cache.single_flight_waits,
        K as u64,
        "{cache:?}"
    );
    assert_eq!(ledgers.rows, (K * fresh.values.len()) as u64);
    let requests: u64 = ledgers.tenants.iter().map(|t| t.requests).sum();
    assert_eq!(requests, K as u64);
    let compiles: u64 = ledgers.tenants.iter().map(|t| t.compiles).sum();
    assert_eq!(compiles, 1, "exactly one tenant paid the compile");
    // Latency histograms saw every request.
    assert_eq!(ledgers.service_us.count(), K as u64);
    assert_eq!(ledgers.queue_wait_us.count(), K as u64);
}

/// A leader whose compile panics must not wedge the key: its followers
/// wake, one of them leads with its own closure, and the cache's counters
/// read as if the abandoned leader had never looked.
#[test]
fn panicking_leader_releases_its_followers() {
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    const FOLLOWERS: usize = 4;
    let limit = Duration::from_secs(60);
    let (mesh, grid, options) = fixture(31);
    let key = PlanKey::new(&mesh, &grid, 1, &options);
    let fix = Arc::new((mesh, grid, options));
    let cache = Arc::new(PlanCache::new(0));

    // The leader announces it is inside its compile, holds the flight open
    // until every follower has blocked on it, then panics.
    let (leading_tx, leading_rx) = mpsc::channel();
    let leader = {
        let cache = cache.clone();
        std::thread::spawn(move || {
            cache.get_or_compile(key, || {
                leading_tx.send(()).unwrap();
                let deadline = Instant::now() + limit;
                while cache.snapshot().single_flight_waits < FOLLOWERS as u64 {
                    assert!(Instant::now() < deadline, "followers never arrived");
                    std::thread::yield_now();
                }
                panic!("compile failed (expected by this test)");
            })
        })
    };
    leading_rx.recv_timeout(limit).expect("leader never led");

    let compiles = Arc::new(AtomicUsize::new(0));
    let (done_tx, done_rx) = mpsc::channel();
    for _ in 0..FOLLOWERS {
        let (cache, fix, compiles, done_tx) = (
            cache.clone(),
            fix.clone(),
            compiles.clone(),
            done_tx.clone(),
        );
        std::thread::spawn(move || {
            let result = cache.get_or_compile(key, || {
                compiles.fetch_add(1, Ordering::SeqCst);
                EvalPlan::compile(&fix.0, &fix.1, 1, &fix.2)
            });
            done_tx.send(result).unwrap();
        });
    }
    assert!(leader.join().is_err(), "the leader's compile panics");

    // Every follower returns (a wedged one trips the timeout, not a hang).
    let results: Vec<(Arc<EvalPlan>, Outcome)> = (0..FOLLOWERS)
        .map(|_| done_rx.recv_timeout(limit).expect("a follower is wedged"))
        .collect();
    assert_eq!(compiles.load(Ordering::SeqCst), 1, "one follower re-led");
    let led = results.iter().filter(|(_, o)| *o == Outcome::Compiled);
    assert_eq!(led.count(), 1);
    let fresh = EvalPlan::compile(&fix.0, &fix.1, 1, &fix.2);
    for (plan, _) in &results {
        bitwise_equal(plan, &fresh);
    }
    // The key is healthy afterwards, and the abandoned leader's miss is not
    // on the books: misses == compiles + patches.
    let (_, outcome) = cache.get_or_compile(key, || unreachable!("resident by now"));
    assert_eq!(outcome, Outcome::Hit);
    let snap = cache.snapshot();
    assert_eq!((snap.misses, snap.compiles), (1, 1), "{snap:?}");
    assert_eq!(snap.patches, 0);
}

/// The budget bounds the whole cache: six plans through room for two and a
/// half leave the last two requested resident and within budget, and an
/// evicted plan comes back by recompiling.
#[test]
fn byte_budget_bounds_the_whole_cache() {
    let fixtures: Vec<_> = (60..66u64)
        .map(|seed| {
            let mesh = generate_mesh(MeshClass::LowVariance, 120, seed);
            let grid = ComputationGrid::quadrature_points(&mesh, 1);
            let options = fixture(seed).2;
            let key = PlanKey::new(&mesh, &grid, 1, &options);
            (key, EvalPlan::compile(&mesh, &grid, 1, &options))
        })
        .collect();
    let sizes: Vec<u64> = fixtures.iter().map(|(_, p)| p.bytes() as u64).collect();
    let byte_budget = 5 * sizes.iter().max().unwrap() / 2;
    assert!(
        3 * sizes.iter().min().unwrap() > byte_budget,
        "no three of these plans fit the budget: {sizes:?}"
    );
    let cache = PlanCache::new(byte_budget);
    for (key, plan) in &fixtures {
        let (_, outcome) = cache.get_or_compile(*key, || plan.clone());
        assert_eq!(outcome, Outcome::Compiled);
    }

    let snap = cache.snapshot();
    assert_eq!((cache.len(), snap.evictions), (2, 4), "{snap:?}");
    assert!(snap.resident_bytes <= byte_budget, "{snap:?}");
    assert_eq!(snap.resident_bytes, sizes[4] + sizes[5]);
    for (key, _) in &fixtures[4..] {
        let (_, outcome) = cache.get_or_compile(*key, || unreachable!("resident"));
        assert_eq!(outcome, Outcome::Hit);
    }
    // The oldest plan was evicted, so asking for it again compiles it.
    let (key, plan) = &fixtures[0];
    let compiled = AtomicUsize::new(0);
    let (_, outcome) = cache.get_or_compile(*key, || {
        compiled.fetch_add(1, Ordering::SeqCst);
        plan.clone()
    });
    assert_eq!((outcome, compiled.into_inner()), (Outcome::Compiled, 1));
    let snap = cache.snapshot();
    assert!(snap.resident_bytes <= byte_budget, "{snap:?}");
}

/// A burst larger than the queue blocks its submitter instead of growing
/// the queue, and every request is still answered exactly right.
#[test]
fn burst_beyond_the_queue_blocks_the_submitter() {
    // The server's queue holds 64 requests. While the first request's
    // compile runs, the two workers hold at most two requests, so the 67th
    // submit must block. On a 2-core x86-64 host under the test profile the
    // compile of this mesh takes 0.26-0.31 s and the first 66 submits take
    // 15-20 ms (each hashes the mesh into its key): a 13-fold margin.
    const WORKERS: usize = 2;
    const REQUESTS: usize = 64 + WORKERS + 16;
    let mesh = generate_mesh(MeshClass::LowVariance, 1200, 71);
    let grid = ComputationGrid::quadrature_points(&mesh, 1);
    let options = fixture(71).2;
    let field = project_l2(&mesh, 1, |x, y| x - y * y + 0.5, 2);
    let problem = Arc::new(Problem {
        mesh: Arc::new(mesh),
        grid: Arc::new(grid),
        degree: 1,
    });

    let server = PlanServer::start(
        PlanCache::new(0),
        ServerConfig {
            workers: WORKERS,
            exec: options,
        },
        1,
    );
    let client = server.client();
    let tickets: Vec<_> = (0..REQUESTS)
        .map(|_| client.submit(0, &problem, field.clone()))
        .collect();
    let responses: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
    let ledgers = server.shutdown();

    assert!(
        ledgers.blocked_submits >= 1,
        "the burst never filled the queue"
    );
    let fresh = EvalPlan::compile(&problem.mesh, &problem.grid, 1, &options).apply(&field);
    for r in &responses {
        assert!(
            r.values
                .iter()
                .map(|v| v.to_bits())
                .eq(fresh.values.iter().map(|v| v.to_bits())),
            "served answer differs from fresh apply"
        );
    }
    let cache = ledgers.cache;
    assert_eq!(
        cache.hits + cache.misses + cache.single_flight_waits,
        REQUESTS as u64,
        "{cache:?}"
    );
    assert_eq!(cache.compiles, 1);
}
