//! Single-flight stress tests: K concurrent requesters for the same cold
//! key must trigger exactly one compile, and every requester's result must
//! be bitwise identical to a fresh compile. Also a leader whose compile
//! panics.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use ustencil_core::{ComputationGrid, ExecConfig};
use ustencil_mesh::{generate_mesh, MeshClass, TriMesh};
use ustencil_plan::{EvalPlan, PlanKey};
use ustencil_serve::{Outcome, PlanCache};

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
    assert!(a.cols().eq(b.cols()));
    assert!(a.weights_bits().eq(b.weights_bits()), "weights differ");
}

#[test]
fn k_requesters_one_compile_bitwise_identical() {
    let (mesh, grid, options) = fixture(11);
    let key = PlanKey::new(&mesh, &grid, 1, &options);
    let cache = PlanCache::new();
    let probes = AtomicUsize::new(0);

    const K: usize = 16;
    let results: Vec<(Arc<EvalPlan>, Outcome)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..K)
            .map(|_| {
                s.spawn(|| {
                    cache.get(key, || {
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
    let cache = PlanCache::new();
    let probes: Vec<AtomicUsize> = (0..MESHES).map(|_| AtomicUsize::new(0)).collect();

    std::thread::scope(|s| {
        for worker in 0..MESHES * PER_KEY {
            let i = worker % MESHES;
            let (mesh, grid, options) = &fixtures[i];
            let key = keys[i];
            let probe = &probes[i];
            let cache = &cache;
            s.spawn(move || {
                let (plan, _) = cache.get(key, || {
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
    // Every plan stays resident, and the resident size is theirs.
    let resident: u64 = keys
        .iter()
        .map(|&key| cache.get(key, || unreachable!("resident")).0.bytes() as u64)
        .sum();
    assert_eq!(cache.snapshot().resident_bytes, resident);
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
    let cache = Arc::new(PlanCache::new());

    // The leader announces it is inside its compile, holds the flight open
    // until every follower has blocked on it, then panics.
    let (leading_tx, leading_rx) = mpsc::channel();
    let leader = {
        let cache = cache.clone();
        std::thread::spawn(move || {
            cache.get(key, || {
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
            let result = cache.get(key, || {
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
    // on the books: misses == compiles.
    let (_, outcome) = cache.get(key, || unreachable!("resident by now"));
    assert_eq!(outcome, Outcome::Hit);
    let snap = cache.snapshot();
    assert_eq!((snap.misses, snap.compiles), (1, 1), "{snap:?}");
}
