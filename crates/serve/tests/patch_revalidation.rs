//! Delta-revalidation tests: a mesh-edit miss must be served by patching
//! the resident sibling plan ([`Outcome::Patched`]) instead of a full
//! compile, followers must share the patched `Arc`, and the patched plan's
//! answers must agree with a fresh compile.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use ustencil_core::{ComputationGrid, ExecConfig, SimdIsa, SimdPolicy};
use ustencil_dg::project_l2;
use ustencil_mesh::{displace_band, generate_mesh, MeshClass, TriMesh};
use ustencil_plan::{EvalPlan, PlanKey};
use ustencil_serve::{Outcome, PlanCache, PlanServer, Problem, ServerConfig};

fn fixture(seed: u64) -> (TriMesh, ComputationGrid, ExecConfig) {
    let mesh = generate_mesh(MeshClass::LowVariance, 200, seed);
    let grid = ComputationGrid::quadrature_points(&mesh, 1);
    let options = ExecConfig {
        h_factor: 0.5,
        parallel: false,
        ..ExecConfig::default()
    };
    (mesh, grid, options)
}

/// Displaced revision of a fixture mesh: same kernel (`max_edge` bits are
/// preserved by `displace_band`), different content hashes.
fn edited(mesh: &TriMesh) -> (Arc<TriMesh>, Arc<ComputationGrid>) {
    let moved = displace_band(mesh, 0.3, 0.7, 0.2, 17);
    assert_eq!(
        moved.max_edge_length().to_bits(),
        mesh.max_edge_length().to_bits(),
        "edit must preserve h for the patch path to engage"
    );
    let grid = ComputationGrid::quadrature_points(&moved, 1);
    (Arc::new(moved), Arc::new(grid))
}

#[test]
fn edited_mesh_miss_patches_the_resident_sibling() {
    let (mesh, grid, options) = fixture(31);
    let mesh = Arc::new(mesh);
    let grid = Arc::new(grid);
    let cache = PlanCache::new(0);

    // Warm the cache with the base problem.
    let base_key = PlanKey::new(&mesh, &grid, 1, &options);
    let (_, outcome) = cache.get_or_patch(base_key, &mesh, &grid, &options, || {
        EvalPlan::compile(&mesh, &grid, 1, &options)
    });
    assert_eq!(outcome, Outcome::Compiled);

    // The edited mesh is a different key — but it must be produced by
    // patching, not by the compile closure.
    let (moved, moved_grid) = edited(&mesh);
    let edit_key = PlanKey::new(&moved, &moved_grid, 1, &options);
    assert_ne!(edit_key, base_key);
    let (plan, outcome) = cache.get_or_patch(edit_key, &moved, &moved_grid, &options, || {
        panic!("sibling patch must preempt the compile")
    });
    assert_eq!(outcome, Outcome::Patched);

    // The patched plan is bitwise the fresh compile for the edited mesh.
    let fresh = EvalPlan::compile(&moved, &moved_grid, 1, &options);
    assert_eq!(plan.rows(), fresh.rows());
    assert_eq!(plan.cols(), fresh.cols());
    assert!(plan.weights_bits().eq(fresh.weights_bits()));

    let snap = cache.snapshot();
    assert_eq!(snap.misses, 2);
    assert_eq!(snap.compiles, 1);
    assert_eq!(snap.patches, 1);
    // The leader-outcome invariant checkjson asserts on serve reports.
    assert_eq!(snap.misses, snap.compiles + snap.patches);

    // Re-requesting the edited key is now a plain hit.
    let (again, outcome) = cache.get_or_patch(edit_key, &moved, &moved_grid, &options, || {
        panic!("resident entry must hit")
    });
    assert_eq!(outcome, Outcome::Hit);
    assert!(Arc::ptr_eq(&plan, &again));

    // And the patched entry retained its origin: a *second* edit patches
    // against it rather than recompiling.
    let twice = displace_band(&moved, 0.3, 0.7, 0.2, 23);
    let twice_grid = Arc::new(ComputationGrid::quadrature_points(&twice, 1));
    let twice = Arc::new(twice);
    let key2 = PlanKey::new(&twice, &twice_grid, 1, &options);
    let (_, outcome) = cache.get_or_patch(key2, &twice, &twice_grid, &options, || {
        panic!("chained edit must patch")
    });
    assert_eq!(outcome, Outcome::Patched);
}

#[test]
fn kernel_changing_edit_falls_back_to_compile() {
    let (mesh, grid, options) = fixture(37);
    let mesh = Arc::new(mesh);
    let grid = Arc::new(grid);
    let cache = PlanCache::new(0);
    let base_key = PlanKey::new(&mesh, &grid, 1, &options);
    let _ = cache.get_or_patch(base_key, &mesh, &grid, &options, || {
        EvalPlan::compile(&mesh, &grid, 1, &options)
    });

    // A *different seed* mesh shares no geometry: the diff marks everything
    // dirty and — its max edge differing — the patch is rejected, so the
    // leader compiles. Served correctly either way, counted as a compile.
    let other = Arc::new(generate_mesh(MeshClass::LowVariance, 200, 99));
    let other_grid = Arc::new(ComputationGrid::quadrature_points(&other, 1));
    let compiled = AtomicUsize::new(0);
    let key = PlanKey::new(&other, &other_grid, 1, &options);
    let (plan, outcome) = cache.get_or_patch(key, &other, &other_grid, &options, || {
        compiled.fetch_add(1, Ordering::SeqCst);
        EvalPlan::compile(&other, &other_grid, 1, &options)
    });
    // Whether the patch was rejected (h changed) or applied (h happened to
    // match), the answer must equal the fresh compile.
    let fresh = EvalPlan::compile(&other, &other_grid, 1, &options);
    assert!(plan.weights_bits().eq(fresh.weights_bits()));
    if compiled.load(Ordering::SeqCst) == 1 {
        assert_eq!(outcome, Outcome::Compiled);
    } else {
        assert_eq!(outcome, Outcome::Patched);
    }

    // Another degree on the same mesh is another kernel: never a patch.
    let grid2 = Arc::new(ComputationGrid::quadrature_points(&mesh, 2));
    let key2 = PlanKey::new(&mesh, &grid2, 2, &options);
    let (plan2, outcome) = cache.get_or_patch(key2, &mesh, &grid2, &options, || {
        EvalPlan::compile(&mesh, &grid2, 2, &options)
    });
    assert_eq!((outcome, plan2.degree()), (Outcome::Compiled, 2));

    // Nor is a plan compiled under another SIMD ISA a sibling: its kept
    // rows would carry that ISA's FMA rounding into the splice.
    let Some(policy) = SimdPolicy::ALL
        .into_iter()
        .find(|p| p.resolve() != SimdIsa::Scalar)
    else {
        eprintln!("skipped scalar-sibling: this host resolves every policy to scalar");
        return;
    };
    let scalar = ExecConfig {
        simd: SimdPolicy::Scalar,
        ..options
    };
    let vector = ExecConfig {
        simd: policy,
        ..options
    };
    let cache = PlanCache::new(0);
    let scalar_key = PlanKey::new(&mesh, &grid, 1, &scalar);
    let _ = cache.get_or_patch(scalar_key, &mesh, &grid, &scalar, || {
        EvalPlan::compile(&mesh, &grid, 1, &scalar)
    });
    let (moved, moved_grid) = edited(&mesh);
    let key = PlanKey::new(&moved, &moved_grid, 1, &vector);
    let (plan, outcome) = cache.get_or_patch(key, &moved, &moved_grid, &vector, || {
        EvalPlan::compile(&moved, &moved_grid, 1, &vector)
    });
    assert_eq!(outcome, Outcome::Compiled, "{policy:?} beside scalar");
    let fresh = EvalPlan::compile(&moved, &moved_grid, 1, &vector);
    assert!(plan.weights_bits().eq(fresh.weights_bits()));
}

#[test]
fn concurrent_edit_requesters_share_one_patch() {
    let (mesh, grid, options) = fixture(41);
    let mesh = Arc::new(mesh);
    let grid = Arc::new(grid);
    let cache = PlanCache::new(0);
    let base_key = PlanKey::new(&mesh, &grid, 1, &options);
    let _ = cache.get_or_patch(base_key, &mesh, &grid, &options, || {
        EvalPlan::compile(&mesh, &grid, 1, &options)
    });

    let (moved, moved_grid) = edited(&mesh);
    let edit_key = PlanKey::new(&moved, &moved_grid, 1, &options);
    const K: usize = 12;
    let results: Vec<(Arc<EvalPlan>, Outcome)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..K)
            .map(|_| {
                let (cache, moved, moved_grid, options) = (&cache, &moved, &moved_grid, &options);
                s.spawn(move || {
                    cache.get_or_patch(edit_key, moved, moved_grid, options, || {
                        panic!("patch leader must preempt every compile")
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Exactly one leader patched; everyone shares its Arc.
    let patched = results
        .iter()
        .filter(|(_, o)| *o == Outcome::Patched)
        .count();
    assert_eq!(patched, 1, "exactly one patch leader");
    assert!(results
        .iter()
        .all(|(_, o)| matches!(o, Outcome::Patched | Outcome::Waited | Outcome::Hit)));
    for (plan, _) in &results {
        assert!(Arc::ptr_eq(plan, &results[0].0));
    }
    assert_eq!(cache.snapshot().patches, 1);
}

#[test]
fn server_answers_after_mesh_edit_match_fresh_compile() {
    let (mesh, grid, options) = fixture(43);
    let base = Arc::new(Problem {
        mesh: Arc::new(mesh),
        grid: Arc::new(grid),
        degree: 1,
    });
    let (moved, moved_grid) = edited(&base.mesh);
    let edit = Arc::new(Problem {
        mesh: moved,
        grid: moved_grid,
        degree: 1,
    });
    let base_field = project_l2(&base.mesh, 1, |x, y| x * y + 0.25, 2);
    let edit_field = project_l2(&edit.mesh, 1, |x, y| x * y + 0.25, 2);

    let server = PlanServer::start(
        PlanCache::new(0),
        ServerConfig {
            workers: 2,
            exec: options,
        },
        2,
    );
    let client = server.client();
    // Warm with the base problem, then hit the edited revision.
    client.submit(0, &base, base_field).wait();
    let response = client.submit(1, &edit, edit_field.clone()).wait();
    let ledgers = server.shutdown();

    let fresh = EvalPlan::compile(&edit.mesh, &edit.grid, 1, &options).apply(&edit_field);
    assert!(response
        .values
        .iter()
        .zip(&fresh.values)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
    assert_eq!(response.outcome, Outcome::Patched);
    assert_eq!(
        ledgers.cache.compiles, 1,
        "edit revalidated, not recompiled"
    );
    assert_eq!(ledgers.cache.patches, 1);
    // Tenant accounting: the patch is a hit (the tenant did not pay a
    // compile), and the cache-level invariant holds.
    assert_eq!(ledgers.tenants[1].hits, 1);
    assert_eq!(
        ledgers.cache.misses,
        ledgers.cache.compiles + ledgers.cache.patches
    );
}
