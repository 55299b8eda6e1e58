//! Disk-tier round-trip tests: evict → spill → reload → apply must be
//! bitwise identical, and corrupt files, old-version (`ustencil-plan/v2`)
//! files and plans for another key's kernel must degrade to a recompile —
//! never a panic.

use std::fs;
use std::path::PathBuf;
use ustencil_core::{ComputationGrid, ExecConfig};
use ustencil_dg::project_l2;
use ustencil_mesh::{generate_mesh, MeshClass, TriMesh};
use ustencil_plan::{EvalPlan, PlanKey};
use ustencil_serve::{CacheConfig, DiskTier, Outcome, PlanCache};

/// A unique, pre-cleaned scratch directory per test (no tempfile crate in
/// the offline build).
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ustencil-serve-{}-{test}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn fixture(seed: u64) -> (TriMesh, ComputationGrid, ExecConfig) {
    let mesh = generate_mesh(MeshClass::LowVariance, 140, seed);
    let grid = ComputationGrid::quadrature_points(&mesh, 1);
    let options = ExecConfig {
        h_factor: 0.5,
        parallel: false,
        ..ExecConfig::default()
    };
    (mesh, grid, options)
}

fn apply_bits(plan: &EvalPlan, mesh: &TriMesh) -> Vec<u64> {
    let field = project_l2(mesh, 1, |x, y| (x - 0.3) * y + 0.75, 2);
    plan.apply(&field)
        .values
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

#[test]
fn evict_spill_reload_apply_is_bitwise_equal() {
    let dir = scratch("roundtrip");
    let (mesh_a, grid_a, options) = fixture(31);
    let (mesh_b, grid_b, _) = fixture(32);
    let key_a = PlanKey::new(&mesh_a, &grid_a, 1, &options);
    let key_b = PlanKey::new(&mesh_b, &grid_b, 1, &options);

    // A 1-byte budget: every insert evicts the previous resident plan,
    // spilling it to disk.
    let cache = PlanCache::new(CacheConfig {
        byte_budget: 1,
        disk: Some(DiskTier::new(&dir).expect("create disk tier")),
    });

    let (plan_a, outcome) =
        cache.get_or_compile(key_a, || EvalPlan::compile(&mesh_a, &grid_a, 1, &options));
    assert_eq!(outcome, Outcome::Compiled);
    let fresh_bits = apply_bits(&plan_a, &mesh_a);

    // Compiling B evicts A (the only other resident plan) to disk.
    let (_, outcome) =
        cache.get_or_compile(key_b, || EvalPlan::compile(&mesh_b, &grid_b, 1, &options));
    assert_eq!(outcome, Outcome::Compiled);
    let snap = cache.snapshot();
    assert_eq!(snap.evictions, 1, "budget of 1 byte must evict: {snap:?}");
    assert_eq!(cache.disk().expect("disk configured").len(), 1);

    // Re-requesting A revives it from disk — no recompile...
    let (revived, outcome) = cache.get_or_compile(key_a, || {
        panic!("disk revive must not recompile");
    });
    assert_eq!(outcome, Outcome::DiskLoad);
    // ...and the revived plan is operationally bitwise the original.
    assert_eq!(revived.rows(), plan_a.rows());
    assert_eq!(revived.cols(), plan_a.cols());
    assert!(revived.weights_bits().eq(plan_a.weights_bits()));
    assert_eq!(apply_bits(&revived, &mesh_a), fresh_bits);

    let snap = cache.snapshot();
    assert_eq!(snap.compiles, 2);
    assert_eq!(snap.disk_loads, 1);
    let _ = fs::remove_dir_all(&dir);
}

/// The budget bounds the whole cache: six plans through room for two and a
/// half leave the last two requested resident, within budget, and every
/// victim on disk.
#[test]
fn byte_budget_bounds_the_whole_cache() {
    let dir = scratch("budget");
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
    let cache = PlanCache::new(CacheConfig {
        byte_budget,
        disk: Some(DiskTier::new(&dir).expect("create disk tier")),
    });
    for (key, plan) in &fixtures {
        let (_, outcome) = cache.get_or_compile(*key, || plan.clone());
        assert_eq!(outcome, Outcome::Compiled);
    }

    let snap = cache.snapshot();
    assert_eq!((cache.len(), snap.evictions), (2, 4), "{snap:?}");
    assert!(snap.resident_bytes <= byte_budget, "{snap:?}");
    assert_eq!(snap.resident_bytes, sizes[4] + sizes[5]);
    let disk = cache.disk().expect("disk configured");
    assert_eq!(disk.len(), 4);
    for (i, (key, _)) in fixtures.iter().enumerate() {
        assert_eq!(disk.path_of(key).exists(), i < 4, "plan {i}");
    }
    for (key, _) in &fixtures[4..] {
        let (_, outcome) = cache.get_or_compile(*key, || unreachable!("resident"));
        assert_eq!(outcome, Outcome::Hit);
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_disk_file_degrades_to_recompile() {
    let dir = scratch("corrupt");
    let (mesh, grid, options) = fixture(41);
    let key = PlanKey::new(&mesh, &grid, 1, &options);
    let tier = DiskTier::new(&dir).expect("create disk tier");

    // Plant garbage where the plan would live.
    fs::write(tier.path_of(&key), b"{ not json at all").expect("write corrupt file");

    let cache = PlanCache::new(CacheConfig {
        byte_budget: 0,
        disk: Some(tier),
    });
    let (plan, outcome) =
        cache.get_or_compile(key, || EvalPlan::compile(&mesh, &grid, 1, &options));
    assert_eq!(outcome, Outcome::Compiled, "corrupt file must not satisfy");
    assert_eq!(plan.rows(), grid.len());
    // The unreadable file was removed so a later spill starts clean.
    assert_eq!(cache.disk().expect("disk configured").len(), 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn old_version_disk_file_degrades_to_recompile() {
    let dir = scratch("oldversion");
    let (mesh, grid, options) = fixture(43);
    let key = PlanKey::new(&mesh, &grid, 1, &options);
    let tier = DiskTier::new(&dir).expect("create disk tier");

    // A v2 file left by a previous build under a v3 build: a freshly
    // stored document with the format tag rewound.
    let plan = EvalPlan::compile(&mesh, &grid, 1, &options);
    tier.store(&key, &plan).expect("store plan");
    let path = tier.path_of(&key);
    let text = fs::read_to_string(&path).expect("read stored plan");
    assert!(text.contains("ustencil-plan/v3"), "format tag moved?");
    fs::write(&path, text.replace("ustencil-plan/v3", "ustencil-plan/v2"))
        .expect("write old-version file");

    let cache = PlanCache::new(CacheConfig {
        byte_budget: 0,
        disk: Some(tier),
    });
    let (plan, outcome) =
        cache.get_or_compile(key, || EvalPlan::compile(&mesh, &grid, 1, &options));
    assert_eq!(outcome, Outcome::Compiled, "v2 file must not satisfy");
    assert_eq!(plan.rows(), grid.len());
    assert_eq!(cache.disk().expect("disk configured").len(), 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn foreign_plan_under_live_name_degrades_to_recompile() {
    let dir = scratch("foreign");
    let (mesh, grid, options) = fixture(45);
    let key = PlanKey::new(&mesh, &grid, 1, &options);
    let tier = DiskTier::new(&dir).expect("create disk tier");

    // A well-formed plan of another degree planted under this key's name:
    // it parses, but applying it to a degree-1 field would panic.
    let grid2 = ComputationGrid::quadrature_points(&mesh, 2);
    let foreign = EvalPlan::compile(&mesh, &grid2, 2, &options);
    tier.store(&key, &foreign).expect("store foreign plan");
    assert_eq!(tier.len(), 1);

    let cache = PlanCache::new(CacheConfig {
        byte_budget: 0,
        disk: Some(tier),
    });
    let (plan, outcome) =
        cache.get_or_compile(key, || EvalPlan::compile(&mesh, &grid, 1, &options));
    assert_eq!(outcome, Outcome::Compiled, "foreign plan must not satisfy");
    assert_eq!((plan.degree(), plan.rows()), (1, grid.len()));
    assert_eq!(apply_bits(&plan, &mesh).len(), grid.len());
    assert_eq!(cache.disk().expect("disk configured").len(), 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_disk_file_degrades_to_recompile() {
    let dir = scratch("truncated");
    let (mesh, grid, options) = fixture(47);
    let key = PlanKey::new(&mesh, &grid, 1, &options);
    let tier = DiskTier::new(&dir).expect("create disk tier");

    let plan = EvalPlan::compile(&mesh, &grid, 1, &options);
    tier.store(&key, &plan).expect("store plan");
    let path = tier.path_of(&key);
    let text = fs::read_to_string(&path).expect("read stored plan");
    fs::write(&path, &text[..text.len() / 2]).expect("write truncated file");

    let cache = PlanCache::new(CacheConfig {
        byte_budget: 0,
        disk: Some(tier),
    });
    let (_, outcome) = cache.get_or_compile(key, || EvalPlan::compile(&mesh, &grid, 1, &options));
    assert_eq!(
        outcome,
        Outcome::Compiled,
        "truncated file must not satisfy"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn direct_disk_round_trip_preserves_weights() {
    let dir = scratch("direct");
    let (mesh, grid, options) = fixture(53);
    let key = PlanKey::new(&mesh, &grid, 1, &options);
    let tier = DiskTier::new(&dir).expect("create disk tier");
    assert!(tier.is_empty());

    let plan = EvalPlan::compile(&mesh, &grid, 1, &options);
    tier.store(&key, &plan).expect("store plan");
    assert_eq!(tier.len(), 1);
    let loaded = tier.load(&key).expect("load stored plan");
    assert!(loaded.weights_bits().eq(plan.weights_bits()));
    assert_eq!(apply_bits(&loaded, &mesh), apply_bits(&plan, &mesh));

    // A key never stored is simply absent.
    let (mesh2, grid2, _) = fixture(54);
    let other = PlanKey::new(&mesh2, &grid2, 1, &options);
    assert!(tier.load(&other).is_none());
    let _ = fs::remove_dir_all(&dir);
}
