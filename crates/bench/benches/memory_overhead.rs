//! Figure 8 companion bench: the reduction phase. The paper notes the
//! final summation of partial solutions "contributes a minimal amount of
//! time to the overall process" — this bench checks that claim holds here
//! by timing the reduction in isolation against a full patch execution.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use ustencil_bench::Workload;
use ustencil_core::per_element::{memory_overhead, reduce_patches, PerElementRun};
use ustencil_core::tiling::{assign_patches, two_stage_reduce};
use ustencil_core::ExecConfig;
use ustencil_mesh::{partition_recursive_bisection, MeshClass};
use ustencil_spatial::{Boundary, PointGrid};

fn bench_reduction(c: &mut Criterion) {
    let w = Workload::build(MeshClass::LowVariance, 1_000, 1, 2013);
    let config = ExecConfig {
        h_factor: w.safe_h_factor(),
        ..ExecConfig::default()
    };
    let setup = config.resolve(&w.mesh, w.p);
    let pgrid =
        PointGrid::build_half_edge(w.grid.points(), w.mesh.max_edge_length(), Boundary::Clamped);
    let run = PerElementRun {
        mesh: &w.mesh,
        field: &w.field,
        grid: &w.grid,
        setup: &setup,
        point_grid: &pgrid,
    };
    let partition = partition_recursive_bisection(&w.mesh, 16);
    let results: Vec<_> = partition
        .patches()
        .map(|p| run.run_patch(p, false).0)
        .collect();
    let n_points = w.grid.len();

    let metrics: Vec<_> = results.iter().map(|r| r.metrics).collect();
    eprintln!(
        "fig8@1k: relative memory overhead with 16 patches = {:.3}",
        memory_overhead(&metrics, n_points)
    );

    c.bench_function("fig8/reduce_16_patches", |b| {
        b.iter(|| reduce_patches(black_box(&results), n_points))
    });
    let assignment = assign_patches(results.len(), 4);
    c.bench_function("fig8/two_stage_reduce_4_devices", |b| {
        b.iter(|| two_stage_reduce(black_box(&results), &assignment, n_points))
    });

    // Reference point: one patch of compute, to show the reduction is tiny
    // in comparison.
    let biggest = partition
        .patches()
        .max_by_key(|p| p.len())
        .unwrap()
        .to_vec();
    let mut group = c.benchmark_group("fig8_compute_reference");
    group.sample_size(10);
    group.bench_function("one_patch_compute", |b| {
        b.iter(|| black_box(run.run_patch(&biggest, false)))
    });
    group.finish();
}

criterion_group!(benches, bench_reduction);
criterion_main!(benches);
