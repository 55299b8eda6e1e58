//! Plan-amortization bench: compile an evaluation plan once, then
//! post-process T timesteps, versus running the direct per-element scheme
//! on every one of them.
//!
//! Three series per mesh size: `build` (one plan compilation), `apply_T`
//! for T in {1, 4, 16, 64} (T field evaluations on a prebuilt plan), and
//! `direct` (one full per-element run — the cost a serving system pays
//! *per frame* without a plan). The crossover frame count is
//! `T* = ceil(build / (direct - apply_1))`; measured values live in
//! EXPERIMENTS.md under "Plan amortization".

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use ustencil_bench::Workload;
use ustencil_core::{PostProcessor, Scheme};
use ustencil_mesh::MeshClass;
use ustencil_plan::PlanExt;

/// Timestep counts the amortization sweep covers.
const TIMESTEPS: [usize; 4] = [1, 4, 16, 64];

fn bench_plan_amortization(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_amortization");
    for (n_tri, label) in [(4_000usize, "4k"), (64_000, "64k")] {
        // A 64k build runs ~50 s and a direct run ~27 s; two samples keep
        // the sweep under a few minutes while the medians stay stable.
        group.sample_size(if n_tri >= 64_000 { 2 } else { 10 });
        let w = Workload::build(MeshClass::LowVariance, n_tri, 1, 2013);
        let processor = PostProcessor::new(Scheme::PerElement)
            .blocks(16)
            .h_factor(w.safe_h_factor());
        let plan = processor.compile_plan(&w.mesh, w.p, &w.grid);
        let opts = processor.config();

        // One plan compilation: the fixed cost a plan amortizes away.
        group.bench_with_input(BenchmarkId::new("build", label), &w, |b, w| {
            b.iter(|| black_box(processor.compile_plan(&w.mesh, w.p, &w.grid)))
        });
        // T field evaluations on the prebuilt plan: the marginal cost.
        for t in TIMESTEPS {
            group.bench_with_input(BenchmarkId::new(format!("apply_{t}"), label), &w, |b, w| {
                b.iter(|| {
                    for _ in 0..t {
                        black_box(plan.apply_with(&w.field, opts));
                    }
                })
            });
        }
        // The per-frame baseline: a full direct run (scale by T to
        // compare against build + T * apply).
        group.bench_with_input(BenchmarkId::new("direct", label), &w, |b, w| {
            b.iter(|| black_box(w.run(Scheme::PerElement, 16)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_plan_amortization);
criterion_main!(benches);
