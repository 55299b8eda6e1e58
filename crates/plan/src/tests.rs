//! Unit tests for plan compilation, application and patching
//! (cross-scheme equivalence properties live in the workspace-level
//! `tests/plan_equivalence_prop.rs`).

use crate::{DirtySet, EvalPlan, PatchError, SCHEME_LABEL};
use ustencil_core::{ComputationGrid, ExecConfig, PostProcessor, Scheme, SimdPolicy};
use ustencil_dg::project_l2;
use ustencil_mesh::{generate_mesh, MeshClass, TriMesh};

fn setup(n_tri: usize, p: usize, seed: u64) -> (TriMesh, ustencil_dg::DgField, ComputationGrid) {
    let mesh = generate_mesh(MeshClass::LowVariance, n_tri, seed);
    let field = project_l2(&mesh, p, |x, y| 0.2 + x - 0.5 * y + x * y, 2);
    let grid = ComputationGrid::quadrature_points(&mesh, p);
    (mesh, field, grid)
}

fn small_options() -> ExecConfig {
    ExecConfig {
        h_factor: 0.5,
        parallel: false,
        ..ExecConfig::default()
    }
}

#[test]
fn constant_field_is_preserved() {
    let (mesh, _, grid) = setup(150, 1, 7);
    let field = project_l2(&mesh, 1, |_, _| 1.75, 0);
    let plan = EvalPlan::compile(&mesh, &grid, 1, &small_options());
    let sol = plan.apply(&field);
    for (i, v) in sol.values.iter().enumerate() {
        assert!((v - 1.75).abs() < 1e-9, "point {i}: {v}");
    }
}

#[test]
fn plan_matches_direct_run() {
    let (mesh, field, grid) = setup(200, 2, 11);
    let processor = PostProcessor::new(Scheme::PerPoint)
        .h_factor(0.5)
        .parallel(false);
    let direct = processor.run(&mesh, &field, &grid);
    let plan = EvalPlan::compile(&mesh, &grid, field.degree(), processor.config());
    let sol = plan.apply_with(&field, &ExecConfig::default());
    let diff = sol.max_abs_diff(&direct.values);
    assert!(diff <= 1e-12, "plan vs direct differ by {diff}");
    assert_eq!(plan.rows(), grid.len());
    assert!(plan.nnz() > 0);
    assert_eq!(plan.stencil_width(), direct.stencil_width);
}

#[test]
fn plan_shape_and_stats_are_consistent() {
    let (mesh, field, grid) = setup(120, 1, 3);
    let plan = EvalPlan::compile(&mesh, &grid, 1, &small_options());
    assert_eq!(plan.degree(), 1);
    assert_eq!(plan.smoothness(), 1);
    assert_eq!(plan.n_modes(), 3);
    assert_eq!(plan.n_elements(), mesh.n_triangles());
    let stats = plan.stats();
    assert_eq!(stats.rows, grid.len() as u64);
    assert_eq!(stats.nnz, plan.nnz() as u64);
    assert_eq!(
        stats.bytes,
        (8 * (plan.rows() + 1) + 4 * plan.nnz() + 8 * plan.nnz() * plan.n_modes()) as u64
    );
    assert!(stats.build_ms > 0.0);
    // The compile pass counted real geometric work.
    let bm = plan.build_metrics();
    assert!(bm.cell_clips > 0);
    assert!(bm.quad_evals > 0);
    assert!(bm.true_intersections >= plan.nnz() as u64);
    // Every stored column is a valid element.
    let sol = plan.apply(&field);
    assert_eq!(sol.values.len(), grid.len());
}

#[test]
fn parallel_and_sequential_compile_agree_exactly() {
    let (mesh, _, grid) = setup(150, 1, 9);
    let seq = EvalPlan::compile(&mesh, &grid, 1, &small_options());
    let par = EvalPlan::compile(
        &mesh,
        &grid,
        1,
        &ExecConfig {
            parallel: true,
            n_blocks: 7,
            ..small_options()
        },
    );
    // Blocking only changes who computes each row, not what is computed:
    // the CSR arrays must be bit-identical.
    assert_eq!(seq.row_ptr, par.row_ptr);
    assert_eq!(seq.cols, par.cols);
    assert_eq!(
        seq.weights.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
        par.weights.iter().map(|w| w.to_bits()).collect::<Vec<_>>()
    );
}

#[test]
fn apply_variants_agree() {
    let (mesh, field, grid) = setup(150, 1, 5);
    let plan = EvalPlan::compile(&mesh, &grid, 1, &small_options());
    let a = plan.apply(&field);
    // Every row is an independent dot product, so neither the block cut,
    // the thread doing it, nor the probes may move a bit.
    for (n_blocks, parallel) in [(1, false), (3, false), (7, true), (16, true)] {
        let options = ExecConfig {
            n_blocks,
            parallel,
            instrument: true,
            ..ExecConfig::default()
        };
        let b = plan.apply_with(&field, &options);
        assert_eq!(b.block_stats.len(), n_blocks);
        assert_eq!(b.metrics, a.metrics, "{n_blocks} blocks");
        // All rows through the row-subset entry point, into a caller's
        // buffer, is the same apply again.
        let all: Vec<u32> = (0..plan.rows() as u32).collect();
        let mut c = vec![0.0; plan.rows()];
        plan.apply_rows_into(&all, &field, &mut c, &options);
        for ((av, bv), cv) in a.values.iter().zip(&b.values).zip(&c) {
            assert_eq!(av.to_bits(), bv.to_bits(), "{n_blocks} blocks");
            assert_eq!(av.to_bits(), cv.to_bits(), "{n_blocks} blocks, row subset");
        }
    }
}

#[test]
fn row_partition_apply_is_bitwise_the_full_apply() {
    let (mesh, field, grid) = setup(150, 2, 17);
    let plan = EvalPlan::compile(&mesh, &grid, 2, &small_options());
    let full = plan.apply_with(
        &field,
        &ExecConfig {
            n_blocks: 4,
            parallel: false,
            instrument: false,
            ..ExecConfig::default()
        },
    );
    // An arbitrary partition of the rows (the dist runtime's interior /
    // frontier split is one instance): applying the two halves into one
    // buffer must reproduce the full apply bit for bit, because each row
    // is an independent dot product written exactly once.
    let (evens, odds): (Vec<u32>, Vec<u32>) = (0..plan.rows() as u32).partition(|r| r % 2 == 0);
    let mut out = vec![0.0; plan.rows()];
    let three = ExecConfig {
        n_blocks: 3,
        ..ExecConfig::default()
    };
    let stats_a = plan.apply_rows_into(&evens, &field, &mut out, &three);
    let stats_b = plan.apply_rows_into(&odds, &field, &mut out, &three);
    for (a, b) in full.values.iter().zip(&out) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    // Work counters partition too: the two subsets together count exactly
    // the full apply's writes, loads, and flops.
    let sum = |stats: &[ustencil_core::BlockStats], f: fn(&ustencil_core::BlockStats) -> u64| {
        stats.iter().map(f).sum::<u64>()
    };
    let writes =
        sum(&stats_a, |b| b.metrics.solution_writes) + sum(&stats_b, |b| b.metrics.solution_writes);
    let loads =
        sum(&stats_a, |b| b.metrics.elem_data_loads) + sum(&stats_b, |b| b.metrics.elem_data_loads);
    let flops = sum(&stats_a, |b| b.metrics.flops) + sum(&stats_b, |b| b.metrics.flops);
    assert_eq!(writes, full.metrics.solution_writes);
    assert_eq!(loads, full.metrics.elem_data_loads);
    assert_eq!(flops, full.metrics.flops);
    // Empty subset: no blocks, no work.
    assert!(plan
        .apply_rows_into(&[], &field, &mut out, &three)
        .is_empty());
}

#[test]
fn simd_policies_agree_on_plan_compile_and_apply() {
    // Scalar-compiled + scalar-applied is the pre-SIMD reference; every
    // policy (compile and apply both dispatched through it) must agree to
    // 1e-12 while reporting identical modeled work counters.
    for (n_tri, p, seed) in [(150, 1, 47), (180, 2, 53)] {
        let (mesh, field, grid) = setup(n_tri, p, seed);
        let scalar_plan = EvalPlan::compile(
            &mesh,
            &grid,
            p,
            &ExecConfig {
                simd: SimdPolicy::Scalar,
                ..small_options()
            },
        );
        let scalar = scalar_plan.apply_with(
            &field,
            &ExecConfig {
                simd: SimdPolicy::Scalar,
                ..ExecConfig::default()
            },
        );
        assert_eq!(scalar.simd.isa, "scalar");
        assert_eq!(scalar.simd.lanes, 1);
        for policy in SimdPolicy::ALL {
            let plan = EvalPlan::compile(
                &mesh,
                &grid,
                p,
                &ExecConfig {
                    simd: policy,
                    ..small_options()
                },
            );
            // The ISA perturbs weights at rounding level only — never the
            // CSR structure (clipping is pure geometry).
            assert_eq!(plan.row_ptr, scalar_plan.row_ptr);
            assert_eq!(plan.cols, scalar_plan.cols);
            let sol = plan.apply_with(
                &field,
                &ExecConfig {
                    simd: policy,
                    ..ExecConfig::default()
                },
            );
            let diff = sol.max_abs_diff(&scalar.values);
            assert!(diff <= 1e-12, "{policy:?} differs from scalar by {diff}");
            assert_eq!(
                sol.metrics, scalar.metrics,
                "{policy:?} counters must be ISA-independent"
            );
            assert_eq!(sol.simd.policy, policy.label());
            assert_eq!(sol.simd.lanes, policy.resolve().lanes() as u64);
            assert!(sol.simd.gflops >= 0.0);
        }
    }
}

#[test]
fn instrumented_apply_populates_stats() {
    let (mesh, field, grid) = setup(120, 1, 2);
    let plan = EvalPlan::compile(
        &mesh,
        &grid,
        1,
        &ExecConfig {
            instrument: true,
            ..small_options()
        },
    );
    assert!(plan
        .build_spans()
        .iter()
        .any(|s| s.name == "compile.rows" && s.duration_ns > 0));
    let sol = plan.apply_with(
        &field,
        &ExecConfig {
            n_blocks: 4,
            parallel: false,
            instrument: true,
            ..ExecConfig::default()
        },
    );
    assert!(sol.spans.iter().any(|s| s.name == "apply.spmv"));
    assert_eq!(sol.block_stats.len(), 4);
    let probe = ustencil_core::BlockStats::merged_probe(&sol.block_stats);
    // One row-entry-count sample per grid point, summing to the nnz.
    assert_eq!(probe.candidates_per_query().count(), grid.len() as u64);
    assert_eq!(probe.candidates_per_query().sum(), plan.nnz() as u64);
    assert_eq!(sol.metrics.solution_writes, grid.len() as u64);
    assert_eq!(
        sol.metrics.flops,
        2 * plan.nnz() as u64 * plan.n_modes() as u64
    );
    // Uninstrumented applies keep the probes empty.
    let bare = plan.apply(&field);
    assert!(ustencil_core::BlockStats::merged_probe(&bare.block_stats)
        .candidates_per_query()
        .is_empty());
}

#[test]
fn run_record_carries_plan_stats() {
    let (mesh, field, grid) = setup(120, 1, 4);
    let plan = EvalPlan::compile(&mesh, &grid, 1, &small_options());
    let sol = plan.apply_with(
        &field,
        &ExecConfig {
            instrument: true,
            ..ExecConfig::default()
        },
    );
    let record = plan.to_run_record("test/plan", mesh.n_triangles(), &sol);
    assert_eq!(record.scheme, SCHEME_LABEL);
    assert_eq!(record.n_points, grid.len() as u64);
    let stats = record.plan.as_ref().expect("plan stats present");
    assert_eq!(stats.nnz, plan.nnz() as u64);
    assert!(stats.build_ms > 0.0);
    assert!(stats.apply_ms > 0.0);
    let hist = record.histogram("candidates_per_query").unwrap();
    assert_eq!(hist.count(), grid.len() as u64);
    // The record survives the report JSON round trip.
    let mut report = ustencil_core::RunReport::new("plan-test", 4);
    report.runs.push(record);
    let parsed = ustencil_core::RunReport::from_json(&report.to_pretty_string()).unwrap();
    assert_eq!(parsed, report);
}

#[test]
#[should_panic(expected = "degree does not match")]
fn mismatched_field_degree_is_rejected() {
    let (mesh, _, grid) = setup(100, 1, 1);
    let plan = EvalPlan::compile(&mesh, &grid, 1, &small_options());
    let field = project_l2(&mesh, 2, |x, _| x, 0);
    let _ = plan.apply(&field);
}

#[test]
#[should_panic(expected = "element count does not match")]
fn mismatched_element_count_is_rejected() {
    let (mesh, _, grid) = setup(100, 1, 1);
    let plan = EvalPlan::compile(&mesh, &grid, 1, &small_options());
    let other = generate_mesh(MeshClass::LowVariance, 200, 1);
    let field = project_l2(&other, 1, |x, _| x, 0);
    let _ = plan.apply(&field);
}

#[test]
#[should_panic(expected = "stencil width")]
fn oversized_stencil_is_rejected() {
    let mesh = generate_mesh(MeshClass::StructuredPattern, 8, 0);
    let grid = ComputationGrid::quadrature_points(&mesh, 3);
    let _ = EvalPlan::compile(&mesh, &grid, 3, &ExecConfig::default());
}

#[test]
fn clean_diff_patches_to_the_identical_plan() {
    let (mesh, _, grid) = setup(150, 1, 23);
    let plan = EvalPlan::compile(&mesh, &grid, 1, &small_options());
    let dirty = DirtySet::diff(&mesh, &grid, &mesh, &grid);
    assert!(dirty.is_clean());
    assert_eq!(dirty.dirty_elements(), 0);
    let (patched, delta) = plan
        .patched(&mesh, &grid, &dirty, &small_options())
        .expect("clean patch applies");
    assert_eq!(delta.respliced_rows, 0);
    assert_eq!(delta.respliced_nnz, 0);
    assert_eq!(patched.row_ptr, plan.row_ptr);
    assert_eq!(patched.cols, plan.cols);
    assert!(patched
        .weights
        .iter()
        .zip(&plan.weights)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
}

#[test]
fn patched_plan_matches_fresh_compile_after_displacement() {
    let (mesh, _, grid) = setup(300, 2, 29);
    let plan = EvalPlan::compile(&mesh, &grid, 2, &small_options());
    // Keep the band narrow: its `(3k+1)h` closure must stay a strict
    // subset of the rows for the subset assertion below to be meaningful.
    let moved = ustencil_mesh::displace_band(&mesh, 0.48, 0.52, 0.2, 5);
    assert_eq!(
        moved.max_edge_length().to_bits(),
        mesh.max_edge_length().to_bits()
    );
    let moved_grid = ComputationGrid::quadrature_points(&moved, 2);
    let dirty = DirtySet::diff(&mesh, &grid, &moved, &moved_grid);
    assert!(!dirty.is_clean());
    assert!(dirty.dirty_elements() > 0);
    let (patched, delta) = plan
        .patched(&moved, &moved_grid, &dirty, &small_options())
        .expect("displacement patch applies");
    // A band edit re-splices a strict subset of the rows…
    assert!(delta.respliced_rows > 0);
    assert!((delta.respliced_rows as usize) < plan.rows());
    // …and the result is bit-for-bit the fresh compile: kept rows reuse
    // identical CSR content, recomputed rows replay the same block kernel.
    let fresh = EvalPlan::compile(&moved, &moved_grid, 2, &small_options());
    assert_eq!(patched.row_ptr, fresh.row_ptr);
    assert_eq!(patched.cols, fresh.cols);
    assert!(patched
        .weights
        .iter()
        .zip(&fresh.weights)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
}

#[test]
fn patched_plan_matches_fresh_compile_after_refinement() {
    let (mesh, _, grid) = setup(180, 1, 31);
    let plan = EvalPlan::compile(&mesh, &grid, 1, &small_options());
    // Refine a band of elements, keeping the longest edge (and with it h)
    // intact.
    let on_longest = ustencil_mesh::elements_on_longest_edge(&mesh);
    let targets: Vec<u32> = (0..mesh.n_triangles() as u32)
        .filter(|&e| {
            let c = mesh.centroid(e as usize);
            !on_longest[e as usize] && c.x > 0.4 && c.x < 0.6
        })
        .collect();
    assert!(!targets.is_empty());
    let refined = ustencil_mesh::refine_elements(&mesh, &targets);
    assert_eq!(
        refined.max_edge_length().to_bits(),
        mesh.max_edge_length().to_bits()
    );
    let refined_grid = ComputationGrid::quadrature_points(&refined, 1);
    let dirty = DirtySet::diff(&mesh, &grid, &refined, &refined_grid);
    let (patched, delta) = plan
        .patched(&refined, &refined_grid, &dirty, &small_options())
        .expect("refinement patch applies");
    assert!(delta.dirty_elements >= targets.len() as u64);
    let fresh = EvalPlan::compile(&refined, &refined_grid, 1, &small_options());
    assert_eq!(patched.rows(), fresh.rows());
    assert_eq!(patched.n_elements(), refined.n_triangles());
    assert_eq!(patched.row_ptr, fresh.row_ptr);
    assert_eq!(patched.cols, fresh.cols);
    assert!(patched
        .weights
        .iter()
        .zip(&fresh.weights)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
}

#[test]
fn patch_rejects_kernel_and_shape_mismatches() {
    let (mesh, _, grid) = setup(150, 1, 43);
    let plan = EvalPlan::compile(&mesh, &grid, 1, &small_options());
    let moved = ustencil_mesh::displace_band(&mesh, 0.3, 0.7, 0.2, 3);
    let moved_grid = ComputationGrid::quadrature_points(&moved, 1);
    let dirty = DirtySet::diff(&mesh, &grid, &moved, &moved_grid);
    // A different h_factor means every weight changes: KernelChanged.
    let err = plan
        .patch(
            &moved,
            &moved_grid,
            &dirty,
            &ExecConfig {
                h_factor: 0.45,
                ..small_options()
            },
        )
        .unwrap_err();
    assert_eq!(err, PatchError::KernelChanged);
    // A different kernel smoothness cannot be spliced into this plan.
    let err = plan
        .patch(
            &moved,
            &moved_grid,
            &dirty,
            &ExecConfig {
                smoothness: Some(2),
                ..small_options()
            },
        )
        .unwrap_err();
    assert_eq!(err, PatchError::OptionsMismatch);
    // A dirty set diffed against a different problem is rejected.
    let (other, _, other_grid) = setup(100, 1, 44);
    let stale = DirtySet::diff(&other, &other_grid, &moved, &moved_grid);
    let err = plan
        .patch(&moved, &moved_grid, &stale, &small_options())
        .unwrap_err();
    assert_eq!(err, PatchError::ShapeMismatch);
}
