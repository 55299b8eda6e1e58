//! Unit tests for plan compilation, application and patching
//! (cross-scheme equivalence properties live in the workspace-level
//! `tests/plan_equivalence_prop.rs`).

use crate::delta::NONE;
use crate::gather::gather_rows;
use crate::plan::{chunk_group, Chunk, CHUNK_ROWS};
use crate::{DirtySet, EvalPlan, PatchError, PlanDelta, SCHEME_LABEL};
use std::sync::Arc;
use ustencil_core::{ComputationGrid, ExecConfig, PostProcessor, Scheme, SimdIsa, SimdPolicy};
use ustencil_dg::project_l2;
use ustencil_geometry::Point2;
use ustencil_mesh::{generate_mesh, MeshClass, TriMesh};

impl EvalPlan {
    /// The element columns row `r` stores weights for, in stored order.
    fn row_cols(&self, r: usize) -> impl Iterator<Item = u32> + '_ {
        let (group, i) = chunk_group(&self.chunks, r);
        group.entries(i).map(move |j| group.cols[j])
    }

    /// Stencil width `(3p + 1) h` of the compiled kernel.
    fn stencil_width(&self) -> f64 {
        (3 * self.degree + 1) as f64 * self.h
    }
}

fn setup(n_tri: usize, p: usize, seed: u64) -> (TriMesh, ustencil_dg::DgField, ComputationGrid) {
    let mesh = generate_mesh(MeshClass::LowVariance, n_tri, seed);
    let field = project_l2(&mesh, p, |x, y| 0.2 + x - 0.5 * y + x * y, 2);
    let grid = ComputationGrid::quadrature_points(&mesh, p);
    (mesh, field, grid)
}

/// Each row's entry count: the structure a plan's presence bits encode.
fn row_lens(plan: &EvalPlan) -> Vec<usize> {
    (0..plan.rows()).map(|r| plan.row_cols(r).count()).collect()
}

/// A group's row count, union columns, presence bytes and weight bits.
type StoredGroup = (usize, Vec<u32>, Vec<u8>, Vec<u64>);

/// Each group's row count, union columns, presence bytes and packed weight
/// bits: the stored layout, group for group.
fn groups(plan: &EvalPlan) -> Vec<StoredGroup> {
    let group = |g: crate::plan::Group<'_>| {
        let bits = g.weights.iter().map(|w| w.to_bits()).collect();
        (g.rows, g.cols.to_vec(), g.present.to_vec(), bits)
    };
    plan.chunks
        .iter()
        .flat_map(|c| c.groups().map(group))
        .collect()
}

/// Asserts every chunk stores one weight per stored entry and mode: the
/// weights are packed, with no slot for a row that does not read a column.
fn assert_packed(plan: &EvalPlan) {
    for c in &plan.chunks {
        let present: usize = c.present.iter().map(|b| b.count_ones() as usize).sum();
        assert_eq!(present, c.nnz);
        assert_eq!(c.weights.len(), c.nnz * plan.n_modes);
    }
}

/// Two plans are the same operator bit for bit: the same rows, the same
/// columns in the same order, the same weight bits, and the same groups.
fn assert_bitwise(a: &EvalPlan, b: &EvalPlan) {
    assert_eq!(row_lens(a), row_lens(b), "row lengths");
    assert!(a.cols().eq(b.cols()), "columns");
    assert!(a.weights_bits().eq(b.weights_bits()), "weight bits");
    assert!(groups(a) == groups(b), "groups");
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
    assert_eq!(plan.n_modes(), 3);
    assert_eq!(plan.n_elements(), mesh.n_triangles());
    let stats = plan.stats();
    assert_eq!(stats.rows, grid.len() as u64);
    assert_eq!(stats.nnz, plan.nnz() as u64);
    // Three u32 offsets per group and chunk, a u32 column and a presence
    // byte per union column, a weight per mode of each stored entry.
    let layout = |c: &Arc<Chunk>| 12 * (c.n_groups() + 1) + 5 * c.cols.len() + 8 * c.weights.len();
    assert_eq!(
        stats.bytes,
        plan.chunks.iter().map(layout).sum::<usize>() as u64
    );
    for g in groups(&plan) {
        let present: u32 = g.2.iter().map(|b| b.count_ones()).sum();
        assert_eq!(g.3.len(), present as usize * plan.n_modes());
    }
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
    // the plans must be bit-identical.
    assert_bitwise(&seq, &par);
}

/// Holds a plan to the gather compile (`gather.rs`) of the same rows: the
/// same row lengths, the same columns in the same order, the same weight
/// bits.
fn assert_is_gather(plan: &EvalPlan, mesh: &TriMesh, points: &[Point2], options: &ExecConfig) {
    let (row_ptr, cols, weights) = gather_rows(mesh, points, plan.degree, options);
    let lens: Vec<usize> = row_ptr.windows(2).map(|w| (w[1] - w[0]) as usize).collect();
    assert_eq!(row_lens(plan), lens, "{options:?}: row lengths");
    assert!(plan.cols().eq(cols), "{options:?}: columns");
    assert!(
        plan.weights_bits().eq(weights.iter().map(|w| w.to_bits())),
        "{options:?}: weights"
    );
}

#[test]
fn scatter_compile_is_bitwise_the_gather_compile() {
    for (class, n_tri, seed) in [
        (MeshClass::LowVariance, 160, 31),
        (MeshClass::HighVariance, 200, 37),
    ] {
        let mesh = generate_mesh(class, n_tri, seed);
        for p in [1, 2] {
            let grid = ComputationGrid::quadrature_points(&mesh, p);
            let h_factor = (0.9 / ((3 * p + 1) as f64 * mesh.max_edge_length())).min(0.5);
            for simd in [SimdPolicy::Scalar, SimdPolicy::Auto] {
                for n_blocks in [1, 7, 16] {
                    let options = ExecConfig {
                        h_factor,
                        n_blocks,
                        parallel: n_blocks > 1,
                        simd,
                        ..ExecConfig::default()
                    };
                    let plan = EvalPlan::compile(&mesh, &grid, p, &options);
                    assert_is_gather(&plan, &mesh, grid.points(), &options);
                }
            }
        }
    }
    // Rows in a seeded shuffle of the quadrature points, owners carried
    // along: every chunk's rows span the domain, so each chunk's windows
    // reach nearly every element. Each pair must still be met once.
    let mesh = generate_mesh(MeshClass::LowVariance, 600, 43);
    let grid = ComputationGrid::quadrature_points(&mesh, 1);
    let mut order: Vec<usize> = (0..grid.len()).collect();
    let mut state = 2013u64;
    for i in (1..order.len()).rev() {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        order.swap(i, (z ^ (z >> 31)) as usize % (i + 1));
    }
    let shuffled = ComputationGrid::from_points(
        order.iter().map(|&i| grid.points()[i]).collect(),
        order.iter().map(|&i| grid.owners()[i]).collect(),
    );
    assert!(shuffled.len() >= 8 * CHUNK_ROWS);
    let h_factor = 0.9 / (4.0 * mesh.max_edge_length());
    let options = ExecConfig {
        h_factor: h_factor.min(0.5),
        ..small_options()
    };
    let pairs = |plan: &EvalPlan| {
        let m = plan.build_metrics();
        (
            m.true_intersections,
            m.cell_clips,
            m.subregions,
            m.quad_evals,
        )
    };
    let unshuffled = pairs(&EvalPlan::compile(&mesh, &grid, 1, &options));
    for n_blocks in [1, 7, 16] {
        let options = ExecConfig {
            n_blocks,
            parallel: n_blocks > 1,
            ..options
        };
        let plan = EvalPlan::compile(&mesh, &shuffled, 1, &options);
        assert_is_gather(&plan, &mesh, shuffled.points(), &options);
        assert_eq!(pairs(&plan), unshuffled, "{n_blocks} blocks: pair counters");
    }
}

/// A support of at least half the domain: pairs meet through up to four
/// periodic images, and candidate windows span the whole triangle grid.
#[test]
fn scatter_compile_is_bitwise_the_gather_compile_on_wide_supports() {
    let mesh = generate_mesh(MeshClass::LowVariance, 24, 5);
    for p in [1, 2] {
        let grid = ComputationGrid::quadrature_points(&mesh, p);
        for width in [0.6, 0.99] {
            let options = ExecConfig {
                h_factor: width / ((3 * p + 1) as f64 * mesh.max_edge_length()),
                n_blocks: 3,
                ..ExecConfig::default()
            };
            let plan = EvalPlan::compile(&mesh, &grid, p, &options);
            assert_is_gather(&plan, &mesh, grid.points(), &options);
        }
    }
}

/// The rank runtime's pull compiles the rows of a rank's points only: each
/// is the gather row, and the global plan's row of the same point.
#[test]
fn sub_grid_rows_are_bitwise_the_gather_rows() {
    let (mesh, _, grid) = setup(200, 1, 41);
    let picked: Vec<usize> = (0..grid.len())
        .filter(|&i| grid.points()[i].x < 0.3 || i % 5 == 0)
        .collect();
    let sub = ComputationGrid::from_points(
        picked.iter().map(|&i| grid.points()[i]).collect(),
        picked.iter().map(|&i| grid.owners()[i]).collect(),
    );
    let options = small_options();
    let plan = EvalPlan::compile(&mesh, &sub, 1, &options);
    assert_is_gather(&plan, &mesh, sub.points(), &options);
    let global = EvalPlan::compile(&mesh, &grid, 1, &options);
    for (row, &i) in picked.iter().enumerate() {
        assert!(plan.row_cols(row).eq(global.row_cols(i)), "row {row}");
    }
}

/// A patch's recompiled rows — here a band at the periodic seam, whose
/// candidate windows wrap — are the gather rows of the edited problem.
#[test]
fn patched_rows_are_bitwise_the_gather_rows() {
    let (mesh, _, grid) = setup(300, 1, 43);
    let options = small_options();
    let plan = EvalPlan::compile(&mesh, &grid, 1, &options);
    let moved = ustencil_mesh::displace_band(&mesh, 0.0, 0.06, 0.2, 3);
    let moved_grid = ComputationGrid::quadrature_points(&moved, 1);
    let dirty = DirtySet::diff(&mesh, &grid, &moved, &moved_grid);
    let (patched, delta) = plan.patched(&moved, &moved_grid, &dirty, &options).unwrap();
    assert!(delta.respliced_rows > 0 && (delta.respliced_rows as usize) < plan.rows());
    assert_is_gather(&patched, &moved, moved_grid.points(), &options);
}

#[test]
fn apply_variants_agree() {
    let (mesh, field, grid) = setup(150, 1, 5);
    let plan = EvalPlan::compile(&mesh, &grid, 1, &small_options());
    let a = plan.apply(&field);
    // Every row is an independent dot product, so neither the block cut,
    // the thread doing it, nor the spans may move a bit.
    for (n_blocks, parallel) in [(1, false), (3, false), (7, true), (16, true)] {
        let options = ExecConfig {
            n_blocks,
            parallel,
            instrument: true,
            ..ExecConfig::default()
        };
        let b = plan.apply_with(&field, &options);
        // A block is a run of whole chunks.
        assert_eq!(b.block_stats.len(), n_blocks.min(plan.chunks.len()));
        assert_eq!(b.metrics, a.metrics, "{n_blocks} blocks");
        for (av, bv) in a.values.iter().zip(&b.values) {
            assert_eq!(av.to_bits(), bv.to_bits(), "{n_blocks} blocks");
        }
    }
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
            assert_eq!(row_lens(&plan), row_lens(&scalar_plan));
            assert!(plan.cols().eq(scalar_plan.cols()));
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
    assert_eq!(sol.block_stats.len(), 4.min(plan.chunks.len()));
    assert_eq!(sol.metrics.solution_writes, grid.len() as u64);
    assert_eq!(
        sol.metrics.flops,
        2 * plan.nnz() as u64 * plan.n_modes() as u64
    );
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
    assert_eq!(dirty.dirty_elements(), 0);
    let (patched, delta) = plan
        .patched(&mesh, &grid, &dirty, &small_options())
        .expect("clean patch applies");
    assert_eq!(delta.respliced_rows, 0);
    assert_eq!(delta.respliced_nnz, 0);
    assert_bitwise(&patched, &plan);
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
    assert_bitwise(&patched, &fresh);
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
    assert_bitwise(&patched, &fresh);
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
    // A dirty set diffed against a different problem is rejected.
    let (other, _, other_grid) = setup(100, 1, 44);
    let stale = DirtySet::diff(&other, &other_grid, &moved, &moved_grid);
    let err = plan
        .patch(&moved, &moved_grid, &stale, &small_options())
        .unwrap_err();
    assert_eq!(err, PatchError::ShapeMismatch);
}

/// A plan's weights carry the rounding of the ISA they were reduced on, so
/// a patch under a policy that resolves to another ISA is refused.
#[test]
fn patch_rejects_another_simd_isa() {
    let auto = ExecConfig {
        simd: SimdPolicy::Auto,
        ..small_options()
    };
    if auto.simd.resolve() == SimdIsa::Scalar {
        eprintln!("skipped: `Auto` resolves to the scalar ISA on this host");
        return;
    }
    let (mesh, _, grid) = setup(150, 1, 43);
    let scalar = ExecConfig {
        simd: SimdPolicy::Scalar,
        ..small_options()
    };
    let plan = EvalPlan::compile(&mesh, &grid, 1, &scalar);
    let moved = ustencil_mesh::displace_band(&mesh, 0.3, 0.7, 0.2, 3);
    let moved_grid = ComputationGrid::quadrature_points(&moved, 1);
    let dirty = DirtySet::diff(&mesh, &grid, &moved, &moved_grid);
    let err = plan.patch(&moved, &moved_grid, &dirty, &auto).unwrap_err();
    assert_eq!(err, PatchError::OptionsMismatch);
    assert!(plan.patch(&moved, &moved_grid, &dirty, &scalar).is_ok());
}

/// The rows of chunk `c` in a plan of `rows` rows.
fn chunk_rows(c: usize, rows: usize) -> std::ops::Range<usize> {
    c * CHUNK_ROWS..((c + 1) * CHUNK_ROWS).min(rows)
}

/// Whether chunk `c` of `delta`, patched from `base` across `dirty`,
/// holds no recompiled and no renumbered row: every row is the base's row
/// at the same index, every column its own id, over as many rows as the
/// base's chunk `c`.
fn untouched(dirty: &DirtySet, delta: &PlanDelta, base: &EvalPlan, c: usize) -> bool {
    let rows = chunk_rows(c, dirty.row_source().len());
    base.chunks.get(c).is_some_and(|b| b.n_rows() == rows.len())
        && rows.into_iter().all(|r| {
            delta.closure_rows.binary_search(&(r as u32)).is_err()
                && dirty.row_source()[r] as usize == r
                && base.row_cols(r).all(|e| dirty.elem_map()[e as usize] == e)
        })
}

/// Refines the elements of `mesh` whose centroid lies within 0.002 of
/// `x`, sparing those on a longest edge so the kernel scale holds.
fn refine_band(mesh: &TriMesh, xs: &[f64]) -> (TriMesh, ComputationGrid) {
    let pinned = ustencil_mesh::elements_on_longest_edge(mesh);
    let band: Vec<u32> = (0..mesh.n_triangles() as u32)
        .filter(|&e| {
            let c = mesh.centroid(e as usize);
            !pinned[e as usize] && xs.iter().any(|x| (c.x - x).abs() <= 0.002)
        })
        .collect();
    let refined = ustencil_mesh::refine_elements(mesh, &band);
    let grid = ComputationGrid::quadrature_points(&refined, 1);
    (refined, grid)
}

/// Asserts the patch integrated only the pairs the edit touched: one
/// entry per column of a new grid point's fresh row, and per changed
/// column of every other closure row, fewer than the closure rows hold.
fn assert_pair_work(delta: &PlanDelta, dirty: &DirtySet, fresh: &EvalPlan) {
    let (mut pairs, mut closure_nnz) = (0, 0);
    for &r in &delta.closure_rows {
        let cols: Vec<u32> = fresh.row_cols(r as usize).collect();
        closure_nnz += cols.len();
        pairs += match dirty.row_source()[r as usize] {
            NONE => cols.len(),
            _ => (cols.iter())
                .filter(|e| dirty.changed().binary_search(e).is_ok())
                .count(),
        };
    }
    assert_eq!(delta.metrics().solution_writes, pairs as u64);
    assert!(pairs < closure_nnz, "{pairs} pairs of {closure_nnz}");
}

/// Drives a refined band (0.004 wide) from `start` on by 0.008 a frame, the
/// way `reproduce amr` does, over a 4k mesh. Each frame's patched plan is
/// bitwise a fresh compile, its patch integrated only the pairs the edit
/// touched, and `check` sees the frame's diff, delta, base plan, patched
/// plan and grid.
fn drive_front(
    start: f64,
    mut check: impl FnMut(usize, &DirtySet, &PlanDelta, &EvalPlan, &EvalPlan, &ComputationGrid),
) {
    let base = generate_mesh(MeshClass::LowVariance, 4000, 2013);
    let options = small_options();
    let frame = |t: usize| refine_band(&base, &[(start + 0.008 * t as f64).fract()]);
    let (mut mesh, mut grid) = frame(0);
    let mut plan = EvalPlan::compile(&mesh, &grid, 1, &options);
    for t in 1..=3 {
        let (next_mesh, next_grid) = frame(t);
        let dirty = DirtySet::diff(&mesh, &grid, &next_mesh, &next_grid);
        let delta = plan
            .patch(&next_mesh, &next_grid, &dirty, &options)
            .unwrap();
        let patched = delta.splice(&plan);
        let fresh = EvalPlan::compile(&next_mesh, &next_grid, 1, &options);
        assert_bitwise(&patched, &fresh);
        assert_packed(&patched);
        assert_pair_work(&delta, &dirty, &fresh);
        check(t, &dirty, &delta, &plan, &patched, &next_grid);
        (mesh, grid, plan) = (next_mesh, next_grid, patched);
    }
}

/// Each patched plan of a moving front shares with its base exactly the
/// chunks that hold no recompiled or renumbered row, and some chunks are
/// shared.
#[test]
fn moving_front_patches_share_untouched_chunks() {
    drive_front(0.25, |t, dirty, delta, plan, patched, _| {
        let mut shared = 0;
        for (c, chunk) in patched.chunks.iter().enumerate() {
            let is_shared = plan.chunks.get(c).is_some_and(|b| Arc::ptr_eq(b, chunk));
            let untouched = untouched(dirty, delta, plan, c);
            assert_eq!(is_shared, untouched, "frame {t}, chunk {c}");
            shared += usize::from(is_shared);
        }
        assert!(shared > 0, "frame {t}: no chunk shared");
    });
}

/// A front crossing the periodic seam `x = 0/1` merges kept rows whose
/// candidate windows wrap, so their merged entries must be rotated to the
/// window's origin as a compiled row's are.
#[test]
fn front_across_the_seam_merges_wrapped_rows() {
    drive_front(0.988, |t, dirty, delta, plan, _, grid| {
        let half = plan.stencil_width() / 2.0;
        let wrapped = (delta.closure_rows.iter())
            .filter(|&&r| dirty.row_source()[r as usize] != NONE)
            .map(|&r| grid.points()[r as usize].x)
            .filter(|&x| x < half || x > 1.0 - half)
            .count();
        assert!(wrapped > 0, "frame {t}: no kept row's window wraps");
    });
}

/// Asserts the diff from `old` to `new` (grids of their quadrature points)
/// is its reference's, field for field, and returns it.
fn diff_as_reference(old: &TriMesh, new: &TriMesh) -> DirtySet {
    let [old_grid, new_grid] = [old, new].map(|m| ComputationGrid::quadrature_points(m, 1));
    let dirty = DirtySet::diff(old, &old_grid, new, &new_grid);
    assert_eq!(
        dirty,
        DirtySet::diff_reference(old, &old_grid, new, &new_grid)
    );
    dirty
}

/// The diff is its reference on the patch property suite's edits: a
/// refined subset, every eligible element refined, no edit, a displaced
/// band, and a moving front's frames both ways.
#[test]
fn diff_is_its_reference_on_the_patch_edits() {
    let mesh = generate_mesh(MeshClass::LowVariance, 400, 7);
    let pinned = ustencil_mesh::elements_on_longest_edge(&mesh);
    let eligible: Vec<u32> = (0..mesh.n_triangles() as u32)
        .filter(|&e| !pinned[e as usize])
        .collect();
    let some: Vec<u32> = eligible.iter().copied().step_by(3).collect();
    for picked in [&some, &eligible] {
        let refined = ustencil_mesh::refine_elements(&mesh, picked);
        assert!(diff_as_reference(&mesh, &refined).dirty_elements() > 0);
        diff_as_reference(&refined, &mesh);
    }
    assert_eq!(diff_as_reference(&mesh, &mesh).dirty_elements(), 0);
    diff_as_reference(
        &mesh,
        &ustencil_mesh::displace_band(&mesh, 0.3, 0.4, 0.2, 5),
    );
    let (a, _) = refine_band(&mesh, &[0.25]);
    let (b, _) = refine_band(&mesh, &[0.258, 0.75]);
    diff_as_reference(&a, &b);
    diff_as_reference(&b, &a);
}

/// Survivors that swap places: the one moved ahead matches, and every
/// element it passed counts as changed, as in the reference. An element
/// whose last coordinate moves by one ulp is changed, in place.
#[test]
fn diff_is_its_reference_on_reordered_survivors() {
    let mesh = generate_mesh(MeshClass::LowVariance, 400, 7);
    let mut triangles = mesh.triangle_indices().to_vec();
    triangles.swap(10, 200);
    let swapped = TriMesh::from_raw(mesh.vertices().to_vec(), triangles);
    let dirty = diff_as_reference(&mesh, &swapped);
    assert_eq!(dirty.changed(), (10..200).collect::<Vec<u32>>());
    assert_eq!(dirty.dirty_elements(), 2 * 190);
    let (mut vertices, mut triangles) =
        (mesh.vertices().to_vec(), mesh.triangle_indices().to_vec());
    let last = vertices[triangles[50][2] as usize];
    vertices.push(Point2::new(last.x, f64::from_bits(last.y.to_bits() + 1)));
    triangles[50][2] = vertices.len() as u32 - 1;
    let nudged = diff_as_reference(&mesh, &TriMesh::from_raw(vertices, triangles));
    assert_eq!(nudged.changed(), [50]);
}

/// Elements of identical geometry share a hash: sequences drawn from five
/// triangles, each one's copies matched in order, as in the reference.
#[test]
fn diff_is_its_reference_on_duplicate_elements() {
    let mesh = generate_mesh(MeshClass::LowVariance, 40, 3);
    let pool = &mesh.triangle_indices()[..5];
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut draw = |len: usize| {
        let triangles = (0..len).map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            pool[(state >> 33) as usize % pool.len()]
        });
        TriMesh::from_raw(mesh.vertices().to_vec(), triangles.collect())
    };
    for len in [1, 7, 30, 30, 60] {
        let (old, new) = (draw(len), draw(len + len % 4));
        diff_as_reference(&old, &new);
        diff_as_reference(&new, &old);
    }
}

/// Refining bands A ∪ B, then only B, moves B's tail children to lower
/// element ids and rows: the chunks holding them are rebuilt though none of
/// their rows was recompiled, and the plan stays bitwise a fresh compile.
#[test]
fn renumbered_survivors_take_the_rebuild_path() {
    let base = generate_mesh(MeshClass::LowVariance, 4000, 2013);
    let options = small_options();
    let (mesh, grid) = refine_band(&base, &[0.25, 0.75]);
    let (next_mesh, next_grid) = refine_band(&base, &[0.75]);
    let plan = EvalPlan::compile(&mesh, &grid, 1, &options);
    let dirty = DirtySet::diff(&mesh, &grid, &next_mesh, &next_grid);
    let delta = plan
        .patch(&next_mesh, &next_grid, &dirty, &options)
        .unwrap();
    let renumbered = dirty.elem_map().iter().enumerate();
    assert!(renumbered
        .filter(|&(e, &m)| m != NONE && m as usize != e)
        .any(|(e, _)| e >= base.n_triangles()));
    let patched = delta.splice(&plan);
    assert_bitwise(
        &patched,
        &EvalPlan::compile(&next_mesh, &next_grid, 1, &options),
    );
    let mut rebuilt_unpatched = 0;
    for (c, chunk) in patched.chunks.iter().enumerate() {
        let is_shared = plan.chunks.get(c).is_some_and(|b| Arc::ptr_eq(b, chunk));
        assert_eq!(is_shared, untouched(&dirty, &delta, &plan, c), "chunk {c}");
        let rows = chunk_rows(c, patched.rows());
        let recompiled = rows
            .into_iter()
            .any(|r| delta.closure_rows.binary_search(&(r as u32)).is_ok());
        rebuilt_unpatched += usize::from(!is_shared && !recompiled);
    }
    assert!(
        rebuilt_unpatched > 0,
        "no chunk rebuilt for renumbering alone"
    );
}

/// The patch checks a chunk it shares as it checks one it rebuilds. Drop
/// the last element: its stale box is the whole diff, and without it the
/// closure is empty and every full chunk would be shared, yet some read the
/// vanished element. The patch stops at the first of them.
#[test]
fn patch_checks_the_chunks_it_shares() {
    let (mesh, _, grid) = setup(4000, 1, 23);
    let options = small_options();
    let plan = EvalPlan::compile(&mesh, &grid, 1, &options);
    let mut triangles = mesh.triangle_indices().to_vec();
    let last = triangles.len() as u32 - 1;
    triangles.pop();
    let cut = TriMesh::from_raw(mesh.vertices().to_vec(), triangles);
    let cut_grid = ComputationGrid::quadrature_points(&cut, 1);
    let mut dirty = DirtySet::diff(&mesh, &grid, &cut, &cut_grid);
    assert_eq!(dirty.dirty_elements(), 1);
    let delta = plan.patch(&cut, &cut_grid, &dirty, &options).unwrap();
    let fresh = EvalPlan::compile(&cut, &cut_grid, 1, &options);
    assert_bitwise(&delta.splice(&plan), &fresh);
    let rows = |c: usize| chunk_rows(c, cut_grid.len());
    let c = (0..plan.chunks.len())
        .filter(|&c| rows(c).len() == CHUNK_ROWS)
        .find(|&c| rows(c).any(|r| plan.row_cols(r).any(|e| e == last)))
        .expect("a full chunk reading the element");
    dirty.drop_stale_box(0);
    let missed = std::panic::catch_unwind(|| plan.patch(&cut, &cut_grid, &dirty, &options));
    let message = *missed.unwrap_err().downcast::<String>().unwrap();
    let row = c * CHUNK_ROWS;
    assert!(
        message.starts_with(&format!("kept row {row} references a vanished element"))
            && message.ends_with("the dirty closure missed a dependency"),
        "{message}"
    );
}

/// A compile, and a chunk rebuilt from its groups with columns mapped,
/// store `nnz · n_modes` weights (patched plans: `drive_front`), the
/// rebuilt one in exactly the room `Chunk::for_groups` made.
#[test]
fn compile_and_from_groups_store_one_weight_per_entry_and_mode() {
    for p in [1, 2] {
        let (mesh, _, grid) = setup(300, p, 41);
        let plan = EvalPlan::compile(&mesh, &grid, p, &small_options());
        assert_packed(&plan);
        let groups: Vec<_> = plan.chunks.iter().flat_map(|c| c.groups()).collect();
        let mut chunk = Chunk::for_groups(plan.n_modes, groups.len(), groups.iter().copied());
        let room = [chunk.cols.capacity(), chunk.weights.capacity()];
        for &g in &groups {
            chunk.push_group(g, |e| e + 1);
        }
        assert_eq!(room, [chunk.cols.len(), chunk.weights.len()]);
        assert_eq!(room, [chunk.cols.capacity(), chunk.weights.capacity()]);
        assert_eq!(chunk.nnz, plan.nnz());
        assert_eq!(chunk.weights.len(), plan.nnz() * plan.n_modes);
        let mut rebuilt = chunk.groups().zip(&groups);
        assert!(rebuilt
            .all(|(a, b)| a.weights == b.weights
                && a.cols.iter().zip(b.cols).all(|(&x, &y)| x == y + 1)));
    }
}

/// One delta spliced twice gives two plans of the same chunks, every one
/// the delta's, each bitwise a fresh compile: the splice writes nothing.
#[test]
fn splicing_a_delta_twice_shares_every_chunk() {
    let (mesh, _, grid) = setup(1000, 1, 29);
    let options = small_options();
    let plan = EvalPlan::compile(&mesh, &grid, 1, &options);
    let (moved, moved_grid) = refine_band(&mesh, &[0.5]);
    let dirty = DirtySet::diff(&mesh, &grid, &moved, &moved_grid);
    let delta = plan.patch(&moved, &moved_grid, &dirty, &options).unwrap();
    assert!(delta.respliced_rows() > 0);
    let (a, b) = (delta.splice(&plan), delta.splice(&plan));
    assert_eq!(a.chunks.len(), b.chunks.len());
    assert!(a
        .chunks
        .iter()
        .zip(&b.chunks)
        .all(|(x, y)| Arc::ptr_eq(x, y)));
    let fresh = EvalPlan::compile(&moved, &moved_grid, 1, &options);
    assert_bitwise(&a, &fresh);
    assert_bitwise(&b, &fresh);
}

/// Each group's row count, in row order.
fn group_sizes(plan: &EvalPlan) -> Vec<usize> {
    groups(plan).iter().map(|g| g.0).collect()
}

/// The historical row kernel of the scalar policy over the plan's rows,
/// de-grouped: per-mode lanes, unfused multiply and add, modes summed in
/// order.
fn row_kernel(plan: &EvalPlan, coeffs: &[f64]) -> Vec<u64> {
    let nm = plan.n_modes();
    let mut weights = plan.weights_bits().map(f64::from_bits);
    (0..plan.rows())
        .map(|r| {
            let mut lane = [0.0f64; 10];
            for c in plan.row_cols(r) {
                for (m, l) in lane.iter_mut().enumerate().take(nm) {
                    *l += weights.next().unwrap() * coeffs[c as usize * nm + m];
                }
            }
            lane[..nm].iter().sum::<f64>().to_bits()
        })
        .collect()
}

/// Asserts every group holds rows of one owner, in one chunk, at most
/// four of them, and that each is its rows' columns in an order keeping
/// each row's: the presence bits list the row's columns in stored order.
fn assert_groups_hold_rows(plan: &EvalPlan, grid: &ComputationGrid) {
    let mut row = 0;
    for g in groups(plan) {
        assert!((1..=4).contains(&g.0));
        let rows = row..row + g.0;
        assert_eq!(rows.start / CHUNK_ROWS, (rows.end - 1) / CHUNK_ROWS);
        assert!(rows.clone().all(|r| grid.owners()[r] == grid.owners()[row]));
        for (i, r) in rows.clone().enumerate() {
            let cols = (g.1.iter().zip(&g.2)).filter(|(_, &b)| b >> i & 1 != 0);
            assert!(plan.row_cols(r).eq(cols.map(|(&c, _)| c)), "row {r}");
        }
        assert!(g.2.iter().all(|&b| b != 0 && b >> g.0 == 0));
        row = rows.end;
    }
    assert_eq!(row, plan.rows());
}

/// p = 2: an element's nine points make groups of 4 + 4 + 1, a chunk edge
/// cuts the run of an element's points, and every row is still the gather
/// row, applied bit for bit as the historical row kernel applies it.
#[test]
fn nine_point_elements_group_four_four_one_and_chunk_edges_cut_runs() {
    let (mesh, field, grid) = setup(150, 2, 61);
    let options = small_options();
    let plan = EvalPlan::compile(&mesh, &grid, 2, &options);
    assert_is_gather(&plan, &mesh, grid.points(), &options);
    assert_groups_hold_rows(&plan, &grid);
    let sizes = group_sizes(&plan);
    assert!(sizes.windows(3).any(|w| w == [4, 4, 1]), "{sizes:?}");
    let cut = (1..plan.chunks.len()).find(|&c| {
        let r = c * CHUNK_ROWS;
        grid.owners()[r] == grid.owners()[r - 1]
    });
    assert!(cut.is_some(), "no chunk edge inside an element's points");
    let scalar = ExecConfig {
        simd: SimdPolicy::Scalar,
        ..options
    };
    let values = plan.apply_with(&field, &scalar).values;
    let bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, row_kernel(&plan, field.coefficients()));
}

/// A grid whose points all have distinct owners is stored one row a group:
/// today's CSR rows, with no padding.
#[test]
fn distinct_owners_give_groups_of_one_row() {
    let (mesh, field, grid) = setup(150, 1, 67);
    let owners = (0..grid.len() as u32).collect();
    let single = ComputationGrid::from_points(grid.points().to_vec(), owners);
    let options = small_options();
    let plan = EvalPlan::compile(&mesh, &single, 1, &options);
    assert_is_gather(&plan, &mesh, single.points(), &options);
    assert!(group_sizes(&plan).iter().all(|&g| g == 1));
    assert!(groups(&plan).iter().all(|g| g.2.iter().all(|&b| b == 1)));
    let grouped = EvalPlan::compile(&mesh, &grid, 1, &options);
    assert_eq!(plan.nnz(), grouped.nnz());
    for simd in [SimdPolicy::Scalar, SimdPolicy::Auto] {
        let options = ExecConfig { simd, ..options };
        let a = plan.apply_with(&field, &options).values;
        let b = grouped.apply_with(&field, &options).values;
        assert!(a.iter().zip(&b).all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}

/// A support nearly as wide as the domain: sibling points' candidate
/// windows span the whole triangle grid from different first cells, so
/// their hull wraps onto itself, no order keeps both rows' orders, and the
/// element's points are split into several groups. That is the case hit
/// here, and the only one the rule splits for. Rows stay the gather rows,
/// applied as the row kernel applies them, and the patched plan is the
/// fresh one, group for group.
#[test]
fn windows_wrapping_onto_themselves_split_groups() {
    let mesh = generate_mesh(MeshClass::LowVariance, 24, 1);
    let grid = ComputationGrid::quadrature_points(&mesh, 1);
    let options = ExecConfig {
        h_factor: 0.99 / (4.0 * mesh.max_edge_length()),
        n_blocks: 3,
        ..ExecConfig::default()
    };
    let plan = EvalPlan::compile(&mesh, &grid, 1, &options);
    assert_is_gather(&plan, &mesh, grid.points(), &options);
    assert_groups_hold_rows(&plan, &grid);
    // Every element's four points would be one group but for the split.
    let sizes = group_sizes(&plan);
    assert!(sizes.len() > mesh.n_triangles(), "{sizes:?}");
    let field = project_l2(&mesh, 1, |x, y| x * y - 0.25, 2);
    let scalar = ExecConfig {
        simd: SimdPolicy::Scalar,
        ..options
    };
    let values = plan.apply_with(&field, &scalar).values;
    let bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, row_kernel(&plan, field.coefficients()));
    let moved = ustencil_mesh::displace_band(&mesh, 0.4, 0.6, 0.2, 3);
    let moved_grid = ComputationGrid::quadrature_points(&moved, 1);
    let dirty = DirtySet::diff(&mesh, &grid, &moved, &moved_grid);
    let (patched, _) = plan
        .patched(&moved, &moved_grid, &dirty, &options)
        .expect("the band keeps the longest edge");
    assert_bitwise(
        &patched,
        &EvalPlan::compile(&moved, &moved_grid, 1, &options),
    );
}

/// A non-finite coefficient on element `e` reaches, through the `0.0` a
/// row's lane takes for a column it does not read, every row of every
/// group with a column on `e`: those
/// rows are non-finite, every other row is bitwise the finite field's, and
/// nothing panics.
#[test]
fn non_finite_coefficients_poison_exactly_the_groups_reading_them() {
    let (mesh, field, grid) = setup(150, 1, 71);
    let plan = EvalPlan::compile(&mesh, &grid, 1, &small_options());
    let e = 17;
    // Rows whose group has a column on `e`.
    let mut reached = Vec::new();
    for g in groups(&plan) {
        let hit = g.1.contains(&e);
        reached.extend(std::iter::repeat_n(hit, g.0));
    }
    assert!(reached.iter().any(|&r| r) && !reached.iter().all(|&r| r));
    for simd in [SimdPolicy::Scalar, SimdPolicy::Auto] {
        let options = ExecConfig {
            simd,
            ..ExecConfig::default()
        };
        let clean = plan.apply_with(&field, &options).values;
        for bad in [f64::NAN, f64::INFINITY] {
            let mut poisoned = field.clone();
            poisoned.element_coeffs_mut(e as usize)[1] = bad;
            let values = plan.apply_with(&poisoned, &options).values;
            for (r, (v, c)) in values.iter().zip(&clean).enumerate() {
                if reached[r] {
                    assert!(!v.is_finite(), "{simd:?} {bad}: row {r} is {v}");
                } else {
                    assert_eq!(v.to_bits(), c.to_bits(), "{simd:?} {bad}: row {r}");
                }
            }
        }
    }
}

/// Rows that shift by a multiple of nine (p = 2) meet chunk edges at
/// other points of an element, so some groups of rows no patch recompiled
/// change makeup: they are formed anew from their rows, and the patched
/// plan is the fresh compile, group for group. A wide refined region's
/// children sit in the element list's tail, behind those of a few
/// lower-numbered elements refined far away in the next frame.
#[test]
fn shifted_rows_regroup_without_recompiling() {
    let base = generate_mesh(MeshClass::LowVariance, 1000, 2013);
    let pinned = ustencil_mesh::elements_on_longest_edge(&base);
    let eligible = |lo: f64, hi: f64| -> Vec<u32> {
        let inside = |e: u32| (lo..hi).contains(&base.centroid(e as usize).x);
        let ids = 0..base.n_triangles() as u32;
        ids.filter(|&e| !pinned[e as usize] && inside(e)).collect()
    };
    let wide = eligible(0.6, 0.9);
    let mut both: Vec<u32> = eligible(0.1, 0.2)[..10]
        .iter()
        .chain(&wide)
        .copied()
        .collect();
    both.sort_unstable();
    let (mesh, next) = (
        ustencil_mesh::refine_elements(&base, &wide),
        ustencil_mesh::refine_elements(&base, &both),
    );
    let grid = ComputationGrid::quadrature_points(&mesh, 2);
    let next_grid = ComputationGrid::quadrature_points(&next, 2);
    let options = small_options();
    let plan = EvalPlan::compile(&mesh, &grid, 2, &options);
    let dirty = DirtySet::diff(&mesh, &grid, &next, &next_grid);
    let delta = plan.patch(&next, &next_grid, &dirty, &options).unwrap();
    let fresh = EvalPlan::compile(&next, &next_grid, 2, &options);
    assert_bitwise(&delta.splice(&plan), &fresh);
    // A fresh group of rows none recompiled that no base group holds as
    // they are: the same rows, in order, from a group's first row on.
    let starts = |plan: &EvalPlan| {
        let sizes = group_sizes(plan).into_iter();
        sizes.scan(0, |row, n| Some((std::mem::replace(row, *row + n), n)))
    };
    let base_groups: Vec<(usize, usize)> = starts(&plan).collect();
    let regrouped = starts(&fresh).filter(|&(row, n)| {
        let (rows, src) = (row..row + n, dirty.row_source()[row] as usize);
        let recompiled = |r: usize| delta.closure_rows.binary_search(&(r as u32)).is_ok();
        let from_src = |r: usize| dirty.row_source()[r] as usize == src + (r - row);
        let held = base_groups.binary_search(&(src, n)).is_ok() && rows.clone().all(from_src);
        !(rows.clone().any(recompiled) || held)
    });
    assert!(regrouped.count() > 0);
}
