//! The plan compile's memory budget: beyond the plan it builds, a compile
//! holds one chunk's working set per block. A counting global allocator,
//! this test binary's own, tracks the bytes live and allocated while one
//! sequential compile runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use ustencil::engine::prelude::*;
use ustencil::mesh::{generate_mesh, MeshClass};
use ustencil::plan::CompileOptions;
use ustencil::EvalPlan;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static TOTAL: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting: every allocation and every reallocation
/// adds its new size to `TOTAL`, and `PEAK` is the most bytes ever live.
struct Counting;

fn allocated(size: usize) {
    TOTAL.fetch_add(size, Relaxed);
    PEAK.fetch_max(LIVE.fetch_add(size, Relaxed) + size, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            allocated(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            allocated(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, size);
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            allocated(size);
        }
        q
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A ~2k-element p = 1 mesh at the benchmark's kernel scale (`h = 3.17 /
/// √n`, the longest edge typical of a low-variance mesh).
#[test]
fn compile_holds_little_beyond_its_plan() {
    let mesh = generate_mesh(MeshClass::LowVariance, 2048, 2013);
    let grid = ComputationGrid::quadrature_points(&mesh, 1);
    let h = (3.17 / (mesh.n_triangles() as f64).sqrt()).min(0.98 / 4.0);
    let options = CompileOptions {
        h_factor: h / mesh.max_edge_length(),
        parallel: false,
        ..CompileOptions::default()
    };
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    TOTAL.store(0, Relaxed);
    let plan = EvalPlan::compile(&mesh, &grid, 1, &options);
    let (peak, total) = (PEAK.load(Relaxed) - before, TOTAL.load(Relaxed));
    let bytes = plan.bytes();
    assert!(bytes > 1 << 20, "a plan of {bytes} B measures nothing");
    let ratio = |n: usize| n as f64 / bytes as f64;
    assert!(
        ratio(peak) <= 1.3,
        "peak live {peak} B is {:.2}x the plan's {bytes} B",
        ratio(peak)
    );
    assert!(
        ratio(total) <= 3.0,
        "allocated {total} B, {:.2}x the plan's {bytes} B",
        ratio(total)
    );
}
