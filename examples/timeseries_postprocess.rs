//! Compile-once / apply-many: SIAC-filter a whole time series through an
//! evaluation plan.
//!
//! A time-dependent simulation produces a new coefficient vector every
//! frame while the mesh, evaluation grid, and kernel stay fixed — exactly
//! the shape of redundancy `ustencil::plan` removes. This example compiles
//! a plan, post-processes a rotating-field time series with it, and checks
//! one frame against a direct run.
//!
//! ```sh
//! cargo run --release --example timeseries_postprocess
//! ```

use std::time::Instant;
use ustencil::dg::project_l2;
use ustencil::engine::prelude::*;
use ustencil::mesh::{generate_mesh, MeshClass};
use ustencil::EvalPlan;

fn main() {
    let tau = std::f64::consts::TAU;
    // A translating wave: frame t is the profile advected by t * dt.
    let frame = move |t: usize| {
        let shift = 0.03 * t as f64;
        move |x: f64, y: f64| (tau * (x - shift)).sin() * (tau * y).cos()
    };

    // 1. Fixed geometry: mesh, dG space, and evaluation grid. Linear
    //    elements on a small mesh keep this demo quick; a degree-2 plan on
    //    the quickstart's 4k mesh stores ~21M entries (about 1 GiB) and
    //    compiles for over a minute, so size plans deliberately
    //    (PlanStats::bytes makes the footprint explicit).
    let mesh = generate_mesh(MeshClass::LowVariance, 1_000, 42);
    let p = 1;
    let grid = ComputationGrid::quadrature_points(&mesh, p);

    // 2. Compile the plan once, under a configured PostProcessor's
    //    ExecConfig. This pays the full geometric discovery cost (clipping,
    //    fan triangulation, quadrature x kernel x basis) exactly one time.
    let processor = PostProcessor::new(Scheme::PerElement).blocks(16);
    let t0 = Instant::now();
    let plan = EvalPlan::compile(&mesh, &grid, p, processor.config());
    println!(
        "compiled plan: {} rows, {} entries, {:.1} MiB in {:.2?}",
        plan.rows(),
        plan.nnz(),
        plan.bytes() as f64 / (1024.0 * 1024.0),
        t0.elapsed()
    );

    // 3. Post-process the whole time series through the plan.
    let n_frames = 16;
    let t0 = Instant::now();
    let mut checksum = 0.0;
    for t in 0..n_frames {
        let field = project_l2(&mesh, p, frame(t), 4);
        let filtered = plan.apply(&field);
        checksum += filtered.values[0];
    }
    let series = t0.elapsed();
    println!(
        "filtered {n_frames} frames in {:.2?} ({:.2?}/frame incl. projection)",
        series,
        series / n_frames as u32
    );

    // 4. Spot-check: the plan is a drop-in for the direct pipeline.
    let field = project_l2(&mesh, p, frame(0), 4);
    let t0 = Instant::now();
    let direct = processor.run(&mesh, &field, &grid);
    let direct_wall = t0.elapsed();
    let diff = plan.apply(&field).max_abs_diff(&direct.values);
    println!("one direct run: {direct_wall:.2?}; plan vs direct max |diff| = {diff:.2e}");
    assert!(diff <= 1e-12, "plan must match the direct pipeline");
    let _ = checksum;
}
