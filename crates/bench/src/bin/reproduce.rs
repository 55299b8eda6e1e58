//! Regenerates every table and figure of the paper's evaluation
//! (Section 5). Each subcommand prints the rows/series of one exhibit;
//! `all` prints everything. Absolute numbers come from the streaming-device
//! cost model (the hardware substitution documented in DESIGN.md); the
//! claims to check are ratios and shapes, recorded in EXPERIMENTS.md.
//!
//! Every run is instrumented, so `--json <path>` can write a structured
//! [`RunReport`] of whatever command executed, `profile` prints the
//! phase/imbalance view directly, and `checkjson <path>`
//! validates a previously written report (the CI smoke check). See
//! `reproduce --help` for the flag reference.

use std::collections::HashMap;
use std::time::Instant;
use ustencil_bench::cli::{parse_cli, CliOptions, USAGE};
use ustencil_bench::{size_label, triangle_ladder, Workload};
use ustencil_core::per_element::memory_overhead;
use ustencil_core::prelude::*;
use ustencil_dist::{run_dist, DistOptions, SCHEME_LABEL as DIST_SCHEME_LABEL};
use ustencil_mesh::MeshClass;
use ustencil_plan::{EvalPlan, PATCH_SCHEME_LABEL, SCHEME_LABEL};
use ustencil_serve::traffic::{self, TrafficConfig};
use ustencil_serve::SCHEME_LABEL as SERVE_SCHEME_LABEL;

/// Largest default mesh size per polynomial degree (indexed by `p`).
/// Quadratic stops at 4k and cubic is skipped by default so the
/// single-core run stays under ~15 minutes (the cubic stencil spans 10
/// cells, an order of magnitude more work); `--full` lifts every cap.
fn degree_caps(full: bool) -> [usize; 4] {
    if full {
        [usize::MAX; 4]
    } else {
        [usize::MAX, usize::MAX, 4_000, 0]
    }
}

/// Cache of runs keyed by (class, size, p, scheme) so `all` executes each
/// configuration once. Every executed run is also appended to `records`,
/// the raw material of the `--json` report.
struct Runner {
    seed: u64,
    simd: SimdPolicy,
    workloads: HashMap<(MeshClass, usize, usize), Workload>,
    runs: HashMap<(MeshClass, usize, usize, &'static str), Solution>,
    records: Vec<RunRecord>,
}

impl Runner {
    fn new(seed: u64, simd: SimdPolicy) -> Self {
        Self {
            seed,
            simd,
            workloads: HashMap::new(),
            runs: HashMap::new(),
            records: Vec::new(),
        }
    }

    fn workload(&mut self, class: MeshClass, size: usize, p: usize) -> &Workload {
        let seed = self.seed;
        self.workloads
            .entry((class, size, p))
            .or_insert_with(|| Workload::build(class, size, p, seed))
    }

    fn run(&mut self, class: MeshClass, size: usize, p: usize, scheme: Scheme) -> &Solution {
        let key = (class, size, p, scheme.label());
        if !self.runs.contains_key(&key) {
            self.workload(class, size, p);
            let w = &self.workloads[&(class, size, p)];
            eprintln!(
                "  [running {} {} p={} {}...]",
                class.label(),
                size_label(size),
                p,
                scheme.label()
            );
            let sol = w.run_instrumented(scheme, 16, self.simd);
            let label = format!(
                "{}/{}/p{}/{}",
                class.label(),
                size_label(size),
                p,
                scheme.label()
            );
            let sim = sol.simulate(&DeviceConfig::default());
            self.records
                .push(RunRecord::from_solution(&label, size, &sol, Some(sim)));
            self.runs.insert(key, sol);
        }
        &self.runs[&key]
    }
}

fn table1(r: &mut Runner, sizes: &[usize]) {
    println!("\n== Table 1: intersection tests, linear polynomials, low-variance meshes ==");
    println!(
        "{:>8} {:>22} {:>24} {:>8}",
        "mesh", "per-point tests", "per-element tests", "ratio"
    );
    for &n in sizes {
        let pp = r
            .run(MeshClass::LowVariance, n, 1, Scheme::PerPoint)
            .metrics;
        let pe = r
            .run(MeshClass::LowVariance, n, 1, Scheme::PerElement)
            .metrics;
        println!(
            "{:>8} {:>22} {:>24} {:>8.2}",
            size_label(n),
            pp.intersection_tests,
            pe.intersection_tests,
            pp.intersection_tests as f64 / pe.intersection_tests as f64
        );
    }
    println!("(paper: per-point/per-element ratio ~1.88-1.90 at every size)");
}

fn fig8(r: &mut Runner, sizes: &[usize]) {
    println!("\n== Figure 8: relative memory overhead, 16 patches, linear polynomials ==");
    println!("{:>8} {:>12} {:>14}", "mesh", "per-point", "per-element");
    for &n in sizes {
        let pe = r.run(MeshClass::LowVariance, n, 1, Scheme::PerElement);
        let n_points = pe.values.len();
        let overhead = memory_overhead(&BlockStats::metrics_of(&pe.block_stats), n_points);
        println!("{:>8} {:>12.3} {:>14.3}", size_label(n), 1.0, overhead);
    }
    println!("(paper: per-element starts ~2.5-3x at 4k and decays toward 1 with mesh size)");
}

fn throughput_figure(
    r: &mut Runner,
    class: MeshClass,
    sizes: &[usize],
    caps: &[usize; 4],
    title: &str,
) {
    println!("\n== {title} ==");
    println!(
        "{:>8} {:>3} {:>22} {:>24}",
        "mesh", "p", "per-point GFLOP/s", "per-element GFLOP/s"
    );
    let cfg = DeviceConfig::default();
    for &p in &[1usize, 2, 3] {
        for &n in sizes {
            if n > caps[p] {
                println!(
                    "{:>8} {:>3} {:>22} {:>24}",
                    size_label(n),
                    p,
                    "(skipped, use --full)",
                    ""
                );
                continue;
            }
            let pp = r.run(class, n, p, Scheme::PerPoint).simulate(&cfg);
            let pe = r.run(class, n, p, Scheme::PerElement).simulate(&cfg);
            println!(
                "{:>8} {:>3} {:>22.1} {:>24.1}",
                size_label(n),
                p,
                pp.gflops(),
                pe.gflops()
            );
        }
    }
    println!("(paper: per-element above per-point everywhere; both drop as p grows)");
}

fn fig13(r: &mut Runner, sizes: &[usize], caps: &[usize; 4]) {
    println!("\n== Figure 13: relative speedup over per-point (simulated device time) ==");
    println!(
        "{:>8} {:>3} {:>14} {:>14}",
        "mesh", "p", "LV speedup", "HV speedup"
    );
    let cfg = DeviceConfig::default();
    for &p in &[1usize, 2, 3] {
        for &n in sizes {
            if n > caps[p] {
                continue;
            }
            let mut row = format!("{:>8} {:>3}", size_label(n), p);
            for class in [MeshClass::LowVariance, MeshClass::HighVariance] {
                let t_pp = r.run(class, n, p, Scheme::PerPoint).simulate(&cfg).total_ms;
                let t_pe = r
                    .run(class, n, p, Scheme::PerElement)
                    .simulate(&cfg)
                    .total_ms;
                row.push_str(&format!(" {:>14.2}", t_pp / t_pe));
            }
            println!("{row}");
        }
    }
    println!("(paper: ~2x+ on LV, ~3x+ on HV, growing with p; 2-6x overall)");
}

fn fig14(r: &mut Runner, sizes: &[usize]) {
    println!("\n== Figure 14: per-element scaling on 1/2/4/8 devices, linear polynomials ==");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "mesh", "1 GPU (ms)", "2 GPU (ms)", "4 GPU (ms)", "8 GPU (ms)"
    );
    for &n in sizes {
        // N_GPU x N_SM patches, evenly distributed (Section 4).
        let mut cols = Vec::new();
        for &n_gpu in &[1usize, 2, 4, 8] {
            let w = Workload::build(MeshClass::LowVariance, n, 1, r.seed);
            let sol = PostProcessor::new(Scheme::PerElement)
                .blocks(16 * n_gpu)
                .h_factor(w.safe_h_factor())
                .instrument(true)
                .simd(r.simd)
                .run(&w.mesh, &w.field, &w.grid);
            let cfg = DeviceConfig {
                n_devices: n_gpu,
                ..Default::default()
            };
            let sim = sol.simulate(&cfg);
            cols.push(sim.total_ms);
            let label = format!("low-variance/{}/p1/per-element@{}dev", size_label(n), n_gpu);
            r.records
                .push(RunRecord::from_solution(&label, n, &sol, Some(sim)));
        }
        println!(
            "{:>8} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
            size_label(n),
            cols[0],
            cols[1],
            cols[2],
            cols[3]
        );
    }
    println!("(paper: near-perfect linear scaling in both devices and mesh size)");
}

/// Figure 14 with `--ranks`: the rank-sharded runtime on real threads.
/// Unlike the block-partitioned projection above, all cross-rank data
/// here moves as actual messages through the transport layer, so
/// the device model's communication term is charged with *counted*
/// traffic rather than an estimate. Each rank count is validated against
/// the in-process per-element reference before being reported.
fn fig14_ranks(r: &mut Runner, sizes: &[usize], ranks: &[usize]) {
    println!(
        "\n== Figure 14 (rank-sharded): per-element, exchange then evaluate, linear polynomials =="
    );
    println!(
        "{:>8} {:>6} {:>12} {:>11} {:>10} {:>10} {:>12} {:>10}",
        "mesh", "ranks", "sim ms", "exchange ms", "halo elems", "msgs", "wire KiB", "max diff"
    );
    for &n in sizes {
        let reference = r
            .run(MeshClass::LowVariance, n, 1, Scheme::PerElement)
            .values
            .clone();
        for &n_ranks in ranks {
            let simd = r.simd;
            let w = r.workload(MeshClass::LowVariance, n, 1);
            eprintln!("  [running {} triangles on {} rank(s)...]", n, n_ranks);
            let opts = DistOptions::new(n_ranks)
                .h_factor(w.safe_h_factor())
                .instrument(true)
                .simd(simd);
            let sol = match run_dist(&w.mesh, &w.field, &w.grid, &opts) {
                Ok(sol) => sol,
                Err(e) => {
                    eprintln!("rank-sharded run failed at {n} triangles, {n_ranks} ranks: {e}");
                    std::process::exit(1);
                }
            };
            let diff = sol.max_abs_diff(&reference);
            assert!(
                diff <= 1e-12,
                "{n_ranks}-rank run diverges from the per-element reference by {diff}"
            );
            let cfg = DeviceConfig {
                n_devices: n_ranks,
                ..Default::default()
            };
            let sim = sol.simulate(&cfg);
            let exchange_ms =
                sol.ranks.iter().map(|rr| rr.exchange_ns).max().unwrap_or(0) as f64 / 1e6;
            let comm = sol.total_comm();
            let halo: u64 = sol.ranks.iter().map(|rr| rr.halo_elements).sum();
            println!(
                "{:>8} {:>6} {:>12.2} {:>11.3} {:>10} {:>10} {:>12.1} {:>10.1e}",
                size_label(n),
                n_ranks,
                sim.total_ms,
                exchange_ms,
                halo,
                comm.msgs_sent,
                comm.bytes_sent as f64 / 1024.0,
                diff
            );
            let label = format!("low-variance/{}/p1/dist@{}ranks", size_label(n), n_ranks);
            r.records.push(sol.to_run_record(&label, n, Some(sim)));
        }
    }
    println!(
        "(log-log in ranks x size: compute shrinks per rank while counted halo traffic grows; \
         'sim ms' charges the whole counted wire time, 'exchange ms' is the slowest rank's \
         measured post + drain)"
    );
}

/// The `plan` subcommand: per mesh size, run the per-element scheme once
/// directly, compile an evaluation plan, apply it to `timesteps` synthetic
/// fields (the simulation frames a serving system would post-process), and
/// report the amortization: build cost, per-apply cost, speedup over
/// re-running the direct scheme per frame, and the crossover frame count
/// `T*` past which the plan is cheaper in total.
fn plan_cmd(r: &mut Runner, sizes: &[usize], timesteps: usize) {
    println!(
        "\n== Evaluation plans: build once, apply {} timestep(s); low-variance, p=1 ==",
        timesteps
    );
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>10} {:>6} {:>10}",
        "mesh", "direct ms", "build ms", "apply ms", "speedup", "T*", "nnz"
    );
    for &n in sizes {
        let direct = r.run(MeshClass::LowVariance, n, 1, Scheme::PerElement);
        let direct_ms = direct.wall.as_secs_f64() * 1e3;
        let direct_values = direct.values.clone();

        let simd = r.simd;
        let w = r.workload(MeshClass::LowVariance, n, 1);
        let processor = PostProcessor::new(Scheme::PerElement)
            .blocks(16)
            .h_factor(w.safe_h_factor())
            .instrument(true)
            .simd(simd);
        eprintln!("  [compiling plan for {} triangles...]", n);
        let plan = EvalPlan::compile(&w.mesh, &w.grid, w.p, processor.config());
        let build_ms = plan.build_wall().as_secs_f64() * 1e3;

        // Synthetic timesteps: the projected field with coefficients
        // scaled per frame, standing in for an evolving simulation.
        let mut apply_ms_sum = 0.0;
        let mut last = None;
        for t in 0..timesteps {
            let mut field = w.field.clone();
            let scale = 1.0 + 0.01 * t as f64;
            for c in field.coefficients_mut() {
                *c *= scale;
            }
            let sol = plan.apply_with(&field, processor.config());
            apply_ms_sum += sol.wall.as_secs_f64() * 1e3;
            if t == 0 {
                // Frame 0 is the unscaled field: the plan must reproduce
                // the direct run it replaces.
                let diff = sol.max_abs_diff(&direct_values);
                assert!(
                    diff <= 1e-12,
                    "plan disagrees with direct run by {diff} at {n} triangles"
                );
            }
            last = Some(sol);
        }
        let apply_ms = apply_ms_sum / timesteps as f64;
        let speedup = direct_ms / apply_ms;
        // Smallest frame count where build + T * apply < T * direct.
        let crossover = if direct_ms > apply_ms {
            format!("{}", (build_ms / (direct_ms - apply_ms)).ceil().max(1.0))
        } else {
            "inf".to_string()
        };
        println!(
            "{:>8} {:>12.1} {:>12.1} {:>12.2} {:>9.1}x {:>6} {:>10}",
            size_label(n),
            direct_ms,
            build_ms,
            apply_ms,
            speedup,
            crossover,
            plan.nnz()
        );

        let label = format!("low-variance/{}/p1/plan", size_label(n));
        let sol = last.expect("at least one timestep");
        r.records.push(plan.to_run_record(&label, n, &sol));
    }
    println!("(amortization: a plan pays for itself after T* frames; see EXPERIMENTS.md)");
}

/// The `amr` subcommand: a dG field under a moving refinement front.
/// Frame 0 compiles the evaluation plan; every later frame derives its
/// mesh from the base (midpoint-refining the band under the front's
/// position), diffs it against the previous frame's mesh
/// ([`DirtySet::diff`](ustencil_plan::DirtySet::diff)) and revalidates the
/// plan by incremental patch
/// ([`EvalPlan::patched`](ustencil_plan::EvalPlan::patched)) — only the
/// rows whose stencil footprint touches the front pay recompilation, so
/// each frame costs delta-compile time instead of a full rebuild.
fn amr_cmd(r: &mut Runner, sizes: &[usize], frames: usize) {
    use ustencil_bench::test_function;
    use ustencil_dg::project_l2;
    use ustencil_mesh::{elements_on_longest_edge, refine_elements};
    use ustencil_plan::DirtySet;

    /// Width of the refined band in domain units; elements whose centroid
    /// falls under the front are split 1 → 4.
    const FRONT_WIDTH: f64 = 0.004;
    /// How far the front advances per frame. A real tracking front moves a
    /// couple of band widths per frame, so consecutive frames share most of
    /// their footprint closure and the diff stays a small fraction of the
    /// mesh — the regime the patch engine is built for.
    const FRONT_STEP: f64 = 0.008;

    println!(
        "\n== AMR moving front: {} frame(s), incremental patch vs full compile; low-variance, p=1 ==",
        frames
    );
    // After the patch, its spans: closure, recompute, scatter and the one
    // pass that forms the patched plan's chunks.
    println!(
        "{:>8} {:>6} {:>8} {:>10} {:>10} {:>8} {:>12} {:>8} {:>9} {:>8} {:>8} {:>12} {:>7}",
        "mesh",
        "frame",
        "dirty",
        "respliced",
        "rows",
        "diff ms",
        "patch ms",
        "closure",
        "recompute",
        "scatter",
        "chunks",
        "full ms",
        "ratio"
    );
    for &n in sizes {
        // Kernel scaled to the *refined* elements: the front splits edges in
        // half, and SIAC wants h to track the local element size, so the
        // moving-front scenario post-processes at half the coarse-mesh scale.
        let (base_mesh, h_factor) = {
            let w = r.workload(MeshClass::LowVariance, n, 1);
            (w.mesh.clone(), 0.5 * w.safe_h_factor())
        };
        let options = ExecConfig {
            h_factor,
            instrument: true,
            simd: r.simd,
            ..ExecConfig::default()
        };
        // The front never refines an element owning the longest edge:
        // that would change the kernel scale h and force a full rebuild.
        let pinned = elements_on_longest_edge(&base_mesh);

        // Each frame's mesh derives from the *base* mesh (the front moves,
        // it does not accumulate); the diff runs between consecutive
        // frames, so de-refinement behind the front is exercised too.
        let frame_mesh = |t: usize| {
            let front = (0.25 + t as f64 * FRONT_STEP).fract();
            let band: Vec<u32> = (0..base_mesh.n_triangles() as u32)
                .filter(|&e| {
                    let c = base_mesh.centroid(e as usize);
                    !pinned[e as usize] && (c.x - front).abs() <= FRONT_WIDTH / 2.0
                })
                .collect();
            refine_elements(&base_mesh, &band)
        };

        eprintln!("  [amr {}: compiling frame 0...]", size_label(n));
        let mut mesh = frame_mesh(0);
        let mut grid = ComputationGrid::quadrature_points(&mesh, 1);
        let mut plan = EvalPlan::compile(&mesh, &grid, 1, &options);
        let full_ms = plan.build_wall().as_secs_f64() * 1e3;
        {
            let field = project_l2(&mesh, 1, test_function, 4);
            let sol = plan.apply_with(&field, &options);
            let label = format!("low-variance/{}/p1/amr-frame0", size_label(n));
            r.records
                .push(plan.to_run_record(&label, mesh.n_triangles(), &sol));
        }
        let no = "-";
        println!(
            "{:>8} {:>6} {no:>8} {no:>10} {:>10} {no:>8} {no:>12} {no:>8} {no:>9} {no:>8} {no:>8} {full_ms:>12.1} {no:>7}",
            size_label(n),
            0,
            grid.len(),
        );

        for t in 1..frames {
            let next_mesh = frame_mesh(t);
            let next_grid = ComputationGrid::quadrature_points(&next_mesh, 1);
            let diff_started = Instant::now();
            let dirty = DirtySet::diff(&mesh, &grid, &next_mesh, &next_grid);
            let diff_ms = diff_started.elapsed().as_secs_f64() * 1e3;
            let (next_plan, delta) = plan
                .patched(&next_mesh, &next_grid, &dirty, &options)
                .unwrap_or_else(|e| {
                    eprintln!("amr frame {t} at {n} triangles cannot patch: {e}");
                    std::process::exit(1);
                });
            // At smoke scale, cross-check the patched plan against an
            // independent fresh compile: bit-identical rows and weights.
            if n <= 4_000 {
                let fresh = EvalPlan::compile(&next_mesh, &next_grid, 1, &options);
                assert!(
                    next_plan.cols().eq(fresh.cols()),
                    "frame {t}: patched cols differ"
                );
                assert!(
                    next_plan.weights_bits().eq(fresh.weights_bits()),
                    "frame {t}: patched weights differ from fresh compile"
                );
            }
            let field = project_l2(&next_mesh, 1, test_function, 4);
            let sol = next_plan.apply_with(&field, &options);
            let label = format!("low-variance/{}/p1/amr-frame{}", size_label(n), t);
            r.records.push(next_plan.to_run_record_patched(
                &label,
                next_mesh.n_triangles(),
                &sol,
                &delta,
            ));
            let span_ms = |name: &str| {
                let spans = next_plan.build_spans().iter();
                let span = spans.filter(|s| s.name.strip_prefix("patch.") == Some(name));
                span.map(|s| s.duration_ns as f64 * 1e-6).sum::<f64>()
            };
            let [closure, recompute, scatter, chunks] =
                ["closure", "recompute", "scatter", "chunks"].map(span_ms);
            println!(
                "{:>8} {:>6} {:>8} {:>10} {:>10} {diff_ms:>8.2} {:>12.2} {closure:>8.2} {recompute:>9.2} {scatter:>8.2} {chunks:>8.2} {:>12.1} {:>6.1}%",
                size_label(n),
                t,
                delta.dirty_elements,
                delta.respliced_rows,
                next_grid.len(),
                delta.patch_ms,
                delta.full_build_ms,
                100.0 * delta.patch_ms / delta.full_build_ms
            );
            (mesh, grid, plan) = (next_mesh, next_grid, next_plan);
        }
    }
    println!(
        "(a moving front revalidates the plan at delta cost per frame; see DESIGN.md section 16)"
    );
}

/// The `serve` subcommand: drive the multi-tenant plan-cache service with
/// the seeded zipf traffic generator, then replay the identical request
/// stream against a naive compile-per-request baseline, and print the
/// side-by-side throughput and latency quantiles. Returns both run
/// records for the `--json` report.
fn serve_cmd(opts: &CliOptions) -> Vec<RunRecord> {
    let cfg = TrafficConfig {
        clients: opts.clients,
        requests: opts.requests,
        seed: opts.seed,
    };
    println!("\n== Plan-cache service: {} ==", traffic::describe(&cfg));
    eprintln!("  [driving the cached service...]");
    let cached = traffic::run_cached(&cfg);
    eprintln!("  [driving the naive compile-per-request baseline...]");
    let naive = traffic::run_naive(&cfg);

    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10} {:>9} {:>7} {:>7}",
        "mode", "wall ms", "req/s", "p50 us", "p99 us", "compiles", "hits", "waits"
    );
    for (mode, out) in [("cached", &cached), ("naive", &naive)] {
        println!(
            "{:>8} {:>10.1} {:>10.0} {:>10} {:>10} {:>9} {:>7} {:>7}",
            mode,
            out.wall_ms,
            out.throughput_rps,
            out.latency_us(0.50),
            out.latency_us(0.99),
            out.stats.compiles,
            out.stats.hits,
            out.stats.single_flight_waits
        );
    }
    let speedup = cached.throughput_rps / naive.throughput_rps;
    println!(
        "throughput: cached is {speedup:.1}x naive ({} compiles for {} requests, {} rows)",
        cached.stats.compiles, cached.stats.requests, cached.stats.rows
    );
    println!("(compile-once/apply-many economics as a service: see DESIGN.md section 14)");
    vec![cached.record, naive.record]
}

/// The `profile` subcommand: run both schemes on the smallest configured
/// size and print the phase and load-imbalance view.
fn profile(r: &mut Runner, sizes: &[usize]) {
    let n = sizes.iter().copied().min().expect("at least one size");
    println!("\n== Profile: {} triangles, low-variance, p=1 ==", n);
    for scheme in [Scheme::PerPoint, Scheme::PerElement] {
        r.run(MeshClass::LowVariance, n, 1, scheme);
    }
    for record in r.records.clone() {
        print_record_profile(&record);
    }
}

fn print_record_profile(record: &RunRecord) {
    println!(
        "\n-- {} ({} patches, {:.1} ms wall) --",
        record.label,
        record.patches.len(),
        record.wall_ms
    );
    println!("phases:");
    for s in &record.spans {
        println!(
            "  {:indent$}{:<24} {:>10.3} ms",
            "",
            s.name,
            s.duration_ns as f64 / 1e6,
            indent = 2 * s.depth as usize
        );
    }
    println!("load imbalance across patches:");
    println!(
        "  {:<20} {:>6} {:>12} {:>10} {:>8} {:>8}",
        "proxy", "n", "mean", "max/mean", "cov", "gini"
    );
    for (name, s) in record.imbalance() {
        println!(
            "  {:<20} {:>6} {:>12.1} {:>10.3} {:>8.3} {:>8.3}",
            name, s.n, s.mean, s.max_over_mean, s.cov, s.gini
        );
    }
}

/// The `checkjson` subcommand: parse a `--json` artifact and assert it
/// carries the content the observability layer promises. Exits non-zero
/// with a reason when the report is malformed or hollow.
fn checkjson(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    let report = RunReport::from_json(&text)?;
    if report.runs.is_empty() {
        return Err("report has no runs".to_string());
    }
    for run in &report.runs {
        let ctx = &run.label;
        if Scheme::from_label(&run.scheme).is_none()
            && run.scheme != SCHEME_LABEL
            && run.scheme != PATCH_SCHEME_LABEL
            && run.scheme != DIST_SCHEME_LABEL
            && run.scheme != SERVE_SCHEME_LABEL
        {
            return Err(format!("{ctx}: unknown scheme '{}'", run.scheme));
        }
        if (run.scheme == SCHEME_LABEL || run.scheme == PATCH_SCHEME_LABEL) && run.plan.is_none() {
            return Err(format!("{ctx}: plan run without plan stats"));
        }
        // Every evaluation run (direct schemes, plan apply, plan patch,
        // the rank-sharded runtime) reports which SIMD ISA its
        // reduction dispatched to and the throughput it achieved; serve
        // records aggregate applies of heterogeneous plans and carry none.
        if run.scheme == SERVE_SCHEME_LABEL {
            if run.simd.is_some() {
                return Err(format!(
                    "{ctx}: serve run with a simd record (serve aggregates \
                     heterogeneous applies)"
                ));
            }
        } else {
            let simd = run
                .simd
                .as_ref()
                .ok_or_else(|| format!("{ctx}: run without a simd record"))?;
            if SimdPolicy::from_label(&simd.policy).is_none() {
                return Err(format!("{ctx}: unknown simd policy '{}'", simd.policy));
            }
            let lanes_match_isa = matches!(
                (simd.isa.as_str(), simd.lanes),
                ("scalar", 1) | ("avx2", 4) | ("avx512", 8)
            );
            if !lanes_match_isa {
                return Err(format!(
                    "{ctx}: simd isa '{}' reporting {} lane(s)",
                    simd.isa, simd.lanes
                ));
            }
            if !simd.gflops.is_finite() || simd.gflops <= 0.0 {
                return Err(format!(
                    "{ctx}: simd record with non-positive throughput {} GFLOP/s",
                    simd.gflops
                ));
            }
        }
        // The `delta` object is present exactly on plan+patch runs, its
        // row/nnz counts are conserved against the plan, and the
        // patch pays at most a constant floor plus work proportional to
        // the respliced fraction of a full rebuild.
        if let Some(plan) = &run.plan {
            match (&plan.delta, run.scheme == PATCH_SCHEME_LABEL) {
                (None, true) => {
                    return Err(format!("{ctx}: plan+patch run without delta stats"));
                }
                (Some(_), false) => {
                    return Err(format!(
                        "{ctx}: delta stats on a '{}' run (expected only on '{}')",
                        run.scheme, PATCH_SCHEME_LABEL
                    ));
                }
                (Some(delta), true) => {
                    if delta.respliced_rows > plan.rows {
                        return Err(format!(
                            "{ctx}: {} respliced rows exceed the plan's {} rows",
                            delta.respliced_rows, plan.rows
                        ));
                    }
                    if delta.respliced_nnz > plan.nnz {
                        return Err(format!(
                            "{ctx}: {} respliced nnz exceed the plan's {} nnz",
                            delta.respliced_nnz, plan.nnz
                        ));
                    }
                    if delta.dirty_elements == 0 {
                        return Err(format!("{ctx}: plan+patch run with an empty dirty set"));
                    }
                    let timings_positive = delta.patch_ms > 0.0 && delta.full_build_ms > 0.0;
                    if !timings_positive {
                        return Err(format!(
                            "{ctx}: non-positive patch timing ({} ms patch, {} ms full)",
                            delta.patch_ms, delta.full_build_ms
                        ));
                    }
                    // Work-proportional amortization bound: a patch that
                    // resplices fraction f of the rows may cost at most
                    // 25% + 150%·f of the full compile (the constant floor
                    // absorbs diff/splice overhead at smoke scale, where
                    // the closure is a large fraction of a tiny mesh).
                    let f = delta.respliced_rows as f64 / plan.rows.max(1) as f64;
                    let bound = delta.full_build_ms * (0.25 + 1.5 * f);
                    if delta.patch_ms > bound {
                        return Err(format!(
                            "{ctx}: patch took {:.2} ms, over the {:.2} ms bound \
                             (full {:.2} ms, respliced fraction {:.3})",
                            delta.patch_ms, bound, delta.full_build_ms, f
                        ));
                    }
                }
                (None, false) => {}
            }
        }
        if run.spans.is_empty() {
            return Err(format!("{ctx}: no phase spans"));
        }
        if !run.spans.iter().any(|s| s.duration_ns > 0) {
            return Err(format!("{ctx}: all span durations are zero"));
        }
        if run.patches.is_empty() {
            return Err(format!("{ctx}: no per-patch stats"));
        }
        // Every counter of the run is some patch's work, counted once:
        // a dist run's patches are its ranks', a serve run's its tenants'.
        let patch_sum = Metrics::sum(run.patches.iter().map(|p| &p.metrics));
        if patch_sum != run.metrics {
            return Err(format!(
                "{ctx}: patch counters sum to {patch_sum:?}, not the run's {:?}",
                run.metrics
            ));
        }
        if run.scheme == DIST_SCHEME_LABEL {
            if run.comms.is_empty() {
                return Err(format!("{ctx}: dist run without per-rank comms ledgers"));
            }
            for phase in ["exchange.post", "exchange.drain", "eval", "reduce.gather"] {
                if !run.spans.iter().any(|s| s.name == phase) {
                    return Err(format!("{ctx}: dist run missing the '{phase}' span"));
                }
            }
            if run.comms.len() > 1 && !run.comms.iter().any(|c| c.bytes_sent > 0) {
                return Err(format!("{ctx}: multi-rank run counted no wire traffic"));
            }
            // A re-resolved rank had no link: its ledger reads zero.
            let ranks = run.comms.len() as u64;
            if ranks > 1 && run.comms.iter().all(|c| c.msgs_sent > 0) {
                // One coefficient push per peer.
                if let Some(c) = run.comms.iter().find(|c| c.msgs_sent != ranks - 1) {
                    return Err(format!(
                        "{ctx}: rank {} sent {} messages, not 1 to each of {} peers",
                        c.rank,
                        c.msgs_sent,
                        ranks - 1
                    ));
                }
                // Every message sent is received exactly once.
                let sum = |f: fn(&RankCommRecord) -> u64| run.comms.iter().map(f).sum::<u64>();
                let sent = (sum(|c| c.msgs_sent), sum(|c| c.bytes_sent));
                let recv = (sum(|c| c.msgs_recv), sum(|c| c.bytes_recv));
                if recv != sent {
                    return Err(format!(
                        "{ctx}: (messages, bytes) received {recv:?} for {sent:?} sent"
                    ));
                }
            }
        } else if run.scheme == SERVE_SCHEME_LABEL {
            // Serve runs promise the multi-tenant service ledger: aggregate
            // counters that add up, a latency histogram that saw every
            // request, and one ledger per tenant.
            let serve = run
                .serve
                .as_ref()
                .ok_or_else(|| format!("{ctx}: serve run without serve stats"))?;
            if serve.requests == 0 {
                return Err(format!("{ctx}: serve run served no requests"));
            }
            if serve.misses != serve.compiles {
                return Err(format!(
                    "{ctx}: {} misses but {} compiles",
                    serve.misses, serve.compiles
                ));
            }
            // One cache lookup per request, each counted exactly once.
            if serve.hits + serve.misses + serve.single_flight_waits != serve.requests {
                return Err(format!(
                    "{ctx}: {} hits + {} misses + {} single-flight waits but {} requests",
                    serve.hits, serve.misses, serve.single_flight_waits, serve.requests
                ));
            }
            if serve.service_us.count() != serve.requests {
                return Err(format!(
                    "{ctx}: latency histogram saw {} of {} requests",
                    serve.service_us.count(),
                    serve.requests
                ));
            }
            if serve.tenants.is_empty() {
                return Err(format!("{ctx}: serve run without per-tenant ledgers"));
            }
            let tenant_requests: u64 = serve.tenants.iter().map(|t| t.requests).sum();
            if tenant_requests != serve.requests {
                return Err(format!(
                    "{ctx}: tenant ledgers account for {tenant_requests} of {} requests",
                    serve.requests
                ));
            }
            // A tenant books a single-flight wait as a hit: it did not
            // compile. Compiles are charged to exactly one tenant each.
            let tenant_sum = |f: fn(&TenantLedger) -> u64| serve.tenants.iter().map(f).sum::<u64>();
            let tenant_hits = tenant_sum(|t| t.hits);
            if tenant_hits != serve.hits + serve.single_flight_waits {
                return Err(format!(
                    "{ctx}: tenant hits {tenant_hits} but {} hits + {} single-flight waits",
                    serve.hits, serve.single_flight_waits
                ));
            }
            let (tenant_misses, tenant_compiles) =
                (tenant_sum(|t| t.misses), tenant_sum(|t| t.compiles));
            if (tenant_misses, tenant_compiles) != (serve.compiles, serve.compiles) {
                return Err(format!(
                    "{ctx}: tenant misses {tenant_misses} and compiles {tenant_compiles} \
                     but {} compiles",
                    serve.compiles
                ));
            }
        }
    }
    println!(
        "ok: '{path}' carries {} instrumented run(s) for exhibit '{}'",
        report.runs.len(),
        report.exhibit
    );
    Ok(())
}

fn write_json(path: &str, opts: &CliOptions, records: Vec<RunRecord>) {
    let mut report = RunReport::new(&opts.command, opts.seed);
    report.runs = records;
    let text = report.to_pretty_string();
    if let Err(e) = std::fs::write(path, &text) {
        eprintln!("cannot write '{path}': {e}");
        std::process::exit(1);
    }
    eprintln!("  [wrote {} run record(s) to {path}]", report.runs.len());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_cli(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    if opts.help {
        println!("{USAGE}");
        return;
    }
    if opts.command == "checkjson" {
        let path = opts.path_arg.as_deref().expect("checked by parse_cli");
        if let Err(msg) = checkjson(path) {
            eprintln!("checkjson failed: {msg}");
            std::process::exit(1);
        }
        return;
    }

    let sizes: Vec<usize> = opts
        .sizes
        .clone()
        .unwrap_or_else(|| triangle_ladder(opts.full).to_vec());
    let caps = degree_caps(opts.full);
    let mut r = Runner::new(opts.seed, opts.simd);

    match opts.command.as_str() {
        "table1" => table1(&mut r, &sizes),
        "fig8" => fig8(&mut r, &sizes),
        "fig11" => throughput_figure(
            &mut r,
            MeshClass::LowVariance,
            &sizes,
            &caps,
            "Figure 11: simulated GFLOP/s, low-variance meshes",
        ),
        "fig12" => throughput_figure(
            &mut r,
            MeshClass::HighVariance,
            &sizes,
            &caps,
            "Figure 12: simulated GFLOP/s, high-variance meshes",
        ),
        "fig13" => fig13(&mut r, &sizes, &caps),
        "fig14" => match &opts.ranks {
            Some(ranks) => fig14_ranks(&mut r, &sizes, ranks),
            None => fig14(&mut r, &sizes),
        },
        "profile" => profile(&mut r, &sizes),
        "plan" => plan_cmd(&mut r, &sizes, opts.timesteps),
        "serve" => r.records.extend(serve_cmd(&opts)),
        "amr" => amr_cmd(&mut r, &sizes, opts.frames),
        "all" => {
            table1(&mut r, &sizes);
            fig8(&mut r, &sizes);
            throughput_figure(
                &mut r,
                MeshClass::LowVariance,
                &sizes,
                &caps,
                "Figure 11: simulated GFLOP/s, low-variance meshes",
            );
            throughput_figure(
                &mut r,
                MeshClass::HighVariance,
                &sizes,
                &caps,
                "Figure 12: simulated GFLOP/s, high-variance meshes",
            );
            fig13(&mut r, &sizes, &caps);
            match &opts.ranks {
                Some(ranks) => fig14_ranks(&mut r, &sizes, ranks),
                None => fig14(&mut r, &sizes),
            }
        }
        other => unreachable!("parse_cli validated the command '{other}'"),
    }

    if let Some(path) = &opts.json {
        write_json(path, &opts, r.records);
    }
}
