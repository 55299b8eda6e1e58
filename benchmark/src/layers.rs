//! Per-layer metrics of a traced run, from three sources only: the spans
//! the benchmark recorded around public calls, the counters those calls
//! returned, and the stage replays.

use crate::frames::FrameLog;
use crate::host::Calibration;
use crate::replay::ReplayCounts;
use crate::spans::{calls, Span};
use crate::stats::median_or_zero;
use crate::workloads::Workload;

/// Spans whose median seconds per call become `<name>.busy_s`.
const BUSY_SPANS: [&str; 18] = [
    "mesh.generate",
    "mesh.refine",
    "dg.project",
    "siac.stencil",
    "quadrature.rule",
    "spatial.grid_build",
    "spatial.query",
    "geometry.clip",
    "core.run",
    "core.traversal",
    "plan.compile",
    "plan.apply",
    "plan.diff",
    "plan.patch",
    "plan.splice",
    "dist.run_dist",
    "dist.run_plan_dist",
    "dist.shard",
];

/// Median seconds per call of the spans called `name`; 0 when the workload
/// never made the call.
fn busy(spans: &[Span], name: &str) -> f64 {
    let seconds: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .collect();
    median_or_zero(&seconds)
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Every per-layer metric this run can report, by name. Metrics of layers
/// the workload does not call are left out (and print as 0).
pub fn derive(
    workload: &Workload,
    spans: &[Span],
    log: &FrameLog,
    replay: &ReplayCounts,
    calibration: &Calibration,
    max_abs_err: f64,
) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| out.push((name.to_string(), value));

    put("host.triad_gbytes_per_s", calibration.triad_gbytes_per_s);
    put("host.fma_gflops", calibration.fma_gflops);
    put("host.cores", calibration.cores as f64);

    for name in BUSY_SPANS {
        put(&format!("{name}.busy_s"), busy(spans, name));
    }
    put("core.run.calls", calls(spans, "core.run") as f64);
    put("plan.apply.calls", calls(spans, "plan.apply") as f64);

    // Stage replays over the 1-in-8 element sample.
    put("spatial.query.candidates", replay.candidates as f64);
    put(
        "spatial.query.hit_ratio",
        ratio(replay.hits as f64, replay.candidates as f64),
    );
    put("geometry.clip.calls", replay.clips as f64);
    put("geometry.clip.subregions", replay.subregions as f64);
    let quadrature = busy(spans, "core.traversal") - busy(spans, "geometry.clip");
    put("core.quadrature.busy_s", quadrature.max(0.0));

    // What the frames' public calls returned: exact counters from the first
    // traced frame, timings as the median over traced frames.
    let observed = || workload.observations.iter().flatten();
    let mut flops = 0.0;
    let mut seen: Vec<&str> = Vec::new();
    for obs in observed() {
        if seen.contains(&obs.name) {
            continue;
        }
        seen.push(obs.name);
        let values: Vec<f64> = observed()
            .filter(|o| o.name == obs.name)
            .map(|o| o.value)
            .collect();
        let value = if obs.exact {
            values[0]
        } else {
            median_or_zero(&values)
        };
        if obs.name == "core.run.flops" {
            flops = value;
        }
        put(obs.name, value);
    }
    let gflops = ratio(flops, busy(spans, "core.run")) * 1e-9;
    put("core.run.gflops", gflops);
    put(
        "core.run.fraction_of_fma",
        ratio(gflops, calibration.fma_gflops),
    );

    if let Some(plan) = &workload.plan {
        put("plan.compile.nnz", plan.nnz() as f64);
        put("plan.compile.bytes", plan.bytes() as f64);
        put(
            "plan.compile.intersection_tests",
            plan.build_metrics().intersection_tests as f64,
        );
        put(
            "plan.compile.rows_per_s",
            ratio(plan.rows() as f64, busy(spans, "plan.compile")),
        );
        // Computed from array sizes, not measured: the CSR arrays, the
        // field's coefficients, and the output vector, each touched once.
        let streamed = plan.bytes() + 8 * plan.n_elements() * plan.n_modes() + 8 * plan.rows();
        put(
            "plan.apply.bytes_per_row",
            ratio(streamed as f64, plan.rows() as f64),
        );
        let gbytes = ratio(streamed as f64, busy(spans, "plan.apply")) * 1e-9;
        put("plan.apply.gbytes_per_s", gbytes);
        put(
            "plan.apply.fraction_of_triad",
            ratio(gbytes, calibration.triad_gbytes_per_s),
        );
    }

    // Even frames ran untraced, odd frames traced, so each adjacent pair saw
    // the same moment of the host: the median of the pairwise ratios, not the
    // ratio of two medians taken over different moments.
    let pairwise: Vec<f64> = log
        .walls
        .chunks_exact(2)
        .map(|pair| pair[1] / pair[0] - 1.0)
        .collect();
    put("bench.trace_overhead_ratio", median_or_zero(&pairwise));
    put("bench.verify.max_abs_err", max_abs_err);
    out
}
