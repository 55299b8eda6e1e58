//! `ustencil-benchmark`: seven closed-loop frame workloads over the public
//! API of the layer crates, five end-to-end metrics per workload, and a
//! traced run that attributes the frame to layers. See `README.md`.

mod frames;
mod host;
mod layers;
mod replay;
mod report;
mod spans;
mod stats;
mod workloads;

use frames::{run_frames, Stop};
use report::{Contract, Metric, RunResult};
use spans::Recorder;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use ustencil_trace::Json;
use workloads::Workload;

const DEFAULT_SEED: u64 = 2013;
const MAX_SEED: u64 = 1 << 53;
/// A traced frame may cost this share more than an untraced one; above it the
/// benchmark's own spans distort what they measure.
const MAX_TRACE_OVERHEAD: f64 = 0.05;
/// Set-up, frames, checks and (traced) replays and calibration of one
/// workload are sized to end within this, at `run_seconds` of frames.
const MAX_RUN_SECONDS: f64 = 30.0;

const USAGE: &str = "\
usage: ustencil-benchmark [--workload NAME] [--seed N] [--seconds S | --smoke]
                          [--trace 0|1] [--runs R] [--out DIR]
       ustencil-benchmark --compare BASE_DIR CANDIDATE_DIR

Without --workload, every workload runs in a fresh process, untraced then
traced; with --runs R the untraced run is made R times, with seeds N, N+1,
..., into DIR/run-0, DIR/run-1, ... --smoke runs 2 frames per workload with
every check on. Results go to DIR (default: benchmark/out).
--compare checks the candidate's medians against the base's, metric by
metric, within the bounds of BENCHMARK.json.";

struct Options {
    workload: Option<String>,
    seed: u64,
    stop: Option<Stop>,
    smoke: bool,
    trace: bool,
    runs: usize,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: DEFAULT_SEED,
        stop: None,
        smoke: false,
        trace: false,
        runs: 1,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: cannot read {text:?}"))
        }
        match flag.as_str() {
            "--workload" => options.workload = Some(value()?.clone()),
            "--seed" => options.seed = number(flag, value()?)?,
            "--seconds" => {
                let seconds: f64 = number(flag, value()?)?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} is outside (0, 600]"));
                }
                options.stop = Some(Stop::Seconds(seconds));
            }
            "--smoke" => options.smoke = true,
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--runs" => options.runs = number(flag, value()?)?,
            "--out" => options.out = PathBuf::from(value()?),
            "--compare" => options.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if options.smoke {
        options.stop = Some(Stop::Frames(2));
    }
    // Seeds are written into results as JSON numbers, which hold whole
    // numbers exactly only up to 2^53; the runs use seed, seed + 1, ...
    if options.seed.saturating_add(options.runs as u64) > MAX_SEED {
        return Err(format!(
            "--seed {} with --runs {} goes beyond 2^53",
            options.seed, options.runs
        ));
    }
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let contract = Contract::load();
    let outcome = if let Some((base, candidate)) = &options.compare {
        let (table, violations) = report::compare(&contract, base, candidate);
        print!("{table}");
        if violations.is_empty() {
            println!("every end-to-end metric of every workload is within its bound");
            Ok(())
        } else {
            Err(violations.join("\n"))
        }
    } else if let Err(message) = host::guard_environment() {
        Err(message)
    } else if options.workload.is_some() {
        run_one(&contract, &options)
    } else {
        run_all(&contract, &options)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload in a process of its own, untraced then traced, and
/// fails if any of them did.
fn run_all(contract: &Contract, options: &Options) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut failed = Vec::new();
    for workload in &contract.workloads {
        // Untraced runs, one per seed, then the traced run on the first seed.
        let untraced = (0..options.runs as u64).map(|run| (false, run));
        for (traced, run) in untraced.chain([(true, 0)]) {
            let out = if traced || options.runs == 1 {
                options.out.clone()
            } else {
                options.out.join(format!("run-{run}"))
            };
            let mut command = std::process::Command::new(&exe);
            command
                .args(["--workload", workload.as_str()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .args(["--seed", &(options.seed + run).to_string()])
                .arg("--out")
                .arg(out);
            if options.smoke {
                command.arg("--smoke");
            } else if let Some(Stop::Seconds(s)) = options.stop {
                command.args(["--seconds", &s.to_string()]);
            }
            let label = if traced { "traced" } else { "untraced" };
            println!("== {workload} ({label}, seed {}) ==", options.seed + run);
            // `status` waits for the child, so none outlives this process.
            let status = command
                .status()
                .map_err(|e| format!("cannot start {workload}: {e}"))?;
            if !status.success() {
                failed.push(format!("{workload} ({label}): {status}"));
            }
        }
    }
    if failed.is_empty() {
        println!(
            "all {} workloads ran, every check passed",
            contract.workloads.len()
        );
        Ok(())
    } else {
        Err(format!("failed:\n  {}", failed.join("\n  ")))
    }
}

/// How one workload is to be measured.
struct Plan {
    spec: workloads::Spec,
    seed: u64,
    stop: Stop,
    traced: bool,
    /// A toy-sized host calibration: for `--smoke` and the tests.
    quick: bool,
}

/// Sets a workload up, runs its frame loop, checks its outputs and — in a
/// traced run — replays its stages and calibrates the host. Returns the
/// result and the spans recorded.
fn measure(contract: &Contract, plan: &Plan) -> Result<(RunResult, Vec<spans::Span>), String> {
    let Plan {
        spec,
        seed,
        stop,
        traced,
        quick,
    } = *plan;
    let ranks = host::dist_ranks();
    let run_started = Instant::now();
    let mut warnings: Vec<String> = Vec::new();

    // Everything before the first frame: input generation and any plan the
    // frames then reuse. Its wall is `setup_s`.
    let mut rec = Recorder::new(traced);
    let setup_started = Instant::now();
    let mut workload = rec.span("setup", |rec| Workload::setup(spec, seed, ranks, rec));
    let setup_s = setup_started.elapsed().as_secs_f64();
    let points = workload.points();

    let log = run_frames(&mut workload, stop, traced, &mut rec);
    // Before the checks and replays allocate anything of their own.
    let peak_rss_mib = host::peak_rss_mib();

    rec.set_enabled(traced);
    let mut checks = Vec::new();
    let mut max_abs_err: f64 = 0.0;
    for (t, outputs) in log.first.iter().chain(&log.last) {
        let err = rec.span("check", |rec| workload.check(*t, outputs, rec));
        max_abs_err = max_abs_err.max(err);
        checks.push(Json::object().set("frame", *t).set("max_abs_err", err));
    }
    let checks_pass = !checks.is_empty() && max_abs_err <= workload.check_tolerance();

    let frames = log.walls.len();
    let (tail_percentile, tail_backed) = stats::tail_percentile(frames);
    let frame_s_p50 = stats::quantile(&log.walls, 0.5);
    let frame_s_tail = stats::quantile(&log.walls, tail_percentile as f64 / 100.0);
    let numbers = |xs: &[f64]| xs.iter().map(|&x| Json::from(x)).collect::<Vec<_>>();
    let mut details = Json::object()
        .set("environment", host::environment())
        .set("ranks", ranks)
        .set("triangles", workload.mesh.n_triangles())
        .set("points", points)
        .set("longest_edge", workload.mesh.max_edge_length())
        .set("h_factor", workload.h_factor)
        .set(
            "frame_s",
            Json::object()
                .set("samples", frames)
                .set("p50", frame_s_p50)
                .set("tail", frame_s_tail)
                .set("tail_percentile", tail_percentile)
                .set("tail_has_ten_samples_beyond", tail_backed)
                .set("walls", numbers(&log.walls)),
        )
        .set("check_max_abs_err", max_abs_err)
        .set("checks", checks)
        .set(
            "failures",
            log.failures
                .iter()
                .map(|f| Json::from(f.as_str()))
                .collect::<Vec<_>>(),
        );

    let measured: Vec<(String, f64)> = if traced {
        let counts = replay::run(&workload, seed, &mut rec);
        let calibration = host::calibrate(quick);
        details = details
            .set("calibration", calibration.to_json())
            .set("replay_sampled_elements", counts.sampled_elements);
        let derived = layers::derive(
            &workload,
            rec.spans(),
            &log,
            &counts,
            &calibration,
            max_abs_err,
        );
        let overhead = derived
            .iter()
            .find(|(name, _)| name == "bench.trace_overhead_ratio")
            .map_or(0.0, |&(_, ratio)| ratio);
        if overhead > MAX_TRACE_OVERHEAD {
            warnings.push(format!(
                "bench.trace_overhead_ratio {overhead:+.3} is above {MAX_TRACE_OVERHEAD} \
                 (median over {} traced/untraced frame pairs): a defect of the benchmark \
                 unless the pairs are too few to tell",
                frames / 2
            ));
        }
        derived
    } else {
        let busy: f64 = log.walls.iter().sum();
        vec![
            ("setup_s".into(), setup_s),
            ("frame_s_p50".into(), frame_s_p50),
            ("frame_s_tail".into(), frame_s_tail),
            ("points_per_s".into(), (points * frames) as f64 / busy),
            ("peak_rss_mib".into(), peak_rss_mib),
        ]
    };
    let run_s = run_started.elapsed().as_secs_f64();
    let longer_than_sized_for = matches!(stop, Stop::Seconds(s) if s > contract.run_seconds);
    if run_s > MAX_RUN_SECONDS && !longer_than_sized_for {
        warnings.push(format!(
            "this run took {run_s:.1} s, above the {MAX_RUN_SECONDS} s the workloads are sized for"
        ));
    }
    details = details.set("run_s", run_s).set(
        "warnings",
        warnings
            .iter()
            .map(|w| Json::from(w.as_str()))
            .collect::<Vec<_>>(),
    );
    let listed = if traced {
        &contract.per_layer
    } else {
        &contract.end_to_end
    };
    if let Some((name, _)) = measured
        .iter()
        .find(|(n, _)| !listed.iter().any(|m| m.name == *n))
    {
        return Err(format!("metric {name} is not listed in BENCHMARK.json"));
    }
    // Every listed metric is reported: a layer the workload never calls reads
    // 0. A non-finite value cannot be written as JSON; it fails the run.
    let mut finite = true;
    let metrics = listed
        .iter()
        .map(|m| {
            let value = measured
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(0.0, |&(_, v)| v);
            finite &= value.is_finite();
            Metric {
                name: m.name.clone(),
                value: if value.is_finite() { value } else { 0.0 },
                unit: m.unit.clone(),
            }
        })
        .collect();
    let result = RunResult {
        workload: spec.name.to_string(),
        traced,
        seed,
        frames,
        failed_frames: log.failed,
        correct: log.failed == 0 && checks_pass && finite,
        checksum: log.checksum,
        metrics,
        details,
    };
    Ok((result, rec.into_spans()))
}

/// Runs one workload in this process, writes its files and prints it.
fn run_one(contract: &Contract, options: &Options) -> Result<(), String> {
    let name = options.workload.as_deref().expect("checked by the caller");
    let spec = workloads::find(name).ok_or(format!(
        "unknown workload {name:?}; known: {}",
        contract.workloads.join(", ")
    ))?;
    let plan = Plan {
        spec,
        seed: options.seed,
        stop: options.stop.unwrap_or(Stop::Seconds(contract.run_seconds)),
        traced: options.trace,
        quick: options.smoke,
    };
    let (result, spans) = measure(contract, &plan)?;

    std::fs::create_dir_all(&options.out).map_err(|e| format!("{}: {e}", options.out.display()))?;
    let write = |file: String, doc: &Json| {
        let path = options.out.join(file);
        std::fs::write(&path, doc.to_pretty_string())
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    if plan.traced {
        write(format!("{name}.layers.json"), &result.to_json())?;
        write(format!("{name}.trace.json"), &spans::to_json(&spans))?;
    } else {
        write(format!("{name}.json"), &result.to_json())?;
    }

    for m in &result.metrics {
        println!("{:<34} {:>18.9} {}", m.name, m.value, m.unit);
    }
    println!(
        "{name}: seed {}, {} frames, {} failed, checksum {:016x}",
        result.seed, result.frames, result.failed_frames, result.checksum
    );
    for key in ["failures", "warnings"] {
        if let Some(lines) = result.details.get(key).and_then(Json::as_array) {
            for line in lines.iter().filter_map(Json::as_str) {
                println!("  {}: {line}", key.trim_end_matches('s'));
            }
        }
    }
    println!("{}", result.driver_line());
    if result.correct {
        Ok(())
    } else {
        Err(format!(
            "{name}: {} frame(s) failed or a check did not pass (max_abs_err {:e})",
            result.failed_frames,
            result
                .details
                .get("check_max_abs_err")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN)
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustencil_mesh::MeshClass;
    use workloads::{Kind, Spec};

    /// Every kind of workload at toy size, through the whole measurement:
    /// frames, checks, replays, calibration, per-layer derivation.
    #[test]
    fn every_kind_measures_checks_and_traces_at_toy_size() {
        let contract = Contract::load();
        for (kind, class, triangles, degree) in [
            (Kind::Direct, MeshClass::HighVariance, 160, 2),
            (Kind::Compile, MeshClass::LowVariance, 200, 1),
            (Kind::Timeseries, MeshClass::LowVariance, 200, 1),
            (Kind::Amr, MeshClass::LowVariance, 1_500, 1),
            (Kind::Dist, MeshClass::LowVariance, 200, 1),
        ] {
            let spec = Spec {
                name: "toy",
                kind,
                class,
                triangles,
                degree,
            };
            for traced in [false, true] {
                let plan = Plan {
                    spec,
                    seed: 5,
                    stop: Stop::Frames(4),
                    traced,
                    quick: true,
                };
                let (result, spans) = measure(&contract, &plan).expect("metrics are all listed");
                assert!(result.correct, "{kind:?}: {:?}", result.details);
                assert_eq!((result.frames, result.failed_frames), (4, 0));
                let listed = if traced {
                    &contract.per_layer
                } else {
                    &contract.end_to_end
                };
                let names: Vec<&str> = result.metrics.iter().map(|m| m.name.as_str()).collect();
                let expected: Vec<&str> = listed.iter().map(|m| m.name.as_str()).collect();
                assert_eq!(names, expected);
                if !traced {
                    assert!(spans.is_empty());
                    assert!(result.metrics.iter().all(|m| m.value > 0.0), "{kind:?}");
                    continue;
                }
                // Frames 1 and 3 were traced; each frame span's tree of self
                // times adds up to it.
                let own = spans::self_seconds(&spans);
                for (root, span) in spans.iter().enumerate().filter(|(_, s)| s.name == "frame") {
                    let mut total = 0.0;
                    for (i, s) in spans.iter().enumerate() {
                        let mut at = Some(i);
                        while let Some(j) = at {
                            if j == root {
                                total += own[i];
                                break;
                            }
                            at = spans[j].parent;
                        }
                        assert!(s.end_ns >= s.start_ns);
                    }
                    assert!((total - span.seconds()).abs() <= 0.01 * span.seconds());
                }
                assert_eq!(spans::calls(&spans, "frame"), 2);
                let value = |name: &str| result.metric(name).unwrap();
                assert!(value("host.triad_gbytes_per_s") > 0.0);
                assert!(value("host.fma_gflops") > 0.0);
                assert!(value("core.traversal.busy_s") >= value("geometry.clip.busy_s"));
                assert!((0.0..=1.0).contains(&value("spatial.query.hit_ratio")));
                let busy_layer = match kind {
                    Kind::Direct => "core.run.busy_s",
                    Kind::Compile => "plan.compile.busy_s",
                    Kind::Timeseries => "plan.apply.busy_s",
                    Kind::Amr => "plan.patch.busy_s",
                    Kind::Dist => "dist.run_plan_dist.busy_s",
                };
                assert!(value(busy_layer) > 0.0, "{kind:?}");
            }
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let driver = parse_args(&args(&[
            "--workload",
            "amr",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(driver.workload.as_deref(), Some("amr"));
        assert_eq!((driver.seed, driver.trace), (7, true));
        assert!(matches!(driver.stop, Some(Stop::Seconds(s)) if s == 10.0));
        assert!(matches!(
            parse_args(&args(&["--smoke"])).unwrap().stop,
            Some(Stop::Frames(2))
        ));
        // No third stop mode, and no seed a result file cannot hold.
        assert!(parse_args(&args(&["--frames", "5"])).is_err());
        assert!(parse_args(&args(&["--seed", "9007199254740992"])).is_err());
        assert!(parse_args(&args(&["--seed", "9007199254740990", "--runs", "10"])).is_err());
        assert!(parse_args(&args(&["--seed", "9007199254740990"])).is_ok());
        assert!(parse_args(&args(&["--trace", "2"])).is_err());
        assert!(parse_args(&args(&["--seconds", "0"])).is_err());
        assert!(parse_args(&args(&["--seed"])).is_err());
        assert!(parse_args(&args(&["--bogus"])).is_err());
    }
}
