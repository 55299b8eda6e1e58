//! The benchmark's contract (`BENCHMARK.json`), the result every run
//! writes, and the tool that compares two sets of results against the
//! contract's bounds.

use crate::stats::{quantile, quartile_spread};
use std::path::Path;
use ustencil_trace::Json;

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// Whether smaller values are better.
    pub lower_is_better: bool,
    /// Fraction of the base by which it may worsen (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`, the one place names, units and bounds are written down.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// Metrics a user of the system sees, each with its regression bound.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of single layers, from the traced run.
    pub per_layer: Vec<MetricSpec>,
    /// Seconds one run measures unless told otherwise.
    pub run_seconds: f64,
}

impl Contract {
    /// The contract this binary was built against.
    pub fn load() -> Contract {
        Self::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is well-formed")
    }

    fn parse(text: &str) -> Result<Contract, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or(format!("BENCHMARK.json: no {key} array"))
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json: entry without {key}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|item| {
                    Ok(MetricSpec {
                        name: text_of(item, "name")?,
                        unit: text_of(item, "unit")?,
                        lower_is_better: text_of(item, "better")? == "lower",
                        bound: item.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Contract {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
        })
    }
}

/// One metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: String,
}

/// What one run of one workload produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Whether this was the traced run (per-layer metrics) or the untraced
    /// one (end-to-end metrics).
    pub traced: bool,
    /// Seed the inputs were generated from.
    pub seed: u64,
    /// Frames attempted.
    pub frames: usize,
    /// Frames that failed.
    pub failed_frames: usize,
    /// No frame failed and every check passed.
    pub correct: bool,
    /// Fold of every delivered value.
    pub checksum: u64,
    /// The metrics of this run, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Environment, frame statistics, checks, calibration: context a reader
    /// needs but no tool compares.
    pub details: Json,
}

impl RunResult {
    /// The result file's document.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().fold(Json::object(), |obj, m| {
            obj.set(
                &m.name,
                Json::object()
                    .set("value", m.value)
                    .set("unit", m.unit.as_str()),
            )
        });
        Json::object()
            .set("workload", self.workload.as_str())
            .set("traced", self.traced)
            .set("seed", self.seed)
            .set("frames", self.frames)
            .set("failed_frames", self.failed_frames)
            .set("correct", self.correct)
            .set("checksum", format!("{:016x}", self.checksum))
            .set("metrics", metrics)
            .set("details", self.details.clone())
    }

    /// Reads a result file's document back.
    pub fn from_json(doc: &Json) -> Result<RunResult, String> {
        let field = |key: &str| doc.get(key).ok_or(format!("result has no {key}"));
        let count = |key: &str| {
            field(key)?
                .as_u64()
                .ok_or(format!("result {key} is not a count"))
        };
        let flag = |key: &str| {
            field(key)?
                .as_bool()
                .ok_or(format!("result {key} is not a boolean"))
        };
        let Json::Obj(pairs) = field("metrics")? else {
            return Err("result metrics is not an object".into());
        };
        let metrics = pairs
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64);
                let unit = m.get("unit").and_then(Json::as_str);
                match (value, unit) {
                    (Some(value), Some(unit)) => Ok(Metric {
                        name: name.clone(),
                        value,
                        unit: unit.to_string(),
                    }),
                    _ => Err(format!("metric {name} lacks a value or a unit")),
                }
            })
            .collect::<Result<_, _>>()?;
        let checksum = field("checksum")?
            .as_str()
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or("result checksum is not 16 hex digits")?;
        Ok(RunResult {
            workload: field("workload")?
                .as_str()
                .ok_or("result workload is not a string")?
                .to_string(),
            traced: flag("traced")?,
            seed: count("seed")?,
            frames: count("frames")? as usize,
            failed_frames: count("failed_frames")? as usize,
            correct: flag("correct")?,
            checksum,
            metrics,
            details: field("details")?.clone(),
        })
    }

    /// Reads a result file.
    pub fn read(path: &Path) -> Result<RunResult, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&Json::parse(&text)?).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The line the driver reads: one JSON object, last on standard output.
    pub fn driver_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.frames.max(1),
            self.failed_frames,
            metrics.join(", ")
        )
    }
}

/// Fraction by which `candidate` is worse than `base`; negative when better.
pub fn worsening(spec: &MetricSpec, base: f64, candidate: f64) -> f64 {
    let delta = if spec.lower_is_better {
        candidate - base
    } else {
        base - candidate
    };
    delta / base.abs()
}

/// Every untraced result of `workload` in a set: `<dir>/*/<workload>.json`
/// for a set of several runs, else the one `<dir>/<workload>.json`. Never
/// both: a single run left in the directory of a later set is not one of its
/// samples.
fn read_set(dir: &Path, workload: &str) -> Result<Vec<RunResult>, String> {
    let file = format!("{workload}.json");
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .flatten()
        .map(|entry| entry.path().join(&file))
        .filter(|path| path.is_file())
        .collect();
    paths.sort();
    if paths.is_empty() {
        paths.push(dir.join(&file));
    }
    paths.iter().map(|path| RunResult::read(path)).collect()
}

/// Compares the untraced results of two sets of runs, metric by metric and
/// workload by workload, against the contract's bounds: the candidate's
/// median may not be worse than the base's by more than the bound. A set is
/// a directory of one run or of several (one sub-directory each). Where a
/// side's own run-to-run spread exceeds the bound the row is marked
/// `unresolved`: such a pair shows neither a change nor its absence.
///
/// Returns the printable table and the violations, each naming its metric
/// and workload.
pub fn compare(
    contract: &Contract,
    base_dir: &Path,
    candidate_dir: &Path,
) -> (String, Vec<String>) {
    let mut table = format!(
        "{:<11} {:<13} {:>4} {:>15} {:>7} {:>15} {:>7} {:>9} {:>6}\n",
        "workload", "metric", "runs", "base", "spread", "candidate", "spread", "worse by", "bound"
    );
    let mut violations = Vec::new();
    for workload in &contract.workloads {
        let (base, candidate) = match (
            read_set(base_dir, workload),
            read_set(candidate_dir, workload),
        ) {
            (Ok(base), Ok(candidate)) => (base, candidate),
            (base, candidate) => {
                violations.extend(base.err().into_iter().chain(candidate.err()));
                continue;
            }
        };
        for run in base.iter().chain(&candidate) {
            if !run.correct || run.failed_frames > 0 {
                violations.push(format!(
                    "failed_frames on {workload} (seed {}): {} of {} frames failed or a check did not pass",
                    run.seed, run.failed_frames, run.frames
                ));
            }
        }
        for spec in &contract.end_to_end {
            let bound = spec.bound.unwrap_or(0.0);
            let values = |runs: &[RunResult]| -> Option<Vec<f64>> {
                runs.iter().map(|run| run.metric(&spec.name)).collect()
            };
            let (Some(a), Some(b)) = (values(&base), values(&candidate)) else {
                violations.push(format!(
                    "{} on {workload}: missing from a result",
                    spec.name
                ));
                continue;
            };
            let (median_a, median_b) = (quantile(&a, 0.5), quantile(&b, 0.5));
            let (spread_a, spread_b) = (quartile_spread(&a), quartile_spread(&b));
            let worse = worsening(spec, median_a, median_b);
            let regressed = worse.is_nan() || worse > bound;
            let unresolved = !regressed && spread_a.max(spread_b) > bound;
            table.push_str(&format!(
                "{:<11} {:<13} {:>4} {:>15.6} {:>6.1}% {:>15.6} {:>6.1}% {:>+8.1}% {:>5.0}%{}\n",
                workload,
                spec.name,
                a.len().min(b.len()),
                median_a,
                100.0 * spread_a,
                median_b,
                100.0 * spread_b,
                100.0 * worse,
                100.0 * bound,
                if regressed {
                    "  REGRESSED"
                } else if unresolved {
                    "  unresolved"
                } else {
                    ""
                }
            ));
            if regressed {
                violations.push(format!(
                    "{} on {workload}: {median_b} {} is {:.1}% worse than {median_a}, bound {:.0}%",
                    spec.name,
                    spec.unit,
                    100.0 * worse,
                    100.0 * bound
                ));
            }
        }
    }
    (table, violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SPECS;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn contract_names_are_well_formed_and_unique() {
        let contract = Contract::load();
        let names: Vec<&String> = contract
            .workloads
            .iter()
            .chain(contract.end_to_end.iter().map(|m| &m.name))
            .chain(contract.per_layer.iter().map(|m| &m.name))
            .collect();
        for name in &names {
            assert!(name_ok(name), "bad name {name:?}");
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for metric in contract.end_to_end.iter().chain(&contract.per_layer) {
            assert!(metric.unit.len() <= 16, "unit of {}", metric.name);
            assert!(
                metric
                    .unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "unit of {}",
                metric.name
            );
        }
    }

    #[test]
    fn contract_lists_exactly_the_workloads_the_binary_runs() {
        let contract = Contract::load();
        let built: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        assert_eq!(contract.workloads, built);
        assert!(contract
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        let setup = contract.end_to_end.iter().find(|m| m.name == "setup_s");
        assert!(setup.is_some_and(|m| m.unit == "s" && m.lower_is_better));
        assert!((1.0..=60.0).contains(&contract.run_seconds));
    }

    fn sample() -> RunResult {
        RunResult {
            workload: "direct-p1".into(),
            traced: false,
            seed: 2013,
            frames: 12,
            failed_frames: 1,
            correct: false,
            checksum: 0xfeed_face_cafe_f00d,
            metrics: vec![
                Metric {
                    name: "frame_s_p50".into(),
                    value: 0.871_234_567_891,
                    unit: "s".into(),
                },
                Metric {
                    name: "points_per_s".into(),
                    value: 36_412.75,
                    unit: "points/s".into(),
                },
            ],
            details: Json::object()
                .set("environment", Json::object().set("nproc", 2usize))
                .set("failures", vec![Json::from("frame 3: panicked")]),
        }
    }

    #[test]
    fn result_round_trips_through_its_file_format() {
        let result = sample();
        let text = result.to_json().to_pretty_string();
        let back = RunResult::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, result);
    }

    #[test]
    fn driver_line_is_one_json_object_with_the_four_keys() {
        let line = sample().driver_line();
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        let Json::Obj(pairs) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(12));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(1));
        let p50 = doc
            .get("metrics")
            .and_then(|m| m.get("frame_s_p50"))
            .unwrap();
        assert_eq!(
            p50.get("value").and_then(Json::as_f64),
            Some(0.871_234_567_891)
        );
        assert_eq!(p50.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn compare_names_the_metric_and_workload_that_regressed() {
        let contract = Contract {
            workloads: vec!["direct-p1".into()],
            end_to_end: vec![
                MetricSpec {
                    name: "frame_s_p50".into(),
                    unit: "s".into(),
                    lower_is_better: true,
                    bound: Some(0.10),
                },
                MetricSpec {
                    name: "points_per_s".into(),
                    unit: "points/s".into(),
                    lower_is_better: false,
                    bound: Some(0.10),
                },
            ],
            per_layer: Vec::new(),
            run_seconds: 1.0,
        };
        let dir =
            std::env::temp_dir().join(format!("ustencil-bench-compare-{}", std::process::id()));
        let (a, b) = (dir.join("a"), dir.join("b"));
        std::fs::create_dir_all(&a).unwrap();
        std::fs::create_dir_all(&b).unwrap();
        let mut base = sample();
        base.correct = true;
        base.failed_frames = 0;
        let mut slower = base.clone();
        slower.metrics[0].value *= 1.2; // 20% slower frames: beyond the bound
        slower.metrics[1].value *= 0.95; // 5% less throughput: within it
        let write = |dir: &Path, r: &RunResult| {
            std::fs::write(dir.join("direct-p1.json"), r.to_json().to_pretty_string()).unwrap()
        };
        write(&a, &base);
        write(&b, &slower);

        let (table, violations) = compare(&contract, &a, &b);
        assert!(table.contains("points_per_s"));
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].starts_with("frame_s_p50 on direct-p1"));
        // The other direction is an improvement, not a regression.
        assert!(compare(&contract, &b, &a).1.is_empty());
        // A set compared with itself agrees.
        assert!(compare(&contract, &a, &a).1.is_empty());
        // A set of several runs is compared by its medians: one slow run
        // among three does not make a regression.
        let c = dir.join("c");
        for (run, result) in [&base, &slower, &base].into_iter().enumerate() {
            let sub = c.join(format!("run-{run}"));
            std::fs::create_dir_all(&sub).unwrap();
            write(&sub, result);
        }
        // A single run left behind in the set's directory is not a fourth
        // sample.
        write(&c, &slower);
        assert_eq!(read_set(&c, "direct-p1").unwrap().len(), 3);
        assert!(read_set(&c, "dist").is_err());
        let (table, violations) = compare(&contract, &a, &c);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(
            table.contains("unresolved"),
            "a 20% spread exceeds the 10% bound:\n{table}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
