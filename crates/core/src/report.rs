//! The structured run report: one JSON-serializable record unifying phase
//! spans, work counters, per-patch stats, and the cost-model simulation of
//! a post-processing run.
//!
//! A [`RunReport`] is what the `reproduce` harness writes with `--json` and
//! what CI parses back to validate artifacts; [`RunReport::from_json`]
//! reverses [`RunReport::to_json`] exactly (emit → parse → compare is a
//! unit-tested identity). Derived quantities — the load-imbalance summary
//! and simulated GFLOP/s — are emitted for readability but recomputed on
//! parse, so they can never disagree with the underlying data.
//!
//! Every record below is declared once, through
//! [`json_record!`](ustencil_trace::json_record): the struct's field names,
//! in declaration order, *are* the JSON keys, and a derived key is declared
//! on the field it follows.

use crate::blocks::BlockStats;
use crate::device::SimReport;
use crate::engine::Solution;
use crate::metrics::Metrics;
use ustencil_trace::{json_record, Hist64, ImbalanceSummary, Json, JsonField, SpanRecord};

/// Version of the report JSON layout. Bumped whenever a required key is
/// added or changes meaning; [`RunReport::from_json`] rejects documents
/// written under any other version (including pre-versioned ones) with a
/// message naming both versions, so stale artifacts fail loudly instead of
/// parsing into garbage. v14 removes the run-level `histograms` object
/// together with the per-block distribution probes that filled it.
pub const REPORT_SCHEMA_VERSION: u64 = 14;

/// A whole harness invocation: which exhibit ran, with what seed, and every
/// run it executed.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The exhibit or subcommand that produced this report.
    pub exhibit: String,
    /// Mesh-generation seed of the invocation.
    pub seed: u64,
    /// One record per executed configuration.
    pub runs: Vec<RunRecord>,
}

json_record! {
    /// Compact per-patch record: a [`BlockStats`] as the report carries it.
    #[derive(Debug, Clone, PartialEq)]
    pub struct PatchRecord {
        /// Host wall-clock nanoseconds spent evaluating the patch.
        pub wall_ns: u64,
        /// Elements assigned to the patch (0 for per-point blocks).
        pub elements: u64,
        /// Grid points the patch wrote.
        pub points: u64,
        /// The patch's work counters.
        pub metrics: Metrics,
    }
}

impl From<&BlockStats> for PatchRecord {
    fn from(s: &BlockStats) -> Self {
        Self {
            wall_ns: s.wall_ns,
            elements: s.elements,
            points: s.points,
            metrics: s.metrics,
        }
    }
}

json_record! {
    /// Size and timing of a compiled evaluation plan (`ustencil-plan`), when a
    /// run went through the plan path instead of direct evaluation. Build and
    /// apply times are reported separately because the whole point of a plan is
    /// paying the build once and amortizing it over many applies.
    #[derive(Debug, Clone, PartialEq)]
    pub struct PlanStats {
        /// Output rows (grid points) of the plan.
        pub rows: u64,
        /// Stored `(point, element)` entries (CSR non-zeros).
        pub nnz: u64,
        /// Weight values per entry (the field's modes per element).
        pub n_modes: u64,
        /// In-memory size of the plan's arrays, in bytes.
        pub bytes: u64,
        /// Wall-clock milliseconds spent compiling the plan.
        pub build_ms: f64,
        /// Wall-clock milliseconds of one apply (the amortized unit).
        pub apply_ms: f64,
        /// Incremental-recompilation stats when the plan was produced by
        /// patching an existing plan (`scheme = "plan+patch"`) instead of a
        /// fresh compile; `None` on the full-compile path.
        pub delta: Option<DeltaStats>,
    }
}

json_record! {
    /// Cost and shape of one incremental plan patch: how much of the operator a
    /// dirty mesh region actually invalidated after inflating it by the
    /// `(3k+1)h` stencil footprint, and what the splice cost relative to the
    /// full compile it avoided.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct DeltaStats {
        /// Mesh elements in the dirty set (changed plus vanished).
        pub dirty_elements: u64,
        /// Plan rows recomputed and spliced (the footprint closure of the dirty
        /// set, plus rows of newly created grid points).
        pub respliced_rows: u64,
        /// CSR non-zeros in the respliced rows.
        pub respliced_nnz: u64,
        /// Wall-clock milliseconds of the patch (closure + row recompute +
        /// splice).
        pub patch_ms: f64,
        /// Wall-clock milliseconds of the full compile the patch stands in for
        /// (the base plan's build wall, carried across chained patches).
        pub full_build_ms: f64,
    }
}

json_record! {
    /// One rank's communication ledger in a rank-sharded run: shard shape,
    /// counted wire traffic, coarse phase timings, and the rank's exposed
    /// communication time. Emitted for every rank of a `scheme = "dist"` run;
    /// empty for single-address-space runs.
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct RankCommRecord {
        /// Rank id (0-based; rank 0 is the coordinator).
        pub rank: u64,
        /// Elements the rank owns.
        pub owned_elements: u64,
        /// Ghost-ring elements replicated onto the rank.
        pub halo_elements: u64,
        /// Grid points the rank resolves.
        pub owned_points: u64,
        /// Messages the rank handed to the transport.
        pub msgs_sent: u64,
        /// Wire bytes the rank handed to the transport.
        pub bytes_sent: u64,
        /// Messages the rank received.
        pub msgs_recv: u64,
        /// Wire bytes the rank received.
        pub bytes_recv: u64,
        /// Nanoseconds of exchange (post + drain).
        pub exchange_ns: u64,
        /// Nanoseconds in the local evaluation phase.
        pub eval_ns: u64,
        /// Nanoseconds in the local reduce + gather phase.
        pub reduce_ns: u64,
    }
}

json_record! {
    /// One tenant's ledger in a plan-cache service run: everything the serve
    /// layer observed about this client's traffic. Latencies are microsecond
    /// [`Hist64`] histograms, so tail quantiles (p99) come from real
    /// distribution data rather than a mean.
    #[derive(Debug, Clone, PartialEq)]
    pub struct TenantLedger {
        /// Tenant (client) id, 0-based.
        pub tenant: u64,
        /// Requests the tenant submitted.
        pub requests: u64,
        /// Requests answered from a plan the tenant did not compile: a
        /// resident hit or a single-flight wait, so the tenants' hits sum to
        /// the run's `hits + single_flight_waits`.
        pub hits: u64,
        /// Requests that found no resident or in-flight plan.
        pub misses: u64,
        /// Compiles charged to this tenant (it was the single-flight leader).
        pub compiles: u64,
        /// Output rows evaluated for the tenant.
        pub rows: u64,
        /// Microseconds from request to answer (lookup or compile, and apply).
        pub service_us: Hist64,
    }
}

json_record! {
    /// Aggregate ledger of a plan-cache service run (`scheme = "serve"`): cache
    /// effectiveness, single-flight behaviour, and the run-wide latency
    /// distributions, plus one [`TenantLedger`] per client. Every request is
    /// one cache lookup, so `hits + misses + single_flight_waits == requests`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ServeStats {
        /// Client threads that generated traffic.
        pub clients: u64,
        /// Total requests served.
        pub requests: u64,
        /// Distinct meshes in the fixture catalog.
        pub catalog: u64,
        /// Requests answered from a resident compiled plan.
        pub hits: u64,
        /// Requests that found no resident or in-flight plan.
        pub misses: u64,
        /// Plans actually compiled (== misses: single-flight followers do
        /// not compile).
        pub compiles: u64,
        /// Requesters that blocked on another request's in-flight compile
        /// instead of duplicating it.
        pub single_flight_waits: u64,
        /// Output rows evaluated across all requests.
        pub rows: u64,
        /// Resident plan bytes of the cache when the run ended.
        pub cache_bytes: u64,
        /// Run-wide request-to-answer latency distribution, microseconds.
        pub service_us: Hist64,
        /// Per-tenant ledgers, ordered by tenant id.
        pub tenants: Vec<TenantLedger>,
    }
}

json_record! {
    /// What the SIMD dispatch layer actually did in a run: the policy the
    /// caller asked for, the ISA
    /// [`SimdPolicy::resolve`](crate::simd::SimdPolicy::resolve) picked on
    /// this host, and the achieved
    /// throughput derived from the run's modeled flop counter over its wall
    /// time.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SimdRecord {
        /// [`SimdPolicy::label`](crate::simd::SimdPolicy::label) the run was
        /// configured with (`"auto"`, `"scalar"`, `"f64x4"`, `"f64x8"`).
        pub policy: String,
        /// [`SimdIsa::label`](crate::simd::SimdIsa::label) the policy resolved
        /// to on this host (`"scalar"`, `"avx2"`, `"avx512"`).
        pub isa: String,
        /// f64 lanes of the dispatched ISA (1 for scalar).
        pub lanes: u64,
        /// Achieved throughput: modeled flops over wall time, GFLOP/s.
        pub gflops: f64,
    }
}

impl SimdRecord {
    /// Builds the record from a run's resolved dispatch and measured
    /// totals (`flops` from the metrics counter, `wall_secs` of the
    /// evaluation).
    pub fn measured(
        policy: crate::simd::SimdPolicy,
        isa: crate::simd::SimdIsa,
        flops: u64,
        wall_secs: f64,
    ) -> Self {
        let gflops = if wall_secs > 0.0 {
            flops as f64 / wall_secs / 1e9
        } else {
            0.0
        };
        Self {
            policy: policy.label().to_string(),
            isa: isa.label().to_string(),
            lanes: isa.lanes() as u64,
            gflops,
        }
    }
}

json_record! {
    /// Everything observed about one post-processing run.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct RunRecord {
        /// Human-readable configuration label (e.g. `"low-variance/4k/p1"`).
        pub label: String,
        /// [`Scheme::label`](crate::Scheme::label) of the scheme that ran.
        pub scheme: String,
        /// Mesh size in triangles.
        pub n_triangles: u64,
        /// Evaluation points.
        pub n_points: u64,
        /// Host wall-clock milliseconds of the evaluation (build + eval).
        pub wall_ms: f64,
        /// Aggregated work counters.
        pub metrics: Metrics,
        /// Phase spans (empty when the run was not instrumented).
        pub spans: Vec<SpanRecord>,
        /// Per-patch stats, and the load-imbalance summary derived from
        /// them.
        pub patches: Vec<PatchRecord> => imbalance(Self::imbalance),
        /// Cost-model simulation of the run, when one was computed.
        pub device_sim: Option<SimReport>,
        /// Evaluation-plan stats, when the run applied a compiled plan.
        pub plan: Option<PlanStats>,
        /// Per-rank communication ledgers (empty unless the run was
        /// rank-sharded).
        pub comms: Vec<RankCommRecord>,
        /// Plan-cache service ledger (present only for `scheme = "serve"`
        /// runs).
        pub serve: Option<ServeStats>,
        /// SIMD dispatch summary (policy, resolved ISA, lanes, GFLOP/s);
        /// `None` for runs that never touch the evaluation kernels (e.g.
        /// serve traffic replays).
        pub simd: Option<SimdRecord>,
    }
}

impl RunRecord {
    /// Builds a record from a finished run.
    pub fn from_solution(
        label: &str,
        n_triangles: usize,
        solution: &Solution,
        device_sim: Option<SimReport>,
    ) -> Self {
        Self {
            label: label.to_string(),
            scheme: solution.scheme.label().to_string(),
            n_triangles: n_triangles as u64,
            n_points: solution.values.len() as u64,
            wall_ms: solution.wall.as_secs_f64() * 1e3,
            metrics: solution.metrics,
            spans: solution.spans.clone(),
            patches: solution.block_stats.iter().map(Into::into).collect(),
            device_sim,
            simd: Some(solution.simd.clone()),
            ..Self::default()
        }
    }

    /// Load-imbalance summaries over the per-patch stats, one per cost
    /// proxy: measured wall time, candidate tests, and quadrature volume.
    pub fn imbalance(&self) -> Vec<(String, ImbalanceSummary)> {
        let of = |f: &dyn Fn(&PatchRecord) -> u64| {
            let values: Vec<f64> = self.patches.iter().map(|p| f(p) as f64).collect();
            ImbalanceSummary::from_values(&values)
        };
        vec![
            ("wall_ns".into(), of(&|p| p.wall_ns)),
            (
                "intersection_tests".into(),
                of(&|p| p.metrics.intersection_tests),
            ),
            ("quad_evals".into(), of(&|p| p.metrics.quad_evals)),
        ]
    }
}

impl RunReport {
    /// An empty report for the given exhibit and seed.
    pub fn new(exhibit: &str, seed: u64) -> Self {
        Self {
            exhibit: exhibit.to_string(),
            seed,
            runs: Vec::new(),
        }
    }

    /// Serializes the report to a JSON document. The `"schema"` key is
    /// emitted first so a human (or a failing diff) sees the version at
    /// the top of the file.
    pub fn to_json(&self) -> Json {
        Json::object()
            .set("schema", REPORT_SCHEMA_VERSION)
            .set("exhibit", self.exhibit.as_str())
            .set("seed", self.seed)
            .set("runs", self.runs.to_json())
    }

    /// Serializes the report to pretty-printed JSON text.
    pub fn to_pretty_string(&self) -> String {
        self.to_json().to_pretty_string()
    }

    /// Parses a report back from JSON text. Exact inverse of
    /// [`to_json`](Self::to_json): derived fields (`imbalance`, `gflops`)
    /// are ignored and recomputed on demand.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        match doc.get("schema").and_then(Json::as_u64) {
            Some(v) if v == REPORT_SCHEMA_VERSION => {}
            Some(v) => {
                return Err(format!(
                    "report schema version {v} is not supported: this build reads \
                     version {REPORT_SCHEMA_VERSION}; re-run the harness to regenerate \
                     the report"
                ));
            }
            None => {
                return Err(format!(
                    "report has no 'schema' key (written before schema versioning, \
                     pre-v2): this build reads version {REPORT_SCHEMA_VERSION}; \
                     re-run the harness to regenerate the report"
                ));
            }
        }
        Ok(Self {
            exhibit: doc.field("exhibit")?,
            seed: doc.field("seed")?,
            runs: doc.field("runs")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{PostProcessor, Scheme};
    use crate::grid_points::ComputationGrid;
    use ustencil_dg::project_l2;
    use ustencil_mesh::{generate_mesh, MeshClass};

    fn small_report() -> RunReport {
        let mesh = generate_mesh(MeshClass::LowVariance, 120, 3);
        let field = project_l2(&mesh, 1, |x, y| x - y, 0);
        let grid = ComputationGrid::quadrature_points(&mesh, 1);
        let mut report = RunReport::new("test", 3);
        for scheme in [Scheme::PerPoint, Scheme::PerElement] {
            let sol = PostProcessor::new(scheme)
                .blocks(4)
                .h_factor(0.5)
                .parallel(false)
                .instrument(true)
                .run(&mesh, &field, &grid);
            let sim = sol.simulate(&crate::device::DeviceConfig::default());
            report.runs.push(RunRecord::from_solution(
                &format!("test/{}", scheme.label()),
                mesh.n_triangles(),
                &sol,
                Some(sim),
            ));
        }
        report
    }

    #[test]
    fn json_round_trip_is_identity() {
        let report = small_report();
        let text = report.to_pretty_string();
        let parsed = RunReport::from_json(&text).expect("parse emitted report");
        assert_eq!(parsed, report);
        // And the re-emission is byte-identical (stable field order).
        assert_eq!(parsed.to_pretty_string(), text);
    }

    #[test]
    fn report_contains_the_advertised_content() {
        let report = small_report();
        assert_eq!(report.runs.len(), 2);
        for run in &report.runs {
            assert!(crate::Scheme::from_label(&run.scheme).is_some());
            assert!(!run.spans.is_empty(), "instrumented run must have spans");
            assert!(run.spans.iter().any(|s| s.duration_ns > 0));
            assert!(!run.patches.is_empty());
            let patch_sum = Metrics::sum(run.patches.iter().map(|p| &p.metrics));
            assert_eq!(patch_sum, run.metrics);
            let imb = run.imbalance();
            assert_eq!(imb.len(), 3);
            for (_, s) in imb {
                assert!(s.max_over_mean >= 1.0 - 1e-12);
                assert!((0.0..1.0).contains(&s.gini));
            }
            assert!(run.device_sim.as_ref().unwrap().total_ms > 0.0);
        }
    }

    #[test]
    fn malformed_reports_are_rejected() {
        assert!(RunReport::from_json("{}").is_err());
        assert!(RunReport::from_json("not json").is_err());
        let mut report = RunReport::new("x", 1);
        report.runs.push(RunRecord {
            label: "l".into(),
            scheme: "per-point".into(),
            n_triangles: 1,
            n_points: 1,
            wall_ms: 0.5,
            metrics: Metrics::default(),
            spans: vec![],
            patches: vec![],
            device_sim: None,
            plan: None,
            comms: vec![],
            serve: None,
            simd: None,
        });
        // A valid minimal report still round-trips.
        let text = report.to_pretty_string();
        assert_eq!(RunReport::from_json(&text).unwrap(), report);
        // Corrupting a required field breaks the parse.
        let broken = text.replace("\"seed\"", "\"sead\"");
        assert!(RunReport::from_json(&broken).is_err());
    }

    #[test]
    fn schema_versioning_rejects_old_and_foreign_reports() {
        let report = small_report();
        let text = report.to_pretty_string();
        // The version is the first key of the document.
        assert!(text
            .trim_start_matches('{')
            .trim_start()
            .starts_with(&format!("\"schema\": {REPORT_SCHEMA_VERSION}")));
        // A pre-versioning report (no schema key) is rejected with a
        // message that says what to do about it.
        let unversioned = text.replacen("\"schema\"", "\"schemo\"", 1);
        let err = RunReport::from_json(&unversioned).unwrap_err();
        assert!(err.contains("pre-v2"), "unhelpful error: {err}");
        assert!(err.contains("re-run the harness"), "unhelpful error: {err}");
        // A future version is rejected, naming both versions.
        let future = text.replacen(
            &format!("\"schema\": {REPORT_SCHEMA_VERSION}"),
            "\"schema\": 99",
            1,
        );
        let err = RunReport::from_json(&future).unwrap_err();
        assert!(err.contains("99"), "unhelpful error: {err}");
        assert!(
            err.contains(&REPORT_SCHEMA_VERSION.to_string()),
            "unhelpful error: {err}"
        );
        // The previous generation (v13, with the distribution histograms)
        // is rejected the same way, not half-parsed.
        let v13 = text.replacen(
            &format!("\"schema\": {REPORT_SCHEMA_VERSION}"),
            "\"schema\": 13",
            1,
        );
        let err = RunReport::from_json(&v13).unwrap_err();
        assert!(
            err.contains("schema version 13 is not supported"),
            "unhelpful error: {err}"
        );
    }

    #[test]
    fn serve_stats_round_trip() {
        let mut service = Hist64::new();
        for us in [12u64, 48, 210, 3_500, 90] {
            service.record(us * 3);
        }
        let tenants: Vec<TenantLedger> = (0..2)
            .map(|t| TenantLedger {
                tenant: t,
                requests: 100 + t,
                hits: 90 - t,
                misses: 10 + 2 * t,
                compiles: 3,
                rows: 40_000 + t,
                service_us: service,
            })
            .collect();
        let mut report = RunReport::new("serve", 42);
        report.runs.push(RunRecord {
            label: "serve/cached".into(),
            scheme: "serve".into(),
            n_triangles: 1000,
            n_points: 3000,
            wall_ms: 250.0,
            metrics: Metrics::default(),
            spans: vec![],
            patches: vec![],
            device_sim: None,
            plan: None,
            comms: vec![],
            serve: Some(ServeStats {
                clients: 8,
                requests: 200,
                catalog: 6,
                hits: 180,
                misses: 20,
                compiles: 6,
                single_flight_waits: 9,
                rows: 600_000,
                cache_bytes: 4_500_000,
                service_us: service,
                tenants,
            }),
            simd: None,
        });
        let text = report.to_pretty_string();
        let parsed = RunReport::from_json(&text).expect("serve report parses");
        assert_eq!(parsed, report);
        assert_eq!(parsed.to_pretty_string(), text);
        // Tail quantiles survive: the p99 read back from the parsed
        // histogram is the p99 of the data that went in.
        let s = parsed.runs[0].serve.as_ref().unwrap();
        assert_eq!(
            s.service_us.quantile_upper_bound(0.99),
            service.quantile_upper_bound(0.99)
        );
        // The serve object and its latency histograms are required keys.
        for key in ["\"serve\"", "\"single_flight_waits\"", "\"service_us\""] {
            let broken = text.replace(key, "\"zzz\"");
            assert!(RunReport::from_json(&broken).is_err(), "corrupting {key}");
        }
    }

    #[test]
    fn plan_stats_round_trip() {
        let mut report = RunReport::new("plan", 7);
        report.runs.push(RunRecord {
            label: "low-variance/4k/p1/plan".into(),
            scheme: "plan".into(),
            n_triangles: 4000,
            n_points: 16000,
            wall_ms: 1.25,
            metrics: Metrics::default(),
            spans: vec![],
            patches: vec![PatchRecord {
                wall_ns: 10,
                elements: 0,
                points: 16000,
                metrics: Metrics::default(),
            }],
            device_sim: None,
            plan: Some(PlanStats {
                rows: 16000,
                nnz: 320000,
                n_modes: 3,
                bytes: 9_000_000,
                build_ms: 480.5,
                apply_ms: 3.75,
                delta: Some(DeltaStats {
                    dirty_elements: 120,
                    respliced_rows: 900,
                    respliced_nnz: 18000,
                    patch_ms: 12.5,
                    full_build_ms: 480.5,
                }),
            }),
            comms: vec![],
            serve: None,
            simd: Some(SimdRecord {
                policy: "auto".into(),
                isa: "avx2".into(),
                lanes: 4,
                gflops: 9.5,
            }),
        });
        let text = report.to_pretty_string();
        let parsed = RunReport::from_json(&text).expect("plan report parses");
        assert_eq!(parsed, report);
        assert_eq!(parsed.to_pretty_string(), text);
        // Dropping the plan object breaks the parse (key is required).
        let broken = text.replace("\"plan\"", "\"paln\"");
        assert!(RunReport::from_json(&broken).is_err());
        // v7 dropped the locality block with the storage-order option.
        assert!(
            !text.contains("\"locality\""),
            "v7 record has no locality key"
        );
        // The simd object and its inner fields are required keys.
        for key in ["\"simd\"", "\"gflops\"", "\"lanes\""] {
            let broken = text.replace(key, "\"zzz\"");
            assert!(RunReport::from_json(&broken).is_err(), "corrupting {key}");
        }
    }

    #[test]
    fn rank_comm_records_round_trip() {
        let mut report = RunReport::new("fig14", 2013);
        report.runs.push(RunRecord {
            label: "low-variance/4k/p1/dist@2ranks".into(),
            scheme: "dist".into(),
            n_triangles: 1000,
            n_points: 4000,
            wall_ms: 12.5,
            metrics: Metrics::default(),
            spans: vec![],
            patches: vec![],
            device_sim: None,
            plan: None,
            comms: (0..2)
                .map(|r| RankCommRecord {
                    rank: r,
                    owned_elements: 500,
                    halo_elements: 120 + r,
                    owned_points: 2000,
                    msgs_sent: 6,
                    bytes_sent: 48_000 + r,
                    msgs_recv: 6,
                    bytes_recv: 48_100 - r,
                    exchange_ns: 1_000_000,
                    eval_ns: 9_000_000,
                    reduce_ns: 500_000,
                })
                .collect(),
            serve: None,
            simd: None,
        });
        let text = report.to_pretty_string();
        let parsed = RunReport::from_json(&text).expect("dist report parses");
        assert_eq!(parsed, report);
        assert_eq!(parsed.to_pretty_string(), text);
        // The comms array is a required key, and so are the per-rank
        // fields.
        for key in [
            "\"comms\"",
            "\"halo_elements\"",
            "\"msgs_recv\"",
            "\"exchange_ns\"",
        ] {
            let broken = text.replace(key, "\"zzz\"");
            assert!(RunReport::from_json(&broken).is_err(), "corrupting {key}");
        }
    }
}
