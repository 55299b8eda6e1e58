//! Bridging plan runs into the `RunReport` schema.

use crate::apply::PlanSolution;
use crate::delta::PATCH_SCHEME_LABEL;
use crate::plan::{EvalPlan, SCHEME_LABEL};
use ustencil_core::report::HISTOGRAM_NAMES;
use ustencil_core::{BlockStats, DeltaStats, PlanStats, RunRecord};

impl EvalPlan {
    /// Builds a [`RunRecord`] for one measured apply of this plan, in the
    /// same schema direct runs use: `scheme` is [`SCHEME_LABEL`], spans
    /// concatenate the build and apply phases, patches come from the
    /// apply's row blocks, and the `plan` field carries the size and
    /// build/apply split.
    pub fn to_run_record(
        &self,
        label: &str,
        n_triangles: usize,
        apply: &PlanSolution,
    ) -> RunRecord {
        let probe = BlockStats::merged_probe(&apply.block_stats);
        let histograms = vec![
            (
                HISTOGRAM_NAMES[0].to_string(),
                *probe.candidates_per_query(),
            ),
            (
                HISTOGRAM_NAMES[1].to_string(),
                *probe.subregions_per_element(),
            ),
            (
                HISTOGRAM_NAMES[2].to_string(),
                *probe.quad_points_per_integration(),
            ),
        ];
        let mut spans = self.build_spans.clone();
        spans.extend(apply.spans.iter().cloned());
        RunRecord {
            label: label.to_string(),
            scheme: SCHEME_LABEL.to_string(),
            n_triangles: n_triangles as u64,
            n_points: apply.values.len() as u64,
            wall_ms: apply.wall.as_secs_f64() * 1e3,
            metrics: apply.metrics,
            spans,
            patches: apply
                .block_stats
                .iter()
                .map(|s| ustencil_core::report::PatchRecord {
                    wall_ns: s.wall_ns,
                    elements: s.elements,
                    points: s.points,
                    metrics: s.metrics,
                })
                .collect(),
            histograms,
            device_sim: None,
            plan: Some(PlanStats {
                apply_ms: apply.wall.as_secs_f64() * 1e3,
                ..self.stats()
            }),
            comms: Vec::new(),
            critical_path: None,
            serve: None,
            simd: Some(apply.simd.clone()),
        }
    }

    /// Like [`EvalPlan::to_run_record`], but for a plan produced by the
    /// incremental patch path: `scheme` is [`PATCH_SCHEME_LABEL`] and the
    /// `plan` stats carry the measured [`DeltaStats`] (schema v5's `delta`
    /// object), so `checkjson` can assert the patch-vs-full amortization.
    pub fn to_run_record_patched(
        &self,
        label: &str,
        n_triangles: usize,
        apply: &PlanSolution,
        delta: &DeltaStats,
    ) -> RunRecord {
        let mut record = self.to_run_record(label, n_triangles, apply);
        record.scheme = PATCH_SCHEME_LABEL.to_string();
        if let Some(plan) = record.plan.as_mut() {
            plan.delta = Some(*delta);
        }
        record
    }
}
