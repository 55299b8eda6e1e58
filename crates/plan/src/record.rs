//! Bridging plan runs into the `RunReport` schema.

use crate::apply::PlanSolution;
use crate::delta::PATCH_SCHEME_LABEL;
use crate::plan::{EvalPlan, SCHEME_LABEL};
use ustencil_core::{DeltaStats, PlanStats, RunRecord};

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
            patches: apply.block_stats.iter().map(Into::into).collect(),
            plan: Some(PlanStats {
                apply_ms: apply.wall.as_secs_f64() * 1e3,
                ..self.stats()
            }),
            simd: Some(apply.simd.clone()),
            ..RunRecord::default()
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
