//! Front ends that tie plans to the engine's `PostProcessor`: compile from
//! a processor's config, or cache a plan and recompile only on change.

use crate::apply::PlanSolution;
use crate::delta::DirtySet;
use crate::key::PlanKey;
use crate::plan::EvalPlan;
use ustencil_core::{ComputationGrid, DeltaStats, ExecConfig, PostProcessor};
use ustencil_dg::DgField;
use ustencil_mesh::TriMesh;

/// Plan-mode extension of [`PostProcessor`]: compile the geometry once
/// under the processor's exact [`ExecConfig`], then apply the
/// result to any number of fields.
pub trait PlanExt {
    /// Compiles an [`EvalPlan`] for degree-`degree` fields over `mesh` at
    /// `grid`'s points, mirroring the kernel/smoothness/parallelism choices
    /// this processor's `run` would make.
    fn compile_plan(&self, mesh: &TriMesh, degree: usize, grid: &ComputationGrid) -> EvalPlan;

    /// A lazily-compiled, self-invalidating plan front end bound to this
    /// processor's config.
    fn plan(&self) -> CachedPlan;
}

impl PlanExt for PostProcessor {
    fn compile_plan(&self, mesh: &TriMesh, degree: usize, grid: &ComputationGrid) -> EvalPlan {
        EvalPlan::compile(mesh, grid, degree, self.config())
    }

    fn plan(&self) -> CachedPlan {
        CachedPlan::new(*self.config())
    }
}

/// A cached-plan runner: the drop-in "many timesteps" counterpart of
/// [`PostProcessor::run`](ustencil_core::PostProcessor::run). The first
/// [`run`](CachedPlan::run) compiles a plan; subsequent runs against the
/// same problem reuse it and pay only the SpMV.
///
/// Invalidation is by *content*, through [`PlanKey`]: each run hashes the
/// mesh and grid buffers and compares the full key (content digests,
/// degree, kernel) against the cached plan's. A same-shape mesh
/// with moved vertices therefore recompiles instead of silently reusing
/// the stale operator — the hazard the former shape-only check
/// (element count, degree, row count) could not see. In-place mutation is
/// caught the same way, so [`invalidate`](CachedPlan::invalidate) is now
/// only an optimization hint, not a correctness requirement.
///
/// When the key mismatch is a *mesh edit* — only the content hashes differ,
/// the kernel/degree half of the key is unchanged — the cache does
/// not throw the plan away: it diffs the old and new problem
/// ([`DirtySet::diff`]) and patches the plan ([`EvalPlan::patched`]),
/// recompiling only the dirty footprint closure. Patches that cannot apply
/// (e.g. the longest edge, and with it `h`, changed) fall back to a full
/// compile. [`patches`](Self::patches) and [`last_delta`](Self::last_delta)
/// expose what happened.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    config: ExecConfig,
    plan: Option<EvalPlan>,
    /// Key of the cached plan. `None` while `plan` is `Some` marks an
    /// externally seeded plan ([`set`](Self::set)) whose key is adopted on
    /// its first shape-matching run.
    key: Option<PlanKey>,
    /// The problem the cached plan was built for, retained so a later mesh
    /// edit can be diffed against it. `None` for seeded plans until a run
    /// binds them.
    problem: Option<(TriMesh, ComputationGrid)>,
    rebuilds: usize,
    patches: usize,
    last_delta: Option<DeltaStats>,
}

impl CachedPlan {
    /// A cache that compiles, patches and applies under `config`.
    pub fn new(config: ExecConfig) -> Self {
        Self {
            config,
            plan: None,
            key: None,
            problem: None,
            rebuilds: 0,
            patches: 0,
            last_delta: None,
        }
    }

    /// Whether the cached plan (if any) matches the given problem. Plans
    /// this cache compiled match by full content key; an externally
    /// [`set`](Self::set) plan (no key yet) matches by shape once, then
    /// adopts the key it was accepted under.
    fn matches(
        &self,
        key: &PlanKey,
        mesh: &TriMesh,
        field: &DgField,
        grid: &ComputationGrid,
    ) -> bool {
        match (&self.plan, &self.key) {
            (Some(_), Some(cached)) => cached == key,
            (Some(p), None) => {
                p.n_elements() == mesh.n_triangles()
                    && p.degree() == field.degree()
                    && p.rows() == grid.len()
            }
            (None, _) => false,
        }
    }

    /// Whether `key` differs from the cached key *only* in the mesh/grid
    /// content hashes — the signature of a mesh edit, where an incremental
    /// patch can stand in for the recompile.
    fn is_content_only_change(&self, key: &PlanKey) -> bool {
        self.key.as_ref().is_some_and(|cached| {
            cached.degree == key.degree
                && cached.smoothness == key.smoothness
                && cached.h_factor_bits == key.h_factor_bits
                && cached.simd == key.simd
        })
    }

    /// Applies the cached plan to `field`, compiling it first if the cache
    /// is empty or the problem content changed. Mesh edits (content-only
    /// key changes) take the incremental patch path when possible.
    pub fn run(&mut self, mesh: &TriMesh, field: &DgField, grid: &ComputationGrid) -> PlanSolution {
        let key = PlanKey::new(mesh, grid, field.degree(), &self.config);
        if !self.matches(&key, mesh, field, grid) {
            self.last_delta = None;
            let patched = if self.is_content_only_change(&key) {
                self.try_patch(mesh, grid)
            } else {
                false
            };
            if !patched {
                self.plan = Some(EvalPlan::compile(mesh, grid, field.degree(), &self.config));
                self.problem = Some((mesh.clone(), grid.clone()));
                self.rebuilds += 1;
            }
        } else if self.problem.is_none() {
            // Seeded plan accepted by shape: retain its problem so later
            // edits can be diffed.
            self.problem = Some((mesh.clone(), grid.clone()));
        }
        // Compiled or patched above, or a seeded plan accepted for this
        // problem: in all cases the plan now answers exactly to `key`.
        self.key = Some(key);
        self.plan
            .as_ref()
            .expect("plan compiled above")
            .apply_with(field, &self.config)
    }

    /// Attempts the delta path against the retained problem; on success the
    /// cached plan and problem are replaced. `false` means the caller must
    /// full-compile (no retained problem, or the edit changed the kernel).
    fn try_patch(&mut self, mesh: &TriMesh, grid: &ComputationGrid) -> bool {
        let (Some(plan), Some((old_mesh, old_grid))) = (&self.plan, &self.problem) else {
            return false;
        };
        let dirty = DirtySet::diff(old_mesh, old_grid, mesh, grid);
        match plan.patched(mesh, grid, &dirty, &self.config) {
            Ok((patched, delta)) => {
                self.plan = Some(patched);
                self.problem = Some((mesh.clone(), grid.clone()));
                self.patches += 1;
                self.last_delta = Some(delta);
                true
            }
            Err(_) => false,
        }
    }

    /// The cached plan, when one has been compiled.
    pub fn get(&self) -> Option<&EvalPlan> {
        self.plan.as_ref()
    }

    /// The cached plan's content key, once a [`run`](Self::run) has bound
    /// one ([`set`](Self::set) plans have no key until their first run).
    pub fn key(&self) -> Option<&PlanKey> {
        self.key.as_ref()
    }

    /// How many times [`run`](Self::run) had to full-compile (patched runs
    /// are counted by [`patches`](Self::patches), not here).
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// How many times [`run`](Self::run) revalidated the plan by
    /// incremental patch instead of recompiling.
    pub fn patches(&self) -> usize {
        self.patches
    }

    /// The delta stats of the most recent run, when that run went through
    /// the patch path (`None` after a full compile or a plain hit).
    pub fn last_delta(&self) -> Option<&DeltaStats> {
        self.last_delta.as_ref()
    }

    /// Drops the cached plan, forcing the next run to recompile. With
    /// content keys this is never needed for correctness; it remains for
    /// callers that want to release the plan's memory eagerly.
    pub fn invalidate(&mut self) {
        self.plan = None;
        self.key = None;
        self.problem = None;
        self.last_delta = None;
    }

    /// Seeds the cache with an externally built (e.g. deserialized) plan.
    /// The caller asserts the plan is right for the problem it will be run
    /// against: the first shape-matching run adopts it and binds its
    /// content key.
    pub fn set(&mut self, plan: EvalPlan) {
        self.plan = Some(plan);
        self.key = None;
        self.problem = None;
        self.last_delta = None;
    }
}
