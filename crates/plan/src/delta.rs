//! Incremental plan recompilation: patch a compiled [`EvalPlan`] after a
//! mesh change instead of recompiling from scratch.
//!
//! Row `r` integrates over the `(3k+1)h` support square centered at its
//! point, so an element that kept its exact geometry contributes the same
//! weights as before, and an edit invalidates only the rows whose support
//! meets the edited region. The patch path:
//!
//! 1. **Diff** ([`DirtySet::diff`]): match elements and grid points of the
//!    old and new problem by coordinate *bit patterns* (the currency of
//!    [`PlanKey`](crate::PlanKey)). Unmatched old elements leave stale
//!    AABBs behind; unmatched new elements are the changed set.
//! 2. **Closure** ([`EvalPlan::patch`]): the rows whose support meets a
//!    periodic image of a dirty box, found as an element finds its points,
//!    plus the rows of new grid points, which rerun full discovery. Eq. 2
//!    sums independent `(point, element)` integrals, so every other closure
//!    row is its base row (vanished elements dropped, survivors renumbered)
//!    merged with the pairs the changed elements alone scatter onto it.
//!    A group holding a closure row, or whose rows no base group holds as
//!    they are, is formed anew from its rows by a key merge.
//! 3. **Chunks** ([`EvalPlan::patch`]), in one pass: share every row chunk
//!    the edit left alone (the same rows at the same index, every column
//!    its own id) with the base plan; rebuild the others from the kept
//!    groups, copied whole with columns renumbered old → new, and the new
//!    ones merged straight in. [`PlanDelta::splice`] only assembles.
//!
//! **Bitwise guarantee.** A patched plan is a fresh compile of the new
//! problem, row for row (`tests/plan_patch_prop.rs`). A compiled row holds
//! its point's entries in the triangle grid's storage order rotated to its
//! candidate window (`compile.rs`), and an entry's weights are a function
//! of the point's and the element's bits and the kernel alone. A surviving
//! element matched with identical bits, monotonically, over the same cell
//! geometry (the cell size derives from the unchanged longest edge), so it
//! keeps its weights and its place: a merged row is the fresh row. Groups
//! are cut by one rule from the rows' points and owners
//! ([`RowCompiler::layout`]), and a group's columns are its rows' in the
//! order of their shared key, so the patched plan is the fresh compile
//! group for group too. The
//! patch refuses ([`PatchError`]) when `h = h_factor · max_edge` changes
//! bits or the options' SIMD ISA disagrees with the plan's;
//! callers fall back to a full compile.

use crate::compile::RowCompiler;
use crate::plan::{chunk_group, Chunk, EvalPlan, Group, CHUNK_ROWS, GROUP_ROWS};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;
use ustencil_core::blocks;
use ustencil_core::integrate::needed_shifts;
use ustencil_core::{ComputationGrid, DeltaStats, ExecConfig, Metrics};
use ustencil_geometry::{Aabb, Point2, Rect};
use ustencil_mesh::TriMesh;
use ustencil_spatial::{Boundary, PointGrid};
use ustencil_trace::{SpanRecord, Tracer};

/// The `"scheme"` string carried by runs whose plan came from the patch
/// path rather than a fresh compile (see [`SCHEME_LABEL`](crate::SCHEME_LABEL)).
pub const PATCH_SCHEME_LABEL: &str = "plan+patch";

/// Sentinel for "no counterpart" in the diff maps.
pub(crate) const NONE: u32 = u32::MAX;

/// A source row no row of the group being formed comes from.
const NO_ROW: usize = usize::MAX;

/// Why a plan could not be patched for a given `(mesh, grid, options)`;
/// callers should fall back to [`EvalPlan::compile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatchError {
    /// The realized kernel scale `h = h_factor · max_edge` changed its bit
    /// pattern, so *every* stored weight is stale, not just the dirty
    /// region's.
    KernelChanged,
    /// The SIMD ISA the compile options' policy resolves to is not the
    /// one the plan was compiled with.
    OptionsMismatch,
    /// The dirty set was diffed against a different problem than the one
    /// being patched (element/row counts disagree).
    ShapeMismatch,
}

impl std::fmt::Display for PatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PatchError::KernelChanged => "kernel scale h changed; all weights are stale",
            PatchError::OptionsMismatch => "compile options disagree with the plan's",
            PatchError::ShapeMismatch => "dirty set does not describe this plan's problem",
        })
    }
}

impl std::error::Error for PatchError {}

/// The diff between an old `(mesh, grid)` and a new one: which elements and
/// grid points survived bit-identically, which are new, and the stale boxes
/// vanished elements left behind. Built once per mesh edit with
/// [`DirtySet::diff`] and consumed by [`EvalPlan::patch`].
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub struct DirtySet {
    /// Element count of the old mesh.
    old_elements: usize,
    /// Element count of the new mesh.
    new_elements: usize,
    /// Old element → bit-identical new element, or [`NONE`]. Matched
    /// entries are strictly increasing, so renumbering preserves the
    /// relative order of surviving elements.
    elem_map: Vec<u32>,
    /// New element ids with no bit-identical old counterpart, ascending.
    changed: Vec<u32>,
    /// AABBs of old elements that vanished or changed — the stale region a
    /// kept row must not overlap.
    stale_boxes: Vec<Aabb>,
    /// Row count of the old grid.
    old_rows: usize,
    /// New grid row → bit-identical old grid row, or [`NONE`].
    row_source: Vec<u32>,
}

impl DirtySet {
    /// Diffs two problems by content: elements (and grid points, paired
    /// through their owner elements) match iff their coordinate bit
    /// patterns are identical and the matching preserves storage order.
    /// Near-linear in elements + points: a survivor that kept its place
    /// after the previous match is one comparison, and the others a binary
    /// search of the new elements sorted by hash, built on first need.
    ///
    /// The matching is deliberately monotone — an old element only matches
    /// a new element *after* the previous match, the first such one with
    /// its bits — because the patch's bitwise claim needs surviving
    /// elements to keep their relative order in the new mesh's
    /// spatial-grid cells. Renumberings that reorder surviving elements are
    /// therefore treated as changes (conservative: a bigger dirty set,
    /// never a wrong one).
    pub fn diff(
        old_mesh: &TriMesh,
        old_grid: &ComputationGrid,
        new_mesh: &TriMesh,
        new_grid: &ComputationGrid,
    ) -> DirtySet {
        let new_n = new_mesh.n_triangles();
        let (mut by_hash, mut next) = (None, 0);
        let elem_map = (0..old_mesh.n_triangles())
            .map(|e| {
                let bits = elem_bits(old_mesh, e);
                // Old `e` kept its place after the previous match: `next`
                // is then the first new element after it with `e`'s bits.
                let found = if next < new_n && elem_bits(new_mesh, next) == bits {
                    Some(next)
                } else {
                    let by_hash = by_hash.get_or_insert_with(|| ByHash::new(new_mesh));
                    by_hash.first_after(new_mesh, &bits, next)
                };
                found.map_or(NONE, |c| {
                    next = c + 1;
                    c as u32
                })
            })
            .collect();
        DirtySet::from_elem_map(old_mesh, old_grid, new_mesh, new_grid, elem_map)
    }

    /// The dirty set of an element matching: the changed and vanished
    /// elements, and grid points paired through matched owners.
    fn from_elem_map(
        old_mesh: &TriMesh,
        old_grid: &ComputationGrid,
        new_mesh: &TriMesh,
        new_grid: &ComputationGrid,
        elem_map: Vec<u32>,
    ) -> DirtySet {
        let (old_n, new_n) = (old_mesh.n_triangles(), new_mesh.n_triangles());
        let mut matched_new = vec![false; new_n];
        for &ne in elem_map.iter().filter(|&&ne| ne != NONE) {
            matched_new[ne as usize] = true;
        }
        let changed: Vec<u32> = (0..new_n as u32)
            .filter(|&e| !matched_new[e as usize])
            .collect();
        let stale_boxes: Vec<Aabb> = (0..old_n)
            .filter(|&e| elem_map[e] == NONE)
            .map(|e| old_mesh.triangle(e).aabb())
            .collect();

        // Pair grid points through matched owner elements, k-th with k-th,
        // still requiring exact coordinate bits.
        let old_by_owner = points_by_owner(old_grid, old_n);
        let new_by_owner = points_by_owner(new_grid, new_n);
        let mut row_source = vec![NONE; new_grid.len()];
        for (e, &ne) in elem_map.iter().enumerate() {
            if ne == NONE {
                continue;
            }
            let po = old_by_owner.items(e);
            let pn = new_by_owner.items(ne as usize);
            for (&o, &n) in po.iter().zip(pn.iter()) {
                let a = old_grid.points()[o as usize];
                let b = new_grid.points()[n as usize];
                if a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits() {
                    row_source[n as usize] = o;
                }
            }
        }

        DirtySet {
            old_elements: old_n,
            new_elements: new_n,
            elem_map,
            changed,
            stale_boxes,
            old_rows: old_grid.len(),
            row_source,
        }
    }

    /// Elements in the dirty set: changed new elements plus vanished old
    /// ones (an in-place edit counts twice — its old and new incarnation).
    pub fn dirty_elements(&self) -> u64 {
        (self.changed.len() + self.stale_boxes.len()) as u64
    }
}

/// Per-element coordinate bit patterns (three vertices × two coordinates),
/// the diff's equality currency.
#[inline]
fn elem_bits(mesh: &TriMesh, e: usize) -> [u64; 6] {
    let idx = mesh.triangle_indices()[e];
    let vs = mesh.vertices();
    let mut out = [0u64; 6];
    for (k, &vi) in idx.iter().enumerate() {
        let p = vs[vi as usize];
        out[2 * k] = p.x.to_bits();
        out[2 * k + 1] = p.y.to_bits();
    }
    out
}

/// A hash of an element's bits; equal bits hash equal, and the diff
/// compares bits wherever hashes agree.
#[inline]
fn bits_hash(bits: &[u64; 6]) -> u64 {
    let mix = |h: u64, &b: &u64| (h ^ b).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31);
    bits.iter().fold(0, mix)
}

/// A mesh's elements sorted by `(hash, id)`: each hash's elements are one
/// run, in id order.
struct ByHash(Vec<(u64, u32)>);

impl ByHash {
    fn new(mesh: &TriMesh) -> ByHash {
        let hashed = (0..mesh.n_triangles()).map(|e| (bits_hash(&elem_bits(mesh, e)), e as u32));
        let mut sorted: Vec<(u64, u32)> = hashed.collect();
        sorted.sort_unstable();
        ByHash(sorted)
    }

    /// The first element of `mesh` from id `from` on whose bits are `bits`.
    fn first_after(&self, mesh: &TriMesh, bits: &[u64; 6], from: usize) -> Option<usize> {
        let hash = bits_hash(bits);
        let k = self
            .0
            .partition_point(|&(h, e)| (h, e as usize) < (hash, from));
        // Hash collisions make this search run past its first element,
        // which is vanishingly rare.
        let run = self.0[k..].iter().take_while(|&&(h, _)| h == hash);
        run.map(|&(_, e)| e as usize)
            .find(|&e| elem_bits(mesh, e) == *bits)
    }
}

/// Grid point ids grouped by owner element, CSR-style (counting sort, so
/// each element's points keep their storage order).
struct PointsByOwner {
    offsets: Vec<u32>,
    items: Vec<u32>,
}

impl PointsByOwner {
    fn items(&self, e: usize) -> &[u32] {
        &self.items[self.offsets[e] as usize..self.offsets[e + 1] as usize]
    }
}

fn points_by_owner(grid: &ComputationGrid, n_elements: usize) -> PointsByOwner {
    let mut counts = vec![0u32; n_elements];
    for &o in grid.owners() {
        counts[o as usize] += 1;
    }
    let mut offsets = vec![0u32; n_elements + 1];
    for e in 0..n_elements {
        offsets[e + 1] = offsets[e] + counts[e];
    }
    let mut cursor = offsets[..n_elements].to_vec();
    let mut items = vec![0u32; grid.len()];
    for (p, &o) in grid.owners().iter().enumerate() {
        items[cursor[o as usize] as usize] = p as u32;
        cursor[o as usize] += 1;
    }
    PointsByOwner { offsets, items }
}

/// A group a new group's rows come from, read column by column in key
/// order: the columns some row of the new group reads.
struct Source<'a> {
    group: Group<'a>,
    /// The new group's row each of the group's rows is, or [`NO_ROW`].
    to: [usize; GROUP_ROWS],
    /// Old → new element ids, for a base group's columns.
    map: Option<&'a [u32]>,
    /// The rows `to` maps, a bit each.
    mask: u8,
    /// The next column, where its weights start, and its key and element.
    j: usize,
    at: usize,
    head: Option<(u64, u32)>,
}

impl<'a> Source<'a> {
    fn new(group: Group<'a>, to: [usize; GROUP_ROWS], map: Option<&'a [u32]>) -> Self {
        Source {
            group,
            to,
            map,
            mask: 0,
            j: 0,
            at: 0,
            head: None,
        }
    }

    /// Moves to the next column from `j` on that a row of the new group
    /// reads, keyed by `key`.
    fn seek(&mut self, key: impl Fn(u32) -> u64) {
        let (g, last) = (self.group, self.head.take());
        while self.j < g.cols.len() {
            let (c, bits) = (g.cols[self.j], g.present[self.j]);
            let e = self.map.map_or(c, |m| m[c as usize]);
            if bits & self.mask != 0 && e != NONE {
                self.head = Some((key(e), e));
                debug_assert!(last < self.head, "a source's columns out of key order");
                return;
            }
            self.at += bits.count_ones() as usize * g.n_modes;
            self.j += 1;
        }
    }

    /// Steps past the current column.
    fn advance(&mut self, key: impl Fn(u32) -> u64) {
        self.at += self.group.present[self.j].count_ones() as usize * self.group.n_modes;
        self.j += 1;
        self.seek(key);
    }
}

/// Appends to `chunk` the columns of the group `sources` form, merged in
/// key order: a column per element, each row's weights from the source
/// that row reads it in. A column one source holds for exactly the rows
/// it maps, in order, keeps that source's packed weights as they are.
fn merge(chunk: &mut Chunk, sources: &mut [Source<'_>], key: impl Fn(u32) -> u64 + Copy) {
    for s in sources.iter_mut() {
        let mapped = (0..GROUP_ROWS).filter(|&o| s.to[o] != NO_ROW);
        s.mask = mapped.fold(0, |m, o| m | 1 << o);
        s.seek(key);
    }
    while let Some((first, e)) = sources.iter().filter_map(|s| s.head).min() {
        let (mut bits, mut from, mut whole) = (0u8, [None; GROUP_ROWS], None);
        let column = sources
            .iter_mut()
            .filter(|s| s.head.is_some_and(|h| h.0 == first));
        for (n, s) in column.enumerate() {
            let (g, present) = (s.group, s.group.present[s.j]);
            let read = (0..g.rows).filter(|&o| present >> o & 1 != 0);
            let (mut kept, mut row) = (true, None);
            for o in read {
                let i = s.to[o];
                kept &= i != NO_ROW && row < Some(i);
                if i != NO_ROW {
                    debug_assert!(bits >> i & 1 == 0, "an element survived and changed");
                    (bits, row, from[i]) = (bits | 1 << i, Some(i), Some((g, s.j, s.at, o)));
                }
            }
            let width = present.count_ones() as usize * g.n_modes;
            whole = (n == 0 && kept).then(|| &g.weights[s.at..s.at + width]);
            s.advance(key);
        }
        // Mode-major over the rows set, in row order: packed.
        match whole {
            Some(weights) => chunk.weights.extend_from_slice(weights),
            None => {
                for m in 0..chunk.n_modes {
                    for &(src, j, at, o) in from.iter().flatten() {
                        chunk.weights.push(src.weight(at, j, o, m));
                    }
                }
            }
        }
        chunk.cols.push(e);
        chunk.present.push(bits);
    }
}

/// The computed patch: the patched plan's chunks, those the edit left alone
/// shared with the base plan, and what the patch counted. Produced by
/// [`EvalPlan::patch`]; [`PlanDelta::splice`] pairs the chunks with the
/// base's kernel, so one delta can be spliced into any clone of the base.
#[derive(Debug, Clone)]
pub struct PlanDelta {
    new_elements: usize,
    chunks: Vec<Arc<Chunk>>,
    /// New grid point ids whose rows were recompiled, ascending.
    pub(crate) closure_rows: Vec<u32>,
    /// Stored entries in the recompiled rows.
    respliced_nnz: usize,
    dirty_elements: u64,
    patch_ms: f64,
    /// Work counters of the new grid points' full discovery and the changed
    /// elements' scatter: `solution_writes` is one per pair integrated.
    /// Read by the tests' pair-work check.
    #[cfg_attr(not(test), allow(dead_code))]
    metrics: Metrics,
    spans: Vec<SpanRecord>,
}

impl PlanDelta {
    /// Rows the patch recompiled (the footprint closure of the dirty set
    /// plus rows of newly created grid points).
    pub fn respliced_rows(&self) -> usize {
        self.closure_rows.len()
    }

    /// Stored entries in the recompiled rows.
    pub fn respliced_nnz(&self) -> usize {
        self.respliced_nnz
    }

    /// Elements in the dirty set the patch was computed for.
    pub fn dirty_elements(&self) -> u64 {
        self.dirty_elements
    }

    /// Stats in the report's shape; `patch_ms` covers the whole patch.
    pub fn stats(&self, base: &EvalPlan) -> DeltaStats {
        DeltaStats {
            dirty_elements: self.dirty_elements,
            respliced_rows: self.respliced_rows() as u64,
            respliced_nnz: self.respliced_nnz() as u64,
            patch_ms: self.patch_ms,
            full_build_ms: base.build_wall().as_secs_f64() * 1e3,
        }
    }

    /// Splices the delta into `base`, the plan it was computed from: the
    /// patched plan is the delta's chunks under the base's kernel. No
    /// weight is copied.
    pub fn splice(&self, base: &EvalPlan) -> EvalPlan {
        EvalPlan {
            degree: base.degree,
            n_modes: base.n_modes,
            n_elements: self.new_elements,
            h: base.h,
            isa: base.isa,
            chunks: self.chunks.clone(),
            build_wall: base.build_wall,
            build_spans: self.spans.clone(),
            build_metrics: base.build_metrics,
        }
    }
}

impl EvalPlan {
    /// Computes the patch for a mesh edit: the footprint closure of the
    /// dirty set, its rows rebuilt pair by pair, and the patched plan's
    /// chunks. Splice the result with [`PlanDelta::splice`], or use
    /// [`EvalPlan::patched`] for the one-call version.
    ///
    /// `options` must describe the same kernel the plan was compiled
    /// with; `mesh`/`grid` are the *new* problem, `dirty` the diff from the
    /// plan's problem to the new one.
    ///
    /// # Panics
    /// Panics when a kept row references a vanished element — that would
    /// mean the footprint closure missed a dependency, which the property
    /// suite asserts never happens. Shared chunks are checked as rebuilt
    /// ones are.
    pub fn patch(
        &self,
        mesh: &TriMesh,
        grid: &ComputationGrid,
        dirty: &DirtySet,
        options: &ExecConfig,
    ) -> Result<PlanDelta, PatchError> {
        let started = Instant::now();
        if options.simd.resolve() != self.isa {
            return Err(PatchError::OptionsMismatch);
        }
        if dirty.old_elements != self.n_elements
            || dirty.old_rows != self.rows()
            || dirty.new_elements != mesh.n_triangles()
            || dirty.row_source.len() != grid.len()
        {
            return Err(PatchError::ShapeMismatch);
        }
        if options.scale_for(mesh).to_bits() != self.h.to_bits() {
            return Err(PatchError::KernelChanged);
        }
        // Past the checks the kernel is bit for bit the one this plan was
        // compiled with, which resolved then; mismatches stay typed errors.
        let rows = RowCompiler::new(mesh, self.degree, options);
        let stencil = &rows.setup.stencil;
        let tracer = Tracer::new(options.instrument);
        let points = grid.points();

        // Closure: rows of points with no old counterpart, plus rows whose
        // support meets a periodic image of a dirty box, found the way an
        // element finds its points (`StencilTraversal::element_query`).
        let mut recompute: Vec<bool> = dirty.row_source.iter().map(|&s| s == NONE).collect();
        if !dirty.changed.is_empty() || !dirty.stale_boxes.is_empty() {
            let _span = tracer.span("patch.closure");
            let half_width = stencil.width() / 2.0;
            let point_grid =
                PointGrid::build_half_edge(points, mesh.max_edge_length(), Boundary::Clamped);
            let aabb = |&e: &u32| mesh.triangle(e as usize).aabb();
            let changed = dirty.changed.iter().map(aabb);
            for b in dirty.stale_boxes.iter().copied().chain(changed) {
                let (lo, hi) = (b.min.x - half_width, b.max.x + half_width);
                let inflated = Rect::new(lo, b.min.y - half_width, hi, b.max.y + half_width);
                for sigma in needed_shifts(&inflated) {
                    let image = Aabb::new(b.min - sigma, b.max - sigma);
                    point_grid.for_each_candidate(&image, half_width, |r| {
                        let support = stencil.support_rect(points[r as usize]);
                        recompute[r as usize] |= support.intersects_aabb(&image);
                    });
                }
            }
        }
        let closure_rows: Vec<u32> = (0..grid.len() as u32)
            .filter(|&r| recompute[r as usize])
            .collect();

        // Groups formed anew: those holding a closure row, and those whose
        // rows no base group holds as they are.
        let (layout, origins) = rows.layout(points, Some(grid.owners()));
        let group_rows = |k: usize| layout[k] as usize..layout[k + 1] as usize;
        let held = |rows: Range<usize>| {
            let first = dirty.row_source[rows.start];
            let chunk = self.chunks.get(first as usize / CHUNK_ROWS)?;
            let (k, i) = chunk.group_of(first as usize % CHUNK_ROWS);
            let kept = |r: usize| dirty.row_source[r] == first + (r - rows.start) as u32;
            Some(i == 0 && chunk.group(k).rows == rows.len() && rows.clone().all(kept))
        };
        let anew: Vec<bool> = (0..layout.len() - 1)
            .map(|k| group_rows(k).any(|r| recompute[r]) || held(group_rows(k)) != Some(true))
            .collect();

        let (new_rows, kept_rows): (Vec<u32>, Vec<u32>) = closure_rows
            .iter()
            .partition(|&&r| dirty.row_source[r as usize] == NONE);
        let at = |ids: &[u32]| -> Vec<Point2> { ids.iter().map(|&r| points[r as usize]).collect() };
        let (fresh, fresh_metrics) = {
            let _span = tracer.span("patch.recompute");
            rows.compile(None, &at(&new_rows), None, options)
        };
        let (scattered, scatter_metrics) = {
            let _span = tracer.span("patch.scatter");
            rows.compile(Some(&dirty.changed), &at(&kept_rows), None, options)
        };

        // The patched plan's chunks, in one pass: each is the base's,
        // shared, or rebuilt from its groups.
        let span = tracer.span("patch.chunks");
        let renumber = |row: usize, c: u32| {
            let nc = dirty.elem_map[c as usize];
            assert!(
                nc != NONE,
                "kept row {row} references a vanished element: \
                 the dirty closure missed a dependency"
            );
            nc
        };
        let renumbered = Some(&dirty.elem_map[..]);
        let first_group = |row: usize| layout.partition_point(|&s| (s as usize) < row);
        let (mut chunks, mut rebuilt) = (Vec::new(), Vec::new());
        for lo in (0..grid.len()).step_by(CHUNK_ROWS) {
            let hi = (lo + CHUNK_ROWS).min(grid.len());
            let groups = first_group(lo)..first_group(hi);
            // Shared: every row kept at its index, every column its own.
            let shared = self.chunks.get(lo / CHUNK_ROWS).filter(|c| {
                c.n_rows() == hi - lo
                    && groups.clone().all(|k| !anew[k])
                    && (lo..hi).all(|r| dirty.row_source[r] as usize == r)
                    && c.cols.iter().all(|&e| renumber(lo, e) == e)
            });
            chunks.push(shared.cloned());
            if shared.is_some() {
                continue;
            }
            // Each group's sources, in turn. A kept group's is its base
            // group. A formed group's rows are a new point's fresh row,
            // else their base rows' survivors and, in the closure, the
            // changed elements' pairs; a base group several rows come from
            // is one source.
            let (mut sources, mut ends) = (Vec::new(), Vec::new());
            for k in groups.clone() {
                if !anew[k] {
                    let src = dirty.row_source[layout[k] as usize];
                    debug_assert!(src != NONE, "unsourced group {k} not formed anew");
                    let g = chunk_group(&self.chunks, src as usize).0;
                    sources.push(Source::new(g, [NO_ROW; GROUP_ROWS], renumbered));
                    ends.push(sources.len());
                    continue;
                }
                let mut base = (NO_ROW, 0);
                for (i, r) in group_rows(k).enumerate() {
                    let (src, r32) = (dirty.row_source[r], r as u32);
                    let at = |ids: &[u32]| ids.binary_search(&r32).unwrap();
                    let mut alone = [NO_ROW; GROUP_ROWS];
                    alone[0] = i;
                    if src == NONE {
                        let g = chunk_group(&fresh, at(&new_rows)).0;
                        sources.push(Source::new(g, alone, None));
                        continue;
                    }
                    let (g, bi) = chunk_group(&self.chunks, src as usize);
                    if base.0 != src as usize - bi {
                        base = (src as usize - bi, sources.len());
                        sources.push(Source::new(g, [NO_ROW; GROUP_ROWS], renumbered));
                    }
                    sources[base.1].to[bi] = i;
                    if recompute[r] {
                        let g = chunk_group(&scattered, at(&kept_rows)).0;
                        sources.push(Source::new(g, alone, None));
                    }
                }
                ends.push(sources.len());
            }
            // The calling thread allocates the chunk, as a compile's, with
            // room for its sources whole: a merged group's upper bound.
            let chunk =
                Chunk::for_groups(self.n_modes, groups.len(), sources.iter().map(|s| s.group));
            rebuilt.push((lo, groups, ends, sources, chunk));
        }
        // A block fills each rebuilt chunk: a kept group copied whole with
        // its columns renumbered, a formed one merged from its sources,
        // which hold their columns in its shared key order.
        let filled = blocks::map(rebuilt, options.parallel, |task| {
            let (lo, groups, ends, mut sources, mut chunk) = task;
            let (mut nnz, mut from) = (0, 0);
            for (k, end) in groups.zip(ends) {
                let group = &mut sources[from..end];
                from = end;
                if !anew[k] {
                    chunk.push_group(group[0].group, |c| renumber(lo, c));
                    continue;
                }
                let closure = (group_rows(k).enumerate())
                    .filter(|&(_, r)| recompute[r])
                    .fold(0u8, |m, (i, _)| m | 1 << i);
                merge(&mut chunk, group, |e| rows.key(origins[k], e));
                let merged = &chunk.present[chunk.col_ptr[chunk.n_groups()] as usize..];
                nnz += merged
                    .iter()
                    .map(|b| (b & closure).count_ones() as usize)
                    .sum::<usize>();
                chunk.end_group(group_rows(k).len());
            }
            (lo / CHUNK_ROWS, chunk, nnz)
        });
        let mut respliced_nnz = 0;
        for (c, chunk, nnz) in filled {
            chunks[c] = Some(Arc::new(chunk));
            respliced_nnz += nnz;
        }
        let chunks = chunks
            .into_iter()
            .map(|c| c.expect("every chunk shared or rebuilt"));
        drop(span);

        Ok(PlanDelta {
            new_elements: mesh.n_triangles(),
            chunks: chunks.collect(),
            closure_rows,
            respliced_nnz,
            dirty_elements: dirty.dirty_elements(),
            patch_ms: started.elapsed().as_secs_f64() * 1e3,
            metrics: Metrics::sum([&fresh_metrics, &scatter_metrics]),
            spans: tracer.into_records(),
        })
    }

    /// Patches the plan in one call: [`EvalPlan::patch`] followed by
    /// [`PlanDelta::splice`], returning the patched plan and the measured
    /// delta stats (the `full_build_ms` reference is the base plan's
    /// compile wall, carried across chained patches so amortization stays
    /// honest).
    pub fn patched(
        &self,
        mesh: &TriMesh,
        grid: &ComputationGrid,
        dirty: &DirtySet,
        options: &ExecConfig,
    ) -> Result<(EvalPlan, DeltaStats), PatchError> {
        let delta = self.patch(mesh, grid, dirty, options)?;
        Ok((delta.splice(self), delta.stats(self)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::Fnv1a;
    use std::collections::HashMap;

    impl DirtySet {
        /// The diff's reference: the same monotone greedy matching, found
        /// through per-hash buckets of new elements with a cursor each.
        pub(crate) fn diff_reference(
            old_mesh: &TriMesh,
            old_grid: &ComputationGrid,
            new_mesh: &TriMesh,
            new_grid: &ComputationGrid,
        ) -> DirtySet {
            let elem_hash = |bits: &[u64; 6]| {
                let mut h = Fnv1a::new();
                bits.iter().for_each(|&b| h.write_u64(b));
                h.finish()
            };
            let (old_n, new_n) = (old_mesh.n_triangles(), new_mesh.n_triangles());
            let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
            for e in 0..new_n {
                buckets
                    .entry(elem_hash(&elem_bits(new_mesh, e)))
                    .or_default()
                    .push(e as u32);
            }
            let mut cursors: HashMap<u64, usize> = HashMap::new();
            let mut elem_map = vec![NONE; old_n];
            let mut matched_new = vec![false; new_n];
            let mut last: i64 = -1;
            for (e, slot) in elem_map.iter_mut().enumerate() {
                let bits = elem_bits(old_mesh, e);
                let h = elem_hash(&bits);
                let Some(cands) = buckets.get(&h) else {
                    continue;
                };
                let cur = cursors.entry(h).or_insert(0);
                while *cur < cands.len() && (cands[*cur] as i64) <= last {
                    *cur += 1;
                }
                let mut j = *cur;
                while j < cands.len() {
                    let c = cands[j] as usize;
                    if !matched_new[c] && elem_bits(new_mesh, c) == bits {
                        *slot = c as u32;
                        matched_new[c] = true;
                        last = c as i64;
                        *cur = j + 1;
                        break;
                    }
                    j += 1;
                }
            }
            DirtySet::from_elem_map(old_mesh, old_grid, new_mesh, new_grid, elem_map)
        }

        /// New element ids with no bit-identical old counterpart, ascending.
        pub(crate) fn changed(&self) -> &[u32] {
            &self.changed
        }

        /// Old element → bit-identical new element, or [`NONE`].
        pub(crate) fn elem_map(&self) -> &[u32] {
            &self.elem_map
        }

        /// New grid row → bit-identical old grid row, or [`NONE`].
        pub(crate) fn row_source(&self) -> &[u32] {
            &self.row_source
        }

        /// Forgets stale box `i`: the patch then misses the rows only it
        /// reaches.
        pub(crate) fn drop_stale_box(&mut self, i: usize) {
            self.stale_boxes.remove(i);
        }
    }

    impl PlanDelta {
        /// The patch's work counters.
        pub(crate) fn metrics(&self) -> &Metrics {
            &self.metrics
        }
    }
}
