//! The concurrent plan cache: one map behind one lock, LRU-evicting under
//! a byte budget, with single-flight compilation.
//!
//! # Single flight
//!
//! A cold key costs a full plan compile — the 27 s discovery pass at paper
//! scale. When K requesters race on the same cold key, the first to insert
//! the in-flight marker becomes the *leader* and compiles (or patches a
//! sibling); the other K−1 become *followers* and block
//! on the marker's condvar, outside the cache lock. Everyone receives the
//! same `Arc<EvalPlan>`, so results are bitwise identical to a fresh
//! compile by construction and the compile runs exactly once. A leader
//! whose compile panics abandons its flight on the way out: the marker
//! leaves the map and the followers wake to look the key up again, so a
//! failed compile never wedges a key.
//!
//! # One lock, one budget
//!
//! The lock is held for a map operation — lookup, publish, evict — never
//! for a compile or a patch, so lookups for different meshes wait on each
//! other for microseconds. (Eight hash-selected
//! shards were measured against this and retired: no effect on throughput
//! or p99, and a budget split eight ways that nothing honoured — DESIGN.md
//! §14.) `byte_budget` bounds the whole cache in plan bytes, the same
//! accounting as [`PlanStats::bytes`](ustencil_core::PlanStats): after
//! every publish, least-recently-used *ready* entries are evicted until the
//! resident total fits. In-flight entries and the entry just produced are
//! never victims, so the budget is exceeded by at most that one plan (a hot
//! insert cannot evict itself). An evicted plan is dropped; its next miss
//! recompiles it, which is cheaper than reloading a stored copy would be
//! (DESIGN.md §9).
//!
//! # Delta revalidation
//!
//! A mesh edit changes the [`PlanKey`] content hashes, so the edited
//! problem is a *miss* — but most of the old plan's rows are still exactly
//! right. [`PlanCache::get_or_patch`] exploits that: each produced entry
//! retains its origin (the mesh/grid `Arc`s it was compiled for), and
//! a leader that misses first looks for a resident *sibling* — same kernel
//! ([`PlanKey::same_kernel`]), different content — diffs the two problems
//! ([`DirtySet::diff`]) and splices in only the dirty-footprint rows
//! ([`EvalPlan::patched`]). The cache entry is revalidated at delta cost
//! instead of evict-and-recompile cost; followers blocked on the flight
//! share the patched plan like any other.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use ustencil_core::{ComputationGrid, ExecConfig};
use ustencil_mesh::TriMesh;
use ustencil_plan::{DirtySet, EvalPlan, PlanKey};

/// How a [`PlanCache::get_or_patch`] call
/// was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The plan was resident.
    Hit,
    /// Another requester was already producing the plan; this call blocked
    /// on the in-flight entry and shared its result.
    Waited,
    /// This call led the production and patched a resident sibling plan
    /// (same kernel, edited mesh) instead of compiling.
    Patched,
    /// This call led the production and compiled the plan.
    Compiled,
}

/// The problem a resident plan was compiled for, retained alongside the
/// plan so a later request for an *edited* mesh at the same kernel can be
/// served by [`EvalPlan::patched`] instead of a full compile. The `Arc`s
/// come straight from the request's catalog entry, so retention costs two
/// reference counts, not a mesh copy.
struct Origin {
    mesh: Arc<TriMesh>,
    grid: Arc<ComputationGrid>,
}

/// Monotone counters of a cache's lifetime, plus the current resident size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheSnapshot {
    /// Lookups answered from a resident plan.
    pub hits: u64,
    /// Lookups that found no resident or in-flight plan (the leaders).
    pub misses: u64,
    /// Plans compiled (≤ misses).
    pub compiles: u64,
    /// Lookups that blocked on another requester's in-flight production.
    pub single_flight_waits: u64,
    /// Plans produced by patching a resident sibling (an edited-mesh
    /// revalidation) instead of compiling.
    pub patches: u64,
    /// Plans evicted under the byte budget.
    pub evictions: u64,
    /// Bytes of plan data currently resident.
    pub resident_bytes: u64,
}

/// The in-flight marker a leader publishes while producing a plan.
/// Followers block on the condvar; `finish` fills the slot and wakes them.
struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

enum FlightState {
    Pending,
    Done(Arc<EvalPlan>),
    /// The leader unwound out of its `make`; nobody will complete this
    /// flight, and its entry is already gone from the map.
    Abandoned,
}

impl Flight {
    fn new() -> Self {
        Self {
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        }
    }

    /// Blocks until the leader finishes; `None` when it abandoned the
    /// flight instead of completing it.
    fn wait(&self) -> Option<Arc<EvalPlan>> {
        let mut state = self.state.lock().expect("flight poisoned");
        loop {
            match &*state {
                FlightState::Pending => state = self.cv.wait(state).expect("flight poisoned"),
                FlightState::Done(plan) => return Some(plan.clone()),
                FlightState::Abandoned => return None,
            }
        }
    }

    fn finish(&self, state: FlightState) {
        // Runs from the abandon guard's `Drop` too, so a poisoned lock is
        // taken over rather than unwrapped: one assignment cannot leave
        // the state half-written.
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) = state;
        self.cv.notify_all();
    }
}

/// Armed while a leader runs its `make`. If `make` unwinds, dropping the
/// guard takes the key's in-flight entry out of the map, un-counts the
/// leader's miss (so `misses == compiles + patches` holds) and
/// wakes the followers with [`FlightState::Abandoned`]; they look the key
/// up again and one of them leads with its own closure.
struct AbandonOnUnwind<'a> {
    cache: &'a PlanCache,
    key: PlanKey,
    flight: &'a Flight,
}

impl Drop for AbandonOnUnwind<'_> {
    fn drop(&mut self) {
        if let Ok(mut memory) = self.cache.memory.lock() {
            memory.map.remove(&self.key);
        }
        self.cache.misses.fetch_sub(1, Ordering::Relaxed);
        self.flight.finish(FlightState::Abandoned);
    }
}

enum Slot {
    InFlight(Arc<Flight>),
    Ready(Arc<EvalPlan>),
}

/// What the lookup front half resolved to.
enum Lookup {
    /// Resident plan: a hit.
    Ready(Arc<EvalPlan>),
    /// Someone else is producing it: block on their flight.
    Follow(Arc<Flight>),
    /// This caller inserted the in-flight marker and must produce.
    Lead(Arc<Flight>),
}

struct Entry {
    slot: Slot,
    /// LRU clock value of the last touch.
    last_used: u64,
    /// Plan bytes (0 while in flight).
    bytes: u64,
    /// The problem the plan was produced for, the base a sibling's patch
    /// diffs against (`None` while in flight).
    origin: Option<Arc<Origin>>,
}

/// Everything the cache lock guards.
#[derive(Default)]
struct MemoryTier {
    map: HashMap<PlanKey, Entry>,
    resident_bytes: u64,
    /// LRU clock: every lookup ticks it once.
    tick: u64,
}

/// A byte-budgeted, single-flight cache of compiled plans. All methods
/// take `&self`; the cache is meant to be shared across threads behind an
/// `Arc`.
pub struct PlanCache {
    memory: Mutex<MemoryTier>,
    byte_budget: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    compiles: AtomicU64,
    waits: AtomicU64,
    patches: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("byte_budget", &self.byte_budget)
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

impl PlanCache {
    /// An empty cache holding at most `byte_budget` bytes of plan data
    /// (0 = unbounded).
    pub fn new(byte_budget: u64) -> Self {
        Self {
            memory: Mutex::default(),
            byte_budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            patches: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The plan for `key`. At most one caller per key produces it at a
    /// time; concurrent requesters for the same cold key block and share
    /// the leader's result. The leader first tries to *patch* a resident
    /// sibling plan — one compiled
    /// at the same kernel for an earlier revision of the mesh
    /// ([`EvalPlan::patched`]) — and only compiles from scratch when no
    /// sibling exists or the edit changed the kernel scale. Either way the
    /// produced entry retains `(mesh, grid)` as its origin, so it can
    /// serve as the patch base for the *next* edit. Followers share the
    /// patched plan exactly as they share a compiled one.
    ///
    /// Lookup order: resident map, in-flight production, sibling patch,
    /// `compile`.
    pub fn get_or_patch(
        &self,
        key: PlanKey,
        mesh: &Arc<TriMesh>,
        grid: &Arc<ComputationGrid>,
        options: &ExecConfig,
        compile: impl FnOnce() -> EvalPlan,
    ) -> (Arc<EvalPlan>, Outcome) {
        self.get_with(key, (mesh, grid), || {
            match self.patch_from_sibling(&key, mesh, grid, options) {
                Some(plan) => (plan, Outcome::Patched),
                None => (compile(), Outcome::Compiled),
            }
        })
    }

    /// Hit, follow an in-flight leader, or lead with `make` (retaining
    /// `(mesh, grid)` as the produced entry's origin). A follower whose leader abandoned
    /// the flight looks again, and leads if it is now first.
    fn get_with(
        &self,
        key: PlanKey,
        (mesh, grid): (&Arc<TriMesh>, &Arc<ComputationGrid>),
        make: impl FnOnce() -> (EvalPlan, Outcome),
    ) -> (Arc<EvalPlan>, Outcome) {
        loop {
            match self.lookup_or_lead(&key) {
                Lookup::Ready(plan) => return (plan, Outcome::Hit),
                Lookup::Lead(flight) => {
                    let origin = Arc::new(Origin {
                        mesh: mesh.clone(),
                        grid: grid.clone(),
                    });
                    return self.produce(key, &flight, origin, make);
                }
                // Block outside the cache lock until the leader publishes.
                Lookup::Follow(flight) => {
                    self.waits.fetch_add(1, Ordering::Relaxed);
                    if let Some(plan) = flight.wait() {
                        return (plan, Outcome::Waited);
                    }
                }
            }
        }
    }

    /// The shared lookup front half: hit, follow an in-flight leader, or
    /// become the leader by publishing an in-flight marker.
    fn lookup_or_lead(&self, key: &PlanKey) -> Lookup {
        let mut memory = self.memory.lock().expect("cache poisoned");
        memory.tick += 1;
        let now = memory.tick;
        match memory.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = now;
                match &entry.slot {
                    Slot::Ready(plan) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        Lookup::Ready(plan.clone())
                    }
                    Slot::InFlight(f) => Lookup::Follow(f.clone()),
                }
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let f = Arc::new(Flight::new());
                memory.map.insert(
                    *key,
                    Entry {
                        slot: Slot::InFlight(f.clone()),
                        last_used: now,
                        bytes: 0,
                        origin: None,
                    },
                );
                Lookup::Lead(f)
            }
        }
    }

    /// Leader path: run `make` (compile, or sibling patch then compile),
    /// publish into the map with its origin, evict
    /// down to budget, wake followers. `make` runs without the lock held,
    /// under the guard that abandons the flight if it unwinds.
    fn produce(
        &self,
        key: PlanKey,
        flight: &Flight,
        origin: Arc<Origin>,
        make: impl FnOnce() -> (EvalPlan, Outcome),
    ) -> (Arc<EvalPlan>, Outcome) {
        let guard = AbandonOnUnwind {
            cache: self,
            key,
            flight,
        };
        let (plan, outcome) = make();
        // `make` returned: disarm, the flight completes below.
        std::mem::forget(guard);
        match outcome {
            Outcome::Patched => self.patches.fetch_add(1, Ordering::Relaxed),
            _ => self.compiles.fetch_add(1, Ordering::Relaxed),
        };
        let plan = Arc::new(plan);
        let bytes = plan.bytes() as u64;
        {
            let mut memory = self.memory.lock().expect("cache poisoned");
            let entry = memory.map.get_mut(&key).expect("in-flight entry present");
            entry.slot = Slot::Ready(plan.clone());
            entry.bytes = bytes;
            entry.origin = Some(origin);
            memory.resident_bytes += bytes;
            self.evict_over_budget(&mut memory, &key);
        }
        // Publish only after the map state is consistent; followers that
        // wake will find a Ready entry on their next lookup too.
        flight.finish(FlightState::Done(plan.clone()));
        (plan, outcome)
    }

    /// Picks the most recently used resident plan compiled under `key`'s
    /// kernel ([`PlanKey::same_kernel`] — the SIMD ISA included, or the
    /// splice would mix weights that differ at the FMA level) that retained
    /// its origin, diffs that origin against the requested problem, and
    /// patches. `None` when no such sibling exists or the patch is
    /// rejected (e.g. the edit changed the longest edge and with it `h`) —
    /// the caller falls back to a full compile.
    fn patch_from_sibling(
        &self,
        key: &PlanKey,
        mesh: &TriMesh,
        grid: &ComputationGrid,
        options: &ExecConfig,
    ) -> Option<EvalPlan> {
        // `key`'s own entry is in flight (the caller leads it), so it never
        // matches. Only the two Arcs leave the lock: diff and patch run
        // outside it.
        let (base, origin) = {
            let memory = self.memory.lock().expect("cache poisoned");
            memory
                .map
                .iter()
                .filter(|(k, _)| k.same_kernel(key))
                .filter_map(|(_, e)| match (&e.slot, &e.origin) {
                    (Slot::Ready(plan), Some(origin)) => Some((e.last_used, plan, origin)),
                    _ => None,
                })
                .max_by_key(|&(last_used, _, _)| last_used)
                .map(|(_, plan, origin)| (plan.clone(), origin.clone()))?
        };
        let dirty = DirtySet::diff(&origin.mesh, &origin.grid, mesh, grid);
        base.patched(mesh, grid, &dirty, options)
            .ok()
            .map(|(plan, _)| plan)
    }

    /// Evicts least-recently-used ready entries until the cache fits its
    /// budget. `keep` (the entry just produced) and in-flight entries are
    /// never victims, so the cache may exceed the budget by that one plan —
    /// the alternative, evicting what was just produced, would livelock a
    /// working set of one.
    fn evict_over_budget(&self, memory: &mut MemoryTier, keep: &PlanKey) {
        while self.byte_budget != 0 && memory.resident_bytes > self.byte_budget {
            let victim = memory
                .map
                .iter()
                .filter(|(k, e)| *k != keep && matches!(e.slot, Slot::Ready(_)))
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            let entry = memory.map.remove(&victim).expect("victim just found");
            memory.resident_bytes -= entry.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Point-in-time counters and resident size.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            single_flight_waits: self.waits.load(Ordering::Relaxed),
            patches: self.patches.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: self.memory.lock().expect("cache poisoned").resident_bytes,
        }
    }

    /// Number of resident (ready) plans.
    pub fn len(&self) -> usize {
        let memory = self.memory.lock().expect("cache poisoned");
        memory
            .map
            .values()
            .filter(|e| matches!(e.slot, Slot::Ready(_)))
            .count()
    }

    /// Whether no plan is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
