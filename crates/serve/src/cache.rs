//! The concurrent plan cache: one map behind one lock, with single-flight
//! compilation.
//!
//! # Single flight
//!
//! A cold key costs a full plan compile — the 27 s discovery pass at paper
//! scale. When K requesters race on the same cold key, the first to insert
//! the in-flight marker becomes the *leader* and compiles; the other K−1
//! become *followers* and block
//! on the marker's condvar, outside the cache lock. Everyone receives the
//! same `Arc<EvalPlan>`, so results are bitwise identical to a fresh
//! compile by construction and the compile runs exactly once. A leader
//! whose compile panics abandons its flight on the way out: the marker
//! leaves the map and the followers wake to look the key up again, so a
//! failed compile never wedges a key.
//!
//! # One lock, no eviction
//!
//! The lock is held for a map operation — lookup or publish — never for a
//! compile, so lookups for different meshes wait on each other for
//! microseconds. A ready plan stays resident for the cache's lifetime: the
//! traffic's working set is its fixture catalog, which fits (DESIGN.md §14
//! records the sharding, eviction and sibling patching measured and
//! retired).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use ustencil_plan::{EvalPlan, PlanKey};

/// How a [`PlanCache::get`] call was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The plan was resident.
    Hit,
    /// Another requester was already compiling the plan; this call blocked
    /// on the in-flight entry and shared its result.
    Waited,
    /// This call led the flight and compiled the plan.
    Compiled,
}

/// Monotone counters of a cache's lifetime, plus the current resident size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheSnapshot {
    /// Lookups answered from a resident plan.
    pub hits: u64,
    /// Lookups that found no resident or in-flight plan (the leaders).
    pub misses: u64,
    /// Plans compiled (== misses once every flight has landed).
    pub compiles: u64,
    /// Lookups that blocked on another requester's in-flight compile.
    pub single_flight_waits: u64,
    /// Bytes of plan data currently resident, summed over the ready plans.
    pub resident_bytes: u64,
}

/// The in-flight marker a leader publishes while compiling a plan.
/// Followers block on the condvar; `finish` fills the slot and wakes them.
struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

enum FlightState {
    Pending,
    Done(Arc<EvalPlan>),
    /// The leader unwound out of its compile; nobody will complete this
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

/// Armed while a leader runs its compile. If the compile unwinds, dropping
/// the guard takes the key's in-flight entry out of the map, un-counts the
/// leader's miss (so `misses == compiles` holds) and
/// wakes the followers with [`FlightState::Abandoned`]; they look the key
/// up again and one of them leads with its own closure.
struct AbandonOnUnwind<'a> {
    cache: &'a PlanCache,
    key: PlanKey,
    flight: &'a Flight,
}

impl Drop for AbandonOnUnwind<'_> {
    fn drop(&mut self) {
        if let Ok(mut map) = self.cache.map.lock() {
            map.remove(&self.key);
        }
        self.cache.misses.fetch_sub(1, Ordering::Relaxed);
        self.flight.finish(FlightState::Abandoned);
    }
}

enum Slot {
    InFlight(Arc<Flight>),
    Ready(Arc<EvalPlan>),
}

/// A single-flight cache of compiled plans. All methods take `&self`; the
/// cache is meant to be shared across threads behind an `Arc`.
#[derive(Default)]
pub struct PlanCache {
    map: Mutex<HashMap<PlanKey, Slot>>,
    hits: AtomicU64,
    misses: AtomicU64,
    compiles: AtomicU64,
    waits: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The plan for `key`. At most one caller per key compiles it at a
    /// time; concurrent requesters for the same cold key block and share
    /// the leader's result. A follower whose leader abandoned the flight
    /// looks again, and leads if it is now first.
    pub fn get(
        &self,
        key: PlanKey,
        compile: impl FnOnce() -> EvalPlan,
    ) -> (Arc<EvalPlan>, Outcome) {
        loop {
            let flight = {
                let mut map = self.map.lock().expect("cache poisoned");
                match map.get(&key) {
                    Some(Slot::Ready(plan)) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return (plan.clone(), Outcome::Hit);
                    }
                    Some(Slot::InFlight(flight)) => flight.clone(),
                    None => {
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        let flight = Arc::new(Flight::new());
                        map.insert(key, Slot::InFlight(flight.clone()));
                        drop(map);
                        return (self.lead(key, &flight, compile), Outcome::Compiled);
                    }
                }
            };
            // Block outside the cache lock until the leader publishes.
            self.waits.fetch_add(1, Ordering::Relaxed);
            if let Some(plan) = flight.wait() {
                return (plan, Outcome::Waited);
            }
        }
    }

    /// Leader path: run `compile` without the lock held, under the guard
    /// that abandons the flight if it unwinds, then publish the plan into
    /// the map and wake the followers.
    fn lead(
        &self,
        key: PlanKey,
        flight: &Flight,
        compile: impl FnOnce() -> EvalPlan,
    ) -> Arc<EvalPlan> {
        let guard = AbandonOnUnwind {
            cache: self,
            key,
            flight,
        };
        let plan = Arc::new(compile());
        // `compile` returned: disarm, the flight completes below.
        std::mem::forget(guard);
        self.compiles.fetch_add(1, Ordering::Relaxed);
        self.map
            .lock()
            .expect("cache poisoned")
            .insert(key, Slot::Ready(plan.clone()));
        // Publish only after the map state is consistent; followers that
        // wake will find a Ready entry on their next lookup too.
        flight.finish(FlightState::Done(plan.clone()));
        plan
    }

    /// Point-in-time counters and resident size.
    pub fn snapshot(&self) -> CacheSnapshot {
        let resident_bytes = self
            .map
            .lock()
            .expect("cache poisoned")
            .values()
            .map(|slot| match slot {
                Slot::Ready(plan) => plan.bytes() as u64,
                Slot::InFlight(_) => 0,
            })
            .sum();
        CacheSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            single_flight_waits: self.waits.load(Ordering::Relaxed),
            resident_bytes,
        }
    }
}
