//! The serve ledgers conserve: a traffic run's aggregate counters, its
//! per-tenant ledgers and its latency histograms account for every request
//! exactly once, cached and naive alike.

use ustencil_core::{ServeStats, TenantLedger};
use ustencil_serve::traffic::{run_cached, run_naive};
use ustencil_serve::TrafficConfig;

/// The rules `reproduce checkjson` holds a serve run to.
fn assert_conserves(s: &ServeStats) {
    let sum = |f: fn(&TenantLedger) -> u64| s.tenants.iter().map(f).sum::<u64>();
    assert_eq!(
        s.hits + s.misses + s.single_flight_waits,
        s.requests,
        "{s:?}"
    );
    assert_eq!(s.misses, s.compiles, "{s:?}");
    assert_eq!(s.tenants.len() as u64, s.clients);
    assert_eq!(sum(|t| t.requests), s.requests);
    // A tenant books a single-flight wait as a hit: it did not compile.
    assert_eq!(sum(|t| t.hits), s.hits + s.single_flight_waits);
    assert_eq!(sum(|t| t.misses), s.compiles);
    assert_eq!(sum(|t| t.compiles), s.compiles);
    assert_eq!(sum(|t| t.rows), s.rows);
    // Every request is timed, into its tenant's histogram and the run's.
    assert_eq!(s.service_us.count(), s.requests);
    for t in &s.tenants {
        assert_eq!(t.service_us.count(), t.requests, "tenant {}", t.tenant);
    }
}

#[test]
fn cached_and_naive_ledgers_conserve() {
    let cfg = TrafficConfig {
        clients: 3,
        requests: 24,
        seed: 42,
    };
    let cached = run_cached(&cfg).stats;
    assert_conserves(&cached);
    assert_eq!(cached.requests, 24);
    // One compile per distinct mesh at most, and the plans stay resident.
    assert!(cached.compiles >= 1 && cached.compiles <= cached.catalog);
    assert!(cached.cache_bytes > 0);

    let naive = run_naive(&TrafficConfig { requests: 4, ..cfg }).stats;
    assert_conserves(&naive);
    assert_eq!((naive.compiles, naive.hits), (4, 0));
    assert_eq!(naive.cache_bytes, 0);
}
