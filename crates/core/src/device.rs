//! The streaming-device cost model.
//!
//! The paper's evaluation ran on NVIDIA Tesla M2090 GPUs; this repository
//! replaces that hardware with a deterministic cost model driven entirely by
//! the work counters of [`Metrics`] (see DESIGN.md, substitutions table).
//! The model captures the three effects the paper attributes performance to:
//!
//! 1. **Intersection-test volume** — hash-grid cell visits and clip calls
//!    carry cycle charges (clips also carry a SIMD-divergence penalty);
//! 2. **Memory behaviour** — element-data reads are charged *uncoalesced*
//!    in the per-point scheme (scattered, per-integration reads) and
//!    *coalesced* in the per-element scheme (loaded once, reused from
//!    shared memory);
//! 3. **Block scheduling** — per-patch block costs are placed onto SMs with
//!    longest-processing-time scheduling; device time is the busiest SM.
//!
//! The constants are loosely modeled on the M2090 (16 SMs, ~1.3 GHz,
//! 665 GFLOP/s double precision, ~8x coalescing advantage); the claims
//! checked against the paper are ratios and scaling shapes, never absolute
//! times.

use crate::engine::Scheme;
use crate::metrics::Metrics;

/// Cycle charges of the model, per SM.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Cycles per double-precision flop (throughput-reciprocal; an SM
    /// retires ~32 DP flops per cycle).
    pub flop_cycles: f64,
    /// Cycles per f64 read that coalesces across the warp.
    pub coalesced_load_cycles: f64,
    /// Cycles per f64 read with a scattered (uncoalesced) access pattern.
    pub uncoalesced_load_cycles: f64,
    /// Cycles per f64 solution write.
    pub write_cycles: f64,
    /// Divergence penalty per Sutherland–Hodgman clip (branchy SIMD code).
    pub clip_cycles: f64,
    /// Cycles per hash-grid cell visited by a query.
    pub cell_visit_cycles: f64,
    /// Cycles per partial-solution slot in the reduction phase.
    pub reduce_cycles: f64,
    /// Cycles per byte moved over the inter-rank link (PCIe/network; a
    /// few GB/s against a ~1.3 GHz clock).
    pub link_byte_cycles: f64,
    /// Fixed per-message latency charge on the inter-rank link.
    pub msg_latency_cycles: f64,
    /// Device clock in GHz.
    pub clock_ghz: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            flop_cycles: 1.0 / 32.0,
            coalesced_load_cycles: 2.0,
            uncoalesced_load_cycles: 16.0,
            write_cycles: 2.0,
            clip_cycles: 48.0,
            cell_visit_cycles: 12.0,
            reduce_cycles: 4.0,
            link_byte_cycles: 4.0,
            msg_latency_cycles: 20_000.0,
            clock_ghz: 1.3,
        }
    }
}

/// A simulated multi-device configuration (`N_GPU`, `N_SM`).
#[derive(Debug, Clone, Copy)]
pub struct DeviceConfig {
    /// Number of devices (paper: 1, 2, 4, 8).
    pub n_devices: usize,
    /// Streaming multiprocessors per device (M2090: 16).
    pub n_sms: usize,
    /// The cycle model.
    pub cost: CostModel,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self {
            n_devices: 1,
            n_sms: 16,
            cost: CostModel::default(),
        }
    }
}

ustencil_trace::json_record! {
    /// Outcome of a simulated execution.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SimReport {
        /// Busy time of each device in milliseconds (compute phase).
        pub device_ms: Vec<f64>,
        /// Reduction-phase time in milliseconds.
        pub reduction_ms: f64,
        /// Communication-phase time in milliseconds: the counted wire
        /// traffic (0 for a single-address-space run, which sends none).
        pub comms_ms: f64,
        /// End-to-end simulated time: slowest device plus comms plus
        /// reduction.
        pub total_ms: f64,
        /// Total counted flops across all blocks; the report also shows the
        /// [`gflops`](Self::gflops) they amount to.
        pub flops: u64 => gflops(Self::gflops),
    }
}

impl SimReport {
    /// Achieved throughput in GFLOP/s under the simulated time.
    pub fn gflops(&self) -> f64 {
        if self.total_ms <= 0.0 {
            0.0
        } else {
            self.flops as f64 / (self.total_ms * 1e-3) / 1e9
        }
    }
}

impl CostModel {
    /// Cycle cost of one block's counted work under the given scheme.
    pub fn block_cycles(&self, scheme: Scheme, m: &Metrics) -> f64 {
        let elem_load_cost = match scheme {
            // Scattered per-integration reads of heterogeneous elements.
            Scheme::PerPoint => self.uncoalesced_load_cycles,
            // Loaded once per element into shared memory, then reused.
            Scheme::PerElement => self.coalesced_load_cycles,
        };
        m.flops as f64 * self.flop_cycles
            + m.elem_data_loads as f64 * elem_load_cost
            + m.point_data_loads as f64 * self.coalesced_load_cycles
            + m.solution_writes as f64 * self.write_cycles
            + m.cell_clips as f64 * self.clip_cycles
            + m.cells_visited as f64 * self.cell_visit_cycles
    }
}

/// One rank's wire traffic, as counted by the distributed runtime.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RankTraffic {
    /// Wire bytes the rank sent.
    pub bytes_sent: u64,
    /// Messages the rank sent.
    pub msgs_sent: u64,
}

/// Simulates a rank-sharded execution: each rank is one device evaluating
/// its own blocks, LPT-scheduled onto its SMs (a device's compute time is
/// its busiest SM), plus a communication phase charged from *counted* wire
/// traffic and a reduction that charges each partial-solution slot once
/// across all SMs, plus a second stage across devices.
///
/// `rank_blocks[r]` holds rank `r`'s per-patch metrics and `traffic[r]`
/// its measured send-side traffic (the distributed runtime counts both).
/// A single-address-space run is its blocks dealt round-robin to the
/// devices (the paper's even patch distribution) with no traffic.
/// The comms phase is the busiest rank's `bytes · link_byte_cycles +
/// msgs · msg_latency_cycles` — ranks exchange halos concurrently, so the
/// slowest link bounds the phase, which is what flattens the log-log
/// scaling curve once halo traffic stops shrinking with rank count.
///
/// # Panics
/// Panics when `rank_blocks` is empty, its length differs from
/// `traffic`'s, or the config has zero SMs.
pub fn simulate_ranks(
    scheme: Scheme,
    rank_blocks: &[Vec<Metrics>],
    traffic: &[RankTraffic],
    config: &DeviceConfig,
) -> SimReport {
    assert!(!rank_blocks.is_empty(), "no ranks to simulate");
    assert_eq!(rank_blocks.len(), traffic.len(), "ranks/traffic mismatch");
    assert!(config.n_sms > 0, "empty device");
    let n_ranks = rank_blocks.len();
    let cycles_to_ms = 1.0 / (config.cost.clock_ghz * 1e6);

    // Each rank LPT-schedules its own blocks onto its SMs.
    let device_ms: Vec<f64> = rank_blocks
        .iter()
        .map(|blocks| {
            let mut costs: Vec<f64> = blocks
                .iter()
                .map(|m| config.cost.block_cycles(scheme, m))
                .collect();
            costs.sort_by(|a, b| b.total_cmp(a));
            let mut sms = vec![0.0f64; config.n_sms];
            for c in costs {
                if let Some((imin, _)) = sms.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)) {
                    sms[imin] += c;
                }
            }
            sms.iter().fold(0.0f64, |a, &b| a.max(b)) * cycles_to_ms
        })
        .collect();
    let compute_ms = device_ms.iter().fold(0.0f64, |a, &b| a.max(b));

    // The ranks exchange before they evaluate, so the whole wire time is
    // charged.
    let comms_cycles = traffic
        .iter()
        .map(|t| {
            t.bytes_sent as f64 * config.cost.link_byte_cycles
                + t.msgs_sent as f64 * config.cost.msg_latency_cycles
        })
        .fold(0.0f64, f64::max);
    let comms_ms = comms_cycles * cycles_to_ms;

    let total_slots: u64 = rank_blocks.iter().flatten().map(|m| m.partial_slots).sum();
    let reduction_cycles = total_slots as f64 * config.cost.reduce_cycles
        / (n_ranks * config.n_sms) as f64
        + (n_ranks.saturating_sub(1)) as f64 * total_slots as f64 * config.cost.reduce_cycles
            / (n_ranks * config.n_sms * 4) as f64;
    let reduction_ms = reduction_cycles * cycles_to_ms;

    SimReport {
        device_ms,
        reduction_ms,
        comms_ms,
        total_ms: compute_ms + comms_ms + reduction_ms,
        flops: rank_blocks.iter().flatten().map(|m| m.flops).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(flops: u64, elem_loads: u64) -> Metrics {
        Metrics {
            flops,
            elem_data_loads: elem_loads,
            partial_slots: 100,
            ..Default::default()
        }
    }

    #[test]
    fn per_point_pays_more_for_element_loads() {
        let cfg = DeviceConfig::default();
        let m = block(1000, 1000);
        let pp = cfg.cost.block_cycles(Scheme::PerPoint, &m);
        let pe = cfg.cost.block_cycles(Scheme::PerElement, &m);
        assert!(pp > pe);
        let ratio = cfg.cost.uncoalesced_load_cycles / cfg.cost.coalesced_load_cycles;
        assert!(ratio >= 4.0, "model must penalize uncoalesced access");
    }

    /// `blocks` dealt round-robin to `config.n_devices` devices, no traffic.
    fn simulate(scheme: Scheme, blocks: &[Metrics], config: &DeviceConfig) -> SimReport {
        let n = config.n_devices;
        let dealt: Vec<Vec<Metrics>> = (0..n)
            .map(|d| blocks.iter().skip(d).step_by(n).copied().collect())
            .collect();
        simulate_ranks(scheme, &dealt, &vec![RankTraffic::default(); n], config)
    }

    #[test]
    fn more_devices_reduce_time() {
        let blocks: Vec<Metrics> = (0..128).map(|i| block(1_000_000 + i, 5_000)).collect();
        let mut last = f64::INFINITY;
        for n in [1usize, 2, 4, 8] {
            let cfg = DeviceConfig {
                n_devices: n,
                ..Default::default()
            };
            let rep = simulate(Scheme::PerElement, &blocks, &cfg);
            assert!(
                rep.total_ms < last,
                "no speedup at {n} devices: {} !< {last}",
                rep.total_ms
            );
            last = rep.total_ms;
        }
    }

    #[test]
    fn near_linear_scaling_with_many_balanced_blocks() {
        let blocks: Vec<Metrics> = (0..1024).map(|_| block(1_000_000, 5_000)).collect();
        let t1 = simulate(
            Scheme::PerElement,
            &blocks,
            &DeviceConfig {
                n_devices: 1,
                ..Default::default()
            },
        )
        .total_ms;
        let t8 = simulate(
            Scheme::PerElement,
            &blocks,
            &DeviceConfig {
                n_devices: 8,
                ..Default::default()
            },
        )
        .total_ms;
        let speedup = t1 / t8;
        assert!(
            speedup > 6.0,
            "expected near-linear 8-device scaling, got {speedup}"
        );
    }

    #[test]
    fn gflops_reporting() {
        let blocks = vec![block(13_000_000_000, 0)];
        let rep = simulate(Scheme::PerElement, &blocks, &DeviceConfig::default());
        assert!(rep.flops == 13_000_000_000);
        assert!(rep.gflops() > 0.0);
    }

    #[test]
    fn rank_sim_charges_counted_traffic() {
        let blocks: Vec<Metrics> = (0..32).map(|_| block(1_000_000, 5_000)).collect();
        let per_rank: Vec<Vec<Metrics>> = blocks.chunks(16).map(|c| c.to_vec()).collect();
        let quiet = vec![RankTraffic::default(); 2];
        let busy = vec![
            RankTraffic {
                bytes_sent: 1_000_000,
                msgs_sent: 10,
            };
            2
        ];
        let cfg = DeviceConfig::default();
        let rep_quiet = simulate_ranks(Scheme::PerElement, &per_rank, &quiet, &cfg);
        let rep_busy = simulate_ranks(Scheme::PerElement, &per_rank, &busy, &cfg);
        assert_eq!(rep_quiet.comms_ms, 0.0);
        assert!(rep_busy.comms_ms > 0.0);
        assert!(
            (rep_busy.total_ms - rep_quiet.total_ms - rep_busy.comms_ms).abs() < 1e-12,
            "comms must be additive on top of compute + reduction"
        );
    }

    #[test]
    fn rank_scaling_bends_under_flat_halo_traffic() {
        // With per-rank halo traffic that does not shrink as ranks are
        // added, the speedup curve must fall away from linear — the shape
        // Fig. 14 shows once communication stops being amortized.
        let blocks: Vec<Metrics> = (0..256).map(|_| block(4_000_000, 5_000)).collect();
        let cfg = DeviceConfig::default();
        let time_at = |n: usize| {
            let per_rank: Vec<Vec<Metrics>> = (0..n)
                .map(|r| {
                    blocks
                        .iter()
                        .skip(r)
                        .step_by(n)
                        .cloned()
                        .collect::<Vec<_>>()
                })
                .collect();
            let traffic = vec![
                RankTraffic {
                    bytes_sent: if n > 1 { 100_000 } else { 0 },
                    msgs_sent: if n > 1 { (n - 1) as u64 * 2 } else { 0 },
                };
                n
            ];
            simulate_ranks(Scheme::PerElement, &per_rank, &traffic, &cfg).total_ms
        };
        let t1 = time_at(1);
        let t8 = time_at(8);
        let speedup = t1 / t8;
        assert!(speedup > 1.5, "ranks must still help, got {speedup}");
        assert!(
            speedup < 7.0,
            "flat halo traffic must bend the curve below linear, got {speedup}"
        );
    }

    #[test]
    fn single_huge_block_does_not_scale() {
        // One indivisible block: device time is flat regardless of device
        // count (the serialization the tiling scheme exists to avoid).
        let blocks = vec![block(1_000_000_000, 0)];
        let t1 = simulate(Scheme::PerElement, &blocks, &DeviceConfig::default()).total_ms;
        let t8 = simulate(
            Scheme::PerElement,
            &blocks,
            &DeviceConfig {
                n_devices: 8,
                ..Default::default()
            },
        )
        .total_ms;
        assert!(t8 > 0.9 * t1, "indivisible work cannot speed up");
    }
}
