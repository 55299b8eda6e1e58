//! The block driver: how `n` work items are cut into
//! [`ExecConfig::n_blocks`](crate::ExecConfig) contiguous blocks, run in
//! order or on worker threads, and measured. Every sweep in the workspace
//! (per-point, per-element, plan compile/patch/apply) goes through here,
//! so changing how blocks are cut or scheduled is a one-file edit. Each
//! block is measured into a [`BlockStats`].

use crate::metrics::Metrics;
use rayon::prelude::*;
use std::time::Instant;

/// Half-open `(start, end)` bounds of `n` items cut into `n_blocks`
/// near-equal contiguous blocks. The block count is clamped to `1..=n`
/// (one empty block when `n == 0`), so no block is empty otherwise.
pub fn block_bounds(n: usize, n_blocks: usize) -> Vec<(usize, usize)> {
    let n_blocks = n_blocks.clamp(1, n.max(1));
    (0..n_blocks)
        .map(|b| (b * n / n_blocks, (b + 1) * n / n_blocks))
        .collect()
}

/// Maps `f` over `items`, on worker threads when `parallel`, returning
/// the results in input order either way.
pub fn map<T: Send, R: Send>(items: Vec<T>, parallel: bool, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    if parallel {
        // `par_iter` borrows; zipping the owned items onto unit slots is
        // what moves them (e.g. `&mut` output slices) to the workers.
        let slots = vec![(); items.len()];
        slots
            .par_iter()
            .zip(items)
            .map(|(_, item)| f(item))
            .collect()
    } else {
        items.into_iter().map(f).collect()
    }
}

/// [`map`] over the [`block_bounds`] of `out`, handing block `(s, e)` the
/// slice `out[s..e]` to write — race freedom by construction when
/// parallel.
pub fn map_slices<R: Send>(
    out: &mut [f64],
    n_blocks: usize,
    parallel: bool,
    f: impl Fn(usize, usize, &mut [f64]) -> R + Sync,
) -> Vec<R> {
    let mut rest = out;
    let blocks = block_bounds(rest.len(), n_blocks)
        .into_iter()
        .map(|(s, e)| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(e - s);
            rest = tail;
            (s, e, head)
        })
        .collect();
    map(blocks, parallel, |(s, e, slice)| f(s, e, slice))
}

/// Everything observed about one block/patch of work.
///
/// Blocks are the unit of device scheduling, so the spread of these values
/// across a run *is* its load-imbalance story (`RunReport` summarizes it
/// with max/mean, CoV, and Gini). Each worker owns its block's stats and
/// the coordinator collects them after the join, as with [`Metrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct BlockStats {
    /// The block's work counters.
    pub metrics: Metrics,
    /// Host wall-clock time spent evaluating the block, in nanoseconds.
    pub wall_ns: u64,
    /// Mesh elements assigned to the block (0 for per-point blocks, which
    /// own point ranges instead).
    pub elements: u64,
    /// Grid points the block wrote: owned points for per-point blocks,
    /// touched partial-solution slots for per-element patches.
    pub points: u64,
}

impl BlockStats {
    /// Runs one block's `body` under a wall timer. `elements` is what the
    /// block owns of the mesh; the points it wrote are the partial-solution
    /// slots its counters report.
    pub fn measure<T>(elements: u64, body: impl FnOnce() -> (T, Metrics)) -> (T, BlockStats) {
        let start = Instant::now();
        let (out, metrics) = body();
        let stats = BlockStats {
            metrics,
            wall_ns: start.elapsed().as_nanos() as u64,
            elements,
            points: metrics.partial_slots,
        };
        (out, stats)
    }

    /// Projects per-block metrics out of a stats slice (the shape the
    /// device cost model consumes).
    pub fn metrics_of(stats: &[BlockStats]) -> Vec<Metrics> {
        stats.iter().map(|s| s.metrics).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn block_bounds_is_an_ordered_cover_equal_to_the_inline_formula() {
        // Exhaustive over the sizes the sweeps meet, `n_blocks > n` and
        // `n == 0` included.
        for n in 0usize..200 {
            for n_blocks in 1usize..40 {
                let bounds = block_bounds(n, n_blocks);
                // The pair every sweep computed inline before the driver.
                let nb = n_blocks.clamp(1, n.max(1));
                let old: Vec<(usize, usize)> =
                    (1..=nb).map(|b| ((b - 1) * n / nb, b * n / nb)).collect();
                assert_eq!(bounds, old, "n={n} n_blocks={n_blocks}");
                assert_eq!((bounds[0].0, bounds[nb - 1].1), (0, n));
                assert!(bounds.windows(2).all(|w| w[0].1 == w[1].0));
                assert!(bounds.iter().all(|&(s, e)| s < e || n == 0));
            }
        }
    }

    #[test]
    fn map_keeps_input_order_and_slices_partition_the_output() {
        for parallel in [false, true] {
            let doubled = map((0..50u32).collect(), parallel, |x| 2 * x);
            assert_eq!(doubled, (0..50).map(|x| 2 * x).collect::<Vec<_>>());
            let mut out = vec![0.0; 37];
            let lens = map_slices(&mut out, 5, parallel, |s, e, slice| {
                assert_eq!(slice.len(), e - s);
                for (i, v) in slice.iter_mut().enumerate() {
                    *v = (s + i) as f64;
                }
                e - s
            });
            assert_eq!(lens.iter().sum::<usize>(), 37);
            assert!(out.iter().enumerate().all(|(i, &v)| v == i as f64));
        }
    }
}
