//! Every rank's four `CommStats` counters on one fixed mesh, pinned to the
//! values the byte codec this runtime once had produced (its encoded
//! lengths plus the 17-byte header). `Message::wire_bytes` now computes
//! them from the typed payload; these numbers hold it to the old layout,
//! so run reports and the cost model's comm term see the same traffic.
//!
//! Only rank 0's `bytes_recv` moved when the overlapped schedule gave way to
//! the barrier one, because it counts the gathered results. Per result:
//! −16 B for `interior` and `frontier`, −8 B for the two flow-list counts,
//! −32 B per flow point (1 + 1 push and 2 + 2 pull at 2 ranks, 3 + 3 and
//! 6 + 6 at 4), −46 B for the spans (`eval.interior` and `eval.frontier`,
//! 24 + 13 B each, became one `eval`, 24 + 4 B), and on the pull path
//! −112 B per patch (3 + 11 counters) as 16 row blocks became one block
//! per plan chunk, 5 at 2 ranks and 3 at 4. So push: −24, −134, 3 × −24,
//! 3 × −262; pull: −1 256, −1 430, 3 × −1 480, 3 × −1 910.
//!
//! The pull rows moved again when the plan work gave up its request
//! round for the push work's ghost ring: both works now send the same
//! coefficient messages, so pull's sent counters equal push's, and pull
//! rank 0 receives push's halo coefficients plus its own (smaller) results.

use ustencil::dg::project_l2;
use ustencil::dist::{run_dist, run_plan_dist, DistOptions, DistSolution};
use ustencil::engine::prelude::*;
use ustencil::mesh::{generate_mesh, MeshClass};

/// Per rank: `[msgs_sent, bytes_sent, msgs_recv, bytes_recv]`.
type Counts = Vec<[u64; 4]>;

fn counts(s: &DistSolution) -> Counts {
    s.ranks
        .iter()
        .map(|r| {
            let c = r.comm;
            [c.msgs_sent, c.bytes_sent, c.msgs_recv, c.bytes_recv]
        })
        .collect()
}

#[test]
fn comm_counters_equal_the_retired_codecs_lengths() {
    let mesh = generate_mesh(MeshClass::LowVariance, 600, 7);
    let field = project_l2(&mesh, 1, |x, y| (x * 4.2).sin() + 0.6 * y - 0.3 * x * y, 2);
    let grid = ComputationGrid::quadrature_points(&mesh, 1);
    // (ranks, instrumented, push, pull). Instrumentation adds spans to the
    // result messages, so only rank 0's receives move.
    let pinned: [(usize, bool, Counts, Counts); 4] = [
        (
            2,
            false,
            vec![[1, 8113, 2, 19246], [1, 8113, 1, 8113]],
            vec![[1, 8113, 2, 18014], [1, 8113, 1, 8113]],
        ),
        (
            2,
            true,
            vec![[1, 8113, 2, 19349], [1, 8113, 1, 8113]],
            vec![[1, 8113, 2, 18153], [1, 8113, 1, 8113]],
        ),
        (
            4,
            false,
            vec![
                [3, 12075, 6, 31818],
                [3, 12327, 3, 12159],
                [3, 12243, 3, 12187],
                [3, 12159, 3, 12215],
            ],
            vec![
                [3, 12075, 6, 27450],
                [3, 12327, 3, 12159],
                [3, 12243, 3, 12187],
                [3, 12159, 3, 12215],
            ],
        ),
        (
            4,
            true,
            vec![
                [3, 12075, 6, 32127],
                [3, 12327, 3, 12159],
                [3, 12243, 3, 12187],
                [3, 12159, 3, 12215],
            ],
            vec![
                [3, 12075, 6, 27867],
                [3, 12327, 3, 12159],
                [3, 12243, 3, 12187],
                [3, 12159, 3, 12215],
            ],
        ),
    ];
    for (ranks, instrument, push, pull) in pinned {
        let options = DistOptions::new(ranks).instrument(instrument);
        let label = format!("{ranks} ranks, instrumented {instrument}");
        let run = run_dist(&mesh, &field, &grid, &options).unwrap();
        assert_eq!(counts(&run), push, "push, {label}");
        let run = run_plan_dist(&mesh, &field, &grid, &options).unwrap();
        assert_eq!(counts(&run), pull, "pull, {label}");
    }
}
