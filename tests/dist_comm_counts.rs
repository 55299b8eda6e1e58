//! Every rank's four `CommStats` counters on one fixed mesh, pinned to the
//! values the byte codec this runtime once had produced (its encoded
//! lengths plus the 17-byte header). `Message::wire_bytes` now computes
//! them from the message's ids and values; these numbers hold it to the old
//! layout, so run reports and the cost model's comm term see the same
//! traffic.
//!
//! History: the sent columns last moved when the plan work gave up its
//! request round for the push work's ghost ring, so both works send the
//! same coefficient messages. Rank 0's receive columns moved last when the
//! ranks began handing their results back at join instead of sending them:
//! rank 0 now receives only its peers' halo pushes, so every run's
//! receives equal its sends, message for message and byte for byte, and
//! instrumentation moves no counter.

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
    // (ranks, instrumented, push, pull).
    let pinned: [(usize, bool, Counts, Counts); 4] = [
        (
            2,
            false,
            vec![[1, 8113, 1, 8113], [1, 8113, 1, 8113]],
            vec![[1, 8113, 1, 8113], [1, 8113, 1, 8113]],
        ),
        (
            2,
            true,
            vec![[1, 8113, 1, 8113], [1, 8113, 1, 8113]],
            vec![[1, 8113, 1, 8113], [1, 8113, 1, 8113]],
        ),
        (
            4,
            false,
            vec![
                [3, 12075, 3, 12243],
                [3, 12327, 3, 12159],
                [3, 12243, 3, 12187],
                [3, 12159, 3, 12215],
            ],
            vec![
                [3, 12075, 3, 12243],
                [3, 12327, 3, 12159],
                [3, 12243, 3, 12187],
                [3, 12159, 3, 12215],
            ],
        ),
        (
            4,
            true,
            vec![
                [3, 12075, 3, 12243],
                [3, 12327, 3, 12159],
                [3, 12243, 3, 12187],
                [3, 12159, 3, 12215],
            ],
            vec![
                [3, 12075, 3, 12243],
                [3, 12327, 3, 12159],
                [3, 12243, 3, 12187],
                [3, 12159, 3, 12215],
            ],
        ),
    ];
    for (ranks, instrument, push, pull) in pinned {
        let options = DistOptions::new(ranks).instrument(instrument);
        let label = format!("{ranks} ranks, instrumented {instrument}");
        let runs = [
            ("push", run_dist(&mesh, &field, &grid, &options), push),
            ("pull", run_plan_dist(&mesh, &field, &grid, &options), pull),
        ];
        for (work, run, pinned) in runs {
            let got = counts(&run.unwrap());
            assert_eq!(got, pinned, "{work}, {label}");
            // Every message sent is received exactly once.
            let sum = |i: usize| got.iter().map(|c| c[i]).sum::<u64>();
            assert_eq!((sum(2), sum(3)), (sum(0), sum(1)), "{work}, {label}");
        }
    }
}
