//! Helpers shared by the integration tests.

use sparse_alloc::prelude::*;

/// Materialize proptest op tuples `(kind, a, b, cap)` into a concrete
/// update stream. Arrival ids are allocated in order, so the stream is
/// engine-independent: it replays identically on every engine.
pub fn materialize_ops(g: &Bipartite, ops: &[(u8, u32, u32, u64)]) -> Vec<Update> {
    let mut nl = g.n_left() as u32;
    let nr = g.n_right() as u32;
    ops.iter()
        .map(|&(kind, a, b, cap)| match kind {
            0 => {
                nl += 1;
                Update::Arrive {
                    neighbors: vec![a % nr, b % nr],
                }
            }
            1 => Update::Depart { u: a % nl },
            2 => Update::InsertEdge {
                u: a % nl,
                v: b % nr,
            },
            3 => Update::DeleteEdge {
                u: a % nl,
                v: b % nr,
            },
            _ => Update::SetCapacity { v: a % nr, cap },
        })
        .collect()
}
