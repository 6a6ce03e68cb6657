//! The update vocabulary of the dynamic engine.

use sparse_alloc_graph::io::{ByteReader, ByteWriter, IoError};
use sparse_alloc_graph::{LeftId, RightId};
use sparse_alloc_mpc::Words;

/// One mutation of the live allocation instance.
///
/// The left side churns (clients arrive and depart, their edge sets
/// change); the right side is long-lived but its capacities move. This is
/// exactly the serving setting the paper's introduction motivates
/// (impressions/jobs on the left, advertisers/servers on the right).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Update {
    /// A new left vertex arrives with the given neighbor set; the engine
    /// assigns it the next free id (returned by
    /// [`crate::ServeLoop::apply`]).
    Arrive {
        /// Neighbors in `R` (deduplicated on application).
        neighbors: Vec<RightId>,
    },
    /// Left vertex `u` departs: all its edges are removed and its match
    /// (if any) is released. The id stays allocated with degree 0, so a
    /// later [`Update::InsertEdge`] can revive the vertex.
    Depart {
        /// The departing left vertex.
        u: LeftId,
    },
    /// Insert edge `(u, v)`. A no-op if the edge is already live.
    InsertEdge {
        /// Left endpoint (must be `< n_left`).
        u: LeftId,
        /// Right endpoint.
        v: RightId,
    },
    /// Delete edge `(u, v)`. A no-op if the edge is not live.
    DeleteEdge {
        /// Left endpoint.
        u: LeftId,
        /// Right endpoint.
        v: RightId,
    },
    /// Set the capacity of right vertex `v` to `cap ≥ 1`. Decreases evict
    /// excess matches (which the engine immediately tries to re-place).
    SetCapacity {
        /// The right vertex.
        v: RightId,
        /// The new capacity.
        cap: u64,
    },
}

/// An update's size in the simulated cluster's routing exchange: a kind
/// word, three operand words, and a neighbor list — a length word plus
/// its entries, empty for every variant but an arrival.
impl Words for Update {
    fn words(&self) -> usize {
        match self {
            Update::Arrive { neighbors } => 4 + neighbors.words(),
            _ => 5,
        }
    }
}

// The one wire form of an update, shared by the networked route phase
// (`net`) and the write-ahead log (`wal`): a packed position+kind word
// followed by only the operands the variant actually carries. One codec
// means a batch that round-tripped the wire and a batch replayed from
// the log are byte-for-byte the same input to the engine, and the
// variant-shaped layout is what keeps the WAL's amortized cost at a few
// bytes per update (the log is append-fsynced on the serving hot path).

/// Batch positions share a `u32` with the 3-bit kind tag, capping a
/// single encoded batch at `2^29` updates — far beyond any epoch.
const MAX_BATCH: u32 = 1 << 29;

/// Encode `(idx, up)` into `w` (`idx` is the update's batch position).
pub(crate) fn put_update(w: &mut ByteWriter, idx: u32, up: &Update) {
    debug_assert!(
        idx < MAX_BATCH,
        "batch position {idx} overflows the tag word"
    );
    let mut tagged = |kind: u32| w.put_u32(idx << 3 | kind);
    match up {
        Update::Arrive { neighbors } => {
            tagged(0);
            w.put_u32(neighbors.len() as u32);
            for &v in neighbors {
                w.put_u32(v);
            }
        }
        Update::Depart { u } => {
            tagged(1);
            w.put_u32(*u);
        }
        Update::InsertEdge { u, v } => {
            tagged(2);
            w.put_u32(*u);
            w.put_u32(*v);
        }
        Update::DeleteEdge { u, v } => {
            tagged(3);
            w.put_u32(*u);
            w.put_u32(*v);
        }
        Update::SetCapacity { v, cap } => {
            tagged(4);
            w.put_u32(*v);
            w.put_u64(*cap);
        }
    }
}

/// Decode one [`put_update`] record; a kind tag outside the vocabulary
/// or a neighbor count past the payload is a typed parse error, never a
/// panic.
pub(crate) fn take_update(r: &mut ByteReader) -> Result<(u32, Update), IoError> {
    let word = r.take_u32()?;
    let (idx, kind) = (word >> 3, word & 7);
    let up = match kind {
        0 => {
            let n = r.take_u32()? as usize;
            if n * 4 > r.remaining() {
                return Err(IoError::Parse(format!(
                    "neighbor count {n} exceeds the remaining {} bytes",
                    r.remaining()
                )));
            }
            let neighbors = (0..n).map(|_| r.take_u32()).collect::<Result<_, _>>()?;
            Update::Arrive { neighbors }
        }
        1 => Update::Depart { u: r.take_u32()? },
        2 => Update::InsertEdge {
            u: r.take_u32()?,
            v: r.take_u32()?,
        },
        3 => Update::DeleteEdge {
            u: r.take_u32()?,
            v: r.take_u32()?,
        },
        4 => Update::SetCapacity {
            v: r.take_u32()?,
            cap: r.take_u64()?,
        },
        other => return Err(IoError::Parse(format!("unknown update kind {other}"))),
    };
    Ok((idx, up))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The update of variant `kind` built from the drawn operands.
    fn update_of(kind: u8, a: u32, b: u32, cap: u64, neighbors: Vec<u32>) -> Update {
        match kind {
            0 => Update::Arrive { neighbors },
            1 => Update::Depart { u: a },
            2 => Update::InsertEdge { u: a, v: b },
            3 => Update::DeleteEdge { u: a, v: b },
            _ => Update::SetCapacity { v: b, cap },
        }
    }

    fn encode(idx: u32, up: &Update) -> Vec<u8> {
        let mut w = ByteWriter::new();
        put_update(&mut w, idx, up);
        w.into_bytes()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every variant decodes back to itself and its batch position,
        /// consuming exactly its own bytes.
        #[test]
        fn every_update_round_trips_with_its_batch_index(
            kind in 0u8..5,
            idx in 0u32..MAX_BATCH,
            a in 0u32..u32::MAX,
            b in 0u32..u32::MAX,
            cap in 0u64..=u64::MAX,
            neighbors in proptest::collection::vec(0u32..u32::MAX, 0..=64),
        ) {
            let up = update_of(kind, a, b, cap, neighbors);
            let bytes = encode(idx, &up);
            let mut r = ByteReader::new(&bytes);
            prop_assert_eq!(take_update(&mut r).unwrap(), (idx, up));
            prop_assert_eq!(r.remaining(), 0);
        }

        /// Every proper prefix of an encoding — a frame or log record cut
        /// short — decodes to a typed error, never a panic.
        #[test]
        fn every_proper_prefix_is_a_typed_error(
            kind in 0u8..5,
            idx in 0u32..MAX_BATCH,
            a in 0u32..u32::MAX,
            b in 0u32..u32::MAX,
            cap in 0u64..=u64::MAX,
            neighbors in proptest::collection::vec(0u32..u32::MAX, 0..=64),
        ) {
            let up = update_of(kind, a, b, cap, neighbors);
            let bytes = encode(idx, &up);
            for cut in 0..bytes.len() {
                let mut r = ByteReader::new(&bytes[..cut]);
                prop_assert!(
                    matches!(take_update(&mut r), Err(IoError::Parse(_))),
                    "a {cut}-byte prefix of {up:?} decoded"
                );
            }
        }
    }
}
