//! Vertex-ownership maps for sharded state, plus the ledger labels of the
//! distributed serving phases.
//!
//! The dynamic subsystem (`sparse-alloc-dynamic::distributed`) partitions
//! its overlay graph, β-levels, and matching state across the machines of
//! a [`Cluster`](crate::Cluster) by *vertex ownership*: every right vertex
//! (and every left vertex) has a fixed home machine, chosen by a
//! deterministic hash so the assignment is reproducible across runs,
//! platforms, and thread counts, and stays balanced without any global
//! coordination — the partitioning pattern of low-memory MPC matching
//! algorithms (Brandt–Fischer–Uitto, arXiv:1807.05374).
//!
//! [`ShardMap`] is intentionally tiny: owners are pure functions of the
//! vertex id, so any machine can compute any owner locally (no routing
//! table has to be stored, let alone shipped).

/// Deterministic vertex → machine ownership for sharded algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    shards: usize,
}

/// SplitMix64: a statistically strong, dependency-free mixer. Stable
/// across platforms (unlike `std`'s per-process-keyed SipHash).
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl ShardMap {
    /// An ownership map over `shards ≥ 1` machines.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "a shard map needs at least one machine");
        ShardMap { shards }
    }

    /// Number of machines the map spreads over.
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Home machine of right vertex `v`.
    #[inline]
    pub fn owner_of_right(&self, v: u32) -> usize {
        (splitmix64(v as u64) % self.shards as u64) as usize
    }

    /// Home machine of left vertex `u`. Salted differently from the right
    /// side so the two partitions are independent.
    #[inline]
    pub fn owner_of_left(&self, u: u32) -> usize {
        (splitmix64(u as u64 ^ 0x5157_1f24_3d0f_ace5) % self.shards as u64) as usize
    }

    /// The map's wire form for snapshots: ownership is a pure function of
    /// the shard count, so one word serializes the whole map (no routing
    /// table exists to persist). [`ShardMap::from_word`] round-trips it.
    #[inline]
    pub fn to_word(&self) -> u64 {
        self.shards as u64
    }

    /// Rebuild a map from its [wire form](ShardMap::to_word), rejecting a
    /// count that cannot be a live map (0, or one that does not fit a
    /// `usize`).
    pub fn from_word(word: u64) -> Result<ShardMap, String> {
        if word == 0 {
            return Err("a shard map needs at least one machine".into());
        }
        usize::try_from(word)
            .map(|shards| ShardMap { shards })
            .map_err(|_| format!("shard count {word} does not fit this platform"))
    }
}

/// Per-shard summary of a persisted sharded state — one entry per machine
/// of the [`ShardMap`] the snapshot was taken under. Restores re-derive
/// the same manifests from the decoded state and compare, so a snapshot
/// whose payload and manifests disagree (or whose manifest list does not
/// match its recorded shard count) is rejected before serving resumes.
/// Because ownership is a pure function of the vertex id, a restore onto
/// a *different* shard count is just a re-keying: the manifests still
/// validate the decoded state under the recorded map first.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardManifest {
    /// The machine this manifest describes.
    pub shard: u32,
    /// Left vertices owned by the machine.
    pub owned_lefts: u64,
    /// Right vertices owned by the machine.
    pub owned_rights: u64,
    /// Resident state of the machine, in words (what
    /// [`Ledger`](crate::Ledger) storage accounting charges).
    pub resident_words: u64,
    /// Checksum over the machine's owned slice of the serialized state.
    pub state_checksum: u64,
}

impl crate::Words for ShardManifest {
    fn words(&self) -> usize {
        5
    }
}

/// Ledger labels of the distributed serving phases, so cost tables and
/// tests can attribute rounds and storage peaks to a specific phase.
pub mod labels {
    /// Conflict-scheduling an update batch: the per-shard staged
    /// footprints are resident state of the scheduling phase (round-free;
    /// storage accounting only, asserted against the space budget like
    /// any other phase).
    pub const BATCH_SCHEDULE: &str = "batch_schedule";
    /// Routing an epoch's update batch to the shards owning their balls.
    pub const ROUTE_UPDATES: &str = "route_updates";
    /// One wave of conflict-free parallel ball repairs (cross-shard walk
    /// handoffs are the payload).
    pub const REPAIR_WAVE: &str = "repair_wave";
    /// The serial core's certificate sweep at epoch close (local
    /// computation: round-free, spanned for its wall time).
    pub const CERT_SWEEP: &str = "cert_sweep";
    /// The serial core's β-level repair at epoch close (local
    /// computation: round-free, spanned for its wall time).
    pub const LEVEL_REPAIR: &str = "level_repair";
    /// The serial core's overlay fold at epoch close, with its level
    /// re-solve when one runs (local computation: round-free, spanned for
    /// its wall time).
    pub const COMPACTION: &str = "compaction";
    /// Committing the epoch's matching migrations to the shards owning
    /// the receiving right vertices.
    pub const MIGRATION_COMMIT: &str = "migration_commit";
    /// Per-shard resident overlay/level/matching state observation
    /// (round-free; storage accounting only).
    pub const SHARD_STATE: &str = "shard_state";
    /// Writing a warm-restart snapshot: each machine stages its manifest
    /// and serialized slice (round-free; storage accounting only — the
    /// bytes leave through the host's filesystem, not the cluster).
    pub const CHECKPOINT: &str = "checkpoint";
    /// Restoring from a snapshot: each machine re-adopts its owned slice
    /// and re-validates its manifest (round-free; storage accounting
    /// only).
    pub const RESTORE: &str = "restore";
    /// Measured wire traffic of the networked route phase (update batch
    /// scattered to worker processes and echoed back; words =
    /// ⌈bytes/8⌉ actually framed onto the transport).
    pub const NET_ROUTE: &str = "net_route";
    /// Measured wire traffic of the networked commit phase (mate deltas
    /// and matched-list ops shipped to the owning workers).
    pub const NET_COMMIT: &str = "net_commit";
    /// Measured wire traffic of the networked census phase (per-worker
    /// slice sizes and checksums up).
    pub const NET_CENSUS: &str = "net_census";
    /// Measured wire traffic of scattering initial state slices to
    /// worker processes (construction and restore).
    pub const NET_INIT: &str = "net_init";
    /// Measured wire traffic of worker recovery: respawning a dead
    /// shard worker, re-scattering state, and replaying logged updates
    /// (transient retries ride under this label too).
    pub const NET_RECOVER: &str = "net_recover";
    /// Measured wire traffic of a peer-to-peer repair wave: footprint
    /// state dispatched to the owning workers and per-plan outcomes +
    /// flips acknowledged back over the coordinator spokes.
    pub const NET_WAVE: &str = "net_wave";
    /// Measured wire traffic of cross-shard walk handoffs: partial walk
    /// state exchanged *directly* over worker↔worker channels (frontier
    /// fetches and flip pushes), never through the coordinator.
    pub const NET_HANDOFF: &str = "net_handoff";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owners_are_deterministic_and_in_range() {
        let m = ShardMap::new(7);
        for v in 0..10_000u32 {
            let o = m.owner_of_right(v);
            assert!(o < 7);
            assert_eq!(o, m.owner_of_right(v));
            assert!(m.owner_of_left(v) < 7);
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let m = ShardMap::new(1);
        assert_eq!(m.owner_of_right(123), 0);
        assert_eq!(m.owner_of_left(456), 0);
    }

    #[test]
    fn partitions_are_roughly_balanced() {
        let shards = 8;
        let m = ShardMap::new(shards);
        let n = 80_000u32;
        let mut rights = vec![0usize; shards];
        let mut lefts = vec![0usize; shards];
        for v in 0..n {
            rights[m.owner_of_right(v)] += 1;
            lefts[m.owner_of_left(v)] += 1;
        }
        let expect = n as usize / shards;
        for s in 0..shards {
            assert!(
                rights[s] > expect / 2 && rights[s] < expect * 2,
                "right shard {s} holds {}",
                rights[s]
            );
            assert!(
                lefts[s] > expect / 2 && lefts[s] < expect * 2,
                "left shard {s} holds {}",
                lefts[s]
            );
        }
    }

    #[test]
    fn wire_form_roundtrips_and_rejects_zero() {
        for shards in [1usize, 2, 7, 4096] {
            let m = ShardMap::new(shards);
            let m2 = ShardMap::from_word(m.to_word()).unwrap();
            assert_eq!(m, m2);
            // Round-tripping preserves every ownership decision.
            for v in 0..500u32 {
                assert_eq!(m.owner_of_right(v), m2.owner_of_right(v));
                assert_eq!(m.owner_of_left(v), m2.owner_of_left(v));
            }
        }
        assert!(ShardMap::from_word(0).is_err());
    }

    #[test]
    fn manifest_counts_as_five_words() {
        use crate::Words;
        let m = ShardManifest {
            shard: 3,
            owned_lefts: 10,
            owned_rights: 12,
            resident_words: 99,
            state_checksum: 0xdead_beef,
        };
        assert_eq!(m.words(), 5);
    }

    #[test]
    fn left_and_right_salts_differ() {
        // The two partitions must not be the same function of the id.
        let m = ShardMap::new(5);
        let diverges = (0..100u32).any(|i| m.owner_of_right(i) != m.owner_of_left(i));
        assert!(diverges);
    }
}
