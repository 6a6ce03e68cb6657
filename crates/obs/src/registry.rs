//! The workspace metrics vocabulary: counters, distributions, and
//! per-phase latency histograms behind one allocation-free registry.
//!
//! Everything is backed by fixed arrays indexed by small enums, so a
//! hot-path update is an array index plus an integer add — the same
//! "pre-size once, never allocate while serving" discipline as
//! `dynamic::stamp`. Export (iterating names, producing snapshots) is
//! the only place that allocates.

use crate::hist::Histogram;

/// Monotonic counters the engines bump on the serving hot path.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Augmenting-walk expansions spent by eager repair searches.
    WalkExpansions,
    /// Eager searches the visit cap cut off before they found a walk
    /// (deferred to the epoch sweep).
    SearchCapHits,
    /// Expansions spent by per-epoch certificate sweeps.
    SweepExpansions,
    /// Augmenting walks that succeeded (matching grew or rewired).
    Augmentations,
    /// Matched clients evicted by capacity-shrink repairs.
    Evictions,
    /// Update balls escalated to a global (whole-graph) wave.
    Escalations,
    /// Updates routed to owner shards by the batch scheduler.
    RoutedUpdates,
    /// Simulated words handed off between shards by repair waves.
    HandoffWords,
    /// Frames put on the wire by the networked engine.
    FramesSent,
    /// Frames taken off the wire by the networked engine.
    FramesReceived,
    /// Bytes put on the wire by the networked engine.
    BytesSent,
    /// Bytes taken off the wire by the networked engine.
    BytesReceived,
    /// Transient wire operations retried in place (recv timeouts the
    /// supervisor absorbed with backoff instead of failing the batch).
    NetRetries,
    /// Shard workers respawned on a fresh channel after a fatal fault.
    NetRespawns,
    /// Bytes re-scattered or replayed to re-initialize respawned
    /// workers (the wire cost of recovery).
    ReplayedBytes,
    /// Bytes appended to the write-ahead log.
    WalBytes,
}

impl Counter {
    /// Every counter, in export order.
    pub const ALL: [Counter; 16] = [
        Counter::WalkExpansions,
        Counter::SearchCapHits,
        Counter::SweepExpansions,
        Counter::Augmentations,
        Counter::Evictions,
        Counter::Escalations,
        Counter::RoutedUpdates,
        Counter::HandoffWords,
        Counter::FramesSent,
        Counter::FramesReceived,
        Counter::BytesSent,
        Counter::BytesReceived,
        Counter::NetRetries,
        Counter::NetRespawns,
        Counter::ReplayedBytes,
        Counter::WalBytes,
    ];

    /// Stable export name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::WalkExpansions => "walk_expansions",
            Counter::SearchCapHits => "search_cap_hits",
            Counter::SweepExpansions => "sweep_expansions",
            Counter::Augmentations => "augmentations",
            Counter::Evictions => "evictions",
            Counter::Escalations => "escalations",
            Counter::RoutedUpdates => "routed_updates",
            Counter::HandoffWords => "handoff_words",
            Counter::FramesSent => "frames_sent",
            Counter::FramesReceived => "frames_received",
            Counter::BytesSent => "bytes_sent",
            Counter::BytesReceived => "bytes_received",
            Counter::NetRetries => "net_retries",
            Counter::NetRespawns => "net_respawns",
            Counter::ReplayedBytes => "replayed_bytes",
            Counter::WalBytes => "wal_bytes",
        }
    }
}

/// Distributions the engines observe per event (log₂-bucketed).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Dist {
    /// Width (ball count) of each conflict-free repair wave.
    WaveWidth,
    /// Staged footprint size (vertices) of each scheduled update ball.
    BallSize,
    /// Eager-search radius each repaired update actually needed.
    FootprintRadius,
    /// Updates per applied batch.
    BatchSize,
}

impl Dist {
    /// Every distribution, in export order.
    pub const ALL: [Dist; 4] = [
        Dist::WaveWidth,
        Dist::BallSize,
        Dist::FootprintRadius,
        Dist::BatchSize,
    ];

    /// Stable export name.
    pub fn name(self) -> &'static str {
        match self {
            Dist::WaveWidth => "wave_width",
            Dist::BallSize => "ball_size",
            Dist::FootprintRadius => "footprint_radius",
            Dist::BatchSize => "batch_size",
        }
    }
}

/// The phase vocabulary: the one place a serving phase is named. A
/// phase's [`label`](Phase::label) is both its ledger label (every
/// `RoundRecord` and storage observation of the phase carries it) and
/// its trace name, so a span and the simulated cost of the same work
/// always agree.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Conflict-scheduling an update batch into waves.
    BatchSchedule,
    /// Routing an update batch to the shards owning its balls.
    RouteUpdates,
    /// One conflict-free parallel repair wave.
    RepairWave,
    /// The serial core's `k/(k+1)` certificate sweep: searching from
    /// every free left until a pass augments nothing.
    CertSweep,
    /// The serial core's β-level repair on the epoch's dirty rights.
    LevelRepair,
    /// The gather half of `LevelRepair`, nested in its span: copying the
    /// dirty rights' live rows, and those of their adjacent lefts, into
    /// flat arenas. The rest of `LevelRepair` is the rounds over them.
    LevelGather,
    /// Folding the live graph's overlay into a fresh snapshot once the
    /// churn budget is spent, re-solving the levels when their fractional
    /// weight has fallen below `(1 − ε/2)·|M|`.
    Compaction,
    /// Committing the epoch's matching migrations to the shards owning
    /// the receiving right vertices.
    MigrationCommit,
    /// Per-shard resident state observation (census).
    ShardState,
    /// Writing a warm-restart snapshot.
    Checkpoint,
    /// Restoring from a snapshot.
    Restore,
    /// Networked route phase (scatter + echo) on the wire.
    NetRoute,
    /// Networked commit phase (delta shipping) on the wire.
    NetCommit,
    /// Networked census + summary phases on the wire.
    NetCensus,
    /// Networked initial state scatter on the wire.
    NetInit,
    /// Networked allocation gather on the wire: every worker's mate
    /// slice, reassembled by the coordinator.
    NetGather,
    /// Worker recovery on the wire: respawn, state re-scatter, replay.
    NetRecover,
    /// Peer-to-peer repair wave on the wire: footprint dispatch +
    /// outcome/flip acknowledgements over the coordinator spokes.
    NetWave,
    /// Cross-shard walk handoffs on worker↔worker channels.
    NetHandoff,
}

impl Phase {
    /// Every phase, in export order.
    pub const ALL: [Phase; 19] = [
        Phase::BatchSchedule,
        Phase::RouteUpdates,
        Phase::RepairWave,
        Phase::CertSweep,
        Phase::LevelRepair,
        Phase::LevelGather,
        Phase::Compaction,
        Phase::MigrationCommit,
        Phase::ShardState,
        Phase::Checkpoint,
        Phase::Restore,
        Phase::NetRoute,
        Phase::NetCommit,
        Phase::NetCensus,
        Phase::NetInit,
        Phase::NetGather,
        Phase::NetRecover,
        Phase::NetWave,
        Phase::NetHandoff,
    ];

    /// The phase's name: its ledger label and its trace span name.
    pub fn label(self) -> &'static str {
        match self {
            Phase::BatchSchedule => "batch_schedule",
            Phase::RouteUpdates => "route_updates",
            Phase::RepairWave => "repair_wave",
            Phase::CertSweep => "cert_sweep",
            Phase::LevelRepair => "level_repair",
            Phase::LevelGather => "level_gather",
            Phase::Compaction => "compaction",
            Phase::MigrationCommit => "migration_commit",
            Phase::ShardState => "shard_state",
            Phase::Checkpoint => "checkpoint",
            Phase::Restore => "restore",
            Phase::NetRoute => "net_route",
            Phase::NetCommit => "net_commit",
            Phase::NetCensus => "net_census",
            Phase::NetInit => "net_init",
            Phase::NetGather => "net_gather",
            Phase::NetRecover => "net_recover",
            Phase::NetWave => "net_wave",
            Phase::NetHandoff => "net_handoff",
        }
    }

    /// Inverse of [`Phase::label`]; `None` for a name outside the
    /// vocabulary (how `salloc report` flags a foreign trace).
    pub fn from_label(label: &str) -> Option<Phase> {
        Phase::ALL.iter().copied().find(|p| p.label() == label)
    }
}

/// The allocation-free metrics registry both engines carry.
///
/// `enabled` gates every record call (a single predictable branch); the
/// disabled registry is behaviorally the pre-observability engine, which
/// is what e19's ≤ 5 % overhead gate measures against.
#[derive(Clone, Debug)]
pub struct Registry {
    enabled: bool,
    counters: [u64; Counter::ALL.len()],
    dists: [Histogram; Dist::ALL.len()],
    phases: [Histogram; Phase::ALL.len()],
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An enabled registry (the shipped default).
    pub fn new() -> Self {
        Registry {
            enabled: true,
            counters: [0; Counter::ALL.len()],
            dists: std::array::from_fn(|_| Histogram::new()),
            phases: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// A registry whose record calls are no-ops (seed-equivalent path).
    pub fn disabled() -> Self {
        let mut r = Registry::new();
        r.enabled = false;
        r
    }

    /// Toggle recording at runtime (used by the e19 overhead A/B).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Bump a counter by `n`.
    #[inline]
    pub fn inc(&mut self, c: Counter, n: u64) {
        if self.enabled {
            self.counters[c as usize] += n;
        }
    }

    /// Record one observation of a distribution.
    #[inline]
    pub fn observe(&mut self, d: Dist, v: u64) {
        if self.enabled {
            self.dists[d as usize].record(v);
        }
    }

    /// Record a measured phase latency in nanoseconds. Fed by
    /// [`Span::close`](crate::Span::close), so a phase's latency is
    /// recorded exactly when its span closes.
    #[inline]
    pub(crate) fn phase_ns(&mut self, p: Phase, ns: u64) {
        if self.enabled {
            self.phases[p as usize].record(ns);
        }
    }

    /// Current value of a counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Distribution histogram.
    pub fn dist(&self, d: Dist) -> &Histogram {
        &self.dists[d as usize]
    }

    /// Per-phase latency histogram (nanoseconds).
    pub fn phase(&self, p: Phase) -> &Histogram {
        &self.phases[p as usize]
    }

    /// Fold another registry into this one (counters add, histograms
    /// merge). `enabled` is untouched.
    pub fn merge(&mut self, other: &Registry) {
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a += b;
        }
        for (a, b) in self.dists.iter_mut().zip(other.dists.iter()) {
            a.merge(b);
        }
        for (a, b) in self.phases.iter_mut().zip(other.phases.iter()) {
            a.merge(b);
        }
    }
}

/// Wire counters of one transport endpoint, as counted by the mesh.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PeerWire {
    /// Worker id the coordinator-side endpoint talks to.
    pub peer: u32,
    /// Bytes sent to that worker.
    pub bytes_sent: u64,
    /// Bytes received from that worker.
    pub bytes_received: u64,
    /// Frames sent to that worker.
    pub frames_sent: u64,
    /// Frames received from that worker.
    pub frames_received: u64,
}

/// Per-peer wire counters exported by `mpc::transport::Mesh` — the one
/// source both the e21 wire-traffic report and `salloc report` read.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// One row per worker endpoint, ordered by worker id.
    pub peers: Vec<PeerWire>,
}

impl MetricsSnapshot {
    /// Total bytes moved in either direction across all peers.
    pub fn total_bytes(&self) -> u64 {
        self.peers
            .iter()
            .map(|p| p.bytes_sent + p.bytes_received)
            .sum()
    }

    /// Total frames moved in either direction across all peers.
    pub fn total_frames(&self) -> u64 {
        self.peers
            .iter()
            .map(|p| p.frames_sent + p.frames_received)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_and_are_unique() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_label(p.label()), Some(p));
        }
        assert_eq!(Phase::from_label("no_such_phase"), None);
        let mut names: Vec<_> = Phase::ALL.iter().map(|p| p.label()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Phase::ALL.len());
    }

    #[test]
    fn registry_records_and_merges() {
        let mut a = Registry::new();
        a.inc(Counter::Escalations, 2);
        a.observe(Dist::WaveWidth, 7);
        a.phase_ns(Phase::RouteUpdates, 1500);
        let mut b = Registry::new();
        b.inc(Counter::Escalations, 3);
        b.observe(Dist::WaveWidth, 9);
        a.merge(&b);
        assert_eq!(a.counter(Counter::Escalations), 5);
        assert_eq!(a.dist(Dist::WaveWidth).count(), 2);
        assert_eq!(a.phase(Phase::RouteUpdates).count(), 1);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut r = Registry::disabled();
        r.inc(Counter::WalkExpansions, 10);
        r.observe(Dist::BallSize, 10);
        r.phase_ns(Phase::CertSweep, 10);
        assert_eq!(r.counter(Counter::WalkExpansions), 0);
        assert!(r.dist(Dist::BallSize).is_empty());
        assert!(r.phase(Phase::CertSweep).is_empty());
    }

    #[test]
    fn snapshot_totals() {
        let snap = MetricsSnapshot {
            peers: vec![
                PeerWire {
                    peer: 0,
                    bytes_sent: 10,
                    bytes_received: 5,
                    frames_sent: 2,
                    frames_received: 1,
                },
                PeerWire {
                    peer: 1,
                    bytes_sent: 1,
                    bytes_received: 2,
                    frames_sent: 3,
                    frames_received: 4,
                },
            ],
        };
        assert_eq!(snap.total_bytes(), 18);
        assert_eq!(snap.total_frames(), 10);
    }
}
