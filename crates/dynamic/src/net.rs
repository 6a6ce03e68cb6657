//! Networked serving: shard workers on a real transport.
//!
//! [`ShardedServeLoop`](crate::distributed) *simulates* the cluster: it
//! accounts every exchange in words, but all authoritative state lives in
//! one address space. [`NetServeLoop`] takes the same engine onto a real
//! wire: each shard is a worker thread that owns its slice of the
//! matching — its lefts' mates and its rights' matched lists, keyed by
//! the same [`ShardMap`] ownership — and every epoch phase is a
//! message exchange over a [`Mesh`] of framed channels —
//! deterministic in-process loopback for tests, or length-prefixed TCP
//! between real threads ([`TransportKind`]).
//!
//! The protocol is a lockstep star: per phase the coordinator sends one
//! frame to every worker and collects one reply from every worker. Each
//! worker runs one loop (`worker_main`), blocked on the one inbox its
//! links feed ([`WorkerLinks::recv`]) — with no deadline, so an idle
//! worker waits out any pause between batches. A batch is a `ROUTE`
//! and a `COMMIT` exchange; an epoch closes with `COMMIT` → `CENSUS`.
//!
//! | phase | direction | payload |
//! |---|---|---|
//! | `INIT` | down / up | each worker's initial `(u, mate)` rows for its owned lefts, then the matched list of every right it owns, in slot order; ack echoes the counts |
//! | `ROUTE` | down / up | the epoch's update batch, each update shipped to the worker owning its anchor vertex and **echoed back**; the engine consumes the echoed, wire-decoded copies, so a codec bug surfaces as divergence, not silence |
//! | `COMMIT` | down / up | mate deltas plus matched-list ops (`LIST_PUSH`, `LIST_SWAP_REMOVE`, `LIST_SET`) to the owning workers (the worker slices are what `GATHER` and the census checksum); ack echoes the delta count |
//! | `CENSUS` | down / up | each worker reports its slice sizes, resident words, an FNV checksum of its `(u, mate)` rows, an order-sensitive checksum of its matched lists, and its topology-cache words; the coordinator recomputes all but the last and fails loudly on any disagreement |
//! | `GATHER` | down / up | each worker dumps its sorted mate slice; [`NetServeLoop::gather_assignment`] reassembles the full allocation **from the wire** |
//! | `NACK` | up | a worker's typed failure, relayed so the coordinator re-surfaces the *original* [`TransportError`] variant |
//! | `SHUTDOWN` | down / up | orderly exit |
//!
//! The inner simulator keeps running underneath (same scheduling, same
//! word accounting, same space assertions), which is exactly what makes
//! the networked engine measurable: each phase also records its
//! **measured wire bytes** on the same ledger
//! ([`Phase::NetRoute`] and friends, in ⌈bytes/8⌉ words), so one run
//! yields simulated words and real bytes side by side (experiment `e21`).
//!
//! Every failure mode — dropped peer, truncated frame, flipped bit,
//! reordered delivery, a worker whose slice disagrees with the
//! coordinator — surfaces as a typed [`NetError`]; the fault-injection
//! suite (`tests/transport.rs`) proves there is no panic path and no
//! silently wrong matching.
//!
//! # Supervision and recovery
//!
//! With a [`SupervisorConfig`] installed the coordinator *heals* instead
//! of failing: transient faults (receive timeouts) are retried in place
//! with bounded exponential backoff and jitter; everything else — a dead
//! channel, a corrupted frame, a worker whose slice diverged — burns one
//! respawn from the budget. A respawn rebuilds the whole mesh
//! ([`Mesh::rebuild`]) — every channel and every worker thread, so
//! replies still in flight from the exchange that died go with the old
//! channels and no culprit needs naming — then re-scatters the
//! coordinator's full state to **every** worker (`INIT` resets a
//! worker's slice), so the retried phase lands on a mesh that is
//! state-identical to one that never faulted; a fault mid-batch
//! therefore makes [`NetServeLoop::apply_batch`] at-least-once on the
//! wire with exactly-once effects. The wire cost of recovery is metered
//! under [`Phase::NetRecover`]. When the respawn budget is exhausted
//! the engine **quarantines**: queries keep answering from the
//! coordinator mirror, every further wire operation fails as
//! [`NetError::Quarantined`], and the fault that exhausted the budget is
//! surfaced verbatim. With the default config (zero budget) the first
//! fault quarantines immediately — exactly the fail-fast behavior the
//! fault-taxonomy tests pin down.
//!
//! Durability is the driver's, as for every engine:
//! [`Engine::run_epoch`](crate::Engine::run_epoch) logs each batch
//! write-ahead ([`crate::wal`]) before the route exchange acts on it,
//! and [`Engine::checkpoint`](crate::Engine::checkpoint) writes every
//! checkpoint as a full base ([`NetServeLoop::checkpoint_bytes`] plus a
//! log marker), so a crashed coordinator recovers as `last base + log
//! tail`, replaying at most `--checkpoint-every` epochs.
//!
//! # Peer-to-peer repair waves
//!
//! Both protocols hold the same worker slice. A star mesh has no
//! worker↔worker links, so it runs no wave: between its `ROUTE` and
//! `COMMIT` exchanges the coordinator runs the simulator's batch
//! ([`ShardedServeLoop::apply_batch`]) on the echoed updates, in batch
//! order, and the deltas reach the workers on the `COMMIT` —
//! coordinator traffic that grows with the repair volume.
//! [`NetServeLoop::new_p2p`] keeps the star for scheduling, routing, and
//! epoch barriers, but links the workers pairwise by the same framed
//! channels ([`Mesh::loopback_mesh`] / [`Mesh::tcp_mesh`]) and runs the
//! batch wave by wave — the only wave executor left: per wave, the
//! structural half runs on the coordinator's engine, each
//! disjoint-footprint repair ships to the worker owning its ball, and
//! the outcomes fold in arrival order:
//!
//! | phase | direction | payload |
//! |---|---|---|
//! | `WAVE` | down / up | one wave's disjoint-footprint plans, each shipped to the worker owning its ball: plan args, the footprint's right ids and left ids, full topology rows (capacity + adjacency) only for the ids that worker lacks or holds stale, and *state overrides* for rows where the coordinator's engine has moved past the worker slices; the ack carries each plan's `RepairOutcome` plus the changed mate/matched rows and the worker's own peer-wire counters |
//! | `HANDOFF_REQ` | worker → worker | frontier rows a bounded walk needs from another shard's slice — left mates and right matched-lists, fetched level by level as the walk expands; the ping-pong is bounded by the walk radius |
//! | `HANDOFF_ACK` | worker → worker | the owned rows answered in request order |
//! | `FLIP` | worker → worker | match flips a finished plan wrote into *another* shard's rows, committed directly to the owner |
//! | `FLIP_ACK` | worker → worker | applied-row count |
//! | `ARM` | down / up | test-only: arm a [`Fault`] on a worker's peer link, or override the handoff deadline |
//!
//! Wave disjointness is what makes this sound: within one wave no two
//! plans' footprints share a right vertex, and a bounded walk only ever
//! reads/writes rights inside its plan's footprint (lefts one step
//! around it), so concurrent workers never race on a row, and a worker
//! can serve `HANDOFF_REQ`/`FLIP` for its slice *while* running its own
//! plans. Each worker blocks on one inbox that all of its links feed
//! ([`WorkerLinks::recv`]), so a fetch is answered as soon as it lands,
//! whether the owner is idle or mid-wave. Spoke traffic of the dispatch
//! is metered under [`Phase::NetWave`]; the worker↔worker bytes —
//! which never touch the coordinator — are reported back on the acks
//! and metered under [`Phase::NetHandoff`]. A wire fault mid-wave
//! recovers like any other — the whole mesh is rebuilt and the
//! coordinator's engine state re-scattered — and the interrupted wave is
//! re-dispatched; outcomes fold only after a full ack barrier, so a
//! retried wave lands exactly once.
//!
//! Footprint topology is worker-resident. Each worker caches every row a
//! `WAVE` frame shipped it, and the coordinator keeps a per-worker record
//! of which rows that worker holds current, so a frame names its
//! footprint by id and ships only the missing or stale rows. A wave's
//! structural updates (arrive, depart, edge insert/delete, capacity) mark
//! the rows they rewrite stale for every worker; an overlay fold re-sorts
//! rows into CSR order and, like every re-`INIT`, forgets everything (a
//! fold that re-solves the levels moves no row). A frame naming an id
//! with neither a cached nor a shipped row is refused by a NACK naming
//! that id. Walks read the cache through the wave's footprint membership,
//! so they see exactly the topology a frame shipping every row would
//! carry. The `CENSUS` ack reports each cache's words apart from the
//! slice's resident words.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sparse_alloc_graph::io::{fnv1a64, ByteReader, ByteWriter, IoError};
use sparse_alloc_graph::{Assignment, Bipartite, LeftId, RightId};
use sparse_alloc_mpc::ledger::RoundRecord;
use sparse_alloc_mpc::transport::{Fault, Frame, Mesh, TransportError, WorkerLinks, COORDINATOR};
use sparse_alloc_mpc::{Ledger, MpcError, ShardMap};
use sparse_alloc_obs::{Counter, MetricsSnapshot, Phase, Registry, Span, Tracer};

use crate::distributed::{
    BatchReport, ShardedConfig, ShardedEpochReport, ShardedServeLoop, StagedBatch,
};
use crate::serve::{run_repair, RepairOutcome, RepairPlan, ServeLoop};
use crate::snapshot::{self, SnapshotError};
use crate::stamp::StampSet;
use crate::update::{put_update, take_update, Update};
use crate::walks::{MatchSlots, SearchScratch, WalkTopology};

/// `mate` wire value for an unmatched left vertex.
const UNMATCHED: u32 = u32::MAX;

/// Mirror sentinel for a left the coordinator has never synced: when a
/// wave fold lands rows past the mirror's horizon, the gap rows in
/// between get this value so the commit diff still ships them (a fresh
/// left that stayed unmatched must reach its owner), while the folded
/// rows themselves — already applied worker-side — do not re-ship.
/// Never a legal mate: right ids stay far below it, and "no mate" is
/// [`UNMATCHED`].
const NEVER_SYNCED: u32 = u32::MAX - 1;

/// Matched-list delta ops on the commit wire. The engine only ever
/// mutates a list by `push` and `swap_remove`, so a single-flip change
/// replays from a 12-byte op. `LIST_SET` (full replacement) is the
/// fallback when a batch's net effect on one list is not a single op.
const LIST_PUSH: u32 = 0;
const LIST_SWAP_REMOVE: u32 = 1;
const LIST_SET: u32 = 2;

// Protocol phase tags (frame header `phase` field). Requests are odd,
// replies even; NACK is the one worker-initiated tag. Tags 9 and 10 are
// unused.
const PH_INIT: u32 = 1;
const PH_INIT_ACK: u32 = 2;
const PH_ROUTE: u32 = 3;
const PH_ROUTE_ACK: u32 = 4;
const PH_COMMIT: u32 = 5;
const PH_COMMIT_ACK: u32 = 6;
const PH_CENSUS: u32 = 7;
const PH_CENSUS_ACK: u32 = 8;
const PH_GATHER: u32 = 11;
const PH_GATHER_ACK: u32 = 12;
const PH_SHUTDOWN: u32 = 13;
const PH_SHUTDOWN_ACK: u32 = 14;
const PH_NACK: u32 = 15;

// Peer-to-peer phases. WAVE and ARM ride the coordinator spokes;
// HANDOFF_REQ/ACK and FLIP/FLIP_ACK ride the worker↔worker links.
const PH_WAVE: u32 = 16;
const PH_WAVE_ACK: u32 = 17;
const PH_HANDOFF_REQ: u32 = 18;
const PH_HANDOFF_ACK: u32 = 19;
const PH_FLIP: u32 = 20;
const PH_FLIP_ACK: u32 = 21;
const PH_ARM: u32 = 22;
const PH_ARM_ACK: u32 = 23;

const NACK_TRANSPORT: u32 = 0;
const NACK_PROTOCOL: u32 = 1;

/// How long a worker waits for a peer's `HANDOFF_ACK`/`FLIP_ACK` before
/// giving up and NACKing the coordinator. Kept well under the
/// coordinator's receive timeout so the typed failure — naming the peer
/// pair and protocol phase — wins the race against a bare spoke timeout.
const DEFAULT_HANDOFF_TIMEOUT: Duration = Duration::from_secs(2);

/// Bound on one plan's fetch ping-pong, in frontier alternations: every
/// row a radius-`r` walk can read lies within `2r + 2` alternation
/// levels of its seeds (rights at right-hop `h` sit at level `2h + 1`,
/// their occupant lists one level deeper), so the preload stops
/// expanding — and thereby stops ping-ponging — at `2r + 4`. A footprint
/// may well contain alternating chains deeper than that (a snake through
/// a radius-1 ball can alternate once per row), but the budget-bounded
/// walk cannot reach them, so cutting them loses nothing.
fn handoff_round_cap(radius: u64) -> u64 {
    2 * radius + 4
}

/// Which wire the mesh runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Deterministic in-process byte queues (tests, proptests).
    Loopback,
    /// Framed TCP over `127.0.0.1` between real threads.
    Tcp,
}

/// Why a networked serving operation failed. Every injected transport
/// fault, every space-regime violation, and every cross-check
/// disagreement lands in exactly one variant — no panic paths.
#[derive(Debug)]
pub enum NetError {
    /// The wire failed (typed; possibly relayed from a worker's NACK,
    /// re-surfacing the variant the worker hit).
    Transport(TransportError),
    /// The simulated engine left its space regime.
    Space(MpcError),
    /// Checkpoint/restore failed.
    Snapshot(SnapshotError),
    /// The bytes moved but violated the serving protocol (bad echo,
    /// census disagreement, slice checksum mismatch).
    Protocol {
        /// The shard the violation involves.
        shard: u32,
        /// What went wrong.
        detail: String,
    },
    /// The engine is in read-only quarantine: a previous fault exhausted
    /// the respawn budget. Queries keep answering from the coordinator
    /// mirror; every wire operation fails with this variant.
    Quarantined {
        /// The fault that exhausted the budget.
        reason: String,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Transport(e) => write!(f, "transport: {e}"),
            NetError::Space(e) => write!(f, "space: {e}"),
            NetError::Snapshot(e) => write!(f, "snapshot: {e}"),
            NetError::Protocol { shard, detail } => write!(f, "shard {shard}: {detail}"),
            NetError::Quarantined { reason } => {
                write!(f, "engine quarantined (read-only) after: {reason}")
            }
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Transport(e) => Some(e),
            NetError::Space(e) => Some(e),
            NetError::Snapshot(e) => Some(e),
            NetError::Protocol { .. } | NetError::Quarantined { .. } => None,
        }
    }
}

impl From<TransportError> for NetError {
    fn from(e: TransportError) -> Self {
        NetError::Transport(e)
    }
}

impl From<MpcError> for NetError {
    fn from(e: MpcError) -> Self {
        NetError::Space(e)
    }
}

impl From<SnapshotError> for NetError {
    fn from(e: SnapshotError) -> Self {
        NetError::Snapshot(e)
    }
}

/// How the coordinator supervises its workers (see the
/// [module docs](self#supervision-and-recovery)).
///
/// The default is fail-fast: zero retries, zero respawns — the first
/// fault surfaces typed and quarantines the engine, which is what the
/// fault-taxonomy tests pin down. Serving deployments raise both.
/// Retry `k` waits `2^(k−1) × 10 ms`, plus jitter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Worker respawns the engine may spend over its lifetime before it
    /// degrades to read-only quarantine.
    pub max_respawns: u64,
    /// In-place retries of a *transient* fault (receive timeout) before
    /// it is escalated to a respawn.
    pub retry_budget: u32,
}

/// First-retry backoff of the supervisor; retry `k` waits `2^(k−1) ×`
/// this, plus deterministic jitter of up to half of it.
const BACKOFF_BASE: Duration = Duration::from_millis(10);

/// Measured wire traffic of a [`NetServeLoop`] (coordinator side; both
/// directions of every channel).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Bytes the coordinator framed onto the wire.
    pub bytes_sent: u64,
    /// Bytes the coordinator took off the wire.
    pub bytes_received: u64,
    /// Frames sent.
    pub frames_sent: u64,
    /// Frames received.
    pub frames_received: u64,
    /// Both-direction bytes of the route phases.
    pub route_bytes: u64,
    /// Both-direction bytes of the commit phases.
    pub commit_bytes: u64,
    /// Both-direction bytes of the census phases.
    pub census_bytes: u64,
    /// Both-direction bytes of initial state scattering.
    pub init_bytes: u64,
    /// Both-direction bytes of allocation gathers ([`Phase::NetGather`]).
    pub gather_bytes: u64,
    /// Transient faults retried in place (receive timeouts).
    pub retries: u64,
    /// Workers respawned after non-transient faults.
    pub respawns: u64,
    /// Both-direction bytes of recovery re-scatters (state replayed to
    /// respawned meshes, [`Phase::NetRecover`]).
    pub replayed_bytes: u64,
    /// Wall-clock nanoseconds spent inside recovery (respawn + re-init),
    /// cumulative — `recovery_ns / respawns` is the mean recovery
    /// latency experiment `e22` reports.
    pub recovery_ns: u64,
    /// Both-direction spoke bytes of p2p wave dispatch/ack
    /// ([`Phase::NetWave`]); zero on a star mesh.
    pub wave_bytes: u64,
    /// Worker↔worker bytes of cross-shard walk handoffs and flips
    /// ([`Phase::NetHandoff`]) — traffic the coordinator never
    /// carries, as the workers themselves metered and reported it.
    /// Varies run to run: the fetch frontier `fetch_plan_state` builds
    /// depends on when concurrent workers' flips land, so compare it
    /// between builds only as a spread. Wave bytes and the served
    /// allocation are exact.
    pub handoff_bytes: u64,
    /// Worker↔worker frames of handoffs and flips; varies run to run
    /// like [`NetStats::handoff_bytes`].
    pub handoff_frames: u64,
    /// Deepest fetch ping-pong any single plan needed (bounded by the
    /// walk radius; see [`Phase::NetHandoff`]).
    pub max_handoff_rounds: u64,
    /// Full topology rows `WAVE` frames shipped (left and right rows):
    /// rows a worker lacked or held stale. Every other footprint row
    /// travels as its bare id and is read from the worker's cache.
    pub topology_rows_shipped: u64,
    /// Words the workers' topology caches held at the last census, summed
    /// over workers as each reported it (one per left row, two per right
    /// row, one per row entry). Kept apart from the census's resident
    /// slice words.
    pub topology_cache_words: u64,
}

/// What one [`NetServeLoop::end_epoch`] did.
#[derive(Debug, Clone, PartialEq)]
pub struct NetEpochReport {
    /// The simulated engine's epoch report.
    pub inner: ShardedEpochReport,
    /// Wire bytes this epoch moved (both directions, all phases since
    /// the previous epoch ended).
    pub wire_bytes: u64,
    /// Frames this epoch moved.
    pub wire_frames: u64,
}

// --------------------------------------------------------- worker side

/// A shard worker's authoritative slice, in id order: the mates of its
/// owned lefts and the full matched list of each owned right, in slot
/// order — the walk state its peers fetch over `HANDOFF` links.
#[derive(Debug, Default)]
struct WorkerState {
    lefts: BTreeMap<u32, u32>,
    matched: BTreeMap<u32, Vec<u32>>,
    /// Spoke frames that arrived while a p2p wave awaited peer acks,
    /// handled next in arrival order.
    held: VecDeque<Frame>,
    /// p2p wave scratch, kept across waves and reset to empty rows
    /// after each.
    wave: WaveState,
    search: SearchScratch,
    /// p2p wave topology, resident across waves.
    topo: TopoCache,
}

/// FNV checksum of a slice's `(u, mate)` rows in id order: what a worker
/// reports on `CENSUS`, and what the coordinator recomputes from its
/// mirror.
fn mate_checksum(lefts: impl Iterator<Item = (u32, u32)>) -> u64 {
    let mut w = ByteWriter::new();
    for (u, m) in lefts {
        w.put_u32(u);
        w.put_u32(m);
    }
    fnv1a64(&w.into_bytes())
}

/// Order-sensitive FNV checksum of `(v, matched list)` rows in id order
/// (census): the list order is behaviorally observable (evictions pop
/// the last member), so a worker whose lists hold the right *sets* in
/// the wrong *order* must still fail the census.
fn matched_checksum<'a>(lists: impl Iterator<Item = (u32, &'a [u32])>) -> u64 {
    let mut w = ByteWriter::new();
    for (v, list) in lists {
        put_right_row(&mut w, v, list);
    }
    fnv1a64(&w.into_bytes())
}

/// What a `CENSUS` ack carries before the topology-cache words, in wire
/// order.
const CENSUS_FIELDS: [&str; 5] = [
    "owned lefts",
    "owned rights",
    "resident words",
    "mate checksum",
    "matched-list checksum",
];

/// Resident words of a slice: two per `(u, mate)` row, and per owned
/// right its id plus one per matched-list member.
fn resident_words(lefts: usize, lists: impl Iterator<Item = usize>) -> u64 {
    (2 * lefts + lists.map(|len| 1 + len).sum::<usize>()) as u64
}

impl WorkerState {
    fn handle(&mut self, phase: u32, payload: &[u8]) -> Result<(u32, Vec<u8>), String> {
        let parse = |e: IoError| format!("phase {phase} payload: {e}");
        let mut r = ByteReader::new(payload);
        match phase {
            PH_INIT => {
                // A re-INIT (recovery re-scatter) replaces the slice
                // wholesale: stale rows from before the fault must not
                // survive into the healed mesh.
                self.lefts.clear();
                self.matched.clear();
                // The coordinator forgets what this worker caches on
                // every (re-)INIT, so the cache starts over with it.
                self.topo = TopoCache::default();
                self.lefts.extend(take_left_rows(&mut r).map_err(parse)?);
                self.matched.extend(take_right_rows(&mut r).map_err(parse)?);
                r.expect_end().map_err(parse)?;
                let mut w = ByteWriter::new();
                w.put_u64(self.lefts.len() as u64);
                w.put_u64(self.matched.len() as u64);
                Ok((PH_INIT_ACK, w.into_bytes()))
            }
            PH_ROUTE => {
                // Decode every routed update and re-encode it from the
                // decoded structures: the echo the coordinator consumes
                // has round-tripped the codec in both directions.
                let n = r.take_len(8).map_err(parse)?;
                let mut w = ByteWriter::new();
                w.put_u64(n as u64);
                for _ in 0..n {
                    let (idx, up) = take_update(&mut r).map_err(parse)?;
                    put_update(&mut w, idx, &up);
                }
                r.expect_end().map_err(parse)?;
                Ok((PH_ROUTE_ACK, w.into_bytes()))
            }
            PH_COMMIT => {
                let mut applied = 0u64;
                let nm = r.take_len(8).map_err(parse)?;
                for _ in 0..nm {
                    let u = r.take_u32().map_err(parse)?;
                    let m = r.take_u32().map_err(parse)?;
                    self.lefts.insert(u, m);
                    applied += 1;
                }
                let nops = r.take_len(8).map_err(parse)?;
                for _ in 0..nops {
                    let v = r.take_u32().map_err(parse)?;
                    let tag = r.take_u32().map_err(parse)?;
                    let list = self
                        .matched
                        .get_mut(&v)
                        .ok_or_else(|| format!("list op for unowned right {v}"))?;
                    match tag {
                        LIST_PUSH => {
                            let u = r.take_u32().map_err(parse)?;
                            list.push(u);
                        }
                        LIST_SWAP_REMOVE => {
                            let u = r.take_u32().map_err(parse)?;
                            let pos = list.iter().position(|&x| x == u).ok_or_else(|| {
                                format!("list op removes absent left {u} from right {v}")
                            })?;
                            list.swap_remove(pos);
                        }
                        LIST_SET => {
                            let n = r.take_len(4).map_err(parse)?;
                            let mut fresh = Vec::with_capacity(n);
                            for _ in 0..n {
                                fresh.push(r.take_u32().map_err(parse)?);
                            }
                            *list = fresh;
                        }
                        other => return Err(format!("unknown list op tag {other}")),
                    }
                    applied += 1;
                }
                r.expect_end().map_err(parse)?;
                let mut w = ByteWriter::new();
                w.put_u64(applied);
                Ok((PH_COMMIT_ACK, w.into_bytes()))
            }
            PH_CENSUS => {
                r.expect_end().map_err(parse)?;
                let mut w = ByteWriter::new();
                w.put_u64(self.lefts.len() as u64);
                w.put_u64(self.matched.len() as u64);
                w.put_u64(resident_words(
                    self.lefts.len(),
                    self.matched.values().map(Vec::len),
                ));
                w.put_u64(mate_checksum(self.lefts.iter().map(|(&u, &m)| (u, m))));
                w.put_u64(matched_checksum(
                    self.matched.iter().map(|(&v, list)| (v, list.as_slice())),
                ));
                w.put_u64(self.topo.words);
                Ok((PH_CENSUS_ACK, w.into_bytes()))
            }
            PH_GATHER => {
                r.expect_end().map_err(parse)?;
                let mut w = ByteWriter::new();
                w.put_u64(self.lefts.len() as u64);
                for (&u, &m) in &self.lefts {
                    w.put_u32(u);
                    w.put_u32(m);
                }
                Ok((PH_GATHER_ACK, w.into_bytes()))
            }
            PH_SHUTDOWN => {
                r.expect_end().map_err(parse)?;
                Ok((PH_SHUTDOWN_ACK, Vec::new()))
            }
            other => Err(format!("unknown phase {other}")),
        }
    }
}

// ------------------------------------------------ p2p worker side

/// Left rows on the wire: `(u, mate)` with [`UNMATCHED`] for none.
fn put_left_rows(w: &mut ByteWriter, rows: &[(u32, u32)]) {
    w.put_u64(rows.len() as u64);
    for &(u, m) in rows {
        w.put_u32(u);
        w.put_u32(m);
    }
}

fn take_left_rows(r: &mut ByteReader) -> Result<Vec<(u32, u32)>, IoError> {
    let n = r.take_len(8)?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let u = r.take_u32()?;
        let m = r.take_u32()?;
        rows.push((u, m));
    }
    Ok(rows)
}

/// One right row on the wire: `v`, then its full matched list in slot
/// order.
fn put_right_row(w: &mut ByteWriter, v: u32, list: &[u32]) {
    w.put_u32(v);
    w.put_u64(list.len() as u64);
    for &u in list {
        w.put_u32(u);
    }
}

/// Right rows on the wire: a count, then each [`put_right_row`].
fn put_right_rows(w: &mut ByteWriter, rows: &[(u32, Vec<u32>)]) {
    w.put_u64(rows.len() as u64);
    for (v, list) in rows {
        put_right_row(w, *v, list);
    }
}

fn take_right_rows(r: &mut ByteReader) -> Result<Vec<(u32, Vec<u32>)>, IoError> {
    let n = r.take_len(12)?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let v = r.take_u32()?;
        let len = r.take_len(4)?;
        let mut list = Vec::with_capacity(len);
        for _ in 0..len {
            list.push(r.take_u32()?);
        }
        rows.push((v, list));
    }
    Ok(rows)
}

/// A length-prefixed id list (footprint ids, adjacency rows).
fn put_ids(w: &mut ByteWriter, ids: impl ExactSizeIterator<Item = u32>) {
    w.put_u64(ids.len() as u64);
    for x in ids {
        w.put_u32(x);
    }
}

fn take_ids(r: &mut ByteReader) -> Result<Vec<u32>, IoError> {
    let n = r.take_len(4)?;
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(r.take_u32()?);
    }
    Ok(ids)
}

fn encode_plan(w: &mut ByteWriter, plan: &RepairPlan) {
    let (tag, a, b) = match *plan {
        RepairPlan::Noop => (0, 0, 0),
        RepairPlan::Place { u } => (1, u, 0),
        RepairPlan::Release { u } => (2, u, 0),
        RepairPlan::Rematch { u, v } => (3, u, v),
        RepairPlan::Evict { v } => (4, v, 0),
        RepairPlan::Fill { v } => (5, v, 0),
    };
    w.put_u32(tag);
    w.put_u32(a);
    w.put_u32(b);
}

fn decode_plan(r: &mut ByteReader) -> Result<RepairPlan, IoError> {
    let tag = r.take_u32()?;
    let a = r.take_u32()?;
    let b = r.take_u32()?;
    Ok(match tag {
        0 => RepairPlan::Noop,
        1 => RepairPlan::Place { u: a },
        2 => RepairPlan::Release { u: a },
        3 => RepairPlan::Rematch { u: a, v: b },
        4 => RepairPlan::Evict { v: a },
        5 => RepairPlan::Fill { v: a },
        other => return Err(IoError::Parse(format!("unknown repair plan tag {other}"))),
    })
}

/// A p2p worker's resident copy of the wave topology: every row a `WAVE`
/// frame ever shipped it, in live-graph order, kept across waves until
/// the coordinator ships a fresher one. A frame ships only the rows this
/// worker lacks or holds stale and names the rest by id.
///
/// Walks read the cache through the running wave's footprint membership,
/// so they see exactly the topology a frame shipping every row would
/// carry: rights outside the footprint read capacity 0 and no neighbors,
/// lefts outside the shipped left set read no neighbors.
#[derive(Debug, Default)]
struct TopoCache {
    /// Left id → its right-neighbor row, once shipped.
    lefts: Vec<Option<Vec<u32>>>,
    /// Right id → `(capacity, left-neighbor row)`, once shipped.
    rights: Vec<Option<(u64, Vec<u32>)>>,
    /// The running wave's footprint rights and shipped lefts.
    in_l: StampSet,
    in_r: StampSet,
    /// Resident size: one word per left row id, two per right row
    /// (id, capacity), plus one per row entry.
    words: u64,
}

impl TopoCache {
    fn set_left(&mut self, u: u32, row: Vec<u32>) {
        let i = u as usize;
        if self.lefts.len() <= i {
            self.lefts.resize_with(i + 1, || None);
        }
        self.words += 1 + row.len() as u64;
        if let Some(old) = self.lefts[i].replace(row) {
            self.words -= 1 + old.len() as u64;
        }
    }

    fn set_right(&mut self, v: u32, cap: u64, row: Vec<u32>) {
        let i = v as usize;
        if self.rights.len() <= i {
            self.rights.resize_with(i + 1, || None);
        }
        self.words += 2 + row.len() as u64;
        if let Some((_, old)) = self.rights[i].replace((cap, row)) {
            self.words -= 2 + old.len() as u64;
        }
    }

    /// Admit `u` to the running wave's left set; its row must be cached.
    fn admit_left(&mut self, u: u32) -> Result<(), String> {
        if !matches!(self.lefts.get(u as usize), Some(Some(_))) {
            return Err(format!(
                "WAVE names left {u} with neither a cached nor a shipped row"
            ));
        }
        self.in_l.grow(self.lefts.len());
        self.in_l.insert(u as usize);
        Ok(())
    }

    /// Admit `v` to the running wave's footprint; its row must be cached.
    fn admit_right(&mut self, v: u32) -> Result<(), String> {
        if !matches!(self.rights.get(v as usize), Some(Some(_))) {
            return Err(format!(
                "WAVE names footprint right {v} with neither a cached nor a shipped row"
            ));
        }
        self.in_r.grow(self.rights.len());
        self.in_r.insert(v as usize);
        Ok(())
    }

    fn has_left(&self, u: u32) -> bool {
        (u as usize) < self.in_l.universe() && self.in_l.contains(u as usize)
    }

    fn has_right(&self, v: u32) -> bool {
        (v as usize) < self.in_r.universe() && self.in_r.contains(v as usize)
    }

    /// End the running wave: every row drops out of view, none out of
    /// the cache.
    fn close_wave(&mut self) {
        self.in_l.clear();
        self.in_r.clear();
    }

    fn left_row(&self, u: u32) -> &[u32] {
        match self.lefts.get(u as usize) {
            Some(Some(row)) if self.has_left(u) => row,
            _ => &[],
        }
    }

    fn right_row(&self, v: u32) -> Option<&(u64, Vec<u32>)> {
        match self.rights.get(v as usize) {
            Some(Some(row)) if self.has_right(v) => Some(row),
            _ => None,
        }
    }
}

impl WalkTopology for TopoCache {
    fn left_neighbors(&self, u: LeftId) -> impl Iterator<Item = RightId> + '_ {
        self.left_row(u).iter().copied()
    }

    fn right_neighbors(&self, v: RightId) -> impl Iterator<Item = LeftId> + '_ {
        self.right_row(v)
            .map_or(&[][..], |(_, l)| l.as_slice())
            .iter()
            .copied()
    }

    fn capacity(&self, v: RightId) -> u64 {
        self.right_row(v).map_or(0, |&(c, _)| c)
    }
}

/// Per-owner flip buckets: left rows and right rows a finished plan
/// wrote into foreign slices, keyed by the owning shard.
type FlipBuckets = BTreeMap<u32, (Vec<(u32, u32)>, Vec<(u32, Vec<u32>)>)>;

/// One plan as shipped in a `WAVE` frame: its wave-local index (the
/// coordinator folds acks back by this), the plan itself, and the ids of
/// the rows the plan may write (its pre-image snapshot domain).
#[derive(Debug)]
struct ShippedPlan {
    j: u32,
    plan: RepairPlan,
    rights: Vec<u32>,
    lefts: Vec<u32>,
}

/// A worker's dense scratch state for one `WAVE` frame: mate/matched
/// rows over every id the frame's plans can touch, filled from the
/// worker's own slice first, then the frame's state overrides, then
/// `HANDOFF` fetches — later sources win. The buffers outlive the wave:
/// [`WaveState::reset`] empties only the rows it used.
#[derive(Debug, Default)]
struct WaveState {
    mate: Vec<Option<RightId>>,
    matched: Vec<Vec<LeftId>>,
    have_left: StampSet,
    have_right: StampSet,
    /// Rows loaded this wave, each once.
    loaded_l: Vec<u32>,
    loaded_r: Vec<u32>,
    /// One plan's fetch-frontier visits ([`fetch_plan_state`]).
    seen_l: StampSet,
    seen_r: StampSet,
}

/// Insert `i` into `set`, growing its universe first.
fn stamp_insert(set: &mut StampSet, i: u32) -> bool {
    set.grow(i as usize + 1);
    set.insert(i as usize)
}

impl WaveState {
    fn ensure(&mut self, n_left: usize, n_right: usize) {
        if self.mate.len() < n_left {
            self.mate.resize(n_left, None);
            self.have_left.grow(n_left);
        }
        if self.matched.len() < n_right {
            self.matched.resize_with(n_right, Vec::new);
            self.have_right.grow(n_right);
        }
    }

    fn set_left(&mut self, u: u32, m: u32) {
        self.ensure(u as usize + 1, 0);
        if m != UNMATCHED {
            // The walk may unmatch through this mate pointer, so the
            // right side must be addressable too.
            self.ensure(0, m as usize + 1);
        }
        self.mate[u as usize] = (m != UNMATCHED).then_some(m);
        if self.have_left.insert(u as usize) {
            self.loaded_l.push(u);
        }
    }

    fn set_right(&mut self, v: u32, list: Vec<u32>) {
        self.ensure(0, v as usize + 1);
        if let Some(&mx) = list.iter().max() {
            self.ensure(mx as usize + 1, 0);
        }
        self.matched[v as usize] = list;
        if self.have_right.insert(v as usize) {
            self.loaded_r.push(v);
        }
    }

    fn loaded_left(&self, u: u32) -> bool {
        (u as usize) < self.have_left.universe() && self.have_left.contains(u as usize)
    }

    fn loaded_right(&self, v: u32) -> bool {
        (v as usize) < self.have_right.universe() && self.have_right.contains(v as usize)
    }

    /// Empty every row this wave used, so the next wave starts from the
    /// state a fresh scratch would have: the loaded rows, plus the
    /// plans' footprint rows — the only rows a walk may write.
    fn reset(&mut self, plans: &[ShippedPlan]) {
        let foot_l = plans.iter().flat_map(|sp| sp.lefts.iter().copied());
        for u in self.loaded_l.drain(..).chain(foot_l) {
            if let Some(m) = self.mate.get_mut(u as usize) {
                *m = None;
            }
        }
        let foot_r = plans.iter().flat_map(|sp| sp.rights.iter().copied());
        for v in self.loaded_r.drain(..).chain(foot_r) {
            if let Some(list) = self.matched.get_mut(v as usize) {
                list.clear();
            }
        }
        self.have_left.clear();
        self.have_right.clear();
    }
}

/// Answer a peer's `HANDOFF_REQ` from this worker's authoritative slice.
/// Every requested id must be owned here and present — a fetch for a row
/// the owner does not have is a protocol violation, never an empty row.
fn answer_handoff(
    st: &WorkerState,
    map: &ShardMap,
    me: u32,
    payload: &[u8],
) -> Result<Vec<u8>, String> {
    let parse = |e: IoError| format!("bad HANDOFF_REQ: {e}");
    let mut r = ByteReader::new(payload);
    let mut w = ByteWriter::new();
    let nl = r.take_len(4).map_err(parse)?;
    w.put_u64(nl as u64);
    for _ in 0..nl {
        let u = r.take_u32().map_err(parse)?;
        if map.owner_of_left(u) as u32 != me {
            return Err(format!(
                "asked for left {u}, owned by shard {}",
                map.owner_of_left(u)
            ));
        }
        let m = st
            .lefts
            .get(&u)
            .copied()
            .ok_or_else(|| format!("asked for unknown owned left {u}"))?;
        w.put_u32(u);
        w.put_u32(m);
    }
    let nr = r.take_len(4).map_err(parse)?;
    w.put_u64(nr as u64);
    for _ in 0..nr {
        let v = r.take_u32().map_err(parse)?;
        if map.owner_of_right(v) as u32 != me {
            return Err(format!(
                "asked for right {v}, owned by shard {}",
                map.owner_of_right(v)
            ));
        }
        let list = st
            .matched
            .get(&v)
            .ok_or_else(|| format!("asked for unknown owned right {v}"))?;
        put_right_row(&mut w, v, list);
    }
    r.expect_end().map_err(parse)?;
    Ok(w.into_bytes())
}

/// Apply a peer's `FLIP` — match rows its finished plan wrote into this
/// worker's slice. Wave disjointness guarantees no concurrent writer, so
/// the rows commit immediately.
fn apply_flip(
    st: &mut WorkerState,
    map: &ShardMap,
    me: u32,
    payload: &[u8],
) -> Result<Vec<u8>, String> {
    let parse = |e: IoError| format!("bad FLIP: {e}");
    let mut r = ByteReader::new(payload);
    let lrows = take_left_rows(&mut r).map_err(parse)?;
    let rrows = take_right_rows(&mut r).map_err(parse)?;
    r.expect_end().map_err(parse)?;
    let mut applied = 0u64;
    for (u, m) in lrows {
        if map.owner_of_left(u) as u32 != me {
            return Err(format!(
                "flip for left {u}, owned by shard {}",
                map.owner_of_left(u)
            ));
        }
        st.lefts.insert(u, m);
        applied += 1;
    }
    for (v, list) in rrows {
        if map.owner_of_right(v) as u32 != me {
            return Err(format!(
                "flip for right {v}, owned by shard {}",
                map.owner_of_right(v)
            ));
        }
        *st.matched
            .get_mut(&v)
            .ok_or_else(|| format!("flip for unknown owned right {v}"))? = list;
        applied += 1;
    }
    let mut w = ByteWriter::new();
    w.put_u64(applied);
    Ok(w.into_bytes())
}

/// Serve one frame that arrived on a worker↔worker link. Anything other
/// than a `HANDOFF_REQ` or `FLIP` on a peer link is a protocol
/// violation named after the pair.
fn serve_peer_frame(
    st: &mut WorkerState,
    links: &mut WorkerLinks,
    map: &ShardMap,
    from: u32,
    frame: Frame,
) -> Result<(), String> {
    let me = links.shard();
    let fail = |d: String| format!("HANDOFF {me}<->{from}: {d}");
    let (reply_phase, reply) = match frame.phase {
        PH_HANDOFF_REQ => (
            PH_HANDOFF_ACK,
            answer_handoff(st, map, me, &frame.payload).map_err(fail)?,
        ),
        PH_FLIP => (
            PH_FLIP_ACK,
            apply_flip(st, map, me, &frame.payload).map_err(fail)?,
        ),
        other => {
            return Err(fail(format!(
                "unexpected {} frame on a worker link",
                phase_name(other)
            )))
        }
    };
    links
        .peer_to(from)
        .ok_or_else(|| fail("no direct link".into()))?
        .send(reply_phase, frame.epoch, &reply)
        .map_err(|e| fail(e.to_string()))
}

/// Block until every owner in `owners` has sent a `want` frame,
/// collecting the payloads per owner. Acks are taken in *arrival* order
/// — with requests outstanding to several owners at once, nothing says
/// which answers first — and every other peer frame (another worker's
/// fetch or flip) is served in the meantime: two workers waiting on each
/// other's fetches must both keep answering, so waiting *is* serving. A
/// spoke frame arriving meanwhile is held for the worker loop; a spoke
/// failure (the coordinator tearing the mesh down) ends the wait.
fn await_acks(
    st: &mut WorkerState,
    links: &mut WorkerLinks,
    map: &ShardMap,
    want: u32,
    owners: &[u32],
    deadline: Instant,
) -> Result<BTreeMap<u32, Vec<u8>>, String> {
    let me = links.shard();
    let mut pending: BTreeSet<u32> = owners.iter().copied().collect();
    let mut out = BTreeMap::new();
    while let Some(&first) = pending.first() {
        let (from, f) = match links.recv(Some(deadline)) {
            Ok(got) => got,
            Err(e) if e.is_transient() => {
                return Err(format!(
                    "HANDOFF {me}<->{first}: timed out awaiting {}",
                    phase_name(want)
                ))
            }
            Err(e) if e.peer() == COORDINATOR => {
                return Err(format!("spoke failed awaiting {}: {e}", phase_name(want)))
            }
            Err(e) => {
                return Err(format!(
                    "HANDOFF {me}<->{}: awaiting {}: {e}",
                    e.peer(),
                    phase_name(want)
                ))
            }
        };
        if from == COORDINATOR {
            st.held.push_back(f);
        } else if f.phase == want && pending.remove(&from) {
            out.insert(from, f.payload);
        } else {
            serve_peer_frame(st, links, map, from, f)?;
        }
    }
    Ok(out)
}

/// Load everything one plan's bounded walk can read into `ws`,
/// expanding a frontier from the plan's seed vertices one alternation at
/// a time and fetching foreign rows from their owners level by level
/// (`HANDOFF_REQ`/`HANDOFF_ACK`, batched per owner). The frontier
/// follows topology edges *and* match pointers — a departed left has no
/// live edges, so only its mate pointer still reaches its footprint.
/// Returns the number of fetch rounds; expansion (and with it the
/// ping-pong) truncates at the walk-radius cap ([`handoff_round_cap`]) —
/// deeper rows are unreadable, not fetched.
#[allow(clippy::too_many_arguments)]
fn fetch_plan_state(
    ws: &mut WaveState,
    st: &mut WorkerState,
    links: &mut WorkerLinks,
    map: &ShardMap,
    topo: &TopoCache,
    plan: &RepairPlan,
    epoch: u64,
    radius: u64,
    timeout: Duration,
) -> Result<u64, String> {
    let me = links.shard();
    let cap = handoff_round_cap(radius);
    let mut rounds = 0u64;
    ws.seen_l.clear();
    ws.seen_r.clear();
    let (mut frontier_l, mut frontier_r): (Vec<u32>, Vec<u32>) = match *plan {
        RepairPlan::Noop => (vec![], vec![]),
        RepairPlan::Place { u } | RepairPlan::Release { u } => (vec![u], vec![]),
        RepairPlan::Rematch { u, v } => (vec![u], vec![v]),
        RepairPlan::Evict { v } | RepairPlan::Fill { v } => (vec![], vec![v]),
    };
    for &u in &frontier_l {
        stamp_insert(&mut ws.seen_l, u);
    }
    for &v in &frontier_r {
        stamp_insert(&mut ws.seen_r, v);
    }
    let mut level = 0u64;
    while !frontier_l.is_empty() || !frontier_r.is_empty() {
        level += 1;
        if level > cap {
            // Rows beyond the cap are unreachable by the budget-bounded
            // walk (see [`handoff_round_cap`]): stop expanding instead
            // of chasing an alternating chain the repair cannot use.
            break;
        }
        // Rows this level needs but does not have, grouped by owning
        // shard. Own rows were seeded up front, so a missing owned id
        // is a violated footprint contract, not something to fetch.
        let mut need: BTreeMap<u32, (Vec<u32>, Vec<u32>)> = BTreeMap::new();
        for &u in &frontier_l {
            if ws.loaded_left(u) {
                continue;
            }
            let owner = map.owner_of_left(u) as u32;
            if owner == me {
                return Err(format!(
                    "wave walk reached owned left {u} missing from the slice"
                ));
            }
            need.entry(owner).or_default().0.push(u);
        }
        for &v in &frontier_r {
            if ws.loaded_right(v) {
                continue;
            }
            let owner = map.owner_of_right(v) as u32;
            if owner == me {
                return Err(format!(
                    "wave walk reached owned right {v} missing from the slice"
                ));
            }
            need.entry(owner).or_default().1.push(v);
        }
        if !need.is_empty() {
            rounds += 1;
            for (&owner, (ls, rs)) in &need {
                let mut w = ByteWriter::new();
                w.put_u64(ls.len() as u64);
                for &u in ls {
                    w.put_u32(u);
                }
                w.put_u64(rs.len() as u64);
                for &v in rs {
                    w.put_u32(v);
                }
                links
                    .peer_to(owner)
                    .ok_or_else(|| format!("HANDOFF {me}<->{owner}: no direct link"))?
                    .send(PH_HANDOFF_REQ, epoch, &w.into_bytes())
                    .map_err(|e| format!("HANDOFF {me}<->{owner}: {e}"))?;
            }
            let owners: Vec<u32> = need.keys().copied().collect();
            let deadline = Instant::now() + timeout;
            let acks = await_acks(st, links, map, PH_HANDOFF_ACK, &owners, deadline)?;
            for (&owner, (ls, rs)) in &need {
                let parse = |e: IoError| format!("HANDOFF {me}<->{owner}: bad ack: {e}");
                let mut r = ByteReader::new(&acks[&owner]);
                let lrows = take_left_rows(&mut r).map_err(parse)?;
                let rrows = take_right_rows(&mut r).map_err(parse)?;
                r.expect_end().map_err(parse)?;
                if lrows.len() != ls.len() || rrows.len() != rs.len() {
                    return Err(format!(
                        "HANDOFF {me}<->{owner}: ack rows ({}, {}) disagree with the request ({}, {})",
                        lrows.len(),
                        rrows.len(),
                        ls.len(),
                        rs.len()
                    ));
                }
                for (k, (u, m)) in lrows.into_iter().enumerate() {
                    if u != ls[k] {
                        return Err(format!(
                            "HANDOFF {me}<->{owner}: ack answered left {u}, asked {}",
                            ls[k]
                        ));
                    }
                    ws.set_left(u, m);
                }
                for (k, (v, list)) in rrows.into_iter().enumerate() {
                    if v != rs[k] {
                        return Err(format!(
                            "HANDOFF {me}<->{owner}: ack answered right {v}, asked {}",
                            rs[k]
                        ));
                    }
                    ws.set_right(v, list);
                }
            }
        }
        // One alternation outward, gated on footprint membership: the
        // walk itself never leaves the shipped topology, so neither
        // does the fetch.
        let (mut next_l, mut next_r) = (Vec::new(), Vec::new());
        for &u in &frontier_l {
            for v in topo.left_neighbors(u) {
                if topo.has_right(v) && stamp_insert(&mut ws.seen_r, v) {
                    next_r.push(v);
                }
            }
            if let Some(m) = ws.mate.get(u as usize).copied().flatten() {
                if topo.has_right(m) && stamp_insert(&mut ws.seen_r, m) {
                    next_r.push(m);
                }
            }
        }
        for &v in &frontier_r {
            for x in topo.right_neighbors(v) {
                if topo.has_left(x) && stamp_insert(&mut ws.seen_l, x) {
                    next_l.push(x);
                }
            }
            if let Some(list) = ws.matched.get(v as usize) {
                for &x in list {
                    if topo.has_left(x) && stamp_insert(&mut ws.seen_l, x) {
                        next_l.push(x);
                    }
                }
            }
        }
        frontier_l = next_l;
        frontier_r = next_r;
    }
    Ok(rounds)
}

/// One shipped plan's executed outcome, as reported on the wave ack.
#[derive(Debug)]
struct PlanAck {
    j: u32,
    out: RepairOutcome,
    lefts: Vec<(u32, u32)>,
    rights: Vec<(u32, Vec<u32>)>,
    rounds: u64,
}

/// Execute one `WAVE` frame: decode the plans and their footprint
/// topology, seed the dense scratch from the worker's own slice plus
/// the coordinator's overrides, then per plan fetch the reachable
/// foreign rows, run the bounded walk, and diff the touched rows. Own
/// changes commit to the slice, foreign changes push to their owners as
/// `FLIP`s, and everything is reported back on the ack together with
/// this worker's sent-side peer wire counters.
fn run_wave(
    st: &mut WorkerState,
    links: &mut WorkerLinks,
    map: &ShardMap,
    epoch: u64,
    payload: &[u8],
    timeout: Duration,
) -> Result<Vec<u8>, String> {
    let me = links.shard();
    let parse = |e: IoError| format!("WAVE payload: {e}");
    let mut r = ByteReader::new(payload);
    let eager_k = r.take_u64().map_err(parse)? as usize;
    let ecap = r.take_u64().map_err(parse)? as usize;
    let radius = r.take_u64().map_err(parse)?;
    let n_plans = r.take_len(12).map_err(parse)?;
    let mut topo = std::mem::take(&mut st.topo);
    let mut plans: Vec<ShippedPlan> = Vec::with_capacity(n_plans);
    let mut override_l: Vec<(u32, u32)> = Vec::new();
    let mut override_r: Vec<(u32, Vec<u32>)> = Vec::new();
    for _ in 0..n_plans {
        let j = r.take_u32().map_err(parse)?;
        let plan = decode_plan(&mut r).map_err(parse)?;
        let rights = take_ids(&mut r).map_err(parse)?;
        let lefts = take_ids(&mut r).map_err(parse)?;
        // Fresh rows for the ids this worker lacked or held stale; the
        // cache keeps them for later waves.
        let nr = r.take_len(20).map_err(parse)?;
        for _ in 0..nr {
            let v = r.take_u32().map_err(parse)?;
            let cap = r.take_u64().map_err(parse)?;
            let row = take_ids(&mut r).map_err(parse)?;
            topo.set_right(v, cap, row);
        }
        let nl = r.take_len(12).map_err(parse)?;
        for _ in 0..nl {
            let u = r.take_u32().map_err(parse)?;
            let row = take_ids(&mut r).map_err(parse)?;
            topo.set_left(u, row);
        }
        for &v in &rights {
            topo.admit_right(v)?;
        }
        for &u in &lefts {
            topo.admit_left(u)?;
        }
        override_l.extend(take_left_rows(&mut r).map_err(parse)?);
        override_r.extend(take_right_rows(&mut r).map_err(parse)?);
        plans.push(ShippedPlan {
            j,
            plan,
            rights,
            lefts,
        });
    }
    r.expect_end().map_err(parse)?;
    for sp in &plans {
        let named = match sp.plan {
            RepairPlan::Rematch { v, .. } | RepairPlan::Evict { v } | RepairPlan::Fill { v } => {
                Some(v)
            }
            _ => None,
        };
        if let Some(v) = named {
            if !topo.has_right(v) {
                return Err(format!(
                    "plan names right {v} outside its shipped footprint"
                ));
            }
        }
    }

    // Peer wire counters and search counters at wave start; the ack
    // carries the deltas.
    let sent0 = links.peer_sent();
    let mut scratch = std::mem::take(&mut st.search);
    let (exp0, caps0) = (scratch.expansions, scratch.cap_hits);

    // Seed the scratch: own rows from the authoritative slice, then the
    // coordinator's overrides on top (rows its engine moved past the
    // synced slices — fresh arrivals and locally-run plans).
    let mut ws = std::mem::take(&mut st.wave);
    for &v in plans.iter().flat_map(|sp| &sp.rights) {
        if map.owner_of_right(v) as u32 == me {
            let list = st.matched.get(&v).cloned().ok_or_else(|| {
                format!("wave topology names owned right {v} missing from the slice")
            })?;
            ws.set_right(v, list);
        }
    }
    for &u in plans.iter().flat_map(|sp| &sp.lefts) {
        if map.owner_of_left(u) as u32 == me {
            // A missing owned left is a fresh arrival whose row rides
            // the overrides below.
            if let Some(&m) = st.lefts.get(&u) {
                ws.set_left(u, m);
            }
        }
    }
    for &(u, m) in &override_l {
        ws.set_left(u, m);
    }
    for (v, list) in override_r {
        ws.set_right(v, list);
    }

    let mut acks: Vec<PlanAck> = Vec::with_capacity(plans.len());
    let mut own_l: Vec<(u32, u32)> = Vec::new();
    let mut own_r: Vec<(u32, Vec<u32>)> = Vec::new();
    let mut flips = FlipBuckets::new();
    let mut max_rounds = 0u64;
    for sp in &plans {
        let rounds = fetch_plan_state(
            &mut ws, st, links, map, &topo, &sp.plan, epoch, radius, timeout,
        )?;
        max_rounds = max_rounds.max(rounds);
        // Pre-image of the rows this plan may write — the walk contract
        // confines writes to the plan's own footprint and its
        // one-step-around lefts, which is exactly the shipped id set.
        let pre_l: Vec<(u32, Option<u32>)> = sp
            .lefts
            .iter()
            .map(|&u| (u, ws.mate.get(u as usize).copied().flatten()))
            .collect();
        let pre_r: Vec<(u32, Vec<u32>)> = sp
            .rights
            .iter()
            .map(|&v| (v, ws.matched.get(v as usize).cloned().unwrap_or_default()))
            .collect();
        scratch.ensure(ws.mate.len(), ws.matched.len());
        let out = {
            let mut slots = MatchSlots::over(&mut ws.mate, &mut ws.matched);
            run_repair(&sp.plan, &topo, &mut slots, &mut scratch, eager_k, ecap)
        };
        let mut dl: Vec<(u32, u32)> = Vec::new();
        for (u, before) in pre_l {
            let now = ws.mate.get(u as usize).copied().flatten();
            if now != before {
                dl.push((u, now.unwrap_or(UNMATCHED)));
            }
        }
        let mut dr: Vec<(u32, Vec<u32>)> = Vec::new();
        for (v, before) in pre_r {
            let now = ws.matched.get(v as usize).cloned().unwrap_or_default();
            if now != before {
                dr.push((v, now));
            }
        }
        for &(u, m) in &dl {
            let owner = map.owner_of_left(u) as u32;
            if owner == me {
                own_l.push((u, m));
            } else {
                flips.entry(owner).or_default().0.push((u, m));
            }
        }
        for (v, list) in &dr {
            let owner = map.owner_of_right(*v) as u32;
            if owner == me {
                own_r.push((*v, list.clone()));
            } else {
                flips.entry(owner).or_default().1.push((*v, list.clone()));
            }
        }
        acks.push(PlanAck {
            j: sp.j,
            out,
            lefts: dl,
            rights: dr,
            rounds,
        });
    }
    let (expansions, cap_hits) = (scratch.expansions - exp0, scratch.cap_hits - caps0);
    ws.reset(&plans);
    topo.close_wave();
    st.wave = ws;
    st.search = scratch;
    st.topo = topo;

    // Commit own changes to the authoritative slice.
    for &(u, m) in &own_l {
        st.lefts.insert(u, m);
    }
    for (v, list) in own_r {
        *st.matched
            .get_mut(&v)
            .ok_or_else(|| format!("own flip for unknown right {v}"))? = list;
    }

    // Push foreign changes to their owners, then collect the acks —
    // send-all-first so two workers flipping into each other cannot
    // deadlock, and keep serving while waiting.
    for (&owner, (ls, rs)) in &flips {
        let mut w = ByteWriter::new();
        put_left_rows(&mut w, ls);
        put_right_rows(&mut w, rs);
        links
            .peer_to(owner)
            .ok_or_else(|| format!("HANDOFF {me}<->{owner}: no direct link"))?
            .send(PH_FLIP, epoch, &w.into_bytes())
            .map_err(|e| format!("HANDOFF {me}<->{owner}: {e}"))?;
    }
    let owners: Vec<u32> = flips.keys().copied().collect();
    let deadline = Instant::now() + timeout;
    let flip_acks = await_acks(st, links, map, PH_FLIP_ACK, &owners, deadline)?;
    for (&owner, (ls, rs)) in &flips {
        let mut r = ByteReader::new(&flip_acks[&owner]);
        let parse = |e: IoError| format!("HANDOFF {me}<->{owner}: bad flip ack: {e}");
        let applied = r.take_u64().map_err(parse)?;
        r.expect_end().map_err(parse)?;
        let want = (ls.len() + rs.len()) as u64;
        if applied != want {
            return Err(format!(
                "HANDOFF {me}<->{owner}: flip applied {applied} rows, sent {want}"
            ));
        }
    }

    let (sf, sb) = links.peer_sent();
    let mut w = ByteWriter::new();
    w.put_u64(acks.len() as u64);
    for a in &acks {
        w.put_u32(a.j);
        w.put_i64(a.out.size_delta);
        w.put_u64(a.out.augmentations as u64);
        w.put_u64(a.out.evictions as u64);
        w.put_u64(a.out.dirty.len() as u64);
        for &v in &a.out.dirty {
            w.put_u32(v);
        }
        put_left_rows(&mut w, &a.lefts);
        put_right_rows(&mut w, &a.rights);
        w.put_u64(a.rounds);
    }
    w.put_u64(expansions);
    w.put_u64(cap_hits);
    w.put_u64(sf - sent0.0);
    w.put_u64(sb - sent0.1);
    w.put_u64(max_rounds);
    Ok(w.into_bytes())
}

/// Handle an `ARM` frame (test instrumentation): kind 0 arms a fault on
/// the link to a named peer shard, kind 1 overrides the handoff
/// deadline.
fn arm_link(
    links: &mut WorkerLinks,
    payload: &[u8],
    handoff_timeout: &mut Duration,
) -> Result<(), String> {
    let parse = |e: IoError| format!("ARM payload: {e}");
    let mut r = ByteReader::new(payload);
    match r.take_u32().map_err(parse)? {
        0 => {
            let target = r.take_u32().map_err(parse)?;
            let fault = Fault::decode(&mut r).map_err(parse)?;
            r.expect_end().map_err(parse)?;
            links
                .peer_to(target)
                .ok_or_else(|| format!("ARM names shard {target} with no direct link"))?
                .inject(fault);
            Ok(())
        }
        1 => {
            let micros = r.take_u64().map_err(parse)?;
            r.expect_end().map_err(parse)?;
            *handoff_timeout = Duration::from_micros(micros.max(1));
            Ok(())
        }
        other => Err(format!("unknown ARM kind {other}")),
    }
}

/// The worker thread, for both protocols: block on the worker's one
/// inbox and serve whichever link speaks — the coordinator spoke (every
/// star phase, plus `WAVE`/`ARM` on a p2p mesh) or a worker↔worker link
/// (`HANDOFF_REQ`/`FLIP` from peers executing their own plans; a star
/// worker has none). Spoke frames held back during a wave go first.
/// Both protocols ship the same slice, matched lists included, so the
/// loop needs no notion of which one it serves. Failures NACK the
/// coordinator with the typed error, or a detail naming the peer pair
/// and protocol phase, then the worker exits — a worker never panics on
/// bad input, never answers with made-up state, and recovery rebuilds
/// the whole mesh.
fn worker_main(mut links: WorkerLinks, map: ShardMap) {
    let mut st = WorkerState::default();
    let mut handoff_timeout = DEFAULT_HANDOFF_TIMEOUT;
    let me = links.shard();
    let nack = |links: &mut WorkerLinks, epoch: u64, kind: u32, body: &[u8]| {
        let mut w = ByteWriter::new();
        w.put_u32(kind);
        w.put_bytes(body);
        let _ = links.coordinator().send(PH_NACK, epoch, &w.into_bytes());
    };
    loop {
        let got = match st.held.pop_front() {
            Some(frame) => Ok((COORDINATOR, frame)),
            None => links.recv(None),
        };
        let frame = match got {
            Ok((COORDINATOR, frame)) => frame,
            Ok((from, frame)) => {
                if let Err(detail) = serve_peer_frame(&mut st, &mut links, &map, from, frame) {
                    nack(&mut links, 0, NACK_PROTOCOL, detail.as_bytes());
                    return;
                }
                continue;
            }
            Err(err) if err.peer() == COORDINATOR => {
                nack(&mut links, 0, NACK_TRANSPORT, &err.encode());
                return;
            }
            // An idle peer link closing is that peer exiting — shut down,
            // or failed and NACKing the coordinator itself. A later fetch
            // over the link fails typed (closed, or its ack times out).
            Err(TransportError::Closed { .. }) => continue,
            Err(err) => {
                let detail = format!("HANDOFF {me}<->{}: {err}", err.peer());
                nack(&mut links, 0, NACK_PROTOCOL, detail.as_bytes());
                return;
            }
        };
        let reply = match frame.phase {
            PH_WAVE => run_wave(
                &mut st,
                &mut links,
                &map,
                frame.epoch,
                &frame.payload,
                handoff_timeout,
            )
            .map(|ack| (PH_WAVE_ACK, ack)),
            PH_ARM => arm_link(&mut links, &frame.payload, &mut handoff_timeout)
                .map(|()| (PH_ARM_ACK, Vec::new())),
            other => st.handle(other, &frame.payload),
        };
        match reply {
            Ok((phase, reply)) => {
                if links
                    .coordinator()
                    .send(phase, frame.epoch, &reply)
                    .is_err()
                    || phase == PH_SHUTDOWN_ACK
                {
                    return;
                }
            }
            Err(detail) => {
                nack(&mut links, frame.epoch, NACK_PROTOCOL, detail.as_bytes());
                return;
            }
        }
    }
}

/// Spawn one [`worker_main`] thread per bundle.
fn spawn_workers(links: Vec<WorkerLinks>, map: ShardMap) -> Vec<JoinHandle<()>> {
    links
        .into_iter()
        .map(|l| std::thread::spawn(move || worker_main(l, map)))
        .collect()
}

// ---------------------------------------------------- coordinator side

/// Owner of an update's *anchor* vertex: the worker its wire copy is
/// routed through. Any deterministic rule works — the engine applies
/// the echoed batch in original order — this one sends each update to
/// the shard owning the vertex its repair ball is centered on.
fn anchor_owner(map: &ShardMap, up: &Update) -> usize {
    match up {
        Update::Arrive { neighbors } => neighbors.first().map_or(0, |&v| map.owner_of_right(v)),
        Update::Depart { u } => map.owner_of_left(*u),
        Update::InsertEdge { v, .. }
        | Update::DeleteEdge { v, .. }
        | Update::SetCapacity { v, .. } => map.owner_of_right(*v),
    }
}

fn decode_nack(shard: u32, payload: &[u8]) -> NetError {
    let mut r = ByteReader::new(payload);
    let parsed = (|| -> Result<NetError, IoError> {
        let kind = r.take_u32()?;
        let body = r.take_bytes()?;
        r.expect_end()?;
        Ok(match kind {
            NACK_TRANSPORT => NetError::Transport(TransportError::decode(&body)?),
            _ => NetError::Protocol {
                shard,
                detail: String::from_utf8_lossy(&body).into_owned(),
            },
        })
    })();
    parsed.unwrap_or_else(|e| NetError::Protocol {
        shard,
        detail: format!("undecodable NACK: {e}"),
    })
}

/// One shipped plan's outcome as its owning worker acked it: the
/// [`RepairOutcome`] fields plus the changed mate/matched rows the
/// coordinator replays into its engine and mirrors.
#[derive(Debug)]
struct RemotePlanOutcome {
    size_delta: i64,
    augmentations: u64,
    evictions: u64,
    dirty: Vec<u32>,
    lefts: Vec<(u32, u32)>,
    rights: Vec<(u32, Vec<u32>)>,
}

/// The coordinator's record of which wave-topology rows each p2p worker
/// holds current ([`TopoCache`]): a `WAVE` frame ships a row only to a
/// worker whose record lacks it. A wave's structural half forgets the
/// rows it rewrote; an overlay fold (which re-sorts rows into CSR order)
/// and every (re-)INIT forget everything.
#[derive(Debug, Default)]
struct TopoRecord {
    /// `lefts[w][u]`: worker `w` holds left `u`'s current row.
    lefts: Vec<Vec<bool>>,
    /// `rights[w][v]`: worker `w` holds right `v`'s current row.
    rights: Vec<Vec<bool>>,
    /// Overlay folds of the serial core when the record was last valid.
    layout: usize,
    /// Debug builds: per worker, every row as last shipped (`(is_right,
    /// id)` → capacity-led right row or plain left row), so each cache
    /// hit is checked against the live row. A missed invalidation then
    /// fails loudly even where no walk happens to diverge (compaction
    /// only reorders rows).
    #[cfg(debug_assertions)]
    audit: Vec<std::collections::HashMap<(bool, u32), Vec<u64>>>,
}

impl TopoRecord {
    fn reset(&mut self, workers: usize) {
        self.lefts = vec![Vec::new(); workers];
        self.rights = vec![Vec::new(); workers];
        #[cfg(debug_assertions)]
        {
            self.audit = vec![Default::default(); workers];
        }
    }

    /// Debug builds: remember a shipped row, or check a cache hit
    /// against `live` (the row's current contents).
    #[cfg(debug_assertions)]
    fn audit(
        &mut self,
        w: usize,
        key: (bool, u32),
        shipped: bool,
        live: impl FnOnce() -> Vec<u64>,
    ) {
        if shipped {
            self.audit[w].insert(key, live());
        } else {
            assert_eq!(
                self.audit[w].get(&key),
                Some(&live()),
                "worker {w} would read a stale topology row {key:?}"
            );
        }
    }

    #[cfg(not(debug_assertions))]
    #[inline]
    fn audit(&mut self, _: usize, _: (bool, u32), _: bool, _: impl FnOnce() -> Vec<u64>) {}

    fn forget(held: &mut [Vec<bool>], x: u32) {
        for row in held {
            if let Some(h) = row.get_mut(x as usize) {
                *h = false;
            }
        }
    }

    /// Note that worker `w` is about to receive row `x`: `true` iff its
    /// record lacked the row, i.e. the row must ship.
    fn ship(held: &mut [Vec<bool>], w: usize, x: u32) -> bool {
        let row = &mut held[w];
        if row.len() <= x as usize {
            row.resize(x as usize + 1, false);
        }
        !std::mem::replace(&mut row[x as usize], true)
    }
}

/// The networked serving engine. See the [module docs](self).
#[derive(Debug)]
pub struct NetServeLoop {
    inner: ShardedServeLoop,
    mesh: Mesh,
    workers: Vec<JoinHandle<()>>,
    kind: TransportKind,
    /// Mirror of every left's mate as the workers hold it (wire form).
    synced_mate: Vec<u32>,
    stats: NetStats,
    epoch_mark: (u64, u64),
    /// Phase tracer for the `net_*` wire phases (shares the stack's sink).
    tracer: Tracer,
    /// The most recent flight-recorder dump — written (and printed to
    /// stderr) whenever a wire operation fails, so a post-mortem names
    /// the failing peer and protocol phase without re-running the fault.
    last_flight_dump: Option<String>,
    sup: SupervisorConfig,
    respawns_left: u64,
    /// `Some(reason)` once the respawn budget is exhausted: read-only.
    quarantined: Option<String>,
    /// xorshift state for backoff jitter (no RNG dependency).
    jitter: u64,
    /// Peer-to-peer mode: the mesh carries worker↔worker links, so
    /// repair waves ship to the workers (see the [module docs](self)).
    p2p: bool,
    /// Mirror of every right's matched list — the slot-order walk state
    /// the workers hold, verified by the census matched checksum.
    synced_matched: Vec<Vec<u32>>,
    /// Handoff-deadline override to (re-)broadcast to the workers —
    /// remembered so a mesh rebuild re-arms it.
    handoff_timeout: Option<Duration>,
    /// p2p: which topology rows each worker caches current.
    topo: TopoRecord,
    /// p2p: a plan's left-set scratch while encoding `WAVE` frames.
    wave_lefts: StampSet,
}

/// The coordinator mirror dealt to the workers: per worker, its
/// `(u, mate)` rows, then per worker, its right ids.
type MirrorSlices = (Vec<Vec<(u32, u32)>>, Vec<Vec<u32>>);

/// Human name of a protocol phase tag (frame headers and flight dumps).
fn phase_name(phase: u32) -> &'static str {
    match phase {
        PH_INIT => "INIT",
        PH_INIT_ACK => "INIT_ACK",
        PH_ROUTE => "ROUTE",
        PH_ROUTE_ACK => "ROUTE_ACK",
        PH_COMMIT => "COMMIT",
        PH_COMMIT_ACK => "COMMIT_ACK",
        PH_CENSUS => "CENSUS",
        PH_CENSUS_ACK => "CENSUS_ACK",
        PH_GATHER => "GATHER",
        PH_GATHER_ACK => "GATHER_ACK",
        PH_SHUTDOWN => "SHUTDOWN",
        PH_SHUTDOWN_ACK => "SHUTDOWN_ACK",
        PH_NACK => "NACK",
        PH_WAVE => "WAVE",
        PH_WAVE_ACK => "WAVE_ACK",
        PH_HANDOFF_REQ => "HANDOFF_REQ",
        PH_HANDOFF_ACK => "HANDOFF_ACK",
        PH_FLIP => "FLIP",
        PH_FLIP_ACK => "FLIP_ACK",
        PH_ARM => "ARM",
        PH_ARM_ACK => "ARM_ACK",
        _ => "UNKNOWN",
    }
}

/// An open wire phase ([`NetServeLoop::open_wire`]): its span plus the
/// wire counters at its start — the per-peer byte totals and the global
/// frame totals — so [`NetServeLoop::close_wire`] can attribute the
/// phase's deltas.
struct WirePhase {
    phase: Phase,
    span: Span,
    per_peer: Vec<(u64, u64)>,
    frames: (u64, u64),
}

impl NetServeLoop {
    /// Solve `base` with the static stack and serve it across
    /// `cfg.shards` worker threads connected by `kind` channels. The
    /// initial state slices are scattered ([`Phase::NetInit`]) before
    /// this returns.
    pub fn new(base: Bipartite, cfg: ShardedConfig, kind: TransportKind) -> Result<Self, NetError> {
        let inner = ShardedServeLoop::new(base, cfg)?;
        Self::from_inner(inner, kind)
    }

    /// Put an existing simulated engine on the wire: spawn one worker
    /// per shard and scatter the current state slices.
    pub fn from_inner(inner: ShardedServeLoop, kind: TransportKind) -> Result<Self, NetError> {
        Self::from_inner_with(inner, kind, false)
    }

    /// Peer-to-peer twin of [`NetServeLoop::new`]: same star for
    /// scheduling, routing, and epoch barriers, but repair waves ship to
    /// the shard workers owning their balls, and cross-shard walk state
    /// moves directly over worker↔worker channels. See the
    /// [module docs](self).
    pub fn new_p2p(
        base: Bipartite,
        cfg: ShardedConfig,
        kind: TransportKind,
    ) -> Result<Self, NetError> {
        let inner = ShardedServeLoop::new(base, cfg)?;
        Self::from_inner_with(inner, kind, true)
    }

    /// Peer-to-peer twin of [`NetServeLoop::from_inner`].
    pub fn from_inner_p2p(inner: ShardedServeLoop, kind: TransportKind) -> Result<Self, NetError> {
        Self::from_inner_with(inner, kind, true)
    }

    fn from_inner_with(
        inner: ShardedServeLoop,
        kind: TransportKind,
        p2p: bool,
    ) -> Result<Self, NetError> {
        let p = inner.shards();
        let tracer = inner.tracer().clone();
        // The star's workers talk to the coordinator only.
        let edges = if p2p { Mesh::all_pairs(p) } else { Vec::new() };
        let (mesh, links) = match kind {
            TransportKind::Loopback => Mesh::loopback_mesh(p, &edges),
            TransportKind::Tcp => Mesh::tcp_mesh(p, &edges)?,
        };
        let workers = spawn_workers(links, *inner.shard_map());
        let mut this = NetServeLoop {
            inner,
            mesh,
            workers,
            kind,
            synced_mate: Vec::new(),
            stats: NetStats::default(),
            epoch_mark: (0, 0),
            tracer,
            last_flight_dump: None,
            sup: SupervisorConfig::default(),
            respawns_left: 0,
            quarantined: None,
            jitter: 0x9e37_79b9_7f4a_7c15,
            p2p,
            synced_matched: Vec::new(),
            handoff_timeout: None,
            topo: TopoRecord::default(),
            wave_lefts: StampSet::default(),
        };
        this.scatter_init(Phase::NetInit)?;
        this.epoch_mark = this.wire_totals();
        Ok(this)
    }

    /// Restore a snapshot ([`NetServeLoop::checkpoint_bytes`] or any
    /// sharded snapshot) onto a fresh mesh, optionally re-sharding.
    pub fn restore(
        path: impl AsRef<Path>,
        shards_override: Option<usize>,
        kind: TransportKind,
    ) -> Result<Self, NetError> {
        let inner = snapshot::load_sharded(path, shards_override)?;
        Self::from_inner(inner, kind)
    }

    /// Serialize a checkpoint to bytes: the sharded snapshot format,
    /// restorable by [`NetServeLoop::restore`] or
    /// [`snapshot::load_sharded`].
    /// [`Engine::checkpoint`](crate::Engine::checkpoint) writes these.
    pub fn checkpoint_bytes(&mut self) -> Result<Vec<u8>, NetError> {
        Ok(snapshot::sharded_bytes(&mut self.inner))
    }

    // ------------------------------------------------------- plumbing

    /// Completed epochs — the stamp every frame and span of the current
    /// epoch carries. Read from the engine's own counter, so
    /// a restored engine resumes the stamps where its snapshot left off.
    fn epoch(&self) -> u64 {
        self.inner.serve_stats().epochs as u64
    }

    fn wire_totals(&self) -> (u64, u64) {
        let (bs, br) = self.mesh.bytes_moved();
        let (fs, fr) = self.mesh.frames_moved();
        (bs + br, fs + fr)
    }

    /// Open a wire phase: span it and snapshot the wire counters.
    fn open_wire(&self, phase: Phase, epoch: u64) -> WirePhase {
        WirePhase {
            phase,
            span: self.tracer.span(phase, epoch),
            per_peer: self.mesh.per_peer_bytes(),
            frames: self.mesh.frames_moved(),
        }
    }

    /// Close a wire phase: record its measured traffic on the inner
    /// ledger (⌈bytes/8⌉ words), the phase byte counters, and the
    /// metrics registry, then close its span carrying those words.
    fn close_wire(&mut self, open: WirePhase) {
        let WirePhase {
            phase,
            mut span,
            per_peer,
            frames,
        } = open;
        let after = self.mesh.per_peer_bytes();
        let (mut sent_total, mut recv_total) = (0u64, 0u64);
        let (mut max_sent, mut max_recv) = (0u64, 0u64);
        for ((s0, r0), (s1, r1)) in per_peer.iter().zip(&after) {
            let sent = s1 - s0;
            let recv = r1 - r0;
            sent_total += sent;
            recv_total += recv;
            max_sent = max_sent.max(sent);
            max_recv = max_recv.max(recv);
        }
        let total = sent_total + recv_total;
        match phase {
            Phase::NetRoute => self.stats.route_bytes += total,
            Phase::NetCommit => self.stats.commit_bytes += total,
            Phase::NetCensus => self.stats.census_bytes += total,
            Phase::NetRecover => self.stats.replayed_bytes += total,
            Phase::NetWave => self.stats.wave_bytes += total,
            Phase::NetInit => self.stats.init_bytes += total,
            Phase::NetGather => self.stats.gather_bytes += total,
            other => unreachable!("{other:?} is not a wire phase"),
        }
        let (fs, fr) = self.mesh.frames_moved();
        let obs = self.inner.obs_mut();
        obs.inc(Counter::BytesSent, sent_total);
        obs.inc(Counter::BytesReceived, recv_total);
        obs.inc(Counter::FramesSent, fs - frames.0);
        obs.inc(Counter::FramesReceived, fr - frames.1);
        if phase == Phase::NetRecover {
            obs.inc(Counter::ReplayedBytes, total);
        }
        let words = total.div_ceil(8);
        self.inner.ledger_mut().record(RoundRecord {
            words_moved: words,
            max_sent: max_sent.div_ceil(8) as usize,
            max_received: max_recv.div_ceil(8) as usize,
            max_storage: 0,
            total_storage: 0,
            label: phase.label(),
        });
        span.set_words(words);
        span.close(self.inner.obs_mut());
    }

    /// Capture the mesh's flight recorders after a wire failure: what
    /// happened (`cause`) during which protocol exchange, with which
    /// worker, followed by every peer's recent-event ring. Printed to
    /// stderr immediately and kept for [`NetServeLoop::flight_dump`].
    fn record_flight(&mut self, w: usize, phase: u32, epoch: u64, cause: &str) {
        let dump = format!(
            "flight recorder: {cause} during {} (phase {phase}, epoch {epoch}) with worker {w}\n{}",
            phase_name(phase),
            self.mesh.flight_dump(|p| phase_name(p as u32))
        );
        eprintln!("{dump}");
        self.last_flight_dump = Some(dump);
    }

    /// Send `payload` to worker `w`, dumping the flight recorders if the
    /// channel fails (the send-side twin of [`Self::expect`]).
    fn send(&mut self, w: usize, phase: u32, epoch: u64, payload: &[u8]) -> Result<(), NetError> {
        if let Err(e) = self.mesh.send_to(w, phase, epoch, payload) {
            self.record_flight(w, phase, epoch, "the send failed");
            return Err(e.into());
        }
        Ok(())
    }

    /// Receive worker `w`'s reply to `phase` of `epoch`; NACKs re-surface
    /// as the worker's typed error, anything else off-script is a
    /// protocol error. Every failure path dumps the flight recorders
    /// first — this is the post-mortem funnel for all recv-side faults.
    fn expect(&mut self, w: usize, phase: u32, epoch: u64) -> Result<Vec<u8>, NetError> {
        let mut tries = 0u32;
        let f = loop {
            match self.mesh.recv_from(w) {
                Ok(f) => break f,
                // Transient faults (recv timeouts) leave the channel's
                // sequence numbers intact, so a plain retry can succeed.
                // Anything else poisons the channel — escalate.
                Err(e) if e.is_transient() && tries < self.sup.retry_budget => {
                    tries += 1;
                    self.stats.retries += 1;
                    self.inner.obs_mut().inc(Counter::NetRetries, 1);
                    let pause = self.backoff(tries);
                    std::thread::sleep(pause);
                }
                Err(e) => {
                    self.record_flight(w, phase, epoch, "the channel failed");
                    return Err(e.into());
                }
            }
        };
        if f.phase == PH_NACK {
            self.record_flight(w, phase, epoch, "the worker reported a fault");
            return Err(decode_nack(w as u32, &f.payload));
        }
        if f.phase != phase || f.epoch != epoch {
            self.record_flight(w, phase, epoch, "the reply was off-script");
            return Err(NetError::Protocol {
                shard: w as u32,
                detail: format!(
                    "expected phase {phase} of epoch {epoch}, got phase {} of epoch {}",
                    f.phase, f.epoch
                ),
            });
        }
        Ok(f.payload)
    }

    /// Deal the mirror's rows to their owners, in id order.
    fn deal_mirror(&self) -> MirrorSlices {
        let map = self.inner.shard_map();
        let mut lefts: Vec<Vec<(u32, u32)>> = vec![Vec::new(); map.shards()];
        let mut rights: Vec<Vec<u32>> = vec![Vec::new(); map.shards()];
        for (u, &m) in (0u32..).zip(&self.synced_mate) {
            lefts[map.owner_of_left(u)].push((u, m));
        }
        for v in 0..self.synced_matched.len() as u32 {
            rights[map.owner_of_right(v)].push(v);
        }
        (lefts, rights)
    }

    /// Scatter the engine's full state to every worker. Called once at
    /// construction (`phase` = [`Phase::NetInit`]) and again after
    /// every respawn (`phase` = [`Phase::NetRecover`]) — re-INIT is the
    /// recovery primitive, so `phase` decides which phase the traffic
    /// is metered under.
    fn scatter_init(&mut self, phase: Phase) -> Result<(), NetError> {
        let epoch = self.epoch();
        let open = self.open_wire(phase, epoch);
        let matching = self.inner.serial().matching();
        self.synced_mate.clear();
        self.synced_mate
            .extend(matching.mate_slice().iter().map(|m| m.unwrap_or(UNMATCHED)));
        self.synced_matched = matching.matched_at_slice().to_vec();
        let (lefts, rights) = self.deal_mirror();
        // INIT empties the workers' topology caches.
        self.topo.reset(lefts.len());
        for (w, (ls, rs)) in lefts.iter().zip(&rights).enumerate() {
            let mut wtr = ByteWriter::new();
            put_left_rows(&mut wtr, ls);
            wtr.put_u64(rs.len() as u64);
            for &v in rs {
                put_right_row(&mut wtr, v, &self.synced_matched[v as usize]);
            }
            self.send(w, PH_INIT, epoch, &wtr.into_bytes())?;
        }
        for (w, (ls, rs)) in lefts.iter().zip(&rights).enumerate() {
            let payload = self.expect(w, PH_INIT_ACK, epoch)?;
            let mut r = ByteReader::new(&payload);
            let (nl, nr) = (
                r.take_u64().map_err(|e| self.payload_err(w, e))?,
                r.take_u64().map_err(|e| self.payload_err(w, e))?,
            );
            if nl != ls.len() as u64 || nr != rs.len() as u64 {
                return Err(NetError::Protocol {
                    shard: w as u32,
                    detail: format!(
                        "init ack counts ({nl}, {nr}) disagree with the scattered slice \
                         ({}, {})",
                        ls.len(),
                        rs.len()
                    ),
                });
            }
        }
        self.close_wire(open);
        Ok(())
    }

    /// The left whose engine-style `swap_remove` turns `old` into
    /// `new`, if exactly one such op does — lists are a handful of
    /// entries, so trying each position beats cleverness.
    fn single_swap_remove(old: &[u32], new: &[u32]) -> Option<u32> {
        if old.len() != new.len() + 1 {
            return None;
        }
        for pos in 0..old.len() {
            let mut sim = old.to_vec();
            let u = sim.swap_remove(pos);
            if sim[..] == *new {
                return Some(u);
            }
        }
        None
    }

    fn payload_err(&self, w: usize, e: IoError) -> NetError {
        NetError::Protocol {
            shard: w as u32,
            detail: format!("reply payload: {e}"),
        }
    }

    /// Ship the engine's state changes since the last commit to the
    /// owning workers, and advance the coordinator's mirror: mate rows,
    /// and each changed matched list as a [`LIST_PUSH`]-family op. Rows a
    /// p2p wave fold already advanced the mirror past are skipped — the
    /// worker applied them itself, directly or via a peer `FLIP`.
    fn commit_deltas(&mut self, epoch: u64) -> Result<(), NetError> {
        let open = self.open_wire(Phase::NetCommit, epoch);
        let p = self.mesh.workers();
        let map = *self.inner.shard_map();
        let matching = self.inner.serial().matching();
        let mut mates: Vec<Vec<(u32, u32)>> = vec![Vec::new(); p];
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); p];
        let n_left = matching.mate_slice().len();
        for (u, m) in (0u32..).zip(matching.mate_slice()) {
            let m = m.unwrap_or(UNMATCHED);
            // A left past the synced horizon arrived this batch: its
            // owner must learn it even if it is (still) unmatched.
            // (Fold-synced fresh rows sit below the horizon already;
            // the gap rows they skipped over read [`NEVER_SYNCED`] and
            // so still ship.)
            if self.synced_mate.get(u as usize) != Some(&m) {
                mates[map.owner_of_left(u)].push((u, m));
            }
        }
        // Only changed lists are encoded and re-mirrored.
        let matched = matching.matched_at_slice();
        for (v, list) in (0u32..).zip(matched) {
            if self.synced_matched.get(v as usize) != Some(list) {
                lists[map.owner_of_right(v)].push(v);
            }
        }
        let frames: Vec<Vec<u8>> = (0..p)
            .map(|w| {
                let mut wtr = ByteWriter::new();
                put_left_rows(&mut wtr, &mates[w]);
                wtr.put_u64(lists[w].len() as u64);
                for &v in &lists[w] {
                    wtr.put_u32(v);
                    let old = &self.synced_matched[v as usize];
                    let new = &matched[v as usize];
                    if new.len() == old.len() + 1 && new[..old.len()] == old[..] {
                        wtr.put_u32(LIST_PUSH);
                        wtr.put_u32(new[old.len()]);
                    } else if let Some(u) = Self::single_swap_remove(old, new) {
                        wtr.put_u32(LIST_SWAP_REMOVE);
                        wtr.put_u32(u);
                    } else {
                        wtr.put_u32(LIST_SET);
                        wtr.put_u64(new.len() as u64);
                        for &u in new {
                            wtr.put_u32(u);
                        }
                    }
                }
                wtr.into_bytes()
            })
            .collect();
        for (w, frame) in frames.iter().enumerate() {
            self.send(w, PH_COMMIT, epoch, frame)?;
        }
        for w in 0..p {
            let payload = self.expect(w, PH_COMMIT_ACK, epoch)?;
            let mut r = ByteReader::new(&payload);
            let applied = r.take_u64().map_err(|e| self.payload_err(w, e))?;
            let sent = (mates[w].len() + lists[w].len()) as u64;
            if applied != sent {
                return Err(NetError::Protocol {
                    shard: w as u32,
                    detail: format!("commit ack applied {applied} of {sent} deltas"),
                });
            }
        }
        self.synced_mate.resize(n_left, NEVER_SYNCED);
        for &(u, m) in mates.iter().flatten() {
            self.synced_mate[u as usize] = m;
        }
        let matched = self.inner.serial().matching().matched_at_slice();
        for &v in lists.iter().flatten() {
            self.synced_matched[v as usize].clone_from(&matched[v as usize]);
        }
        self.close_wire(open);
        Ok(())
    }

    /// Each worker's census as the mirror says it must read, field by
    /// field in [`CENSUS_FIELDS`] order, hashed in the id order the
    /// worker's sorted maps use.
    fn expected_census(&self) -> Vec<[u64; 5]> {
        let (lefts, rights) = self.deal_mirror();
        let list = |v: u32| self.synced_matched[v as usize].as_slice();
        lefts
            .iter()
            .zip(&rights)
            .map(|(ls, rs)| {
                [
                    ls.len() as u64,
                    rs.len() as u64,
                    resident_words(ls.len(), rs.iter().map(|&v| list(v).len())),
                    mate_checksum(ls.iter().copied()),
                    matched_checksum(rs.iter().map(|&v| (v, list(v)))),
                ]
            })
            .collect()
    }

    // --------------------------------------------------- supervision

    /// Exponential backoff with xorshift jitter for transient-fault
    /// retries: `base · 2^min(attempt−1, 6)` plus up to half a base of
    /// jitter, so retrying coordinators don't re-collide in lockstep.
    fn backoff(&mut self, attempt: u32) -> Duration {
        self.jitter ^= self.jitter << 13;
        self.jitter ^= self.jitter >> 7;
        self.jitter ^= self.jitter << 17;
        let base = BACKOFF_BASE.as_micros() as u64;
        let exp = base.saturating_mul(1 << attempt.saturating_sub(1).min(6));
        Duration::from_micros(exp + self.jitter % (base / 2 + 1))
    }

    /// Install a supervision policy (see [`SupervisorConfig`]) and
    /// refill the respawn budget to `cfg.max_respawns`.
    pub fn set_supervisor(&mut self, cfg: SupervisorConfig) {
        self.respawns_left = cfg.max_respawns;
        self.sup = cfg;
    }

    /// Why the engine is quarantined (read-only), or `None` while it is
    /// still serving.
    pub fn quarantine_reason(&self) -> Option<&str> {
        self.quarantined.as_deref()
    }

    /// Mutating operations refuse to run on a quarantined engine.
    fn check_quarantine(&self) -> Result<(), NetError> {
        match &self.quarantined {
            Some(reason) => Err(NetError::Quarantined {
                reason: reason.clone(),
            }),
            None => Ok(()),
        }
    }

    /// The supervisor's decision point after a failed wire operation:
    /// spend one respawn rebuilding the mesh, or — if the fault isn't a
    /// wire fault, or the budget is exhausted — quarantine the engine and
    /// surface the **original** error. `Ok(())` means the
    /// caller should retry the operation that failed; a recovery that
    /// itself fails loops back here until the budget runs out.
    fn recover_or_quarantine(&mut self, err: NetError) -> Result<(), NetError> {
        let mut cause = err;
        loop {
            let wire_fault = matches!(cause, NetError::Transport(_) | NetError::Protocol { .. });
            if !wire_fault || self.respawns_left == 0 {
                self.quarantined = Some(cause.to_string());
                return Err(cause);
            }
            self.respawns_left -= 1;
            self.stats.respawns += 1;
            self.inner.obs_mut().inc(Counter::NetRespawns, 1);
            let t0 = Instant::now();
            let outcome = self.rebuild_mesh_and_reinit();
            self.stats.recovery_ns += t0.elapsed().as_nanos() as u64;
            match outcome {
                Ok(()) => return Ok(()),
                Err(e) => cause = e,
            }
        }
    }

    /// The recovery primitive, for both protocols. A corrupted frame
    /// burns a sequence number, so recovery **must** re-channel, never
    /// just retry; and replies of the exchange that died (star) or walk
    /// state on worker↔worker channels (p2p) may still be in flight
    /// where the coordinator cannot drain them. So the cut is wholesale:
    /// tear down and rebuild the *entire* mesh ([`Mesh::rebuild`]),
    /// respawn every worker thread on the fresh links, and re-scatter
    /// the coordinator's authoritative engine state (`INIT` resets a
    /// worker's slice). The caller then retries the interrupted
    /// exchange; p2p outcomes fold only after a full ack barrier, so a
    /// retried wave lands exactly once. Metered as
    /// [`Phase::NetRecover`].
    fn rebuild_mesh_and_reinit(&mut self) -> Result<(), NetError> {
        let links = self.mesh.rebuild(self.kind == TransportKind::Tcp)?;
        let old = std::mem::replace(
            &mut self.workers,
            spawn_workers(links, *self.inner.shard_map()),
        );
        // The rebuild closed every old spoke: each old worker reads that
        // `Closed` from its inbox wherever it blocks, and exits.
        for h in old {
            let _ = h.join();
        }
        // Fresh channels restart the wire counters from zero.
        let (bytes_now, frames_now) = self.wire_totals();
        self.epoch_mark.0 = self.epoch_mark.0.min(bytes_now);
        self.epoch_mark.1 = self.epoch_mark.1.min(frames_now);
        self.scatter_init(Phase::NetRecover)?;
        if let Some(d) = self.handoff_timeout {
            self.broadcast_handoff_timeout(d)?;
        }
        Ok(())
    }

    // ------------------------------------------------------- serving

    /// Apply one epoch's update batch. The batch is scattered to the
    /// workers owning each update's anchor, echoed back, and the engine
    /// consumes the echoed wire copies ([`Phase::NetRoute`]): a star
    /// runs them as the simulator's batch, in batch order; a p2p mesh
    /// wave by wave (see the [module docs](self)).
    /// The resulting state deltas are committed to the owning workers
    /// ([`Phase::NetCommit`]).
    ///
    /// Under a [`SupervisorConfig`] with a respawn budget, a wire fault
    /// in either exchange triggers respawn + re-INIT and the exchange is
    /// retried — the route phase is a stateless echo and the commit
    /// diffs against the freshly re-synced mirror, so the retry is
    /// **at-least-once delivery with exactly-once effects**. The engine
    /// itself mutates only after the route succeeds.
    pub fn apply_batch(&mut self, updates: &[Update]) -> Result<BatchReport, NetError> {
        self.check_quarantine()?;
        if updates.is_empty() {
            return Ok(BatchReport::default());
        }
        let wire = loop {
            match self.route_batch(updates) {
                Ok(wire) => break wire,
                Err(e) => self.recover_or_quarantine(e)?,
            }
        };
        // The engine consumes what the wire delivered — a codec bug
        // surfaces as divergence from serial, not silence.
        let report = if self.p2p {
            self.run_waves(&wire)?
        } else {
            self.inner.apply_batch(&wire)?
        };
        loop {
            match self.commit_deltas(self.epoch()) {
                Ok(()) => break,
                Err(e) => self.recover_or_quarantine(e)?,
            }
        }
        Ok(report)
    }

    /// p2p's wave executor behind [`Self::apply_batch`]: stage the batch
    /// once, then per wave run the structural half serially on the
    /// coordinator, ship every disjoint-footprint repair plan to the
    /// shard worker owning its ball (one `WAVE` frame per worker,
    /// [`Phase::NetWave`]), and fold the acked outcomes back in arrival
    /// order, which is what the `≡ serial` property tests pin down. The
    /// plans the scheduler kept serial (global footprints, empty
    /// footprints, structural no-ops) run on the coordinator's engine in
    /// the same fold slot. This executor, its wave-order fold and the
    /// forced arrival ids it passes down are p2p-only, and go with p2p.
    ///
    /// A wire fault mid-wave rebuilds the whole mesh
    /// ([`Self::rebuild_mesh_and_reinit`]) — the re-INIT scatters the
    /// engine state that already includes this wave's structural half —
    /// and re-dispatches the same wave. Outcomes fold only after *all*
    /// acks arrive, so a retried wave lands exactly once.
    fn run_waves(&mut self, wire: &[Update]) -> Result<BatchReport, NetError> {
        let Some(mut staged) = self.inner.stage_batch(wire)? else {
            return Ok(BatchReport::default());
        };
        let layout = self.inner.serve_stats().compactions;
        if layout != self.topo.layout {
            // A fold re-sorted every row into CSR order.
            self.topo.reset(self.mesh.workers());
            self.topo.layout = layout;
        }
        let (eager_k, ecap, radius) = {
            let cfg = self.inner.serial().config();
            (
                cfg.eager_budget() as u64,
                cfg.eager_search_cap as u64,
                cfg.eager_radius() as u64,
            )
        };
        for wave in 0..staged.waves() {
            let idxs: Vec<usize> = staged.wave_idxs(wave).to_vec();
            let mut spw = self.tracer.span(Phase::RepairWave, staged.batch_no);
            let (exp0, cap0) = self.inner.serial().wave_counters();
            let (plans, mut results) = {
                let ups: Vec<&Update> = idxs
                    .iter()
                    .map(|&i| {
                        staged.routed[i]
                            .as_ref()
                            .expect("every update was delivered")
                    })
                    .collect();
                let arrive_ids: Vec<Option<u32>> = idxs
                    .iter()
                    .map(|&i| staged.sched.plans[i].arrive_id)
                    .collect();
                self.inner.serial_mut().wave_structural(&ups, &arrive_ids)
            };
            // The structural half rewrote these rows of the live graph
            // (`touched` holds exactly its right marks so far): every
            // worker's copy of them is stale now.
            for (j, &i) in idxs.iter().enumerate() {
                for &v in &results[j].touched {
                    TopoRecord::forget(&mut self.topo.rights, v);
                }
                let left = match staged.routed[i].as_ref() {
                    Some(Update::Arrive { .. }) => results[j].arrived,
                    Some(
                        Update::Depart { u }
                        | Update::InsertEdge { u, .. }
                        | Update::DeleteEdge { u, .. },
                    ) => Some(*u),
                    _ => None,
                };
                if let Some(u) = left {
                    TopoRecord::forget(&mut self.topo.lefts, u);
                }
            }
            // Which plans ship: disjoint footprint, non-empty, and a real
            // repair to run. Everything else stays local.
            let shipped: Vec<Option<usize>> = idxs
                .iter()
                .enumerate()
                .map(|(j, &i)| {
                    let pl = &staged.sched.plans[i];
                    (!pl.global && pl.footprint_len > 0 && !matches!(plans[j], RepairPlan::Noop))
                        .then_some(pl.owner)
                })
                .collect();
            let (mut remote, exp_remote, cap_remote) = if shipped.iter().any(Option::is_some) {
                loop {
                    // Encoded per attempt: a recovery re-INITs every
                    // worker, emptying their topology caches, so a retry
                    // must re-ship every row.
                    let frames = self
                        .build_wave_frames(&staged, &idxs, &plans, &shipped, eager_k, ecap, radius);
                    match self.exchange_wave(&frames, &shipped) {
                        Ok(folded) => break folded,
                        Err(e) => self.recover_or_quarantine(e)?,
                    }
                }
            } else {
                ((0..idxs.len()).map(|_| None).collect(), 0, 0)
            };
            for j in 0..idxs.len() {
                let out = match remote.get_mut(j).and_then(|o| o.take()) {
                    Some(r) => {
                        let lefts: Vec<(LeftId, Option<RightId>)> = r
                            .lefts
                            .iter()
                            .map(|&(u, m)| (u, (m != UNMATCHED).then_some(m)))
                            .collect();
                        for &(u, m) in &r.lefts {
                            let ui = u as usize;
                            if ui >= self.synced_mate.len() {
                                self.synced_mate.resize(ui + 1, NEVER_SYNCED);
                            }
                            self.synced_mate[ui] = m;
                        }
                        for (v, list) in &r.rights {
                            self.synced_matched[*v as usize] = list.clone();
                        }
                        self.inner.serial_mut().replay_rows(&lefts, r.rights);
                        RepairOutcome {
                            size_delta: r.size_delta,
                            augmentations: r.augmentations as usize,
                            evictions: r.evictions as usize,
                            dirty: r.dirty,
                        }
                    }
                    None => self.inner.serial_mut().run_plan_local(&plans[j]),
                };
                results[j].touched.extend_from_slice(&out.dirty);
                self.inner.serial_mut().absorb_outcome(out);
            }
            self.inner
                .serial_mut()
                .absorb_search_counters(exp_remote, cap_remote);
            self.inner.serial_mut().wave_observe(exp0, cap0);
            spw.set_words(self.inner.finish_wave(&mut staged, wave, &results));
            spw.close(self.inner.obs_mut());
        }
        Ok(self.inner.finish_batch(staged)?)
    }

    /// Encode one wave's `WAVE` frame per worker: each shipped plan's
    /// args; its footprint right ids and left ids (the footprint's
    /// neighbors); full rows — right capacities and adjacency on both
    /// sides, straight from the live graph — only for the ids the
    /// worker's [`TopoRecord`] lacks; and the *state overrides* — rows in
    /// the plan's id set where the coordinator's engine has moved past
    /// the worker slices (fresh arrivals, rows a locally-run plan changed
    /// mid-batch). Workers treat overrides as already-loaded rows, so
    /// nothing here is ever re-fetched over a `HANDOFF` link.
    #[allow(clippy::too_many_arguments)]
    fn build_wave_frames(
        &mut self,
        staged: &StagedBatch,
        idxs: &[usize],
        plans: &[RepairPlan],
        shipped: &[Option<usize>],
        eager_k: u64,
        ecap: u64,
        radius: u64,
    ) -> Vec<Vec<u8>> {
        let p = self.mesh.workers();
        let NetServeLoop {
            inner,
            synced_mate,
            synced_matched,
            stats,
            topo,
            wave_lefts: seen,
            ..
        } = self;
        let dg = inner.serial().graph();
        let matching = inner.serial().matching();
        let mate_now = matching.mate_slice();
        let matched_now = matching.matched_at_slice();
        let mut bodies: Vec<ByteWriter> = (0..p).map(|_| ByteWriter::new()).collect();
        let mut counts = vec![0u64; p];
        let mut lefts: Vec<u32> = Vec::new();
        let mut row: Vec<u32> = Vec::new();
        let (mut ship_r, mut ship_l): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
        seen.grow(dg.n_left());
        for (j, &i) in idxs.iter().enumerate() {
            let Some(owner) = shipped[j] else { continue };
            counts[owner] += 1;
            let w = &mut bodies[owner];
            w.put_u32(j as u32);
            encode_plan(w, &plans[j]);
            let foot = staged.sched.footprint(i);
            lefts.clear();
            seen.clear();
            // Plan-argument lefts first: a departed left has no live
            // edges, so collecting the footprint's neighborhoods alone
            // would miss it (its mate pointer is how the walk enters).
            if let RepairPlan::Place { u }
            | RepairPlan::Release { u }
            | RepairPlan::Rematch { u, .. } = plans[j]
            {
                if seen.insert(u as usize) {
                    lefts.push(u);
                }
            }
            for &v in foot {
                dg.for_each_right_neighbor(v, |u| {
                    if seen.insert(u as usize) {
                        lefts.push(u);
                    }
                });
            }
            put_ids(w, foot.iter().copied());
            put_ids(w, lefts.iter().copied());
            ship_r.clear();
            for &v in foot {
                let ship = TopoRecord::ship(&mut topo.rights, owner, v);
                topo.audit(owner, (true, v), ship, || {
                    let mut row = vec![dg.capacity(v)];
                    dg.for_each_right_neighbor(v, |u| row.push(u.into()));
                    row
                });
                if ship {
                    ship_r.push(v);
                }
            }
            ship_l.clear();
            for &u in &lefts {
                let ship = TopoRecord::ship(&mut topo.lefts, owner, u);
                topo.audit(owner, (false, u), ship, || {
                    dg.left_neighbors_iter(u).map(u64::from).collect()
                });
                if ship {
                    ship_l.push(u);
                }
            }
            stats.topology_rows_shipped += (ship_r.len() + ship_l.len()) as u64;
            w.put_u64(ship_r.len() as u64);
            for &v in &ship_r {
                w.put_u32(v);
                w.put_u64(dg.capacity(v));
                row.clear();
                dg.for_each_right_neighbor(v, |u| row.push(u));
                put_ids(w, row.iter().copied());
            }
            w.put_u64(ship_l.len() as u64);
            for &u in &ship_l {
                w.put_u32(u);
                row.clear();
                dg.for_each_left_neighbor(u, |v| row.push(v));
                put_ids(w, row.iter().copied());
            }
            let mut or_l: Vec<(u32, u32)> = Vec::new();
            for &u in &lefts {
                let now = mate_now
                    .get(u as usize)
                    .copied()
                    .flatten()
                    .map_or(UNMATCHED, |v| v);
                if synced_mate.get(u as usize).copied() != Some(now) {
                    or_l.push((u, now));
                }
            }
            let mut or_r: Vec<(u32, Vec<u32>)> = Vec::new();
            for &v in foot {
                let now = &matched_now[v as usize];
                if synced_matched.get(v as usize) != Some(now) {
                    or_r.push((v, now.clone()));
                }
            }
            put_left_rows(w, &or_l);
            put_right_rows(w, &or_r);
        }
        bodies
            .into_iter()
            .enumerate()
            .map(|(w, body)| {
                let mut h = ByteWriter::new();
                h.put_u64(eager_k);
                h.put_u64(ecap);
                h.put_u64(radius);
                h.put_u64(counts[w]);
                let mut bytes = h.into_bytes();
                bytes.extend_from_slice(&body.into_bytes());
                bytes
            })
            .collect()
    }

    /// One wave's wire round-trip: dispatch every worker's `WAVE` frame
    /// (all workers get one — an empty frame is the wave barrier), then
    /// collect and validate the acks. Returns the per-plan outcomes in
    /// wave-slot order plus the summed remote search counters. Spoke
    /// traffic is metered under [`Phase::NetWave`]; the
    /// worker-reported peer traffic under [`Phase::NetHandoff`].
    #[allow(clippy::type_complexity)]
    fn exchange_wave(
        &mut self,
        frames: &[Vec<u8>],
        shipped: &[Option<usize>],
    ) -> Result<(Vec<Option<RemotePlanOutcome>>, u64, u64), NetError> {
        let epoch = self.epoch();
        let p = self.mesh.workers();
        let open = self.open_wire(Phase::NetWave, epoch);
        for (w, frame) in frames.iter().enumerate() {
            self.send(w, PH_WAVE, epoch, frame)?;
        }
        let n_left = self.inner.serial().graph().n_left() as u32;
        let n_right = self.inner.serial().graph().n_right() as u32;
        let mut out: Vec<Option<RemotePlanOutcome>> = (0..shipped.len()).map(|_| None).collect();
        let (mut exp, mut caps) = (0u64, 0u64);
        let (mut hframes, mut hbytes, mut hrounds, mut hmax_worker) = (0u64, 0u64, 0u64, 0u64);
        for w in 0..p {
            let payload = self.expect(w, PH_WAVE_ACK, epoch)?;
            let mut r = ByteReader::new(&payload);
            let n = r.take_len(8).map_err(|e| self.payload_err(w, e))?;
            for _ in 0..n {
                let j = r.take_u32().map_err(|e| self.payload_err(w, e))? as usize;
                if shipped.get(j).copied().flatten() != Some(w) {
                    return Err(NetError::Protocol {
                        shard: w as u32,
                        detail: format!("wave ack claims plan {j}, which this worker does not own"),
                    });
                }
                if out[j].is_some() {
                    return Err(NetError::Protocol {
                        shard: w as u32,
                        detail: format!("plan {j} acked twice"),
                    });
                }
                let size_delta = r.take_i64().map_err(|e| self.payload_err(w, e))?;
                let augmentations = r.take_u64().map_err(|e| self.payload_err(w, e))?;
                let evictions = r.take_u64().map_err(|e| self.payload_err(w, e))?;
                let nd = r.take_len(4).map_err(|e| self.payload_err(w, e))?;
                let mut dirty = Vec::with_capacity(nd);
                for _ in 0..nd {
                    let v = r.take_u32().map_err(|e| self.payload_err(w, e))?;
                    if v >= n_right {
                        return Err(NetError::Protocol {
                            shard: w as u32,
                            detail: format!("wave ack dirties unknown right {v}"),
                        });
                    }
                    dirty.push(v);
                }
                let lefts = take_left_rows(&mut r).map_err(|e| self.payload_err(w, e))?;
                let rights = take_right_rows(&mut r).map_err(|e| self.payload_err(w, e))?;
                for &(u, m) in &lefts {
                    if u >= n_left || (m != UNMATCHED && m >= n_right) {
                        return Err(NetError::Protocol {
                            shard: w as u32,
                            detail: format!("wave ack rewrites unknown row ({u}, {m})"),
                        });
                    }
                }
                for (v, list) in &rights {
                    if *v >= n_right || list.iter().any(|&u| u >= n_left) {
                        return Err(NetError::Protocol {
                            shard: w as u32,
                            detail: format!("wave ack rewrites unknown right {v}"),
                        });
                    }
                }
                let rounds = r.take_u64().map_err(|e| self.payload_err(w, e))?;
                hrounds = hrounds.max(rounds);
                out[j] = Some(RemotePlanOutcome {
                    size_delta,
                    augmentations,
                    evictions,
                    dirty,
                    lefts,
                    rights,
                });
            }
            exp += r.take_u64().map_err(|e| self.payload_err(w, e))?;
            caps += r.take_u64().map_err(|e| self.payload_err(w, e))?;
            let pf = r.take_u64().map_err(|e| self.payload_err(w, e))?;
            let pb = r.take_u64().map_err(|e| self.payload_err(w, e))?;
            let mr = r.take_u64().map_err(|e| self.payload_err(w, e))?;
            r.expect_end().map_err(|e| self.payload_err(w, e))?;
            hframes += pf;
            hbytes += pb;
            hrounds = hrounds.max(mr);
            hmax_worker = hmax_worker.max(pb);
        }
        for (j, s) in shipped.iter().enumerate() {
            if let Some(w) = s {
                if out[j].is_none() {
                    return Err(NetError::Protocol {
                        shard: *w as u32,
                        detail: format!("wave ack missing plan {j}"),
                    });
                }
            }
        }
        self.close_wire(open);
        self.stats.handoff_frames += hframes;
        self.stats.handoff_bytes += hbytes;
        self.stats.max_handoff_rounds = self.stats.max_handoff_rounds.max(hrounds);
        if hbytes > 0 {
            // The worker↔worker traffic never crosses the coordinator:
            // it is metered from the workers' own counters, reported on
            // the acks.
            let phase = Phase::NetHandoff;
            let mut hsp = self.tracer.span(phase, epoch);
            let hwords = hbytes.div_ceil(8);
            self.inner.ledger_mut().record(RoundRecord {
                words_moved: hwords,
                max_sent: hmax_worker.div_ceil(8) as usize,
                max_received: hmax_worker.div_ceil(8) as usize,
                max_storage: 0,
                total_storage: 0,
                label: phase.label(),
            });
            hsp.set_words(hwords);
            hsp.close(self.inner.obs_mut());
        }
        Ok((out, exp, caps))
    }

    /// The route exchange of [`Self::apply_batch`]: scatter the batch to
    /// the anchor owners, collect the echoes, and hand back the wire
    /// copies in batch order. Touches no engine state — safe to retry
    /// wholesale after a recovery.
    fn route_batch(&mut self, updates: &[Update]) -> Result<Vec<Update>, NetError> {
        let epoch = self.epoch();
        let p = self.mesh.workers();
        let map = *self.inner.shard_map();
        let open = self.open_wire(Phase::NetRoute, epoch);

        let mut groups: Vec<Vec<(u32, &Update)>> = vec![Vec::new(); p];
        for (i, up) in updates.iter().enumerate() {
            groups[anchor_owner(&map, up)].push((i as u32, up));
        }
        for (w, group) in groups.iter().enumerate() {
            let mut wtr = ByteWriter::new();
            wtr.put_u64(group.len() as u64);
            for &(i, up) in group {
                put_update(&mut wtr, i, up);
            }
            self.send(w, PH_ROUTE, epoch, &wtr.into_bytes())?;
        }

        let mut wire: Vec<Option<Update>> = vec![None; updates.len()];
        for w in 0..p {
            let payload = self.expect(w, PH_ROUTE_ACK, epoch)?;
            let mut r = ByteReader::new(&payload);
            let n = r.take_u64().map_err(|e| self.payload_err(w, e))?;
            for _ in 0..n {
                let (i, up) = take_update(&mut r).map_err(|e| self.payload_err(w, e))?;
                let slot = wire.get_mut(i as usize).ok_or_else(|| NetError::Protocol {
                    shard: w as u32,
                    detail: format!("echoed update index {i} out of range"),
                })?;
                if slot.replace(up).is_some() {
                    return Err(NetError::Protocol {
                        shard: w as u32,
                        detail: format!("update {i} echoed twice"),
                    });
                }
            }
            r.expect_end().map_err(|e| self.payload_err(w, e))?;
        }
        let wire: Vec<Update> = wire
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.ok_or_else(|| NetError::Protocol {
                    shard: u32::MAX,
                    detail: format!("update {i} never came back from its worker"),
                })
            })
            .collect::<Result<_, _>>()?;
        self.close_wire(open);
        Ok(wire)
    }

    /// Close the epoch: run the simulated engine's sweep phases, commit
    /// the state deltas, and cross-check every worker's census (slice
    /// sizes, resident words, FNV checksums) against the coordinator's
    /// mirror. Wire faults recover like [`Self::apply_batch`]: the
    /// engine's own sweep runs exactly once (locally, first), and the
    /// wire tail is retried after respawn + re-INIT.
    pub fn end_epoch(&mut self) -> Result<NetEpochReport, NetError> {
        self.check_quarantine()?;
        // The closing epoch's stamp, taken before the engine's sweep
        // advances the epoch counter.
        let epoch = self.epoch();
        let report = self.inner.end_epoch()?;
        let rep = loop {
            match self.close_epoch_wire(&report, epoch) {
                Ok(rep) => break rep,
                Err(e) => self.recover_or_quarantine(e)?,
            }
        };
        Ok(rep)
    }

    /// The wire tail of [`Self::end_epoch`]: delta commit, then census
    /// cross-check. The commit diffs against the synced mirror, so after
    /// a recovery's re-INIT (which syncs the mirror to the full current
    /// state) a retry commits nothing twice.
    fn close_epoch_wire(
        &mut self,
        report: &ShardedEpochReport,
        epoch: u64,
    ) -> Result<NetEpochReport, NetError> {
        self.commit_deltas(epoch)?;

        let open = self.open_wire(Phase::NetCensus, epoch);
        let expected = self.expected_census();
        for w in 0..expected.len() {
            self.send(w, PH_CENSUS, epoch, &[])?;
        }
        let mut cache_words = 0u64;
        for (w, want) in expected.iter().enumerate() {
            let payload = self.expect(w, PH_CENSUS_ACK, epoch)?;
            let mut r = ByteReader::new(&payload);
            let mut take = || r.take_u64().map_err(|e| self.payload_err(w, e));
            let got = [take()?, take()?, take()?, take()?, take()?];
            if let Some(k) = (0..CENSUS_FIELDS.len()).find(|&k| got[k] != want[k]) {
                return Err(NetError::Protocol {
                    shard: w as u32,
                    detail: format!(
                        "census {} diverged: worker {}, coordinator {}",
                        CENSUS_FIELDS[k], got[k], want[k]
                    ),
                });
            }
            cache_words += take()?;
            r.expect_end().map_err(|e| self.payload_err(w, e))?;
        }
        self.stats.topology_cache_words = cache_words;
        self.close_wire(open);

        let (bytes_now, frames_now) = self.wire_totals();
        let rep = NetEpochReport {
            inner: report.clone(),
            wire_bytes: bytes_now.saturating_sub(self.epoch_mark.0),
            wire_frames: frames_now.saturating_sub(self.epoch_mark.1),
        };
        self.epoch_mark = (bytes_now, frames_now);
        Ok(rep)
    }

    /// Reassemble the full allocation **from the worker slices over the
    /// wire** — the proof that the slices are authoritative. Every left
    /// vertex must be reported exactly once by exactly its owner; the
    /// result is what the equivalence proptests compare against serial.
    pub fn gather_assignment(&mut self) -> Result<Assignment, NetError> {
        self.check_quarantine()?;
        loop {
            match self.gather_once() {
                Ok(a) => return Ok(a),
                Err(e) => self.recover_or_quarantine(e)?,
            }
        }
    }

    /// One attempt at the gather exchange — read-only on both sides, so
    /// a retry after recovery is trivially safe.
    fn gather_once(&mut self) -> Result<Assignment, NetError> {
        let epoch = self.epoch();
        let open = self.open_wire(Phase::NetGather, epoch);
        let p = self.mesh.workers();
        let map = *self.inner.shard_map();
        let n_left = self.synced_mate.len();
        for w in 0..p {
            self.send(w, PH_GATHER, epoch, &[])?;
        }
        let mut mate: Vec<Option<u32>> = vec![None; n_left];
        let mut seen = vec![false; n_left];
        for w in 0..p {
            let payload = self.expect(w, PH_GATHER_ACK, epoch)?;
            let mut r = ByteReader::new(&payload);
            let n = r.take_len(8).map_err(|e| self.payload_err(w, e))?;
            for _ in 0..n {
                let u = r.take_u32().map_err(|e| self.payload_err(w, e))?;
                let m = r.take_u32().map_err(|e| self.payload_err(w, e))?;
                let protocol = |detail: String| NetError::Protocol {
                    shard: w as u32,
                    detail,
                };
                if u as usize >= n_left {
                    return Err(protocol(format!("gathered left {u} out of range")));
                }
                if map.owner_of_left(u) != w {
                    return Err(protocol(format!("worker {w} reported unowned left {u}")));
                }
                if std::mem::replace(&mut seen[u as usize], true) {
                    return Err(protocol(format!("left {u} gathered twice")));
                }
                mate[u as usize] = if m == UNMATCHED { None } else { Some(m) };
            }
            r.expect_end().map_err(|e| self.payload_err(w, e))?;
        }
        if let Some(u) = seen.iter().position(|&s| !s) {
            return Err(NetError::Protocol {
                shard: u32::MAX,
                detail: format!("left {u} was gathered by no worker"),
            });
        }
        self.close_wire(open);
        Ok(Assignment { mate })
    }

    // -------------------------------------------------------- queries

    /// The current match of left vertex `u` (coordinator mirror;
    /// [`NetServeLoop::gather_assignment`] asks the workers). `O(1)`.
    #[inline]
    pub fn query(&self, u: LeftId) -> Option<RightId> {
        self.inner.query(u)
    }

    /// Current matching cardinality. `O(1)`.
    #[inline]
    pub fn match_size(&self) -> usize {
        self.inner.match_size()
    }

    /// Number of shard workers.
    pub fn shards(&self) -> usize {
        self.mesh.workers()
    }

    /// Which wire the mesh runs on.
    pub fn transport(&self) -> TransportKind {
        self.kind
    }

    /// The underlying simulated engine (its ledger carries both the
    /// simulated word rounds and the measured `net_*` wire rounds).
    pub fn serial(&self) -> &ServeLoop {
        self.inner.serial()
    }

    /// The accumulated accounting: simulated phases plus measured
    /// `net_*` wire phases.
    pub fn ledger(&self) -> &Ledger {
        self.inner.ledger()
    }

    /// Measured wire traffic counters.
    pub fn net_stats(&self) -> NetStats {
        let (bytes_sent, bytes_received) = self.mesh.bytes_moved();
        let (frames_sent, frames_received) = self.mesh.frames_moved();
        NetStats {
            bytes_sent,
            bytes_received,
            frames_sent,
            frames_received,
            ..self.stats
        }
    }

    /// The simulated engine underneath (sharding counters, space
    /// budget, snapshot access).
    pub fn inner(&self) -> &ShardedServeLoop {
        &self.inner
    }

    /// The stack's metrics registry (one per engine stack, shared with
    /// the simulated and serial layers underneath).
    pub fn obs(&self) -> &Registry {
        self.inner.obs()
    }

    /// Mutable access to the metrics registry (see [`Self::obs`]).
    pub fn obs_mut(&mut self) -> &mut Registry {
        self.inner.obs_mut()
    }

    /// Install a phase tracer on the whole stack, including the `net_*`
    /// wire phases.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Per-peer wire counters as the mesh counted them — the source the
    /// e21 wire report and `salloc report` read.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.mesh.metrics_snapshot()
    }

    /// The flight-recorder dump of the most recent wire failure: which
    /// protocol exchange failed, with which worker, and every peer's
    /// recent frame history. `None` until a failure happens.
    pub fn flight_dump(&self) -> Option<&str> {
        self.last_flight_dump.as_deref()
    }

    /// Full consistency check of the engine state (tests/debugging).
    pub fn validate(&self) -> Result<(), String> {
        self.inner.validate()
    }

    /// Arm `fault` on the channel to worker `shard`: the next frame the
    /// coordinator sends there is corrupted in transit. The failure
    /// surfaces as a typed [`NetError`] on the operation that trips it.
    pub fn inject_fault(&mut self, shard: usize, fault: Fault) {
        self.mesh.peer_mut(shard).inject(fault);
    }

    /// Arm `fault` on the worker↔worker link **from** shard `from`
    /// **to** shard `to` — the p2p counterpart of
    /// [`Self::inject_fault`], delivered over the spoke as an `ARM`
    /// frame so the fault lands on the worker's own end of the peer
    /// link (the coordinator holds no end of it). Fails on a star mesh.
    pub fn inject_peer_fault(
        &mut self,
        from: usize,
        to: usize,
        fault: Fault,
    ) -> Result<(), NetError> {
        if !self.p2p {
            return Err(NetError::Protocol {
                shard: from as u32,
                detail: "peer faults need a p2p mesh (NetServeLoop::new_p2p)".into(),
            });
        }
        let mut w = ByteWriter::new();
        w.put_u32(0);
        w.put_u32(to as u32);
        fault.encode(&mut w);
        let epoch = self.epoch();
        self.send(from, PH_ARM, epoch, &w.into_bytes())?;
        let payload = self.expect(from, PH_ARM_ACK, epoch)?;
        let r = ByteReader::new(&payload);
        r.expect_end().map_err(|e| self.payload_err(from, e))?;
        Ok(())
    }

    /// Override how long p2p workers wait on a peer's `HANDOFF`/`FLIP`
    /// reply before NACKing (tests shrink this so a dropped peer frame
    /// surfaces as the typed handoff timeout fast). Remembered and
    /// re-broadcast after every mesh rebuild.
    pub fn set_handoff_timeout(&mut self, timeout: Duration) -> Result<(), NetError> {
        if !self.p2p {
            return Err(NetError::Protocol {
                shard: u32::MAX,
                detail: "the handoff deadline only exists on a p2p mesh".into(),
            });
        }
        self.handoff_timeout = Some(timeout);
        self.broadcast_handoff_timeout(timeout)
    }

    fn broadcast_handoff_timeout(&mut self, timeout: Duration) -> Result<(), NetError> {
        let epoch = self.epoch();
        let mut w = ByteWriter::new();
        w.put_u32(1);
        w.put_u64(timeout.as_micros() as u64);
        let frame = w.into_bytes();
        for s in 0..self.mesh.workers() {
            self.send(s, PH_ARM, epoch, &frame)?;
        }
        for s in 0..self.mesh.workers() {
            let payload = self.expect(s, PH_ARM_ACK, epoch)?;
            let r = ByteReader::new(&payload);
            r.expect_end().map_err(|e| self.payload_err(s, e))?;
        }
        Ok(())
    }

    /// Whether this engine runs peer-to-peer repair waves.
    pub fn is_p2p(&self) -> bool {
        self.p2p
    }

    /// Arm `fault` to be re-injected on the fresh channel every time
    /// worker `shard` is respawned — a persistently faulty slot, so
    /// tests can exhaust the supervisor's respawn budget (recovery
    /// itself keeps failing) and assert the quarantine path.
    pub fn arm_fault_on_respawn(&mut self, shard: usize, fault: Fault) {
        self.mesh.arm_on_respawn(shard, fault);
    }

    /// Cap how long coordinator receives wait (tests shrink this so
    /// stalled-channel faults surface fast).
    ///
    /// # Errors
    ///
    /// [`NetError::Transport`] if a channel's socket rejects the new
    /// timeout — a channel silently left on an unbounded read could hang
    /// the lockstep protocol forever on a dropped frame.
    pub fn set_recv_timeout(&mut self, timeout: Duration) -> Result<(), NetError> {
        self.mesh.set_recv_timeout(timeout)?;
        Ok(())
    }

    /// Orderly shutdown: best-effort SHUTDOWN to every worker (dead
    /// channels are ignored) and receives capped by a short timeout. A
    /// worker that acked returns right after sending the ack, so it is
    /// joined; any other is detached rather than allowed to hang the
    /// coordinator's exit. Runs on [`Drop`], so even a quarantined engine
    /// tears down promptly.
    pub fn shutdown(&mut self) {
        let _ = self.mesh.set_recv_timeout(Duration::from_millis(250));
        for w in 0..self.mesh.workers() {
            let _ = self.mesh.send_to(w, PH_SHUTDOWN, self.epoch(), &[]);
        }
        for (w, h) in self.workers.drain(..).enumerate() {
            if matches!(self.mesh.recv_from(w), Ok(f) if f.phase == PH_SHUTDOWN_ACK) {
                let _ = h.join();
            }
        }
    }
}

impl Drop for NetServeLoop {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{churn_stream, ChurnMix};
    use crate::serve::ServeLoop;
    use crate::wal::WalWriter;
    use crate::Engine;
    use sparse_alloc_graph::generators::union_of_spanning_trees;

    fn drive(kind: TransportKind, shards: usize, seed: u64) -> (NetServeLoop, ServeLoop) {
        let g = union_of_spanning_trees(60, 45, 2, 2, seed).graph;
        let updates = churn_stream(&g, 90, &ChurnMix::default(), seed);
        let cfg = ShardedConfig::for_eps(0.25, shards);
        let dynamic = cfg.dynamic.clone();
        let mut net = NetServeLoop::new(g.clone(), cfg, kind).unwrap();
        let mut serial = ServeLoop::new(g, dynamic);
        for chunk in updates.chunks(30) {
            net.apply_batch(chunk).unwrap();
            net.end_epoch().unwrap();
            for up in chunk {
                serial.apply(up);
            }
            serial.end_epoch();
        }
        (net, serial)
    }

    #[test]
    fn loopback_gathered_assignment_equals_serial() {
        for shards in [1usize, 3, 4] {
            let (mut net, serial) = drive(TransportKind::Loopback, shards, 7 + shards as u64);
            net.validate().unwrap();
            let gathered = net.gather_assignment().unwrap();
            assert_eq!(
                gathered.mate,
                serial.assignment().mate,
                "{shards} shards diverged from serial over loopback"
            );
            assert_eq!(gathered.mate, net.inner().assignment().mate);
        }
    }

    #[test]
    fn tcp_gathered_assignment_equals_serial() {
        let (mut net, serial) = drive(TransportKind::Tcp, 3, 11);
        let gathered = net.gather_assignment().unwrap();
        assert_eq!(gathered.mate, serial.assignment().mate);
    }

    #[test]
    fn wire_phases_land_on_the_ledger() {
        let (net, _) = drive(TransportKind::Loopback, 3, 13);
        let l = net.ledger();
        assert!(l.rounds_labeled(Phase::NetInit.label()) >= 1);
        assert!(l.rounds_labeled(Phase::NetRoute.label()) >= 1);
        assert!(l.rounds_labeled(Phase::NetCommit.label()) >= 1);
        assert!(l.rounds_labeled(Phase::NetCensus.label()) >= 1);
        let s = net.net_stats();
        assert!(s.bytes_sent > 0 && s.bytes_received > 0);
        assert!(s.route_bytes > 0 && s.commit_bytes > 0 && s.census_bytes > 0);
        assert!(s.init_bytes > 0);
        assert_eq!(s.frames_sent, s.frames_received, "lockstep star protocol");
    }

    #[test]
    fn epoch_report_carries_wire_bytes() {
        let g = union_of_spanning_trees(40, 30, 2, 2, 5).graph;
        let updates = churn_stream(&g, 30, &ChurnMix::default(), 5);
        let mut net =
            NetServeLoop::new(g, ShardedConfig::for_eps(0.25, 2), TransportKind::Loopback).unwrap();
        net.apply_batch(&updates).unwrap();
        let rep = net.end_epoch().unwrap();
        assert!(rep.wire_bytes > 0, "an epoch moves real bytes");
        assert_eq!(
            rep.wire_frames, 16,
            "ROUTE, COMMIT, COMMIT and CENSUS round trips × 2 workers"
        );
    }

    #[test]
    fn a_supervised_engine_recovers_from_a_mid_stream_fault() {
        let g = union_of_spanning_trees(60, 45, 2, 2, 21).graph;
        let updates = churn_stream(&g, 90, &ChurnMix::default(), 21);
        let cfg = ShardedConfig::for_eps(0.25, 3);
        let dynamic = cfg.dynamic.clone();
        let mut net = NetServeLoop::new(g.clone(), cfg, TransportKind::Loopback).unwrap();
        net.set_supervisor(SupervisorConfig {
            max_respawns: 4,
            retry_budget: 1,
        });
        let mut serial = ServeLoop::new(g, dynamic);
        for (i, chunk) in updates.chunks(30).enumerate() {
            if i == 1 {
                net.inject_fault(1, Fault::FlipBit { bit: 200 });
            }
            net.apply_batch(chunk).unwrap();
            net.end_epoch().unwrap();
            for up in chunk {
                serial.apply(up);
            }
            serial.end_epoch();
        }
        let stats = net.net_stats();
        assert!(stats.respawns >= 1, "the fault must have cost a respawn");
        assert!(stats.replayed_bytes > 0, "re-INIT traffic is metered");
        assert!(stats.recovery_ns > 0, "recovery wall time is metered");
        assert!(net.ledger().rounds_labeled(Phase::NetRecover.label()) >= 1);
        assert!(net.quarantine_reason().is_none());
        let gathered = net.gather_assignment().unwrap();
        assert_eq!(
            gathered.mate,
            serial.assignment().mate,
            "a recovered run must equal the uninterrupted serial run"
        );
        net.validate().unwrap();
    }

    #[test]
    fn transient_timeouts_are_retried_before_respawning() {
        let g = union_of_spanning_trees(40, 30, 2, 2, 23).graph;
        let updates = churn_stream(&g, 30, &ChurnMix::default(), 23);
        let mut net =
            NetServeLoop::new(g, ShardedConfig::for_eps(0.25, 2), TransportKind::Loopback).unwrap();
        net.set_recv_timeout(Duration::from_millis(40)).unwrap();
        net.set_supervisor(SupervisorConfig {
            max_respawns: 2,
            retry_budget: 1,
        });
        // Reorder holds the next outbound frame hostage: the worker never
        // hears the request, so the coordinator's recv times out — a
        // transient error that retries, then escalates to a respawn
        // (which discards the held frame with the old channel).
        net.inject_fault(1, Fault::Reorder);
        net.apply_batch(&updates).unwrap();
        net.end_epoch().unwrap();
        let stats = net.net_stats();
        assert!(stats.retries >= 1, "timeouts retry before escalating");
        assert!(stats.respawns >= 1, "a held frame is not retryable");
        net.validate().unwrap();
    }

    #[test]
    fn the_default_supervisor_fails_fast_into_read_only_quarantine() {
        let (mut net, _serial) = drive(TransportKind::Loopback, 2, 25);
        let size_before = net.match_size();
        net.inject_fault(1, Fault::Drop);
        let batch = vec![Update::InsertEdge { u: 0, v: 0 }];
        let err = net.apply_batch(&batch).unwrap_err();
        assert!(
            !matches!(err, NetError::Quarantined { .. }),
            "the first failure surfaces the original fault, got: {err}"
        );
        assert!(net.quarantine_reason().is_some());
        // Every further mutation is refused with the typed variant …
        assert!(matches!(
            net.apply_batch(&batch),
            Err(NetError::Quarantined { .. })
        ));
        assert!(matches!(net.end_epoch(), Err(NetError::Quarantined { .. })));
        assert!(matches!(
            net.gather_assignment(),
            Err(NetError::Quarantined { .. })
        ));
        // … while reads keep answering from the coordinator mirror.
        assert_eq!(net.match_size(), size_before);
        let _ = net.query(0);
        net.validate().unwrap();
    }

    /// A restored engine resumes its epoch stamps where the snapshot
    /// left off: its log records carry the right epochs, so base + log
    /// replay reconstructs the engine after a restore too.
    #[test]
    fn a_restored_engine_logs_under_its_resumed_epoch() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let base_path = dir.join(format!("salloc-net-resumed-base-{pid}.bin"));
        let wal_path = dir.join(format!("salloc-net-resumed-wal-{pid}.log"));

        let g = union_of_spanning_trees(50, 40, 2, 2, 27).graph;
        let updates = churn_stream(&g, 60, &ChurnMix::default(), 27);
        let chunks: Vec<_> = updates.chunks(15).collect();
        let mut net =
            NetServeLoop::new(g, ShardedConfig::for_eps(0.25, 2), TransportKind::Loopback).unwrap();
        for chunk in &chunks[..2] {
            net.apply_batch(chunk).unwrap();
            net.end_epoch().unwrap();
        }
        net.checkpoint(&base_path, None).unwrap();
        drop(net);

        let mut net = NetServeLoop::restore(&base_path, None, TransportKind::Loopback).unwrap();
        let mut wal = WalWriter::create(&wal_path).unwrap();
        for chunk in &chunks[2..4] {
            net.run_epoch(chunk, Some(&mut wal)).unwrap();
        }
        let live = net.gather_assignment().unwrap();
        drop(net);

        let log = crate::wal::read_wal_file(&wal_path).unwrap();
        let stamps: Vec<u64> = log.records.iter().map(|r| r.epoch()).collect();
        assert_eq!(stamps, [2, 2, 3, 3], "records carry the resumed epochs");
        let mut rec = crate::snapshot::load_sharded(&base_path, None).unwrap();
        let stats = crate::wal::replay(&mut rec, &log.records[log.tail_start()..]).unwrap();
        assert_eq!(stats.epochs, 2);
        assert_eq!(
            rec.assignment().mate,
            live.mate,
            "base + log replay must reconstruct the restored engine"
        );
        for p in [&wal_path, &base_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    /// Crash recovery on every engine: a WAL through `run_epoch`, a
    /// base, the crash, then base + log tail — and the recovered engine
    /// equals the crashed one in mates, levels, epochs and match size.
    #[test]
    fn wal_plus_base_checkpoint_recovers_the_engine_verbatim() {
        let g = union_of_spanning_trees(50, 40, 2, 2, 27).graph;
        let cfg = ShardedConfig::for_eps(0.25, 2);
        let sharded = || ShardedServeLoop::new(g.clone(), cfg.clone()).unwrap();
        let load = |p: &Path| crate::snapshot::load_sharded(p, None).unwrap();
        recovers_from_base_and_tail(
            "serial",
            ServeLoop::new(g.clone(), cfg.dynamic.clone()),
            |p| crate::snapshot::load_serial(p).unwrap(),
        );
        recovers_from_base_and_tail("sharded", sharded(), load);
        let p2p = NetServeLoop::from_inner_p2p(sharded(), TransportKind::Loopback).unwrap();
        recovers_from_base_and_tail("p2p", p2p, load);
    }

    fn recovers_from_base_and_tail<E: Engine, R: Engine>(
        leg: &str,
        mut live: E,
        restore: impl FnOnce(&Path) -> R,
    ) {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let [wal_path, base_path] =
            ["wal.log", "base.bin"].map(|f| dir.join(format!("salloc-{leg}-{pid}-{f}")));

        let g = live.serial().snapshot();
        let updates = churn_stream(&g, 60, &ChurnMix::default(), 27);
        let mut wal = WalWriter::create(&wal_path).unwrap();
        let chunks: Vec<_> = updates.chunks(15).collect();
        for chunk in &chunks[..2] {
            live.run_epoch(chunk, Some(&mut wal)).unwrap();
        }
        live.checkpoint(&base_path, Some(&mut wal)).unwrap();
        for chunk in &chunks[2..] {
            live.run_epoch(chunk, Some(&mut wal)).unwrap();
        }
        assert!(wal.bytes_appended() > 0);
        assert_eq!(live.obs().counter(Counter::WalBytes), wal.bytes_appended());
        let crashed = live.serial();
        let (levels, epochs, size) = (
            crashed.levels().to_vec(),
            crashed.stats().epochs,
            crashed.match_size(),
        );
        let live = live.served().unwrap();

        // Crash. Recovery = last base snapshot + WAL tail replay.
        let mut rec = restore(&base_path);
        let replay = crate::wal::read_wal_file(&wal_path).unwrap();
        assert!(!replay.torn, "{leg}: a clean shutdown leaves no torn tail");
        let stats = crate::wal::replay(&mut rec, &replay.records[replay.tail_start()..]).unwrap();
        assert!(
            stats.batches >= 2,
            "{leg}: the tail holds the post-base epochs"
        );
        assert_eq!(
            rec.served().unwrap().mate,
            live.mate,
            "{leg}: base + tail replay must reconstruct the crashed engine"
        );
        let recovered = rec.serial();
        assert_eq!(recovered.levels(), &levels[..], "{leg}: β-levels");
        assert_eq!(recovered.stats().epochs, epochs, "{leg}: epochs");
        assert_eq!(recovered.match_size(), size, "{leg}: match size");

        for p in [&wal_path, &base_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    // ------------------------------------------------------ p2p waves

    fn drive_p2p(kind: TransportKind, shards: usize, seed: u64) -> (NetServeLoop, ServeLoop) {
        let g = union_of_spanning_trees(60, 45, 2, 2, seed).graph;
        let updates = churn_stream(&g, 90, &ChurnMix::default(), seed);
        let cfg = ShardedConfig::for_eps(0.25, shards);
        let dynamic = cfg.dynamic.clone();
        let mut net = NetServeLoop::new_p2p(g.clone(), cfg, kind).unwrap();
        let mut serial = ServeLoop::new(g, dynamic);
        for chunk in updates.chunks(30) {
            net.apply_batch(chunk).unwrap();
            net.end_epoch().unwrap();
            for up in chunk {
                serial.apply(up);
            }
            serial.end_epoch();
        }
        (net, serial)
    }

    #[test]
    fn p2p_loopback_gathered_assignment_equals_serial() {
        for shards in [1usize, 3, 4] {
            let (mut net, serial) = drive_p2p(TransportKind::Loopback, shards, 7 + shards as u64);
            assert!(net.is_p2p());
            net.validate().unwrap();
            let gathered = net.gather_assignment().unwrap();
            assert_eq!(
                gathered.mate,
                serial.assignment().mate,
                "{shards} p2p shards diverged from serial over loopback"
            );
            assert_eq!(gathered.mate, net.inner().assignment().mate);
        }
    }

    #[test]
    fn p2p_tcp_gathered_assignment_equals_serial() {
        let (mut net, serial) = drive_p2p(TransportKind::Tcp, 3, 11);
        let gathered = net.gather_assignment().unwrap();
        assert_eq!(gathered.mate, serial.assignment().mate);
    }

    #[test]
    fn p2p_waves_cross_shards_and_land_on_the_ledger() {
        let (net, _) = drive_p2p(TransportKind::Loopback, 3, 13);
        let l = net.ledger();
        assert!(
            l.rounds_labeled(Phase::NetWave.label()) >= 1,
            "waves were shipped"
        );
        assert!(
            l.rounds_labeled(Phase::NetHandoff.label()) >= 1,
            "some walk crossed a shard boundary"
        );
        let s = net.net_stats();
        assert!(s.wave_bytes > 0, "wave dispatch moved spoke bytes");
        assert!(
            s.handoff_frames > 0 && s.handoff_bytes > 0,
            "cross-shard walk state moved worker↔worker"
        );
        assert!(s.max_handoff_rounds >= 1);
        // The spoke protocol stays lockstep even with waves in it.
        assert_eq!(s.frames_sent, s.frames_received, "lockstep spoke protocol");
    }

    #[test]
    fn p2p_coordinator_repair_bytes_stay_below_star() {
        // Same workload on both meshes: the star commits every repair's
        // row changes over the spokes, while p2p folds them from wave
        // acks and commits only the structural remainder — so the
        // coordinator's commit traffic must drop. (Repair state still
        // moves, but worker↔worker, metered under NET_HANDOFF.)
        let (star, _) = drive(TransportKind::Loopback, 3, 29);
        let (p2p, _) = drive_p2p(TransportKind::Loopback, 3, 29);
        let (sb, pb) = (star.net_stats(), p2p.net_stats());
        assert!(
            pb.commit_bytes < sb.commit_bytes,
            "p2p commit bytes {} must stay below star {}",
            pb.commit_bytes,
            sb.commit_bytes
        );
        assert!(
            pb.handoff_bytes > 0,
            "the comparison is vacuous without handoffs"
        );
    }

    /// One deterministic stream through every way a cached topology row
    /// goes stale — an overlay fold (tiny churn budget), capacity
    /// changes, a departure revived by an edge insert, and a
    /// supervised respawn — still gathers exactly the serial allocation,
    /// and an epoch on a warm cache ships fewer wave bytes than the cold
    /// first one.
    #[test]
    fn the_topology_cache_stays_coherent_through_every_invalidation() {
        let g = union_of_spanning_trees(60, 45, 2, 2, 33).graph;
        let mut cfg = ShardedConfig::for_eps(0.25, 3);
        // Budget tuned so the cache runs warm for a few epochs first.
        cfg.dynamic.drift_threshold = 1.2;
        let dynamic = cfg.dynamic.clone();
        let churn = churn_stream(&g, 300, &ChurnMix::default(), 33);
        let mut chunks: Vec<Vec<Update>> = churn.chunks(30).map(<[Update]>::to_vec).collect();
        let d = (0..g.n_left() as u32)
            .find(|&u| !g.left_neighbors(u).is_empty())
            .unwrap();
        let x = g.left_neighbors(d)[0];
        chunks[1].extend([
            Update::SetCapacity { v: 3, cap: 3 },
            Update::SetCapacity { v: 4, cap: 1 },
            Update::Depart { u: d },
        ]);
        chunks[2].push(Update::InsertEdge { u: d, v: x });
        let mut net = NetServeLoop::new_p2p(g.clone(), cfg, TransportKind::Loopback).unwrap();
        net.set_supervisor(SupervisorConfig {
            max_respawns: 4,
            retry_budget: 0,
        });
        let mut serial = ServeLoop::new(g, dynamic);
        let mut compacted = 0;
        let mut wave_bytes = Vec::new();
        let mut prev = net.net_stats();
        for (e, chunk) in chunks.iter().enumerate() {
            if e == 3 {
                // Lands on a warm cache: the respawn must forget it.
                net.inject_fault(1, Fault::FlipBit { bit: 200 });
            }
            net.apply_batch(chunk).unwrap();
            let rep = net.end_epoch().unwrap();
            compacted += rep.inner.serial.compacted as usize;
            for up in chunk {
                serial.apply(up);
            }
            serial.end_epoch();
            let s = net.net_stats();
            wave_bytes.push(s.wave_bytes - prev.wave_bytes);
            prev = s;
        }
        let s = net.net_stats();
        assert!(compacted >= 1, "a fold fired");
        assert!(s.respawns >= 1, "the fault cost a respawn");
        assert!(net.quarantine_reason().is_none());
        assert!(
            serial.graph().has_edge(d, x),
            "the departed left came back through its edge insert"
        );
        assert!(s.topology_rows_shipped > 0 && s.topology_cache_words > 0);
        assert!(
            wave_bytes[1..].iter().any(|&b| b < wave_bytes[0]),
            "a warm-cache epoch ships fewer wave bytes than the first: {wave_bytes:?}"
        );
        let gathered = net.gather_assignment().unwrap();
        assert_eq!(gathered.mate, serial.assignment().mate);
        net.validate().unwrap();
    }

    /// First unused left id owned by `shard`, skipping `taken`.
    fn pick_left(map: &ShardMap, shard: usize, taken: &mut std::collections::HashSet<u32>) -> u32 {
        (0u32..)
            .find(|&u| map.owner_of_left(u) == shard && taken.insert(u))
            .unwrap()
    }

    fn pick_right(map: &ShardMap, shard: usize, taken: &mut std::collections::HashSet<u32>) -> u32 {
        (0u32..)
            .find(|&v| map.owner_of_right(v) == shard && taken.insert(v))
            .unwrap()
    }

    /// Hand-rolled INIT frame: `(u, mate)` rows, then the matched-list
    /// section.
    fn p2p_init_frame(lefts: &[(u32, u32)], rights: &[(u32, Vec<u32>)]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        put_left_rows(&mut w, lefts);
        put_right_rows(&mut w, rights);
        w.into_bytes()
    }

    /// A star worker — no peer links — holds the same slice a p2p worker
    /// does: it takes an INIT with matched lists, applies a COMMIT's list
    /// op, and its CENSUS reports the resident words and checksums the
    /// coordinator recomputes from its mirror.
    #[test]
    fn a_star_worker_holds_matched_lists_and_applies_list_ops() {
        let map = ShardMap::new(2);
        let (mut tl, mut tr) = Default::default();
        let x = pick_left(&map, 0, &mut tl);
        let y = pick_left(&map, 0, &mut tl);
        let v = pick_right(&map, 0, &mut tr);
        let (mut mesh, mut links) = Mesh::loopback_mesh(2, &[]);
        // Spawn only worker 0; a star worker has no link to worker 1.
        let l1 = links.pop().unwrap();
        let l0 = links.pop().unwrap();
        let worker = std::thread::spawn(move || worker_main(l0, map));
        let init = p2p_init_frame(&[(x, v), (y, UNMATCHED)], &[(v, vec![x])]);
        mesh.send_to(0, PH_INIT, 0, &init).unwrap();
        assert_eq!(mesh.recv_from(0).unwrap().phase, PH_INIT_ACK);
        // `y` joins `v`: one mate row, one list push.
        let mut w = ByteWriter::new();
        put_left_rows(&mut w, &[(y, v)]);
        w.put_u64(1);
        w.put_u32(v);
        w.put_u32(LIST_PUSH);
        w.put_u32(y);
        mesh.send_to(0, PH_COMMIT, 0, &w.into_bytes()).unwrap();
        let ack = mesh.recv_from(0).unwrap();
        assert_eq!(ack.phase, PH_COMMIT_ACK, "the list op is accepted");
        let mut r = ByteReader::new(&ack.payload);
        assert_eq!(r.take_u64().unwrap(), 2, "the mate row and the list op");
        mesh.send_to(0, PH_CENSUS, 0, &[]).unwrap();
        let census = mesh.recv_from(0).unwrap();
        assert_eq!(census.phase, PH_CENSUS_ACK);
        let mut r = ByteReader::new(&census.payload);
        assert_eq!(r.take_u64().unwrap(), 2, "owned lefts");
        assert_eq!(r.take_u64().unwrap(), 1, "owned rights");
        assert_eq!(
            r.take_u64().unwrap(),
            2 * 2 + (1 + 2),
            "two mate rows, one right with two members"
        );
        assert_eq!(
            r.take_u64().unwrap(),
            mate_checksum([(x, v), (y, v)].into_iter()),
            "the mate row landed"
        );
        assert_eq!(
            r.take_u64().unwrap(),
            matched_checksum([(v, &[x, y][..])].into_iter()),
            "the push landed at the list's end"
        );
        assert_eq!(
            r.take_u64().unwrap(),
            0,
            "no wave ran, so nothing is cached"
        );
        r.expect_end().unwrap();
        mesh.send_to(0, PH_SHUTDOWN, 0, &[]).unwrap();
        assert_eq!(mesh.recv_from(0).unwrap().phase, PH_SHUTDOWN_ACK);
        worker.join().unwrap();
        drop(l1);
    }

    /// Hand-rolled WAVE frame holding exactly one plan, shipping the full
    /// row of every footprint id.
    fn wave_frame(
        radius: u64,
        plan: &RepairPlan,
        rights: &[(u32, u64, Vec<u32>)],
        lefts: &[(u32, Vec<u32>)],
    ) -> Vec<u8> {
        let right_ids: Vec<u32> = rights.iter().map(|r| r.0).collect();
        let left_ids: Vec<u32> = lefts.iter().map(|l| l.0).collect();
        wave_frame_naming(radius, plan, &right_ids, &left_ids, rights, lefts)
    }

    /// Hand-rolled WAVE frame holding exactly one plan whose footprint
    /// names `right_ids`/`left_ids` but ships only the given rows.
    fn wave_frame_naming(
        radius: u64,
        plan: &RepairPlan,
        right_ids: &[u32],
        left_ids: &[u32],
        rights: &[(u32, u64, Vec<u32>)],
        lefts: &[(u32, Vec<u32>)],
    ) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(2); // eager_k
        w.put_u64(100); // search cap
        w.put_u64(radius);
        w.put_u64(1); // n_plans
        w.put_u32(0); // j
        encode_plan(&mut w, plan);
        put_ids(&mut w, right_ids.iter().copied());
        put_ids(&mut w, left_ids.iter().copied());
        w.put_u64(rights.len() as u64);
        for (v, cap, nbrs) in rights {
            w.put_u32(*v);
            w.put_u64(*cap);
            put_ids(&mut w, nbrs.iter().copied());
        }
        w.put_u64(lefts.len() as u64);
        for (u, nbrs) in lefts {
            w.put_u32(*u);
            put_ids(&mut w, nbrs.iter().copied());
        }
        put_left_rows(&mut w, &[]); // no overrides
        put_right_rows(&mut w, &[]);
        w.into_bytes()
    }

    /// A walk that must hop shard boundaries twice: worker 0 owns the
    /// arriving left `u` and the free right `v2`, worker 1 owns the full
    /// right `v1` and its occupant `x`. `Place{u}` augments
    /// `u → v1 → x → v2`, which takes exactly two fetch rounds (round 1:
    /// `v1`'s matched list, round 2: `x`'s mate) and pushes `x`'s flip
    /// back to worker 1 directly.
    #[test]
    fn a_two_boundary_walk_takes_two_handoff_rounds() {
        let map = ShardMap::new(2);
        let (mut tl, mut tr) = Default::default();
        let u = pick_left(&map, 0, &mut tl);
        let x = pick_left(&map, 1, &mut tl);
        let v1 = pick_right(&map, 1, &mut tr);
        let v2 = pick_right(&map, 0, &mut tr);
        let (mut mesh, links) = Mesh::loopback_mesh(2, &Mesh::all_pairs(2));
        let workers: Vec<_> = links
            .into_iter()
            .map(|l| std::thread::spawn(move || worker_main(l, map)))
            .collect();
        mesh.send_to(
            0,
            PH_INIT,
            0,
            &p2p_init_frame(&[(u, UNMATCHED)], &[(v2, vec![])]),
        )
        .unwrap();
        mesh.send_to(1, PH_INIT, 0, &p2p_init_frame(&[(x, v1)], &[(v1, vec![x])]))
            .unwrap();
        for w in 0..2 {
            assert_eq!(mesh.recv_from(w).unwrap().phase, PH_INIT_ACK);
        }
        let frame = wave_frame(
            2,
            &RepairPlan::Place { u },
            &[(v1, 1, vec![u, x]), (v2, 1, vec![x])],
            &[(u, vec![v1]), (x, vec![v1, v2])],
        );
        mesh.send_to(0, PH_WAVE, 0, &frame).unwrap();
        let ack = mesh.recv_from(0).unwrap();
        assert_eq!(ack.phase, PH_WAVE_ACK, "worker 0 must ack the wave");
        let mut r = ByteReader::new(&ack.payload);
        assert_eq!(r.take_u64().unwrap(), 1, "one plan acked");
        assert_eq!(r.take_u32().unwrap(), 0, "plan slot 0");
        assert_eq!(
            r.take_i64().unwrap(),
            1,
            "the augmentation grew the matching"
        );
        let _augs = r.take_u64().unwrap();
        let _evs = r.take_u64().unwrap();
        let nd = r.take_len(4).unwrap();
        for _ in 0..nd {
            r.take_u32().unwrap();
        }
        let lrows = take_left_rows(&mut r).unwrap();
        let rrows = take_right_rows(&mut r).unwrap();
        assert_eq!(lrows, vec![(u, v1), (x, v2)], "both lefts moved");
        assert_eq!(
            rrows,
            vec![(v1, vec![u]), (v2, vec![x])],
            "the occupant shifted one right over"
        );
        let rounds = r.take_u64().unwrap();
        assert_eq!(rounds, 2, "v1's list, then x's mate — two boundary hops");
        // The flip to worker 1 moved peer bytes, reported on the ack.
        let _exp = r.take_u64().unwrap();
        let _caps = r.take_u64().unwrap();
        let peer_frames = r.take_u64().unwrap();
        let peer_bytes = r.take_u64().unwrap();
        assert!(
            peer_frames >= 3,
            "two fetches and a flip, got {peer_frames}"
        );
        assert!(peer_bytes > 0);
        assert_eq!(r.take_u64().unwrap(), 2, "max rounds across plans");
        r.expect_end().unwrap();
        for w in 0..2 {
            mesh.send_to(w, PH_SHUTDOWN, 0, &[]).unwrap();
            assert_eq!(mesh.recv_from(w).unwrap().phase, PH_SHUTDOWN_ACK);
        }
        for h in workers {
            h.join().unwrap();
        }
    }

    /// A fetch chain deeper than the radius bound stops ping-ponging at
    /// the cap instead of chasing the alternating snake to its end: the
    /// truncated rows are beyond the walk budget's reach, so the repair
    /// outcome is unchanged (the walk fails, exactly as it does on the
    /// full state).
    #[test]
    fn a_runaway_fetch_chain_truncates_at_the_radius_cap() {
        let map = ShardMap::new(2);
        let (mut tl, mut tr) = Default::default();
        // Alternating chain u0 → v0 → x0 → v1 → x1 → v2 → x2 → v3 with
        // every row on worker 1, driven from worker 0 — every level of
        // the walk is another fetch.
        let u0 = pick_left(&map, 0, &mut tl);
        let xs: Vec<u32> = (0..3).map(|_| pick_left(&map, 1, &mut tl)).collect();
        let vs: Vec<u32> = (0..4).map(|_| pick_right(&map, 1, &mut tr)).collect();
        let (mut mesh, links) = Mesh::loopback_mesh(2, &Mesh::all_pairs(2));
        let workers: Vec<_> = links
            .into_iter()
            .map(|l| std::thread::spawn(move || worker_main(l, map)))
            .collect();
        let w1_lefts: Vec<(u32, u32)> = xs.iter().zip(&vs).map(|(&x, &v)| (x, v)).collect();
        let mut w1_rights: Vec<(u32, Vec<u32>)> =
            vs.iter().zip(&xs).map(|(&v, &x)| (v, vec![x])).collect();
        w1_rights.last_mut().unwrap().1 = vec![];
        mesh.send_to(0, PH_INIT, 0, &p2p_init_frame(&[(u0, UNMATCHED)], &[]))
            .unwrap();
        mesh.send_to(1, PH_INIT, 0, &p2p_init_frame(&w1_lefts, &w1_rights))
            .unwrap();
        for w in 0..2 {
            assert_eq!(mesh.recv_from(w).unwrap().phase, PH_INIT_ACK);
        }
        let rights: Vec<(u32, u64, Vec<u32>)> = vec![
            (vs[0], 1, vec![u0, xs[0]]),
            (vs[1], 1, vec![xs[0], xs[1]]),
            (vs[2], 1, vec![xs[1], xs[2]]),
            (vs[3], 1, vec![xs[2]]),
        ];
        let lefts: Vec<(u32, Vec<u32>)> = vec![
            (u0, vec![vs[0]]),
            (xs[0], vec![vs[0], vs[1]]),
            (xs[1], vec![vs[1], vs[2]]),
            (xs[2], vec![vs[2], vs[3]]),
        ];
        // radius 0 → cap 4 alternation levels; the chain alternates 7.
        let frame = wave_frame(0, &RepairPlan::Place { u: u0 }, &rights, &lefts);
        mesh.send_to(0, PH_WAVE, 0, &frame).unwrap();
        let ack = mesh.recv_from(0).unwrap();
        assert_eq!(ack.phase, PH_WAVE_ACK, "truncation is not a failure");
        let mut r = ByteReader::new(&ack.payload);
        assert_eq!(r.take_u64().unwrap(), 1);
        assert_eq!(r.take_u32().unwrap(), 0);
        assert_eq!(
            r.take_i64().unwrap(),
            0,
            "the budget-2 walk cannot use the deep chain — no augmentation"
        );
        let _augs = r.take_u64().unwrap();
        let _evs = r.take_u64().unwrap();
        let nd = r.take_len(4).unwrap();
        for _ in 0..nd {
            r.take_u32().unwrap();
        }
        assert!(
            take_left_rows(&mut r).unwrap().is_empty(),
            "nothing flipped"
        );
        assert!(take_right_rows(&mut r).unwrap().is_empty());
        let rounds = r.take_u64().unwrap();
        // The seed level is local; every level after it fetched, until
        // the frontier was cut at `cap` alternations — far short of the
        // 7 round-trips the full snake would have cost.
        assert_eq!(
            rounds,
            handoff_round_cap(0) - 1,
            "the ping-pong stopped at the cap"
        );
        for w in 0..2 {
            mesh.send_to(w, PH_SHUTDOWN, 0, &[]).unwrap();
            assert_eq!(mesh.recv_from(w).unwrap().phase, PH_SHUTDOWN_ACK);
        }
        for h in workers {
            h.join().unwrap();
        }
    }

    /// Garbage on a worker↔worker link NACKs with an error naming the
    /// peer pair and the HANDOFF protocol — the adversarial-payload path
    /// of the handoff codec.
    #[test]
    fn a_malformed_handoff_payload_is_refused_with_the_peer_pair_named() {
        let map = ShardMap::new(2);
        let (mut mesh, mut links) = Mesh::loopback_mesh(2, &Mesh::all_pairs(2));
        // Spawn only worker 1; the test plays worker 0 on its links.
        let l1 = links.pop().unwrap();
        let mut l0 = links.pop().unwrap();
        let worker = std::thread::spawn(move || worker_main(l1, map));
        mesh.send_to(1, PH_INIT, 0, &p2p_init_frame(&[], &[]))
            .unwrap();
        assert_eq!(mesh.recv_from(1).unwrap().phase, PH_INIT_ACK);
        l0.peer_to(1)
            .unwrap()
            .send(PH_HANDOFF_REQ, 0, &[0xFF; 7])
            .unwrap();
        let nack = mesh.recv_from(1).unwrap();
        assert_eq!(nack.phase, PH_NACK);
        let detail = decode_nack(1, &nack.payload).to_string();
        assert!(
            detail.contains("HANDOFF 1<->0"),
            "the error names the peer pair, got: {detail}"
        );
        drop(l0);
        drop(mesh);
        worker.join().unwrap();
    }

    /// An idle worker answers a peer's fetch the moment it arrives: 500
    /// `HANDOFF_REQ`→`HANDOFF_ACK` round trips on owned rows, with no
    /// spoke traffic at all, stay far below a millisecond each. A worker
    /// that waited on its spoke before turning to its peers would pay
    /// that wait on every round trip.
    #[test]
    fn an_idle_worker_answers_handoffs_without_waiting_on_its_spoke() {
        let map = ShardMap::new(2);
        let (mut tl, mut tr) = Default::default();
        let x = pick_left(&map, 1, &mut tl);
        let v = pick_right(&map, 1, &mut tr);
        let (mut mesh, mut links) = Mesh::loopback_mesh(2, &Mesh::all_pairs(2));
        // Spawn only worker 1; the test plays worker 0 on its links.
        let l1 = links.pop().unwrap();
        let mut l0 = links.pop().unwrap();
        let worker = std::thread::spawn(move || worker_main(l1, map));
        mesh.send_to(1, PH_INIT, 0, &p2p_init_frame(&[(x, v)], &[(v, vec![x])]))
            .unwrap();
        assert_eq!(mesh.recv_from(1).unwrap().phase, PH_INIT_ACK);
        let mut w = ByteWriter::new();
        w.put_u64(1);
        w.put_u32(x);
        w.put_u64(1);
        w.put_u32(v);
        let req = w.into_bytes();
        let t0 = Instant::now();
        let mut ack = None;
        for _ in 0..500 {
            l0.peer_to(1)
                .unwrap()
                .send(PH_HANDOFF_REQ, 0, &req)
                .unwrap();
            let deadline = Instant::now() + Duration::from_secs(5);
            let (from, f) = l0.recv(Some(deadline)).unwrap();
            assert_eq!((from, f.phase), (1, PH_HANDOFF_ACK));
            ack = Some(f.payload);
        }
        let took = t0.elapsed();
        let ack = ack.unwrap();
        let mut r = ByteReader::new(&ack);
        assert_eq!(take_left_rows(&mut r).unwrap(), vec![(x, v)]);
        assert_eq!(take_right_rows(&mut r).unwrap(), vec![(v, vec![x])]);
        assert!(
            took < Duration::from_millis(250),
            "500 idle handoff round trips took {took:?}"
        );
        drop(l0);
        drop(mesh);
        worker.join().unwrap();
    }

    /// A spoke frame that lands while a wave awaits a peer's ack is held,
    /// not dropped, and answered right after the wave, in arrival order.
    #[test]
    fn a_spoke_frame_arriving_mid_wave_is_held_and_answered_after_the_wave() {
        let map = ShardMap::new(2);
        let (mut tl, mut tr) = Default::default();
        let u = pick_left(&map, 1, &mut tl);
        let v = pick_right(&map, 0, &mut tr);
        let (mut mesh, mut links) = Mesh::loopback_mesh(2, &Mesh::all_pairs(2));
        // Spawn only worker 1; the test plays worker 0 on its links.
        let l1 = links.pop().unwrap();
        let mut l0 = links.pop().unwrap();
        let worker = std::thread::spawn(move || worker_main(l1, map));
        mesh.send_to(1, PH_INIT, 0, &p2p_init_frame(&[(u, UNMATCHED)], &[]))
            .unwrap();
        assert_eq!(mesh.recv_from(1).unwrap().phase, PH_INIT_ACK);
        // `Place{u}` must fetch the free right `v` from worker 0.
        let frame = wave_frame(
            2,
            &RepairPlan::Place { u },
            &[(v, 1, vec![u])],
            &[(u, vec![v])],
        );
        mesh.send_to(1, PH_WAVE, 0, &frame).unwrap();
        let soon = || Some(Instant::now() + Duration::from_secs(5));
        let (from, req) = l0.recv(soon()).unwrap();
        assert_eq!((from, req.phase), (1, PH_HANDOFF_REQ));
        // The coordinator speaks while the wave waits on the fetch.
        mesh.send_to(1, PH_GATHER, 0, &[]).unwrap();
        let mut w = ByteWriter::new();
        put_left_rows(&mut w, &[]);
        put_right_rows(&mut w, &[(v, vec![])]);
        l0.peer_to(1)
            .unwrap()
            .send(PH_HANDOFF_ACK, 0, &w.into_bytes())
            .unwrap();
        let (from, flip) = l0.recv(soon()).unwrap();
        assert_eq!((from, flip.phase), (1, PH_FLIP));
        let mut w = ByteWriter::new();
        w.put_u64(1);
        l0.peer_to(1)
            .unwrap()
            .send(PH_FLIP_ACK, 0, &w.into_bytes())
            .unwrap();
        assert_eq!(mesh.recv_from(1).unwrap().phase, PH_WAVE_ACK);
        let gather = mesh.recv_from(1).unwrap();
        assert_eq!(gather.phase, PH_GATHER_ACK, "the held frame is answered");
        let mut r = ByteReader::new(&gather.payload);
        assert_eq!(take_left_rows(&mut r).unwrap(), vec![(u, v)]);
        drop(l0);
        drop(mesh);
        worker.join().unwrap();
    }

    /// A later wave reads a cached row by id alone, but a footprint id
    /// with neither a cached nor a shipped row is refused with a NACK
    /// naming it — never read as an empty adjacency.
    #[test]
    fn a_footprint_id_with_no_cached_or_shipped_row_is_refused_by_name() {
        let map = ShardMap::new(2);
        let (mut tl, mut tr) = Default::default();
        let u = pick_left(&map, 0, &mut tl);
        let v = pick_right(&map, 0, &mut tr);
        let v2 = pick_right(&map, 0, &mut tr);
        let (mut mesh, mut links) = Mesh::loopback_mesh(2, &Mesh::all_pairs(2));
        // Spawn only worker 0; its peer link stays idle.
        let l1 = links.pop().unwrap();
        let l0 = links.pop().unwrap();
        let worker = std::thread::spawn(move || worker_main(l0, map));
        mesh.send_to(
            0,
            PH_INIT,
            0,
            &p2p_init_frame(&[(u, UNMATCHED)], &[(v, vec![]), (v2, vec![])]),
        )
        .unwrap();
        assert_eq!(mesh.recv_from(0).unwrap().phase, PH_INIT_ACK);
        // Wave 1 ships every row; the worker caches them.
        let frame = wave_frame(
            2,
            &RepairPlan::Place { u },
            &[(v, 1, vec![u])],
            &[(u, vec![v])],
        );
        mesh.send_to(0, PH_WAVE, 0, &frame).unwrap();
        assert_eq!(mesh.recv_from(0).unwrap().phase, PH_WAVE_ACK);
        mesh.send_to(0, PH_CENSUS, 0, &[]).unwrap();
        let census = mesh.recv_from(0).unwrap();
        let mut r = ByteReader::new(&census.payload);
        for _ in 0..5 {
            r.take_u64().unwrap();
        }
        assert_eq!(
            r.take_u64().unwrap(),
            (1 + 1) + (2 + 1),
            "the census reports the cached rows' words"
        );
        // Wave 2 names `v` (cached) and `v2` (never shipped), shipping
        // no rows at all.
        let frame = wave_frame_naming(2, &RepairPlan::Place { u }, &[v, v2], &[u], &[], &[]);
        mesh.send_to(0, PH_WAVE, 0, &frame).unwrap();
        let nack = mesh.recv_from(0).unwrap();
        assert_eq!(nack.phase, PH_NACK);
        let err = decode_nack(0, &nack.payload);
        assert!(matches!(err, NetError::Protocol { shard: 0, .. }));
        let detail = err.to_string();
        assert!(
            detail.contains(&format!("footprint right {v2} "))
                && !detail.contains(&format!("right {v} ")),
            "the NACK names the uncached id, got: {detail}"
        );
        drop(l1);
        drop(mesh);
        worker.join().unwrap();
    }

    /// An off-protocol phase on a peer link is refused the same way.
    #[test]
    fn an_unexpected_phase_on_a_peer_link_is_refused() {
        let map = ShardMap::new(2);
        let (mut mesh, mut links) = Mesh::loopback_mesh(2, &Mesh::all_pairs(2));
        let l1 = links.pop().unwrap();
        let mut l0 = links.pop().unwrap();
        let worker = std::thread::spawn(move || worker_main(l1, map));
        mesh.send_to(1, PH_INIT, 0, &p2p_init_frame(&[], &[]))
            .unwrap();
        assert_eq!(mesh.recv_from(1).unwrap().phase, PH_INIT_ACK);
        // GATHER is a spoke phase; on a peer link it is off-protocol.
        l0.peer_to(1).unwrap().send(PH_GATHER, 0, &[]).unwrap();
        let nack = mesh.recv_from(1).unwrap();
        assert_eq!(nack.phase, PH_NACK);
        let detail = decode_nack(1, &nack.payload).to_string();
        assert!(detail.contains("HANDOFF 1<->0") && detail.contains("GATHER"));
        drop(l0);
        drop(mesh);
        worker.join().unwrap();
    }
}
