//! The serving façade: consume updates, answer assignment queries.
//!
//! [`ServeLoop`] owns the live graph (a [`DeltaGraph`] overlay), the
//! β-levels of the proportional dynamics, and the maintained integral
//! allocation. Updates are applied with `O(τ)`-ball local repairs;
//! [`ServeLoop::end_epoch`] restores the global `k/(k+1)` walk-freeness
//! certificate, re-runs the level dynamics on the dirty ball, and falls
//! back to a full static rebuild when the accumulated drift exceeds the
//! `O(ε)` budget (or compacts the overlay when it outgrows its snapshot).
//!
//! Between epochs, queries ([`ServeLoop::query`],
//! [`ServeLoop::match_size`]) are `O(1)` reads of maintained state.

use std::cell::Cell;

use sparse_alloc_core::boosting::boost_hk;
use sparse_alloc_core::fractional::{finalize_from_levels, FractionalAllocation};
use sparse_alloc_core::guessing::run_with_guessing;
use sparse_alloc_core::rounding;
use sparse_alloc_graph::{Assignment, Bipartite, DeltaGraph, LeftId, RightId};
use sparse_alloc_obs::{Counter, Dist, Phase, Registry, Tracer};

use crate::repair::{
    ball_of_capped_into, probe_reaches, repair_levels, BallScratch, LevelRepairConfig,
};
use crate::scheduler::{CompactionPolicy, DriftTracker};
use crate::stamp::StampSet;
use crate::update::Update;
use crate::walks::{
    augment_from_left, reclaim_into, MatchSlots, Matching, MatchingState, SearchScratch,
    WalkTopology,
};

/// Configuration of a [`ServeLoop`].
#[derive(Debug, Clone)]
pub struct DynamicConfig {
    /// The `(1+ε)` parameter of the fractional dynamics and the drift
    /// budget.
    pub eps: f64,
    /// Augmenting-walk budget `k` (walks of length `≤ 2k−1`); the
    /// maintained integral allocation is `≥ k/(k+1)·OPT` after every
    /// epoch. `⌈1/ε⌉` matches the static pipeline's guarantee.
    pub walk_budget: usize,
    /// β-repair ball radius in right-to-right hops.
    pub repair_radius: usize,
    /// Proportional rounds per β-repair.
    pub repair_rounds: usize,
    /// Fraction of live edges' worth of churn that triggers a full
    /// rebuild (the `O(ε)` drift budget).
    pub drift_threshold: f64,
    /// Overlay fraction that triggers compaction.
    pub compact_threshold: f64,
    /// Visit cap for the *eager* per-update walk searches (the epoch
    /// sweep is always exact). A failed unbounded search pays for the
    /// whole `O(deg^k)` ball, so eager repairs give up early and leave
    /// the rest to the sweep.
    pub eager_search_cap: usize,
    /// Matched-hop budget of the eager per-update searches: they explore
    /// walks of length `≤ 2·min(walk_budget, eager_walk_budget) − 1`,
    /// while the epoch sweep always uses the full `walk_budget` (the
    /// certificate is unaffected — eager repairs are best-effort). This
    /// is the lever behind the conflict scheduler's footprint radius
    /// ([`DynamicConfig::eager_radius`]): a batch's updates can repair in
    /// parallel exactly when their eager-reach balls are disjoint, so a
    /// small eager budget keeps footprints tight and waves wide.
    ///
    /// [`DynamicConfig::for_eps`] defaults to the full walk budget
    /// (eager repairs restore as much as the serial engine always did);
    /// [`ShardedConfig::for_eps`](crate::ShardedConfig::for_eps) lowers
    /// it to 1 — place on directly available capacity, defer re-routing
    /// to the sweep — because wave occupancy on degree-heavy instances
    /// lives or dies by the footprint radius.
    pub eager_walk_budget: usize,
    /// Cap on the β-repair ball size (right vertices). Bounds the repair
    /// work per epoch under bulk churn; the truncation is covered by the
    /// drift budget.
    pub repair_ball_cap: usize,
}

impl DynamicConfig {
    /// The standard configuration for a given ε: walk budget `⌈1/ε⌉`,
    /// radius 2, `⌈1/ε⌉` repair rounds, drift budget `ε/2`.
    pub fn for_eps(eps: f64) -> Self {
        assert!(eps > 0.0 && eps <= 1.0, "ε ∈ (0, 1]");
        let k = (1.0 / eps).ceil() as usize;
        DynamicConfig {
            eps,
            walk_budget: k,
            repair_radius: 2,
            repair_rounds: k.clamp(2, 8),
            drift_threshold: eps / 2.0,
            compact_threshold: 0.25,
            eager_search_cap: 64,
            eager_walk_budget: k,
            repair_ball_cap: 4096,
        }
    }

    /// The walk budget the eager per-update searches actually run with:
    /// `min(walk_budget, eager_walk_budget)`, floored at 1.
    pub fn eager_budget(&self) -> usize {
        self.walk_budget.min(self.eager_walk_budget).max(1)
    }

    /// The footprint radius (in right-to-right hops) that over-covers
    /// every match cell an eager repair can read or write — what the
    /// conflict scheduler uses for its balls.
    ///
    /// Derivation, for eager budget `b = eager_budget()`: a forward
    /// search starting at a left `x₀` whose neighborhood lies within
    /// `s₀` hops of the seeds explores lefts of matched-hop depth
    /// `d ≤ b − 1`, and each explored left's full neighborhood (the
    /// rights it reads, the cells a flip writes) lies within `s₀ + d`
    /// hops. The update's own left has `s₀ = 0` (its neighborhood *is*
    /// the seed set); eviction victims are matched at a seed right, so
    /// `s₀ = 1` — giving reach `1 + (b − 1) = b`. A backward reclaim
    /// expands rights within `b − 1` hops of a seed and touches their
    /// adjacent lefts, whose neighborhoods stay within `b` hops too.
    /// Reads of a *foreign* left's mate need no containment: the
    /// expanded right witnessing the read is inside this footprint, so
    /// any writer of that left would collide on it. Independently, the
    /// visit cap bounds the reach: a capped BFS completes at most
    /// `eager_search_cap` right expansions and must spend at least one
    /// per depth level. Hence radius
    /// `min(eager_budget, eager_search_cap + 1)`.
    pub fn eager_radius(&self) -> usize {
        self.eager_budget()
            .min(self.eager_search_cap.saturating_add(1))
            .max(1)
    }
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig::for_eps(0.1)
    }
}

/// Lifetime counters of a [`ServeLoop`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Updates applied.
    pub updates: usize,
    /// Epochs closed.
    pub epochs: usize,
    /// Full static rebuilds (drift budget exceeded).
    pub rebuilds: usize,
    /// Overlay compactions.
    pub compactions: usize,
    /// Augmenting walks flipped (local repairs + sweeps).
    pub augmentations: usize,
    /// Matches evicted by capacity decreases and departures.
    pub evictions: usize,
    /// β-repair rounds executed.
    pub repair_rounds: usize,
}

/// What one [`ServeLoop::end_epoch`] did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochReport {
    /// Augmentations found by the certificate sweep.
    pub sweep_augmentations: usize,
    /// Free left vertices the sweep actually searched from. Frees whose
    /// alternating components were untouched since the last epoch are
    /// skipped (dirty-component tracking) and do not count.
    pub sweep_starts: usize,
    /// BFS right-vertex expansions the sweep performed. Zero for a no-op
    /// epoch: the previous certificate still stands, so no search runs.
    pub sweep_expansions: u64,
    /// Right vertices in the β-repair ball (0 if no repair ran).
    pub ball_rights: usize,
    /// Did the drift budget force a full rebuild?
    pub rebuilt: bool,
    /// Was the overlay compacted?
    pub compacted: bool,
    /// `|M|` after the epoch.
    pub match_size: usize,
}

/// Everything a warm restart persists of a [`ServeLoop`] — the engine
/// state with the rebuildable caches (sweep and wave scratch) stripped.
/// This is the *owned* decode-side form, consumed by
/// [`ServeLoop::from_parts`]; the encode side borrows the live state via
/// [`ServeLoop::parts_ref`] instead of copying it. The wire form lives
/// in [`snapshot`](crate::snapshot).
#[derive(Debug, Clone)]
pub(crate) struct ServeParts {
    pub(crate) cfg: DynamicConfig,
    pub(crate) dg: DeltaGraph,
    pub(crate) levels: Vec<i64>,
    pub(crate) matching: MatchingState,
    pub(crate) dirty: Vec<RightId>,
    pub(crate) sweep_dirty: Vec<RightId>,
    pub(crate) drift_accumulated: f64,
    pub(crate) stats: ServeStats,
}

impl ServeParts {
    /// The borrowed view of these parts — what the snapshot encoder and
    /// the manifest derivation consume, so decoded state can be
    /// re-manifested through the exact code path that wrote it.
    pub(crate) fn as_parts_ref(&self) -> ServePartsRef<'_> {
        ServePartsRef {
            cfg: &self.cfg,
            dg: &self.dg,
            levels: &self.levels,
            mate: &self.matching.mate,
            matched_at: &self.matching.matched_at,
            expansions: self.matching.expansions,
            dirty: &self.dirty,
            sweep_dirty: &self.sweep_dirty,
            drift_accumulated: self.drift_accumulated,
            stats: &self.stats,
        }
    }
}

/// Borrowed view of a [`ServeLoop`]'s persistent state (the encode-side
/// twin of [`ServeParts`]): checkpoints serialize through this, so
/// writing a snapshot never clones the `O(n + m)` engine state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ServePartsRef<'a> {
    pub(crate) cfg: &'a DynamicConfig,
    pub(crate) dg: &'a DeltaGraph,
    pub(crate) levels: &'a [i64],
    pub(crate) mate: &'a [Option<RightId>],
    pub(crate) matched_at: &'a [Vec<LeftId>],
    pub(crate) expansions: u64,
    pub(crate) dirty: &'a [RightId],
    pub(crate) sweep_dirty: &'a [RightId],
    pub(crate) drift_accumulated: f64,
    pub(crate) stats: &'a ServeStats,
}

/// The dynamic allocation engine.
#[derive(Debug)]
pub struct ServeLoop {
    cfg: DynamicConfig,
    dg: DeltaGraph,
    levels: Vec<i64>,
    matching: Matching,
    dirty: Vec<RightId>,
    /// Rights perturbed since the last certificate: every update site plus
    /// every right a successful augmenting flip touched. Drives the
    /// dirty-component sweep and the sharded loop's handoff accounting.
    sweep_dirty: Vec<RightId>,
    drift: DriftTracker,
    compaction: CompactionPolicy,
    stats: ServeStats,
    /// [`ServeLoop::fractional`] calls, each a full recompute (see
    /// [`ServeLoop::fractional_cache_counters`]).
    frac_reads: Cell<u64>,
    /// Per-worker search scratch for threaded wave execution (lazily
    /// sized; workers reuse these across waves so repairs allocate
    /// nothing per update).
    wave_scratch: Vec<SearchScratch>,
    /// Persistent scratch for the per-epoch certificate sweep (stamped
    /// membership + reusable vectors), so an epoch close performs no
    /// `O(n)` dense allocations.
    sweep_scratch: SweepScratch,
    /// Hot-path metrics (counters, distributions, per-phase latency).
    /// Always carried; a disabled registry turns every record call into
    /// one predictable branch (the e19 overhead A/B).
    obs: Registry,
    /// Phase tracer. Disabled (and allocation-free) unless a caller
    /// attaches a sink via [`ServeLoop::set_tracer`]; spans still measure
    /// so the registry's latency histograms fill either way.
    tracer: Tracer,
}

/// Persistent scratch of [`ServeLoop::certificate_sweep`]: the region
/// absorbed so far and candidate membership (stamped, `O(1)` clear), the
/// dirty-right marks the inverted derivation probes for, the candidate
/// worklist, and the ball-growth scratch + output. Rebuilt empty on
/// restore — like `wave_scratch`, it is ephemeral state no snapshot
/// carries.
#[derive(Debug, Default)]
pub(crate) struct SweepScratch {
    region: StampSet,
    is_candidate: StampSet,
    dirty: StampSet,
    candidates: Vec<u32>,
    ball: BallScratch,
    ball_out: Vec<RightId>,
}

impl SweepScratch {
    /// Empty the region, the candidate set and the worklist, sized for
    /// `dg`.
    fn reset(&mut self, dg: &DeltaGraph) {
        self.region.grow(dg.n_right());
        self.region.clear();
        self.is_candidate.grow(dg.n_left());
        self.is_candidate.clear();
        self.candidates.clear();
    }

    /// Grow the radius-`k` ball around `seeds` into `ball_out`, then
    /// absorb it: every ball right not yet in the region joins it, and
    /// its free neighbours not yet candidates are appended to the
    /// worklist (in ball order).
    fn absorb_ball(&mut self, dg: &DeltaGraph, matching: &Matching, seeds: &[RightId], k: usize) {
        ball_of_capped_into(dg, seeds, k, usize::MAX, &mut self.ball, &mut self.ball_out);
        for &v in &self.ball_out {
            if self.region.insert(v as usize) {
                for u in dg.right_neighbors_iter(v) {
                    if matching.mate(u).is_none() && self.is_candidate.insert(u as usize) {
                        self.candidates.push(u);
                    }
                }
            }
        }
    }
}

/// The forward candidate derivation of the certificate sweep: grow the
/// radius-`k` region around the `dirty` rights and collect the free lefts
/// adjacent to it. Costs `O(region)` — the whole graph once the dirty set
/// is spread out. Leaves the region absorbed in `scr`.
pub(crate) fn forward_candidates(
    dg: &DeltaGraph,
    matching: &Matching,
    dirty: &[RightId],
    k: usize,
    scr: &mut SweepScratch,
) {
    scr.reset(dg);
    scr.absorb_ball(dg, matching, dirty, k);
}

/// The inverted candidate derivation of the certificate sweep: scan for
/// the free lefts and probe `k` right-hops out from each one's
/// neighbourhood ([`probe_reaches`]); a free left is a candidate iff its
/// probe reaches a `dirty` right. Right-hop distance is symmetric, so
/// this is exactly the set [`forward_candidates`] derives, in ascending
/// id order, and it leaves the region empty. Returns `false` — with the
/// candidates incomplete — once the probes together have visited more
/// than `budget` rights.
pub(crate) fn probe_candidates(
    dg: &DeltaGraph,
    matching: &Matching,
    dirty: &[RightId],
    k: usize,
    mut budget: usize,
    scr: &mut SweepScratch,
) -> bool {
    scr.reset(dg);
    scr.dirty.grow(dg.n_right());
    scr.dirty.clear();
    for &v in dirty {
        if (v as usize) < dg.n_right() {
            scr.dirty.insert(v as usize);
        }
    }
    for u in 0..dg.n_left() as LeftId {
        if matching.mate(u).is_some() {
            continue;
        }
        match probe_reaches(dg, u, k, &scr.dirty, &mut scr.ball, &mut budget) {
            Some(true) => {
                scr.is_candidate.insert(u as usize);
                scr.candidates.push(u);
            }
            Some(false) => {}
            None => return false,
        }
    }
    true
}

/// The deferred (repair) half of one update: everything
/// [`ServeLoop::apply_structural`] could not do because it touches
/// matching state. Footprint-covered, so disjoint-footprint plans can run
/// concurrently — on threads of this process or, in the p2p engine, on
/// the shard worker owning the footprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RepairPlan {
    /// Structural phase was a no-op (duplicate insert, dead delete).
    Noop,
    /// Try to place left `u` (fresh arrival or newly inserted edge).
    Place { u: LeftId },
    /// Left `u` left: release its match, refill the freed slot.
    Release { u: LeftId },
    /// Edge `(u, v)` died: if it carried the match, re-place `u` (marking
    /// its surviving neighborhood for the sweep on failure) and refill `v`.
    Rematch { u: LeftId, v: RightId },
    /// Capacity of `v` dropped: evict the excess, re-place each victim.
    Evict { v: RightId },
    /// Capacity of `v` grew: pull waiters into the new slots.
    Fill { v: RightId },
}

/// What one repair did, recorded relative to the engine state so the
/// effects can be folded in deterministically after a threaded wave (or
/// shipped back over the wire after a p2p one).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct RepairOutcome {
    /// Net matching growth (augmentations minus releases).
    pub(crate) size_delta: i64,
    /// Successful augmenting walks.
    pub(crate) augmentations: usize,
    /// Matches released by departures, dead edges, and capacity cuts.
    pub(crate) evictions: usize,
    /// Rights this repair perturbed (flipped walks, sweep hints), in the
    /// serial observation order.
    pub(crate) dirty: Vec<RightId>,
}

/// Run one update's repair against the match cells. Callers uphold the
/// [`MatchSlots`] disjointness contract; `k`/`cap` are the eager walk
/// budget and visit cap. Generic over the walked topology: the serial
/// and threaded paths pass the live [`DeltaGraph`], a p2p shard worker
/// passes its shipped footprint slice.
pub(crate) fn run_repair<T: WalkTopology + ?Sized>(
    plan: &RepairPlan,
    dg: &T,
    slots: &MatchSlots<'_>,
    scratch: &mut SearchScratch,
    k: usize,
    cap: usize,
) -> RepairOutcome {
    fn forward<T: WalkTopology + ?Sized>(
        dg: &T,
        slots: &MatchSlots<'_>,
        scratch: &mut SearchScratch,
        out: &mut RepairOutcome,
        u: LeftId,
        k: usize,
        cap: usize,
    ) -> bool {
        if augment_from_left(slots, scratch, dg, u, k, cap) {
            out.size_delta += 1;
            out.augmentations += 1;
            out.dirty.extend_from_slice(&scratch.last_walk);
            true
        } else {
            false
        }
    }
    fn backward<T: WalkTopology + ?Sized>(
        dg: &T,
        slots: &MatchSlots<'_>,
        scratch: &mut SearchScratch,
        out: &mut RepairOutcome,
        v: RightId,
        k: usize,
        cap: usize,
    ) -> bool {
        if reclaim_into(slots, scratch, dg, v, k, cap) {
            out.size_delta += 1;
            out.augmentations += 1;
            out.dirty.extend_from_slice(&scratch.last_walk);
            true
        } else {
            false
        }
    }

    let mut out = RepairOutcome::default();
    match *plan {
        RepairPlan::Noop => {}
        RepairPlan::Place { u } => {
            forward(dg, slots, scratch, &mut out, u, k, cap);
        }
        RepairPlan::Release { u } => {
            if let Some(v) = slots.unmatch(u) {
                out.size_delta -= 1;
                out.evictions += 1;
                backward(dg, slots, scratch, &mut out, v, k, cap);
            }
        }
        RepairPlan::Rematch { u, v } => {
            if slots.mate(u) == Some(v) {
                slots.unmatch(u);
                out.size_delta -= 1;
                out.evictions += 1;
                if !forward(dg, slots, scratch, &mut out, u, k, cap) {
                    // u is newly free, but its link to the dirty right is
                    // the deleted edge itself: mark its surviving
                    // neighborhood so the epoch sweep examines u even
                    // when the (capped) eager search above gave up. Every
                    // other path that frees a left keeps a live marked
                    // neighbor (evictions keep the capacity-cut right,
                    // arrivals mark their whole edge set).
                    out.dirty.extend(dg.left_neighbors(u));
                }
                backward(dg, slots, scratch, &mut out, v, k, cap);
            }
        }
        RepairPlan::Evict { v } => {
            while slots.load(v) > dg.capacity(v) {
                let victim = slots.evict_one(v).expect("load > 0");
                out.size_delta -= 1;
                out.evictions += 1;
                forward(dg, slots, scratch, &mut out, victim, k, cap);
            }
        }
        RepairPlan::Fill { v } => {
            while slots.residual(dg, v) > 0 && backward(dg, slots, scratch, &mut out, v, k, cap) {}
        }
    }
    out
}

/// What [`ServeLoop::apply_wave`] reports per update, for the sharded
/// loop's ledger accounting.
#[derive(Debug)]
pub(crate) struct WaveUpdateResult {
    /// Id assigned to an [`Update::Arrive`], `None` otherwise.
    pub(crate) arrived: Option<LeftId>,
    /// Every right this update touched: its structural marks plus the
    /// rights its repairs perturbed.
    pub(crate) touched: Vec<RightId>,
}

impl ServeLoop {
    /// Solve `base` with the static stack (λ-oblivious fractional →
    /// greedy rounding → walk boosting) and start serving from that
    /// state.
    pub fn new(base: Bipartite, cfg: DynamicConfig) -> Self {
        let drift = DriftTracker::new(cfg.drift_threshold);
        let compaction = CompactionPolicy::new(cfg.compact_threshold);
        let (dg, levels, matching) = Self::solve_static(base, &cfg);
        ServeLoop {
            cfg,
            dg,
            levels,
            matching,
            dirty: Vec::new(),
            sweep_dirty: Vec::new(),
            drift,
            compaction,
            stats: ServeStats::default(),
            frac_reads: Cell::new(0),
            wave_scratch: Vec::new(),
            sweep_scratch: SweepScratch::default(),
            obs: Registry::new(),
            tracer: Tracer::default(),
        }
    }

    fn solve_static(base: Bipartite, cfg: &DynamicConfig) -> (DeltaGraph, Vec<i64>, Matching) {
        let out = run_with_guessing(&base, cfg.eps);
        let levels = out.result.levels;
        let rounded = rounding::round_greedy(&base, &out.result.fractional);
        let (boosted, _) = boost_hk(&base, &rounded, cfg.walk_budget);
        let dg = DeltaGraph::new(base);
        let matching = Matching::from_assignment(&dg, &boosted);
        (dg, levels, matching)
    }

    /// Apply one update with its local repairs. Returns the id assigned
    /// to an [`Update::Arrive`], `None` otherwise.
    pub fn apply(&mut self, update: &Update) -> Option<LeftId> {
        let (exp0, cap0) = (self.matching.expansions(), self.matching.cap_hits());
        let (plan, arrived) = self.apply_structural(update, None);
        let out = {
            let ServeLoop {
                dg, matching, cfg, ..
            } = self;
            let (slots, scratch) = matching.split();
            run_repair(
                &plan,
                dg,
                &slots,
                scratch,
                cfg.eager_budget(),
                cfg.eager_search_cap,
            )
        };
        self.absorb_outcome(out);
        self.obs
            .inc(Counter::WalkExpansions, self.matching.expansions() - exp0);
        self.obs
            .inc(Counter::SearchCapHits, self.matching.cap_hits() - cap0);
        arrived
    }

    /// The structural half of one update: mutate the live graph, charge
    /// the drift budget, mark dirty rights — everything that must happen
    /// serially in arrival order. Returns the deferred repair plan and
    /// the id an arrival was assigned.
    ///
    /// `forced_arrive` is the left id a batch scheduler staged for an
    /// `Arrive` (waves may run arrivals out of batch order — the staged
    /// id pins each to its serial slot via [`DeltaGraph::arrive_at`]);
    /// `None` allocates the next id, as the serial path always does.
    fn apply_structural(
        &mut self,
        update: &Update,
        forced_arrive: Option<LeftId>,
    ) -> (RepairPlan, Option<LeftId>) {
        self.stats.updates += 1;
        match update {
            Update::Arrive { neighbors } => {
                let u = match forced_arrive {
                    Some(id) => {
                        self.dg.arrive_at(id, neighbors);
                        id
                    }
                    None => self.dg.arrive(neighbors),
                };
                self.matching.ensure_left(self.dg.n_left());
                self.drift.charge(neighbors.len().max(1) as f64);
                for &v in neighbors {
                    self.mark_dirty(v);
                }
                (RepairPlan::Place { u }, Some(u))
            }
            Update::Depart { u } => {
                let freed = self.dg.depart(*u);
                self.drift.charge(freed.len() as f64);
                for &v in &freed {
                    self.mark_dirty(v);
                }
                (RepairPlan::Release { u: *u }, None)
            }
            Update::InsertEdge { u, v } => {
                if self.dg.insert_edge(*u, *v) {
                    self.drift.charge(1.0);
                    self.mark_dirty(*v);
                    (RepairPlan::Place { u: *u }, None)
                } else {
                    (RepairPlan::Noop, None)
                }
            }
            Update::DeleteEdge { u, v } => {
                if self.dg.delete_edge(*u, *v) {
                    self.drift.charge(1.0);
                    self.mark_dirty(*v);
                    (RepairPlan::Rematch { u: *u, v: *v }, None)
                } else {
                    (RepairPlan::Noop, None)
                }
            }
            Update::SetCapacity { v, cap } => {
                let old = self.dg.capacity(*v);
                self.dg.set_capacity(*v, *cap);
                self.drift.charge(old.abs_diff(*cap) as f64);
                self.mark_dirty(*v);
                let plan = if *cap < old {
                    RepairPlan::Evict { v: *v }
                } else {
                    RepairPlan::Fill { v: *v }
                };
                (plan, None)
            }
        }
    }

    /// Fold a repair's effects into the serial state, in arrival order.
    pub(crate) fn absorb_outcome(&mut self, out: RepairOutcome) {
        self.matching.absorb_wave(out.size_delta, 0, 0);
        self.stats.augmentations += out.augmentations;
        self.stats.evictions += out.evictions;
        self.obs
            .inc(Counter::Augmentations, out.augmentations as u64);
        self.obs.inc(Counter::Evictions, out.evictions as u64);
        self.sweep_dirty.extend_from_slice(&out.dirty);
    }

    /// Apply one conflict-free wave of updates: structural mutations run
    /// serially in arrival order, then the repairs of the updates flagged
    /// in `parallel_ok` execute on up to `threads` worker threads sharing
    /// the match cells (remaining repairs run on the caller's thread, in
    /// arrival order).
    ///
    /// # Correctness of the threaded phase
    ///
    /// The caller (the sharded serve loop) guarantees that the flagged
    /// updates have pairwise vertex-disjoint footprints on the batch's
    /// union graph `G⁺`, with the scheduler's radius covering every match
    /// cell a repair reads or writes — that is the [`MatchSlots`]
    /// aliasing contract, so the unsynchronized shared access never
    /// races. It also makes the repairs *commute*: a repair never
    /// observes another same-wave repair's writes (they are confined to
    /// the other footprint), and it never observes another same-wave
    /// update's structural edits either — reading an edited adjacency
    /// list would place the edited edge's right endpoint in both
    /// footprints. Hence any interleaving — including the serial one —
    /// produces the identical engine state, which keeps the workspace's
    /// determinism contract (results independent of thread count) and is
    /// exactly why `ShardedServeLoop ≡ ServeLoop` survives threading.
    /// Deferred effects (sizes, stats, dirty marks) are folded in by
    /// arrival index, so even the bookkeeping order is deterministic.
    pub(crate) fn apply_wave(
        &mut self,
        updates: &[&Update],
        parallel_ok: &[bool],
        arrive_ids: &[Option<u32>],
        threads: usize,
    ) -> Vec<WaveUpdateResult> {
        debug_assert_eq!(updates.len(), parallel_ok.len());
        debug_assert_eq!(updates.len(), arrive_ids.len());
        let (exp0, cap0) = (self.matching.expansions(), self.matching.cap_hits());
        let eager_k = self.cfg.eager_budget();
        let ecap = self.cfg.eager_search_cap;

        let (plans, mut results) = self.wave_structural(updates, arrive_ids);

        // Phase B — repairs. Disjoint-footprint plans fan out over real
        // threads once the wave is wide enough to pay for the spawns.
        let par_tasks: Vec<usize> = (0..plans.len())
            .filter(|&i| parallel_ok[i] && !matches!(plans[i], RepairPlan::Noop))
            .collect();
        let mut outcomes: Vec<Option<RepairOutcome>> = (0..plans.len()).map(|_| None).collect();
        let workers = threads.min(par_tasks.len());
        if workers > 1 {
            let n_left = self.dg.n_left();
            let n_right = self.dg.n_right();
            self.matching.ensure_left(n_left);
            if self.wave_scratch.len() < workers {
                self.wave_scratch
                    .resize_with(workers, SearchScratch::default);
            }
            let ServeLoop {
                dg,
                matching,
                wave_scratch,
                ..
            } = self;
            let dg: &DeltaGraph = dg;
            for s in wave_scratch[..workers].iter_mut() {
                s.ensure(n_left, n_right);
            }
            // SAFETY OF THE SHARING: `slots` is handed to every worker;
            // the footprint-disjointness contract above is what makes
            // the concurrent cell access sound.
            let slots = matching.slots();
            let next = std::sync::atomic::AtomicUsize::new(0);
            let done: Vec<Vec<(usize, RepairOutcome)>> = std::thread::scope(|scope| {
                let handles: Vec<_> = wave_scratch[..workers]
                    .iter_mut()
                    .map(|scratch| {
                        let slots = &slots;
                        let next = &next;
                        let plans = &plans;
                        let par_tasks = &par_tasks;
                        scope.spawn(move || {
                            let mut mine = Vec::new();
                            loop {
                                let t = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                let Some(&i) = par_tasks.get(t) else { break };
                                mine.push((
                                    i,
                                    run_repair(&plans[i], dg, slots, scratch, eager_k, ecap),
                                ));
                            }
                            mine
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("wave worker panicked"))
                    .collect()
            });
            for (i, out) in done.into_iter().flatten() {
                outcomes[i] = Some(out);
            }
            // Workers counted search work on their own scratch; fold the
            // totals back into the serial counters.
            let (mut expansions, mut cap_hits) = (0u64, 0u64);
            for s in &mut self.wave_scratch[..workers] {
                expansions += std::mem::take(&mut s.expansions);
                cap_hits += std::mem::take(&mut s.cap_hits);
            }
            self.matching.absorb_wave(0, expansions, cap_hits);
        }
        // Narrow waves, global escalations, and no-op plans run here, in
        // arrival order (they commute with the threaded repairs).
        for (i, plan) in plans.iter().enumerate() {
            if outcomes[i].is_none() && !matches!(plan, RepairPlan::Noop) {
                let ServeLoop { dg, matching, .. } = &mut *self;
                let (slots, scratch) = matching.split();
                outcomes[i] = Some(run_repair(plan, dg, &slots, scratch, eager_k, ecap));
            }
        }

        // Fold deferred effects in arrival order.
        for (i, out) in outcomes.into_iter().enumerate() {
            if let Some(out) = out {
                results[i].touched.extend_from_slice(&out.dirty);
                self.absorb_outcome(out);
            }
        }
        self.obs
            .inc(Counter::WalkExpansions, self.matching.expansions() - exp0);
        self.obs
            .inc(Counter::SearchCapHits, self.matching.cap_hits() - cap0);
        results
    }

    /// Phase A of a wave — structural mutations, serial, wave order.
    /// Arrivals land in their scheduler-staged id slots, so running a
    /// wave's arrivals out of batch order cannot scramble the id space.
    /// Returns the deferred repair plans and the per-update results with
    /// `touched` pre-filled from the structural dirty marks.
    pub(crate) fn wave_structural(
        &mut self,
        updates: &[&Update],
        arrive_ids: &[Option<u32>],
    ) -> (Vec<RepairPlan>, Vec<WaveUpdateResult>) {
        let mut plans: Vec<RepairPlan> = Vec::with_capacity(updates.len());
        let mut results: Vec<WaveUpdateResult> = Vec::with_capacity(updates.len());
        let mut mark_from: Vec<usize> = Vec::with_capacity(updates.len());
        for (i, up) in updates.iter().enumerate() {
            mark_from.push(self.sweep_dirty.len());
            let (plan, arrived) = self.apply_structural(up, arrive_ids[i]);
            plans.push(plan);
            results.push(WaveUpdateResult {
                arrived,
                touched: Vec::new(),
            });
        }
        for (i, r) in results.iter_mut().enumerate() {
            let to = mark_from
                .get(i + 1)
                .copied()
                .unwrap_or(self.sweep_dirty.len());
            r.touched
                .extend_from_slice(&self.sweep_dirty[mark_from[i]..to]);
        }
        (plans, results)
    }

    /// Run one deferred repair on this engine's own match cells, in the
    /// caller's (arrival) order — how the p2p coordinator executes the
    /// plans it does *not* ship (globals, no-ops, singleton waves).
    pub(crate) fn run_plan_local(&mut self, plan: &RepairPlan) -> RepairOutcome {
        let eager_k = self.cfg.eager_budget();
        let ecap = self.cfg.eager_search_cap;
        let ServeLoop { dg, matching, .. } = self;
        let (slots, scratch) = matching.split();
        run_repair(plan, dg, &slots, scratch, eager_k, ecap)
    }

    /// The matching's monotone search counters `(expansions, cap_hits)`:
    /// sample before a wave, feed the diffs to
    /// [`ServeLoop::wave_observe`] after.
    pub(crate) fn wave_counters(&self) -> (u64, u64) {
        (self.matching.expansions(), self.matching.cap_hits())
    }

    /// Record a wave's search-work observability against the counters
    /// sampled at its start (remote counters must be absorbed first).
    pub(crate) fn wave_observe(&mut self, exp0: u64, cap0: u64) {
        self.obs
            .inc(Counter::WalkExpansions, self.matching.expansions() - exp0);
        self.obs
            .inc(Counter::SearchCapHits, self.matching.cap_hits() - cap0);
    }

    /// Fold a remote wave's search counters into the matching's, exactly
    /// like the threaded executor folds its workers' scratch counters.
    pub(crate) fn absorb_search_counters(&mut self, expansions: u64, cap_hits: u64) {
        self.matching.absorb_wave(0, expansions, cap_hits);
    }

    /// Overwrite match rows with remotely computed values (raw replay;
    /// sizes ride in the outcomes, not the rows). Right rows replace the
    /// full ordered partner list — order is behaviorally observable.
    pub(crate) fn replay_rows(
        &mut self,
        lefts: &[(LeftId, Option<RightId>)],
        rights: Vec<(RightId, Vec<LeftId>)>,
    ) {
        for &(u, m) in lefts {
            self.matching.replay_left(u, m);
        }
        for (v, list) in rights {
            self.matching.replay_right(v, list);
        }
    }

    /// Read access to the maintained matching (p2p slice extraction).
    pub(crate) fn matching(&self) -> &Matching {
        &self.matching
    }

    /// Close the epoch: restore the global `k/(k+1)` certificate, repair
    /// the β-levels on the dirty ball, and rebuild or compact if the
    /// scheduler says so. Each step is its own phase (`cert_sweep`,
    /// `level_repair`, `compaction` — a drift rebuild, which folds the
    /// overlay too, records as `compaction`).
    pub fn end_epoch(&mut self) -> EpochReport {
        self.stats.epochs += 1;
        let epoch = self.stats.epochs as u64;
        self.obs
            .observe(Dist::SweepSize, self.sweep_dirty.len() as u64);
        let mut report = EpochReport::default();

        if self.drift.should_rebuild(self.dg.m()) {
            let sp = self.tracer.span(Phase::Compaction, epoch);
            self.rebuild();
            report.rebuilt = true;
            self.obs.phase_ns(Phase::Compaction, sp.close());
        } else {
            let sp = self.tracer.span(Phase::CertSweep, epoch);
            let exp0 = self.matching.expansions();
            let (aug, starts) = self.certificate_sweep();
            self.stats.augmentations += aug;
            self.obs.inc(Counter::Augmentations, aug as u64);
            report.sweep_augmentations = aug;
            report.sweep_starts = starts;
            report.sweep_expansions = self.matching.expansions() - exp0;
            self.obs
                .inc(Counter::SweepExpansions, report.sweep_expansions);
            self.obs.phase_ns(Phase::CertSweep, sp.close());
            if !self.dirty.is_empty() {
                let sp = self.tracer.span(Phase::LevelRepair, epoch);
                let rep = repair_levels(
                    &self.dg,
                    &mut self.levels,
                    &self.dirty,
                    &LevelRepairConfig {
                        eps: self.cfg.eps,
                        radius: self.cfg.repair_radius,
                        rounds: self.cfg.repair_rounds,
                        max_ball: self.cfg.repair_ball_cap,
                    },
                );
                self.stats.repair_rounds += rep.rounds_run;
                report.ball_rights = rep.ball_rights;
                self.obs.phase_ns(Phase::LevelRepair, sp.close());
            }
            if self
                .compaction
                .should_compact(self.dg.overlay_edges(), self.dg.m())
            {
                let sp = self.tracer.span(Phase::Compaction, epoch);
                self.dg = DeltaGraph::new(self.dg.compact());
                self.stats.compactions += 1;
                report.compacted = true;
                self.obs.phase_ns(Phase::Compaction, sp.close());
            }
        }

        self.dirty.clear();
        self.sweep_dirty.clear();
        report.match_size = self.matching.size();
        report
    }

    /// Restore the `k/(k+1)` certificate, skipping free left vertices
    /// whose alternating components were untouched since the last epoch.
    ///
    /// Soundness: the previous epoch ended walk-free, and every mutation
    /// since (graph edits, capacity moves, augmenting flips, newly freed
    /// lefts) marked its rights in `sweep_dirty`. A search from a free `u`
    /// only reads state within `k` right-hops of `N(u)`, so if that region
    /// contains no dirty right the search is guaranteed to fail exactly as
    /// it did at the last certificate — skipping it cannot change the
    /// outcome, which keeps this sweep's result identical to an
    /// unrestricted [`Matching::sweep`]. Flips performed *during* the
    /// sweep grow the region, and passes repeat until one is clean,
    /// certifying every (reachable) free vertex against the same final
    /// matching.
    ///
    /// The candidate set — *free* lefts within `k` right-hops of a dirty
    /// right — is derived once, from whichever side is smaller:
    ///
    /// - **forward** ([`forward_candidates`]), when free lefts are at
    ///   least as many as the dirty marks (`sweep_dirty`, duplicates
    ///   included): grow the radius-`k` region around the dirty rights
    ///   and collect the free lefts adjacent to it;
    /// - **inverted** ([`probe_candidates`]), when free lefts are fewer:
    ///   probe `k` right-hops out from each free left's neighbourhood and
    ///   keep the lefts whose probe reaches a dirty right. Right-hop
    ///   distance is symmetric — `N(u)` has a right within `k` hops of a
    ///   dirty right exactly when a dirty right has one within `k` hops
    ///   of `N(u)` — so this is the forward set, not an approximation. If
    ///   the probes together visit more than `n_right` rights the sweep
    ///   falls back to the forward derivation, which bounds the epoch's
    ///   worst case at about twice the forward cost.
    ///
    /// The set is extended exactly when a flip grows the region, so a pass
    /// costs `O(|candidates|)` mate probes plus the searches, instead of
    /// re-testing every left's neighborhood against the region each pass.
    /// The sweep only ever augments, so a left matched when the region
    /// reached it can never become free later — skipping matched lefts at
    /// derivation loses nothing. New candidates discovered mid-pass are
    /// appended (searched later the same pass); passes iterate in
    /// ascending id order and repeat until clean, so every candidate is
    /// certified against the final matching. The inverted derivation
    /// starts the region empty, so a flip's ball re-scans rights the
    /// forward region already held; their free neighbours are candidates
    /// already and `is_candidate` drops them, so both derivations append
    /// the same lefts in the same order and the sweep result is
    /// byte-identical.
    ///
    /// Returns `(augmentations, searches started)`.
    fn certificate_sweep(&mut self) -> (usize, usize) {
        if self.sweep_dirty.is_empty() {
            return (0, 0); // no-op epoch: the old certificate stands
        }
        let k = self.cfg.walk_budget;
        self.matching.ensure_left(self.dg.n_left());
        // The scratch persists across epochs (stamped membership clears
        // in `O(1)`, the vectors keep their capacity): the sweep performs
        // no dense `O(n)` allocation per epoch close.
        let mut scr = std::mem::take(&mut self.sweep_scratch);
        let (dg, dirty) = (&self.dg, &self.sweep_dirty);
        let free = dg.n_left() - self.matching.size();
        if free >= dirty.len()
            || !probe_candidates(dg, &self.matching, dirty, k, dg.n_right(), &mut scr)
        {
            forward_candidates(dg, &self.matching, dirty, k, &mut scr);
        }
        let out = self.search_candidates(&mut scr);
        self.sweep_scratch = scr;
        out
    }

    /// The search half of [`ServeLoop::certificate_sweep`]: exact searches
    /// from the derived candidates, in ascending id order, absorbing each
    /// flip's ball, until a pass augments nothing. Returns
    /// `(augmentations, searches started)`.
    fn search_candidates(&mut self, scr: &mut SweepScratch) -> (usize, usize) {
        let k = self.cfg.walk_budget;
        let dg = &self.dg;
        let mut total = 0usize;
        let mut starts = 0usize;
        loop {
            scr.candidates.sort_unstable();
            let mut progressed = 0usize;
            let mut at = 0usize;
            while at < scr.candidates.len() {
                let u = scr.candidates[at];
                at += 1;
                if self.matching.mate(u).is_some() {
                    continue;
                }
                starts += 1;
                // Searches are uncapped: the certificate must be exact.
                if self.matching.try_augment_from_left(dg, u, k, usize::MAX) {
                    progressed += 1;
                    scr.absorb_ball(dg, &self.matching, self.matching.last_walk(), k);
                }
            }
            total += progressed;
            if progressed == 0 {
                return (total, starts);
            }
        }
    }

    /// Force a full static rebuild from the compacted live graph.
    pub fn rebuild(&mut self) {
        let snapshot = self.dg.compact();
        let (dg, levels, matching) = Self::solve_static(snapshot, &self.cfg);
        self.dg = dg;
        self.levels = levels;
        self.matching = matching;
        self.drift.reset();
        self.stats.rebuilds += 1;
        self.dirty.clear();
        self.sweep_dirty.clear();
    }

    fn mark_dirty(&mut self, v: RightId) {
        // The dirty list stays small per epoch; linear dedup would be
        // quadratic under heavy churn, so duplicates are tolerated and the
        // ball computation deduplicates.
        self.dirty.push(v);
        self.sweep_dirty.push(v);
    }

    /// The current match of left vertex `u`. `O(1)`.
    #[inline]
    pub fn query(&self, u: LeftId) -> Option<RightId> {
        self.matching.mate(u)
    }

    /// Current matching cardinality. `O(1)`.
    #[inline]
    pub fn match_size(&self) -> usize {
        self.matching.size()
    }

    /// The maintained integral allocation.
    pub fn assignment(&self) -> Assignment {
        self.matching.assignment()
    }

    /// The live graph.
    pub fn graph(&self) -> &DeltaGraph {
        &self.dg
    }

    /// The maintained β-levels (indexed by right vertex).
    pub fn levels(&self) -> &[i64] {
        &self.levels
    }

    /// Materialize the live graph as a frozen snapshot. `O(n + m)`.
    pub fn snapshot(&self) -> Bipartite {
        self.dg.compact()
    }

    /// The fractional allocation induced by the maintained levels on the
    /// live graph: Algorithm 1's closing aggregation (lines 5–6) over a
    /// fresh [`DeltaGraph::compact`] snapshot, edge ids in its order.
    /// `O(n + m)` per call, bit-identical to `finalize_from_levels` on a
    /// builder-built snapshot of the live edges.
    ///
    /// Nothing is memoized: every churn epoch edits the edge set, which
    /// shifts the snapshot's edge ids, so a memo keyed on them could be
    /// reused only after epochs that move levels or capacities alone.
    /// Those epochs pay the same linear recompute.
    pub fn fractional(&self) -> FractionalAllocation {
        self.frac_reads.set(self.frac_reads.get() + 1);
        finalize_from_levels(&self.dg.compact(), &self.levels, self.cfg.eps)
    }

    /// Counters of [`ServeLoop::fractional`], shaped
    /// `(full recomputes, ball refreshes, cache hits)`. Every call is a
    /// full recompute, so the first entry counts calls and the other two
    /// always read 0; the tuple keeps the shape the serving benchmark
    /// reads, and a later change to that benchmark may retire it.
    pub fn fractional_cache_counters(&self) -> (u64, u64, u64) {
        (self.frac_reads.get(), 0, 0)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The hot-path metrics registry (counters, distributions, per-phase
    /// latency histograms). Always present; disabled registries record
    /// nothing.
    pub fn obs(&self) -> &Registry {
        &self.obs
    }

    /// Mutable registry access (toggling, merging, external records).
    pub fn obs_mut(&mut self) -> &mut Registry {
        &mut self.obs
    }

    /// Attach a phase tracer. [`Tracer`]s are cheap clones of one shared
    /// sink, so the same tracer can be attached to several engines and
    /// their spans interleave (with depths) in one stream.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The attached phase tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The configuration this loop runs with.
    pub fn config(&self) -> &DynamicConfig {
        &self.cfg
    }

    /// Borrow everything a warm restart persists (see
    /// [`snapshot`](crate::snapshot) for the on-disk format) — no copy:
    /// checkpoints serialize the live state in place. The sweep and wave
    /// scratch are deliberately absent: both are rebuildable caches whose
    /// loss changes no observable allocation state.
    pub(crate) fn parts_ref(&self) -> ServePartsRef<'_> {
        ServePartsRef {
            cfg: &self.cfg,
            dg: &self.dg,
            levels: &self.levels,
            mate: self.matching.mate_slice(),
            matched_at: self.matching.matched_at_slice(),
            expansions: self.matching.expansions(),
            dirty: &self.dirty,
            sweep_dirty: &self.sweep_dirty,
            drift_accumulated: self.drift.accumulated(),
            stats: &self.stats,
        }
    }

    /// Rebuild an engine from exported parts, re-validating the
    /// cross-structure invariants (snapshot payloads are external input):
    /// the matching must be feasible on the restored live graph, the
    /// level vector must cover the right side, dirty marks must be in
    /// range, and the drift weight must be a usable budget charge.
    pub(crate) fn from_parts(p: ServeParts) -> Result<ServeLoop, String> {
        if p.levels.len() != p.dg.n_right() {
            return Err(format!(
                "levels has {} entries for {} right vertices",
                p.levels.len(),
                p.dg.n_right()
            ));
        }
        let n_right = p.dg.n_right() as u32;
        if p.dirty.iter().chain(&p.sweep_dirty).any(|&v| v >= n_right) {
            return Err("dirty mark out of range".into());
        }
        if !(p.drift_accumulated.is_finite() && p.drift_accumulated >= 0.0) {
            return Err(format!("drift weight {} unusable", p.drift_accumulated));
        }
        if !(p.cfg.eps > 0.0 && p.cfg.eps <= 1.0) || p.cfg.walk_budget == 0 {
            return Err(format!(
                "config unusable: ε = {}, walk budget {}",
                p.cfg.eps, p.cfg.walk_budget
            ));
        }
        // Guard the scheduler constructors: both assert positive
        // thresholds, and a corrupt payload must error, not panic.
        if !(p.cfg.drift_threshold > 0.0
            && p.cfg.drift_threshold.is_finite()
            && p.cfg.compact_threshold > 0.0
            && p.cfg.compact_threshold.is_finite())
        {
            return Err(format!(
                "config unusable: drift threshold {}, compact threshold {}",
                p.cfg.drift_threshold, p.cfg.compact_threshold
            ));
        }
        let matching = Matching::from_state(&p.dg, p.matching)?;
        let mut drift = DriftTracker::new(p.cfg.drift_threshold);
        drift.restore(p.drift_accumulated);
        let compaction = CompactionPolicy::new(p.cfg.compact_threshold);
        Ok(ServeLoop {
            cfg: p.cfg,
            dg: p.dg,
            levels: p.levels,
            matching,
            dirty: p.dirty,
            sweep_dirty: p.sweep_dirty,
            drift,
            compaction,
            stats: p.stats,
            frac_reads: Cell::new(0),
            wave_scratch: Vec::new(),
            sweep_scratch: SweepScratch::default(),
            obs: Registry::new(),
            tracer: Tracer::default(),
        })
    }

    /// Full consistency check (tests / debugging): the matching is
    /// feasible on the live graph and the level vector has the right
    /// shape.
    pub fn validate(&self) -> Result<(), String> {
        self.matching.validate(&self.dg)?;
        if self.levels.len() != self.dg.n_right() {
            return Err(format!(
                "levels has {} entries for {} right vertices",
                self.levels.len(),
                self.dg.n_right()
            ));
        }
        Ok(())
    }

    /// Independent check of the `k/(k+1)` certificate (tests /
    /// debugging): no free left has an augmenting walk of length
    /// `≤ 2k−1`. A brute-force depth-first enumeration of every
    /// alternating walk from every free left — right-simple, which loses
    /// nothing, since a walk that revisits a right shortcuts to a shorter
    /// one. It shares no code with the sweep's BFS searches, so it can
    /// catch a sweep that skips a left it should have searched. The
    /// enumeration is exponential in `k`: small instances only.
    pub fn validate_certificate(&self) -> Result<(), String> {
        /// Extend `walk` from left `x` with `hops` matched hops left;
        /// `true` (with `walk` holding the rights) once it reaches a
        /// right with spare capacity.
        fn extend(
            s: &ServeLoop,
            x: LeftId,
            hops: usize,
            on_walk: &mut [bool],
            walk: &mut Vec<RightId>,
        ) -> bool {
            let matched_at = s.matching.matched_at_slice();
            let mx = s.matching.mate(x);
            for w in s.dg.left_neighbors_iter(x) {
                if mx == Some(w) || on_walk[w as usize] {
                    continue;
                }
                walk.push(w);
                if (matched_at[w as usize].len() as u64) < s.dg.capacity(w) {
                    return true;
                }
                if hops > 0 {
                    on_walk[w as usize] = true;
                    for &x2 in &matched_at[w as usize] {
                        if extend(s, x2, hops - 1, on_walk, walk) {
                            return true;
                        }
                    }
                    on_walk[w as usize] = false;
                }
                walk.pop();
            }
            false
        }
        let k = self.cfg.walk_budget;
        let mut on_walk = vec![false; self.dg.n_right()];
        let mut walk = Vec::new();
        for u in 0..self.dg.n_left() as LeftId {
            if self.matching.mate(u).is_none() && extend(self, u, k - 1, &mut on_walk, &mut walk) {
                return Err(format!(
                    "free left {u} has an augmenting walk of length {} through rights {walk:?} \
                     (budget 2k−1 = {})",
                    2 * walk.len() - 1,
                    2 * k - 1
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sparse_alloc_flow::opt::opt_value;
    use sparse_alloc_graph::generators::{star, union_of_spanning_trees};
    use sparse_alloc_graph::BipartiteBuilder;

    fn serve(g: Bipartite, eps: f64) -> ServeLoop {
        ServeLoop::new(g, DynamicConfig::for_eps(eps))
    }

    /// Close an epoch and check the result against the independent
    /// certificate oracle, as well as for feasibility.
    fn close(s: &mut ServeLoop) -> EpochReport {
        let r = s.end_epoch();
        s.validate().unwrap();
        s.validate_certificate().unwrap();
        r
    }

    #[test]
    fn starts_from_a_boosted_solution() {
        let g = union_of_spanning_trees(120, 100, 3, 2, 7).graph;
        let opt = opt_value(&g);
        let s = serve(g, 0.25);
        s.validate().unwrap();
        let k = s.config().walk_budget as f64;
        assert!(s.match_size() as f64 >= k / (k + 1.0) * opt as f64 - 1e-9);
    }

    #[test]
    fn arrivals_match_when_capacity_exists() {
        let g = star(3, 10).graph; // center has room for 10
        let mut s = serve(g, 0.25);
        assert_eq!(s.match_size(), 3);
        let u = s.apply(&Update::Arrive { neighbors: vec![0] }).unwrap();
        assert_eq!(u, 3);
        assert_eq!(s.query(u), Some(0));
        assert_eq!(s.match_size(), 4);
        close(&mut s);
        s.validate().unwrap();
    }

    #[test]
    fn departures_free_capacity_for_the_waitlist() {
        // Star with capacity 2 and 4 leaves: two leaves wait. A departure
        // must hand the slot to a waiting leaf via reclaim.
        let g = star(4, 2).graph;
        let mut s = serve(g, 0.25);
        assert_eq!(s.match_size(), 2);
        let matched: Vec<u32> = (0..4).filter(|&u| s.query(u).is_some()).collect();
        s.apply(&Update::Depart { u: matched[0] });
        assert_eq!(s.match_size(), 2, "reclaim refills the freed slot");
        assert_eq!(s.query(matched[0]), None);
        close(&mut s);
        s.validate().unwrap();
    }

    #[test]
    fn capacity_decrease_evicts_and_replaces() {
        // Two centers; shrinking one must push its clients to the other.
        let mut b = BipartiteBuilder::new(4, 2);
        for u in 0..4u32 {
            b.add_edge(u, 0);
            b.add_edge(u, 1);
        }
        let g = b.build(vec![4, 4]).unwrap();
        let mut s = serve(g, 0.25);
        assert_eq!(s.match_size(), 4);
        s.apply(&Update::SetCapacity { v: 0, cap: 1 });
        close(&mut s);
        s.validate().unwrap();
        assert_eq!(s.match_size(), 4, "evictees re-place on the other center");
        let loads = s.assignment().right_loads(2);
        assert!(loads[0] <= 1);
    }

    #[test]
    fn capacity_increase_pulls_in_waiters() {
        let g = star(6, 2).graph;
        let mut s = serve(g, 0.25);
        assert_eq!(s.match_size(), 2);
        s.apply(&Update::SetCapacity { v: 0, cap: 6 });
        assert_eq!(s.match_size(), 6);
        close(&mut s);
        s.validate().unwrap();
    }

    #[test]
    fn edge_churn_keeps_the_certificate() {
        let g = union_of_spanning_trees(80, 60, 2, 2, 11).graph;
        let mut s = serve(g, 0.25);
        // Delete a slice of edges, insert some back, close the epoch.
        let snapshot = s.snapshot();
        let edges: Vec<(u32, u32)> = snapshot.edges().map(|(_, u, v)| (u, v)).collect();
        for &(u, v) in edges.iter().step_by(7) {
            s.apply(&Update::DeleteEdge { u, v });
        }
        for &(u, v) in edges.iter().step_by(14) {
            s.apply(&Update::InsertEdge { u, v });
        }
        close(&mut s);
        s.validate().unwrap();
        let live = s.snapshot();
        let opt = opt_value(&live);
        let k = s.config().walk_budget as f64;
        assert!(
            s.match_size() as f64 >= k / (k + 1.0) * opt as f64 - 1e-9,
            "size {} vs OPT {opt}",
            s.match_size()
        );
    }

    #[test]
    fn drift_budget_triggers_rebuild() {
        let g = union_of_spanning_trees(40, 30, 2, 2, 5).graph;
        let mut cfg = DynamicConfig::for_eps(0.25);
        cfg.drift_threshold = 0.01; // tiny budget: rebuild quickly
        let mut s = ServeLoop::new(g, cfg);
        let snapshot = s.snapshot();
        let edges: Vec<(u32, u32)> = snapshot.edges().map(|(_, u, v)| (u, v)).collect();
        for &(u, v) in edges.iter().take(10) {
            s.apply(&Update::DeleteEdge { u, v });
        }
        let report = close(&mut s);
        assert!(report.rebuilt);
        assert_eq!(s.stats().rebuilds, 1);
        assert_eq!(s.graph().overlay_edges(), 0, "rebuild folds the overlay");
        s.validate().unwrap();
    }

    #[test]
    fn compaction_folds_the_overlay() {
        let g = union_of_spanning_trees(40, 30, 2, 2, 6).graph;
        let mut cfg = DynamicConfig::for_eps(0.25);
        cfg.drift_threshold = 10.0; // never rebuild
        cfg.compact_threshold = 0.05;
        let mut s = ServeLoop::new(g, cfg);
        // Arrivals live entirely in the overlay (base edges deleted and
        // re-inserted leave no residue, by design).
        for i in 0..10u32 {
            s.apply(&Update::Arrive {
                neighbors: vec![i % 30, (i + 7) % 30],
            });
        }
        assert!(s.graph().overlay_edges() > 0);
        let m_live = s.graph().m();
        let report = close(&mut s);
        assert!(report.compacted);
        assert_eq!(s.graph().overlay_edges(), 0);
        assert_eq!(s.graph().m(), m_live);
        s.validate().unwrap();
    }

    #[test]
    fn sweep_examines_a_left_freed_by_deleting_its_matched_bridge() {
        // u0 is matched over a "bridge" edge to v1; its only other
        // neighbor v0 is saturated, and the augmenting walk for u0 after
        // the bridge is deleted (u0–v0–u1–v2) needs one matched hop. With
        // the eager search cap at 0, the per-update repair gives up
        // immediately — the epoch sweep must still examine u0 even though
        // the deleted edge was its only link to the marked dirty right.
        // Start from the forced matching u0–v1, u1–v0 (each left has one
        // edge), then add the walk edges as updates so the mates stay put.
        let mut b = BipartiteBuilder::new(2, 3);
        b.add_edge(0, 1); // the bridge
        b.add_edge(1, 0);
        let g = b.build(vec![1, 1, 1]).unwrap();
        let mut cfg = DynamicConfig::for_eps(0.25);
        cfg.eager_search_cap = 0;
        cfg.drift_threshold = 100.0; // isolate the sweep: never rebuild
        let mut s = ServeLoop::new(g, cfg);
        assert_eq!(s.query(0), Some(1));
        assert_eq!(s.query(1), Some(0));
        s.apply(&Update::InsertEdge { u: 0, v: 0 });
        s.apply(&Update::InsertEdge { u: 1, v: 2 });
        close(&mut s);
        assert_eq!(s.query(0), Some(1), "matched lefts are left alone");
        s.apply(&Update::DeleteEdge { u: 0, v: 1 });
        let r = close(&mut s);
        s.validate().unwrap();
        assert!(!r.rebuilt, "the sweep itself must do the repair");
        assert_eq!(
            s.match_size(),
            2,
            "sweep must re-route u0 through v0 (sweep report: {r:?})"
        );
        assert_eq!(s.query(0), Some(0));
        assert_eq!(s.query(1), Some(2));
    }

    #[test]
    fn noop_epoch_performs_zero_walk_expansions() {
        let g = union_of_spanning_trees(60, 40, 2, 2, 9).graph;
        let mut s = serve(g, 0.25);
        // Nothing changed since construction: the boosted certificate
        // stands, so the sweep must not search at all.
        let r = close(&mut s);
        assert_eq!(r.sweep_expansions, 0, "no-op epoch searched");
        assert_eq!(r.sweep_starts, 0);
        assert_eq!(r.sweep_augmentations, 0);

        // Churn an epoch, then go idle again: the idle epoch is free.
        let edges: Vec<(u32, u32)> = s.snapshot().edges().map(|(_, u, v)| (u, v)).collect();
        for &(u, v) in edges.iter().step_by(9) {
            s.apply(&Update::DeleteEdge { u, v });
        }
        close(&mut s);
        let r = close(&mut s);
        assert_eq!(r.sweep_expansions, 0);
        assert_eq!(r.sweep_starts, 0);
        s.validate().unwrap();
    }

    /// `finalize_from_levels` on a builder-built snapshot of the live
    /// edges — the reference `ServeLoop::fractional` must match bit for bit.
    fn fractional_from_scratch(s: &ServeLoop) -> FractionalAllocation {
        use sparse_alloc_core::fractional::finalize_from_levels;
        let dg = s.graph();
        let mut b = BipartiteBuilder::new(dg.n_left(), dg.n_right());
        for u in 0..dg.n_left() as LeftId {
            b.extend_edges(dg.left_neighbors_iter(u).map(|v| (u, v)));
        }
        let g = b.build(dg.capacities().to_vec()).unwrap();
        finalize_from_levels(&g, s.levels(), s.config().eps)
    }

    #[test]
    fn fractional_equals_a_builder_snapshot_recompute() {
        let g = union_of_spanning_trees(50, 40, 2, 3, 8).graph;
        let mut s = serve(g, 0.25);
        let check = |s: &ServeLoop| {
            let (f, want) = (s.fractional(), fractional_from_scratch(s));
            assert!(f.x == want.x && f.weight == want.weight);
        };
        check(&s);

        // A capacity-only epoch: levels and capacities move, edges do not.
        s.apply(&Update::SetCapacity { v: 3, cap: 5 });
        close(&mut s);
        check(&s);

        // Structural churn: an arrival, an insert onto it (an unsorted
        // overlay row) and a deleted base edge; then a drift rebuild,
        // which folds the overlay.
        let u = s
            .apply(&Update::Arrive {
                neighbors: vec![7, 1],
            })
            .unwrap();
        s.apply(&Update::InsertEdge { u, v: 0 });
        let v = s.graph().left_neighbors_iter(2).next().unwrap();
        s.apply(&Update::DeleteEdge { u: 2, v });
        close(&mut s);
        check(&s);
        s.rebuild();
        check(&s);
        assert_eq!(s.fractional_cache_counters(), (4, 0, 0));
    }

    #[test]
    fn deterministic_under_the_same_stream() {
        let g = union_of_spanning_trees(50, 40, 2, 2, 8).graph;
        let run = || {
            let mut s = serve(g.clone(), 0.25);
            s.apply(&Update::DeleteEdge { u: 3, v: 5 });
            s.apply(&Update::Arrive {
                neighbors: vec![1, 2, 3],
            });
            s.apply(&Update::SetCapacity { v: 9, cap: 5 });
            close(&mut s);
            (s.assignment().mate, s.levels().to_vec())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_graph_serves() {
        let g = BipartiteBuilder::new(0, 0).build(vec![]).unwrap();
        let mut s = serve(g, 0.5);
        assert_eq!(s.match_size(), 0);
        let r = close(&mut s);
        assert_eq!(r.match_size, 0);
        s.validate().unwrap();
    }

    /// An engine churned by `updates` with no epoch closed since its
    /// (certified) start, so its dirty marks cover every change since the
    /// last certificate. A tiny eager cap leaves the longer walks to the
    /// sweep; `k` is the walk budget.
    fn churned(g: Bipartite, updates: &[Update], k: usize, eager_cap: usize) -> ServeLoop {
        let mut cfg = DynamicConfig::for_eps(0.25);
        cfg.walk_budget = k;
        cfg.eager_walk_budget = k;
        cfg.eager_search_cap = eager_cap;
        cfg.drift_threshold = 100.0; // the sweep, never a rebuild
        let mut s = ServeLoop::new(g, cfg);
        for up in updates {
            s.apply(up);
        }
        s
    }

    /// What one sweep from a given candidate derivation did: the derived
    /// candidates (sorted: the sweep searches in ascending id order),
    /// `(augmentations, searches started)`, and the final mates.
    type SweepRun = (Vec<u32>, (usize, usize), Vec<Option<RightId>>);

    fn sweep_forward(s: &mut ServeLoop) -> SweepRun {
        s.matching.ensure_left(s.dg.n_left());
        let mut scr = SweepScratch::default();
        let k = s.cfg.walk_budget;
        forward_candidates(&s.dg, &s.matching, &s.sweep_dirty, k, &mut scr);
        finish_sweep(s, scr)
    }

    fn sweep_inverted(s: &mut ServeLoop) -> SweepRun {
        s.matching.ensure_left(s.dg.n_left());
        let mut scr = SweepScratch::default();
        let k = s.cfg.walk_budget;
        let decided = probe_candidates(&s.dg, &s.matching, &s.sweep_dirty, k, usize::MAX, &mut scr);
        assert!(decided, "an unbounded probe always decides");
        finish_sweep(s, scr)
    }

    fn finish_sweep(s: &mut ServeLoop, mut scr: SweepScratch) -> SweepRun {
        let mut derived = scr.candidates.clone();
        derived.sort_unstable();
        let out = s.search_candidates(&mut scr);
        (derived, out, s.assignment().mate)
    }

    /// Both derivations against each other and against `end_epoch` (which
    /// picks one by the crossover rule, budget fallback included); every
    /// result must pass the certificate oracle. Returns the forward run
    /// and `(free lefts, dirty marks)` before the sweep.
    fn derivations_agree(
        g: &Bipartite,
        updates: &[Update],
        k: usize,
        eager_cap: usize,
    ) -> (SweepRun, (usize, usize)) {
        let mut fwd = churned(g.clone(), updates, k, eager_cap);
        let mut inv = churned(g.clone(), updates, k, eager_cap);
        let mut live = churned(g.clone(), updates, k, eager_cap);
        let sides = (live.dg.n_left() - live.match_size(), live.sweep_dirty.len());
        let f = sweep_forward(&mut fwd);
        let i = sweep_inverted(&mut inv);
        assert_eq!(f, i, "forward and inverted sweeps diverged");
        let r = close(&mut live);
        assert_eq!(
            (r.sweep_augmentations, r.sweep_starts),
            f.1,
            "end_epoch's sweep diverged"
        );
        assert_eq!(live.assignment().mate, f.2);
        for s in [&fwd, &inv] {
            s.validate().unwrap();
            s.validate_certificate().unwrap();
        }
        (f, sides)
    }

    #[test]
    fn inverted_derivation_matches_forward_when_free_lefts_are_scarce() {
        // Plentiful capacity (few free lefts) under heavy churn, eager
        // searches capped at 0: the crossover picks the inverted side and
        // the sweep augments mid-pass. Pin both on a spread of seeds, on
        // sparse graphs (one or two spanning trees) whose distances
        // exceed the walk budgets, so a probe one hop short would miss.
        use crate::adapter::{churn_stream, ChurnMix};
        let (mut scarce, mut mid_pass) = (0, 0);
        for seed in 0..24u64 {
            let trees = 1 + seed as u32 % 2;
            let g = union_of_spanning_trees(60, 40, trees, 2, seed).graph;
            let updates = churn_stream(&g, 40, &ChurnMix::default(), seed + 100);
            for (k, eager_cap) in [(1, 0), (2, 0), (4, 0), (4, 64)] {
                let ((_, (aug, _), _), (free, dirty)) =
                    derivations_agree(&g, &updates, k, eager_cap);
                if free < dirty {
                    scarce += 1;
                    if aug > 0 {
                        mid_pass += 1;
                    }
                }
            }
        }
        assert!(
            scarce > 0,
            "no instance had fewer free lefts than dirty marks"
        );
        assert!(
            mid_pass > 0,
            "no free < dirty instance augmented in the sweep"
        );
    }

    #[test]
    fn an_exhausted_probe_budget_leaves_the_derivation_undecided() {
        // 40 lefts on 30 unit slots: free lefts with neighbours exist, so
        // a budget of 0 rights cannot decide, and `certificate_sweep`
        // falls back to the forward derivation; a full budget decides.
        let g = union_of_spanning_trees(40, 30, 2, 1, 3).graph;
        let updates = [Update::DeleteEdge { u: 0, v: 0 }];
        let k = 4;
        let s = churned(g.clone(), &updates, k, 0);
        let mut scr = SweepScratch::default();
        assert!(!probe_candidates(
            &s.dg,
            &s.matching,
            &s.sweep_dirty,
            k,
            0,
            &mut scr
        ));
        assert!(probe_candidates(
            &s.dg,
            &s.matching,
            &s.sweep_dirty,
            k,
            usize::MAX,
            &mut scr
        ));
        derivations_agree(&g, &updates, k, 0);
    }

    /// A small instance: up to 20 lefts, 14 rights, capacities 1–3.
    fn small_instance() -> impl Strategy<Value = Bipartite> {
        (2usize..20, 2usize..14).prop_flat_map(|(nl, nr)| {
            let edges = proptest::collection::vec((0..nl as u32, 0..nr as u32), 0..40);
            let caps = proptest::collection::vec(1u64..=3, nr);
            (Just(nl), Just(nr), edges, caps).prop_map(|(nl, nr, edges, caps)| {
                let mut b = BipartiteBuilder::new(nl, nr);
                b.extend_edges(edges);
                b.build(caps).expect("in-range instance")
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On random small instances and update streams, the forward and
        /// inverted candidate derivations return the same candidates, and
        /// sweeps from them (and `end_epoch`'s own) end in the same mates.
        #[test]
        fn candidate_derivations_agree(
            g in small_instance(),
            ops in proptest::collection::vec((0u8..5, 0u32..1_000_000, 0u32..1_000_000, 1u64..=3), 0..30),
            k in 1usize..5,
            eager_cap in 0usize..3,
        ) {
            let (mut nl, nr) = (g.n_left() as u32, g.n_right() as u32);
            let mut updates = Vec::with_capacity(ops.len());
            for &(kind, a, b, cap) in &ops {
                updates.push(match kind {
                    0 => {
                        nl += 1;
                        Update::Arrive { neighbors: vec![a % nr, b % nr] }
                    }
                    1 => Update::Depart { u: a % nl },
                    2 => Update::InsertEdge { u: a % nl, v: b % nr },
                    3 => Update::DeleteEdge { u: a % nl, v: b % nr },
                    _ => Update::SetCapacity { v: a % nr, cap },
                });
            }
            derivations_agree(&g, &updates, k, eager_cap);
        }
    }
}
