//! The serving façade: consume updates, answer assignment queries.
//!
//! [`ServeLoop`] owns the live graph (a [`DeltaGraph`] overlay), the
//! β-levels of the proportional dynamics, and the maintained integral
//! allocation. Updates are applied with `O(τ)`-ball local repairs;
//! [`ServeLoop::end_epoch`] restores the global `k/(k+1)` walk-freeness
//! certificate with one [`Matching::sweep`] over every free left with a
//! live edge (skipped when no update marked a right since the last close),
//! re-runs the level
//! dynamics on the dirty rights, and folds the overlay into a fresh CSR
//! snapshot once the churn since the last fold exceeds the `O(ε)` budget.
//! A fold keeps the certified matching; it re-solves the levels only
//! when their fractional weight has fallen below `(1 − ε/2)·|M|`.
//! Rounding and boosting run once, in [`ServeLoop::new`].
//!
//! Between epochs, queries ([`ServeLoop::query`],
//! [`ServeLoop::match_size`]) are `O(1)` reads of maintained state.

use std::cell::Cell;

use sparse_alloc_core::boosting::boost_hk;
use sparse_alloc_core::fractional::{finalize_from_levels, FractionalAllocation};
use sparse_alloc_core::guessing::run_with_guessing;
use sparse_alloc_core::rounding;
use sparse_alloc_graph::{Assignment, Bipartite, DeltaGraph, LeftId, RightId};
use sparse_alloc_obs::{Counter, Phase, Registry, Tracer};

use crate::repair::{LevelRepairConfig, LevelScratch};
use crate::update::Update;
use crate::walks::{
    augment_from_left, reclaim_into, MatchSlots, Matching, MatchingState, SearchScratch,
    WalkTopology,
};

/// The largest level magnitude a restore accepts. The aggregates subtract
/// levels of rights that share a left, so a difference of two accepted
/// levels stays far from overflow; the dynamics move a level by one per
/// round, so no served state comes near this.
const MAX_LEVEL: u64 = (i64::MAX / 4) as u64;

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
    /// Fraction of live edges' worth of churn that folds the overlay
    /// (the `O(ε)` drift budget). Every overlay edge is charged to it, so
    /// the overlay never exceeds `drift_threshold · m` at an epoch close.
    pub drift_threshold: f64,
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
}

impl DynamicConfig {
    /// The standard configuration for a given ε: walk budget `⌈1/ε⌉`,
    /// drift budget `ε/2`.
    pub fn for_eps(eps: f64) -> Self {
        assert!(eps > 0.0 && eps <= 1.0, "ε ∈ (0, 1]");
        let k = (1.0 / eps).ceil() as usize;
        DynamicConfig {
            eps,
            walk_budget: k,
            drift_threshold: eps / 2.0,
            eager_search_cap: 64,
            eager_walk_budget: k,
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
    /// Folds that re-solved the levels (their fractional weight had
    /// fallen below `(1 − ε/2)·|M|`).
    pub rebuilds: usize,
    /// Overlay folds (churn budget exceeded).
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
    /// Searches the sweep started, summed over its passes: every free
    /// left with a live edge once per pass (a free left of degree 0, such
    /// as a departed slot, has no walk to find). Zero for a no-op epoch
    /// (no right marked since the last close): the previous certificate
    /// still stands, so no search runs.
    pub sweep_starts: usize,
    /// BFS right-vertex expansions the sweep performed. Zero for a no-op
    /// epoch, like `sweep_starts`.
    pub sweep_expansions: u64,
    /// Right vertices the β-level repair re-ran: the epoch's distinct
    /// dirty rights (0 if no repair ran).
    pub ball_rights: usize,
    /// Did the fold re-solve the levels?
    pub rebuilt: bool,
    /// Did the churn budget fold the overlay?
    pub compacted: bool,
    /// `|M|` after the epoch.
    pub match_size: usize,
}

/// Everything a warm restart persists of a [`ServeLoop`] — the engine
/// state with the rebuildable search and level-repair scratch stripped —
/// as the snapshot decoder hands it to [`ServeLoop::from_parts`]. The
/// encoder reads the live engine in place instead. The wire form lives
/// in [`snapshot`](crate::snapshot).
#[derive(Debug, Clone)]
pub(crate) struct ServeParts {
    pub(crate) cfg: DynamicConfig,
    pub(crate) dg: DeltaGraph,
    pub(crate) levels: Vec<i64>,
    pub(crate) matching: MatchingState,
    pub(crate) dirty: Vec<RightId>,
    pub(crate) drift_accumulated: f64,
    pub(crate) stats: ServeStats,
}

/// The dynamic allocation engine.
#[derive(Debug)]
pub struct ServeLoop {
    cfg: DynamicConfig,
    dg: DeltaGraph,
    levels: Vec<i64>,
    matching: Matching,
    /// Update sites since the last epoch close, with repeats: the rights
    /// whose β-levels the close repairs. Every update that can move the
    /// matching marks one, so an epoch that marked none leaves the last
    /// certificate standing and the close skips the sweep.
    dirty: Vec<RightId>,
    /// Churn charged since the last fold: an arrival its degree (at least
    /// 1), a departure its freed edges, an edge insert or delete 1, a
    /// capacity move its size. Persisted, so a restored engine folds on
    /// the uninterrupted run's schedule.
    drift: f64,
    stats: ServeStats,
    /// [`ServeLoop::fractional`] calls, each a full recompute (see
    /// [`ServeLoop::fractional_cache_counters`]).
    frac_reads: Cell<u64>,
    /// Persistent scratch for the per-epoch β-level repair, so it
    /// performs no `O(n)` dense allocation.
    level_scratch: LevelScratch,
    /// Hot-path metrics (counters, distributions, per-phase latency).
    /// Always carried; a disabled registry turns every record call into
    /// one predictable branch (the e19 overhead A/B).
    obs: Registry,
    /// Phase tracer. Disabled (and allocation-free) unless a caller
    /// attaches a sink via [`ServeLoop::set_tracer`]; spans still measure
    /// so the registry's latency histograms fill either way.
    tracer: Tracer,
}

/// The deferred (repair) half of one update: everything
/// [`ServeLoop::apply_structural`] could not do because it touches
/// matching state. Footprint-covered, so disjoint-footprint plans commute
/// — which is what lets the p2p engine run each on the shard worker
/// owning its footprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RepairPlan {
    /// Structural phase was a no-op (duplicate insert, dead delete).
    Noop,
    /// Try to place left `u` (fresh arrival or newly inserted edge).
    Place { u: LeftId },
    /// Left `u` left: release its match, refill the freed slot.
    Release { u: LeftId },
    /// Edge `(u, v)` died: if it carried the match, re-place `u` and
    /// refill `v`.
    Rematch { u: LeftId, v: RightId },
    /// Capacity of `v` dropped: evict the excess, re-place each victim.
    Evict { v: RightId },
    /// Capacity of `v` grew: pull waiters into the new slots.
    Fill { v: RightId },
}

/// What one repair did, recorded relative to the engine state so the
/// effects can be folded in deterministically in arrival order (and
/// shipped back over the wire after a p2p wave).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct RepairOutcome {
    /// Net matching growth (augmentations minus releases).
    pub(crate) size_delta: i64,
    /// Successful augmenting walks.
    pub(crate) augmentations: usize,
    /// Matches released by departures, dead edges, and capacity cuts.
    pub(crate) evictions: usize,
    /// Rights this repair's flipped walks touched, in the serial
    /// observation order: the sharded loop charges the foreign ones as
    /// handoff traffic.
    pub(crate) dirty: Vec<RightId>,
}

/// Run one update's repair against the match cells; `k`/`cap` are the
/// eager walk budget and visit cap. Generic over the walked topology:
/// the serial and wave paths pass the live [`DeltaGraph`], a p2p shard
/// worker passes its shipped footprint slice.
pub(crate) fn run_repair<T: WalkTopology + ?Sized>(
    plan: &RepairPlan,
    dg: &T,
    slots: &mut MatchSlots<'_>,
    scratch: &mut SearchScratch,
    k: usize,
    cap: usize,
) -> RepairOutcome {
    fn forward<T: WalkTopology + ?Sized>(
        dg: &T,
        slots: &mut MatchSlots<'_>,
        scratch: &mut SearchScratch,
        out: &mut RepairOutcome,
        u: LeftId,
        k: usize,
        cap: usize,
    ) {
        if augment_from_left(slots, scratch, dg, u, k, cap) {
            out.size_delta += 1;
            out.augmentations += 1;
            out.dirty.extend_from_slice(&scratch.last_walk);
        }
    }
    fn backward<T: WalkTopology + ?Sized>(
        dg: &T,
        slots: &mut MatchSlots<'_>,
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
                forward(dg, slots, scratch, &mut out, u, k, cap);
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

/// What one update did, for the sharded loop's `repair_wave` accounting
/// ([`ServeLoop::apply_touching`], or p2p's wave fold).
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
        assert!(
            cfg.drift_threshold > 0.0,
            "drift threshold must be positive"
        );
        let solved = run_with_guessing(&base, cfg.eps).result;
        let rounded = rounding::round_greedy(&base, &solved.fractional);
        let (boosted, _) = boost_hk(&base, &rounded, cfg.walk_budget);
        let dg = DeltaGraph::new(base);
        let matching = Matching::from_assignment(&dg, &boosted);
        ServeLoop {
            cfg,
            dg,
            levels: solved.levels,
            matching,
            dirty: Vec::new(),
            drift: 0.0,
            stats: ServeStats::default(),
            frac_reads: Cell::new(0),
            level_scratch: LevelScratch::default(),
            obs: Registry::new(),
            tracer: Tracer::default(),
        }
    }

    /// Apply one update with its local repairs. Returns the id assigned
    /// to an [`Update::Arrive`], `None` otherwise.
    pub fn apply(&mut self, update: &Update) -> Option<LeftId> {
        let (exp0, cap0) = self.wave_counters();
        let (plan, arrived) = self.apply_structural(update, None);
        let out = self.run_plan_local(&plan);
        self.absorb_outcome(out);
        self.wave_observe(exp0, cap0);
        arrived
    }

    /// [`ServeLoop::apply`], also reporting the rights the update
    /// touched: its structural marks, then the rights its repair's
    /// flipped walks touched. The sharded loop charges the foreign ones
    /// as its waves' handoff traffic.
    pub(crate) fn apply_touching(&mut self, update: &Update) -> WaveUpdateResult {
        let (exp0, cap0) = self.wave_counters();
        let from = self.dirty.len();
        let (plan, arrived) = self.apply_structural(update, None);
        let out = self.run_plan_local(&plan);
        let mut touched = self.dirty[from..].to_vec();
        touched.extend_from_slice(&out.dirty);
        self.absorb_outcome(out);
        self.wave_observe(exp0, cap0);
        WaveUpdateResult { arrived, touched }
    }

    /// The structural half of one update: mutate the live graph, charge
    /// the drift budget, mark dirty rights — everything that must happen
    /// serially in arrival order. Returns the deferred repair plan and
    /// the id an arrival was assigned.
    ///
    /// `forced_arrive` is p2p-only: the left id the batch scheduler
    /// staged for an `Arrive` that p2p's wave executor runs out of batch
    /// order (the staged id pins it to its serial slot via
    /// [`DeltaGraph::arrive_at`]). `None` allocates the next id, as every
    /// batch-order path does.
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
                self.drift += neighbors.len().max(1) as f64;
                for &v in neighbors {
                    self.mark_dirty(v);
                }
                (RepairPlan::Place { u }, Some(u))
            }
            Update::Depart { u } => {
                let freed = self.dg.depart(*u);
                self.drift += freed.len() as f64;
                for &v in &freed {
                    self.mark_dirty(v);
                }
                (RepairPlan::Release { u: *u }, None)
            }
            Update::InsertEdge { u, v } => {
                if self.dg.insert_edge(*u, *v) {
                    self.drift += 1.0;
                    self.mark_dirty(*v);
                    (RepairPlan::Place { u: *u }, None)
                } else {
                    (RepairPlan::Noop, None)
                }
            }
            Update::DeleteEdge { u, v } => {
                if self.dg.delete_edge(*u, *v) {
                    self.drift += 1.0;
                    self.mark_dirty(*v);
                    (RepairPlan::Rematch { u: *u, v: *v }, None)
                } else {
                    (RepairPlan::Noop, None)
                }
            }
            Update::SetCapacity { v, cap } => {
                let old = self.dg.capacity(*v);
                self.dg.set_capacity(*v, *cap);
                self.drift += old.abs_diff(*cap) as f64;
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
    }

    /// Phase A of a p2p wave — structural mutations, serial, wave order.
    /// Arrivals land in their scheduler-staged id slots, so running a
    /// wave's arrivals out of batch order cannot scramble the id space.
    /// Returns the deferred repair plans and the per-update results with
    /// `touched` pre-filled from the structural dirty marks. This and
    /// the row replay and remote counter fold below serve p2p's wave
    /// executor alone, and go with it.
    pub(crate) fn wave_structural(
        &mut self,
        updates: &[&Update],
        arrive_ids: &[Option<u32>],
    ) -> (Vec<RepairPlan>, Vec<WaveUpdateResult>) {
        let mut plans: Vec<RepairPlan> = Vec::with_capacity(updates.len());
        let mut results: Vec<WaveUpdateResult> = Vec::with_capacity(updates.len());
        for (up, &arrive_id) in updates.iter().zip(arrive_ids) {
            let from = self.dirty.len();
            let (plan, arrived) = self.apply_structural(up, arrive_id);
            plans.push(plan);
            results.push(WaveUpdateResult {
                arrived,
                touched: self.dirty[from..].to_vec(),
            });
        }
        (plans, results)
    }

    /// Run one deferred repair on this engine's own match cells, in the
    /// caller's (arrival) order: the repair half of [`ServeLoop::apply`],
    /// and how p2p's coordinator executes the plans it does *not* ship
    /// (globals, no-ops and empty footprints).
    pub(crate) fn run_plan_local(&mut self, plan: &RepairPlan) -> RepairOutcome {
        let eager_k = self.cfg.eager_budget();
        let ecap = self.cfg.eager_search_cap;
        let ServeLoop { dg, matching, .. } = self;
        let (mut slots, scratch) = matching.split();
        run_repair(plan, dg, &mut slots, scratch, eager_k, ecap)
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

    /// Fold a remote wave's search counters (counted on the shard
    /// workers' scratch) into the matching's.
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

    /// Read access to the maintained matching (worker slice extraction).
    pub(crate) fn matching(&self) -> &Matching {
        &self.matching
    }

    /// Close the epoch: restore the global `k/(k+1)` certificate, repair
    /// the β-levels of the dirty rights, and fold the overlay once the churn
    /// since the last fold exceeds `drift_threshold · m`. Each step is its
    /// own phase (`cert_sweep`, `level_repair` with its gather nested as
    /// `level_gather`, `compaction`).
    pub fn end_epoch(&mut self) -> EpochReport {
        self.stats.epochs += 1;
        let epoch = self.stats.epochs as u64;
        let mut report = EpochReport::default();

        let sp = self.tracer.span(Phase::CertSweep, epoch);
        let exp0 = self.matching.expansions();
        // An epoch that marked no right moved no edge, capacity or match
        // (an edgeless arrival or departure opens no walk): the last
        // certificate stands, and nothing is searched.
        let (aug, starts) = if self.dirty.is_empty() {
            (0, 0)
        } else {
            self.matching.sweep(&self.dg, self.cfg.walk_budget)
        };
        self.stats.augmentations += aug;
        self.obs.inc(Counter::Augmentations, aug as u64);
        report.sweep_augmentations = aug;
        report.sweep_starts = starts;
        report.sweep_expansions = self.matching.expansions() - exp0;
        self.obs
            .inc(Counter::SweepExpansions, report.sweep_expansions);
        sp.close(&mut self.obs);
        if !self.dirty.is_empty() {
            let sp = self.tracer.span(Phase::LevelRepair, epoch);
            // The repair ball is the dirty set, marked with repeats: in
            // batch order by the serial and sharded engines, in wave order
            // by p2p's wave executor. `⌈1/ε⌉` rounds, clamped to `[2, 8]`.
            self.dirty.sort_unstable();
            self.dirty.dedup();
            let cfg = LevelRepairConfig {
                eps: self.cfg.eps,
                rounds: ((1.0 / self.cfg.eps).ceil() as usize).clamp(2, 8),
            };
            let gather = self.tracer.span(Phase::LevelGather, epoch);
            self.level_scratch.gather(&self.dg, &self.dirty, &cfg);
            gather.close(&mut self.obs);
            self.level_scratch
                .run_rounds(&self.dg, &mut self.levels, &self.dirty, &cfg);
            self.stats.repair_rounds += cfg.rounds;
            report.ball_rights = self.dirty.len();
            sp.close(&mut self.obs);
        }
        if self.drift > self.cfg.drift_threshold * self.dg.m() as f64 {
            let sp = self.tracer.span(Phase::Compaction, epoch);
            report.rebuilt = self.fold();
            report.compacted = true;
            sp.close(&mut self.obs);
        }

        self.dirty.clear();
        report.match_size = self.matching.size();
        report
    }

    /// Fold the overlay into a fresh CSR snapshot and reset the churn
    /// budget. Vertex ids survive compaction, so the certified matching
    /// is kept as it stands. The levels are re-solved from scratch on the
    /// folded graph only when their fractional weight `W` has fallen below
    /// `(1 − ε/2)·|M|`: the certified matching is a lower bound on the
    /// optimum that comes for free. Returns whether the levels were
    /// re-solved.
    fn fold(&mut self) -> bool {
        let g = self.dg.compact();
        let eps = self.cfg.eps;
        let w = finalize_from_levels(&g, &self.levels, eps).weight;
        let resolve = w < (1.0 - eps / 2.0) * self.matching.size() as f64;
        if resolve {
            self.levels = run_with_guessing(&g, eps).result.levels;
            self.stats.rebuilds += 1;
        }
        self.dg = DeltaGraph::new(g);
        self.drift = 0.0;
        self.stats.compactions += 1;
        resolve
    }

    fn mark_dirty(&mut self, v: RightId) {
        // The dirty list stays small per epoch; linear dedup would be
        // quadratic under heavy churn, so duplicates are tolerated until
        // `end_epoch` sorts and deduplicates the list.
        self.dirty.push(v);
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
    /// live graph: Algorithm 1's closing aggregation (lines 5–6), read
    /// straight from the live left rows ([`LeftRows`](sparse_alloc_graph::LeftRows) on the
    /// [`DeltaGraph`]) with no compaction and no right index. Edge ids
    /// follow the live rows in left order, as a
    /// [`DeltaGraph::compact`] snapshot would number them. `O(n + m)`
    /// per call over the live rows, bit-identical to
    /// `finalize_from_levels` on a builder-built snapshot of the live
    /// edges.
    ///
    /// Nothing is memoized: every churn epoch edits the edge set, which
    /// shifts the edge ids, so a memo keyed on them could be reused only
    /// after epochs that move levels or capacities alone. Those epochs
    /// pay the same linear recompute.
    pub fn fractional(&self) -> FractionalAllocation {
        self.frac_reads.set(self.frac_reads.get() + 1);
        finalize_from_levels(&self.dg, &self.levels, self.cfg.eps)
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

    /// The update sites marked since the last epoch close, with repeats
    /// (checkpointing persists them as they stand).
    pub(crate) fn dirty(&self) -> &[RightId] {
        &self.dirty
    }

    /// The churn charged since the last fold (checkpointing persists it).
    pub(crate) fn drift(&self) -> f64 {
        self.drift
    }

    /// Rebuild an engine from exported parts, re-validating the
    /// cross-structure invariants (snapshot payloads are external input):
    /// the matching must be feasible on the restored live graph, the
    /// level vector must cover the right side with levels whose
    /// differences cannot overflow, dirty marks must be in range, and the
    /// drift weight and threshold must be a usable budget.
    pub(crate) fn from_parts(p: ServeParts) -> Result<ServeLoop, String> {
        if p.levels.len() != p.dg.n_right() {
            return Err(format!(
                "levels has {} entries for {} right vertices",
                p.levels.len(),
                p.dg.n_right()
            ));
        }
        if let Some(l) = p.levels.iter().find(|l| l.unsigned_abs() > MAX_LEVEL) {
            return Err(format!("level {l} outside ±{MAX_LEVEL}"));
        }
        let n_right = p.dg.n_right() as u32;
        if p.dirty.iter().any(|&v| v >= n_right) {
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
        if !(p.cfg.drift_threshold > 0.0 && p.cfg.drift_threshold.is_finite()) {
            return Err(format!(
                "config unusable: drift threshold {}",
                p.cfg.drift_threshold
            ));
        }
        let matching = Matching::from_state(&p.dg, p.matching)?;
        Ok(ServeLoop {
            cfg: p.cfg,
            dg: p.dg,
            levels: p.levels,
            matching,
            dirty: p.dirty,
            drift: p.drift_accumulated,
            stats: p.stats,
            frac_reads: Cell::new(0),
            level_scratch: LevelScratch::default(),
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
    fn the_level_repair_runs_on_the_distinct_dirty_rights() {
        // Every right starts at capacity 2; raising it to 3 marks the
        // right dirty, and a repeat marks it again without changing the
        // graph. So both engines end on one graph and one dirty set.
        let g = union_of_spanning_trees(120, 100, 3, 2, 7).graph;
        let cfg = DynamicConfig::for_eps(0.25);
        let raise = |s: &mut ServeLoop, order: &[RightId]| {
            for &v in order {
                s.apply(&Update::SetCapacity { v, cap: 3 });
            }
            let r = close(s);
            assert!(!r.rebuilt && !r.compacted);
            r
        };
        let mut once = ServeLoop::new(g.clone(), cfg.clone());
        let before = once.levels().to_vec();
        assert_eq!(raise(&mut once, &[0, 5, 9]).ball_rights, 3);
        let mut repeated = ServeLoop::new(g, cfg);
        assert_eq!(raise(&mut repeated, &[9, 5, 9, 0, 5, 5]).ball_rights, 3);
        assert_eq!(repeated.levels(), once.levels());
        // Only the dirty rights' levels moved, and the repair moved some.
        for (v, (&now, &was)) in once.levels().iter().zip(&before).enumerate() {
            assert!(now == was || [0, 5, 9].contains(&v), "level {v} moved");
        }
        assert_ne!(once.levels(), &before[..], "the repair moved no level");
    }

    /// Charge `units` of churn that moves no edge: capacity steps on `v`.
    fn charge(s: &mut ServeLoop, v: RightId, units: u64) {
        let cap = s.graph().capacity(v);
        s.apply(&Update::SetCapacity {
            v,
            cap: cap + units,
        });
    }

    #[test]
    fn fold_fires_one_unit_past_the_budget() {
        let g = union_of_spanning_trees(40, 30, 2, 2, 5).graph;
        let mut cfg = DynamicConfig::for_eps(0.25);
        cfg.drift_threshold = 1.0; // a whole budget: m units
        let mut s = ServeLoop::new(g, cfg);
        let budget = s.graph().m() as u64;
        charge(&mut s, 3, budget);
        let r = close(&mut s);
        assert!(!r.compacted, "exactly at budget: not yet");
        assert_eq!(s.stats().compactions, 0);
        charge(&mut s, 3, 1);
        let r = close(&mut s);
        assert!(r.compacted, "one unit past the budget folds");
        assert_eq!(s.stats().compactions, 1);
        // The fold reset the budget: the same unit no longer folds.
        charge(&mut s, 3, 1);
        assert!(!close(&mut s).compacted);
    }

    #[test]
    fn churn_on_an_edgeless_graph_folds() {
        let g = BipartiteBuilder::new(0, 2).build(vec![1, 1]).unwrap();
        let mut cfg = DynamicConfig::for_eps(0.5);
        cfg.drift_threshold = 100.0;
        let mut s = ServeLoop::new(g, cfg);
        assert!(!close(&mut s).compacted, "no churn, nothing to fold");
        charge(&mut s, 1, 1);
        assert!(close(&mut s).compacted, "any churn on no edges is total");
    }

    #[test]
    fn compaction_folds_the_overlay() {
        // A fold with healthy levels re-solves nothing: at the folding
        // epoch it leaves mates and levels equal to a twin that never
        // folds, and only the overlay goes.
        let g = union_of_spanning_trees(40, 30, 2, 2, 6).graph;
        let mut cfg = DynamicConfig::for_eps(0.25);
        cfg.drift_threshold = 0.05;
        let mut s = ServeLoop::new(g.clone(), cfg.clone());
        cfg.drift_threshold = 100.0;
        let mut twin = ServeLoop::new(g, cfg);
        // Arrivals live entirely in the overlay (base edges deleted and
        // re-inserted leave no residue, by design).
        for i in 0..10u32 {
            let up = Update::Arrive {
                neighbors: vec![i % 30, (i + 7) % 30],
            };
            s.apply(&up);
            twin.apply(&up);
        }
        assert!(s.graph().overlay_edges() > 0);
        let m_live = s.graph().m();
        let r = close(&mut s);
        let r_twin = close(&mut twin);
        assert!(r.compacted && !r.rebuilt, "{r:?}");
        assert!(!r_twin.compacted);
        assert_eq!(s.graph().overlay_edges(), 0);
        assert!(twin.graph().overlay_edges() > 0);
        assert_eq!(s.graph().m(), m_live);
        assert_eq!(s.assignment().mate, twin.assignment().mate);
        assert_eq!(s.levels(), twin.levels());
        assert_eq!(s.stats().rebuilds, 0);
    }

    #[test]
    fn zeroed_levels_make_the_fold_resolve_them() {
        // Lefts 0..10 each reach a shared hub (right 0) and a private
        // right; right 11 is isolated. All-zero levels split every left
        // evenly, so the hub wastes half of each: W = 1 + 10/2 = 6, well
        // below (1 − ε/2)·|M| = 8.75.
        let n = 10u32;
        let mut b = BipartiteBuilder::new(n as usize, n as usize + 2);
        for u in 0..n {
            b.add_edge(u, 0);
            b.add_edge(u, u + 1);
        }
        let g = b.build(vec![1; n as usize + 2]).unwrap();
        let mut cfg = DynamicConfig::for_eps(0.25);
        cfg.drift_threshold = 0.01;
        let mut s = ServeLoop::new(g, cfg);
        assert_eq!(s.match_size(), n as usize);
        let bar = (1.0 - 0.25 / 2.0) * n as f64;
        s.levels.iter_mut().for_each(|l| *l = 0);
        assert!(s.fractional().weight < bar);
        // Churn on the isolated right: its repair moves no level that
        // matters, so only the fold can mend them.
        charge(&mut s, n + 1, 1);
        let r = close(&mut s);
        assert!(r.compacted && r.rebuilt, "{r:?}");
        assert_eq!(s.stats().rebuilds, 1);
        assert_eq!(s.match_size(), n as usize, "the matching is kept");
        let w = s.fractional().weight;
        assert!(w >= bar, "re-solved W = {w} below {bar}");
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
        cfg.drift_threshold = 100.0; // isolate the sweep: never fold
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

    #[test]
    fn the_sweep_searches_a_free_left_far_from_every_dirty_right() {
        // Two components: u0 and u1 share the unit slot v0, so one of them
        // stays free; u2 alone holds v1. Raising v1's capacity marks only
        // v1, which no walk from the free left reaches. The sweep still
        // searches from that left: the certificate is re-checked from
        // every free left, not only from those near the epoch's marks.
        let mut b = BipartiteBuilder::new(3, 2);
        b.add_edge(0, 0);
        b.add_edge(1, 0);
        b.add_edge(2, 1);
        let g = b.build(vec![1, 1]).unwrap();
        let mut s = serve(g, 0.25);
        assert_eq!(s.match_size(), 2);
        s.apply(&Update::SetCapacity { v: 1, cap: 2 });
        let r = close(&mut s);
        assert_eq!(r.sweep_starts, 1, "the free left was not searched: {r:?}");
        assert_eq!(r.sweep_expansions, 1, "its search expands v0 once");
        assert_eq!(r.sweep_augmentations, 0);
        assert_eq!(s.match_size(), 2);
    }

    #[test]
    fn a_departed_left_starts_no_sweep_search() {
        // u0, u1 and u2 share the unit slot v0, so two of them stay free.
        // One free left departs: its slot stays free but keeps no edge, so
        // no walk can start there, and the sweeps search the other free
        // left only.
        let mut b = BipartiteBuilder::new(3, 1);
        for u in 0..3 {
            b.add_edge(u, 0);
        }
        let g = b.build(vec![1]).unwrap();
        let mut s = serve(g, 0.25);
        assert_eq!(s.match_size(), 1);
        let gone = (0..3).find(|&u| s.query(u).is_none()).unwrap();
        s.apply(&Update::Depart { u: gone });
        let r = close(&mut s);
        assert_eq!(r.sweep_starts, 1, "the departed slot was searched: {r:?}");
        // An epoch that marks v0 and moves nothing.
        s.apply(&Update::SetCapacity { v: 0, cap: 1 });
        let r = close(&mut s);
        assert_eq!(r.sweep_starts, 1, "the departed slot was searched: {r:?}");
        assert_eq!(r.sweep_expansions, 1, "the live free left expands v0 once");
        assert_eq!(r.sweep_augmentations, 0);
        assert_eq!(s.match_size(), 1);
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
        // overlay row) and a deleted base edge; then a fold.
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
        s.fold();
        check(&s);
        assert_eq!(s.fractional_cache_counters(), (4, 0, 0));
    }

    #[test]
    fn a_fold_epoch_reads_its_base_and_a_capacity_epoch_still_compacts() {
        use sparse_alloc_core::algo1::allocs_for_levels;
        use sparse_alloc_core::fractional::finalize_from_levels;
        let g = union_of_spanning_trees(60, 50, 2, 2, 4).graph;
        let mut cfg = DynamicConfig::for_eps(0.25);
        cfg.drift_threshold = 0.01;
        let mut s = ServeLoop::new(g, cfg);
        let check = |s: &ServeLoop| {
            let (f, want) = (s.fractional(), fractional_from_scratch(s));
            assert!(f.x == want.x && f.weight == want.weight);
        };

        // A churn epoch whose close folds: the live graph is its folded
        // base, and the read equals the builder recompute.
        let edges: Vec<(u32, u32)> = s.snapshot().edges().map(|(_, u, v)| (u, v)).collect();
        for &(u, v) in edges.iter().step_by(7) {
            s.apply(&Update::DeleteEdge { u, v });
        }
        s.apply(&Update::Arrive {
            neighbors: vec![3, 8],
        });
        assert!(close(&mut s).compacted, "the epoch folds");
        let live_is_base = |s: &ServeLoop| {
            let dg = s.graph();
            dg.overlay_edges() == 0
                && dg.n_left() == dg.base().n_left()
                && dg.capacities() == dg.base().capacities()
        };
        assert!(live_is_base(&s), "a fold leaves no overlay");
        check(&s);

        // A capacity-only epoch: the edges are the base's but the
        // capacities are not, so the read must take the live capacities —
        // the base's give a different allocation.
        let allocs = allocs_for_levels(s.graph().base(), s.levels(), s.config().eps);
        let v = (0..allocs.len())
            .max_by(|&a, &b| allocs[a].total_cmp(&allocs[b]))
            .unwrap();
        assert!(allocs[v] > 1.0, "a cut to capacity 1 binds at {v}");
        s.apply(&Update::SetCapacity {
            v: v as RightId,
            cap: 1,
        });
        assert!(!close(&mut s).compacted);
        assert!(!live_is_base(&s));
        check(&s);
        let stale = finalize_from_levels(s.graph().base(), s.levels(), s.config().eps);
        assert!(
            stale.x != s.fractional().x,
            "base capacities would be stale"
        );
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
    /// (certified) start. A tiny eager cap leaves the longer walks to the
    /// sweep; `k` is the walk budget.
    fn churned(g: Bipartite, updates: &[Update], k: usize, eager_cap: usize) -> ServeLoop {
        let mut cfg = DynamicConfig::for_eps(0.25);
        cfg.walk_budget = k;
        cfg.eager_walk_budget = k;
        cfg.eager_search_cap = eager_cap;
        cfg.drift_threshold = 100.0; // the sweep, never a fold
        let mut s = ServeLoop::new(g, cfg);
        for up in updates {
            s.apply(up);
        }
        s
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

        /// On random small instances and update streams, with the eager
        /// searches capped short so the sweep does the re-routing, the
        /// epoch close leaves no augmenting walk within the budget.
        #[test]
        fn end_epoch_certifies_random_churn(
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
            close(&mut churned(g, &updates, k, eager_cap));
        }
    }
}
