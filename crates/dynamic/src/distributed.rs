//! Distributed serving: shard the dynamic engine across the MPC simulator.
//!
//! [`ShardedServeLoop`] partitions the serving state — the
//! [`DeltaGraph`](sparse_alloc_graph::DeltaGraph) overlay, the β-levels,
//! and the maintained matching — across the machines of an
//! [`mpc`](sparse_alloc_mpc) cluster by vertex ownership
//! ([`ShardMap`]): every right (and left) vertex has a deterministic home
//! machine, the partitioning pattern of low-memory MPC matching
//! algorithms (Brandt–Fischer–Uitto, arXiv:1807.05374; Ghaffari–Uitto,
//! arXiv:1807.06251). Each epoch runs as a sequence of ledger-accounted
//! phases:
//!
//! 1. **Route** ([`Phase::RouteUpdates`]) — the update batch is shipped
//!    to the shards owning the update balls through real
//!    [`Cluster`] exchanges, chunked so no machine ever receives more
//!    than half its space budget in one round.
//! 2. **Repair waves** ([`Phase::RepairWave`]) — the
//!    [`batch`](crate::batch) scheduler groups updates whose conservative
//!    balls are vertex-disjoint; each wave repairs its balls in one
//!    simulated round (disjointness makes the repairs commute, so the
//!    result equals serial application — the property
//!    `tests/properties.rs` proves).
//!    Augmenting walks that cross shard boundaries pay for every foreign
//!    right they flip: the wave's round carries those handoff words.
//! 3. **Sweep** — the `k/(k+1)` certificate sweep: the free-left census
//!    is sorted by id (distributed sample sort — the global sweep order),
//!    the sweep runs, and the matching migrations it produced are
//!    committed to the shards owning the receiving rights
//!    ([`Phase::MigrationCommit`]), followed by an aggregated state census
//!    and a broadcast of the epoch summary.
//!
//! Every phase ends with [`Ledger::assert_space_within`] against the
//! per-machine budget (the simulated analogue of the paper's `n^δ`
//! regime, see [`ShardedServeLoop::space_budget`]), so an algorithm that
//! drifts out of its claimed space regime fails loudly.
//!
//! The simulator executes shard-local work in-process on the
//! authoritative engine (exactly like `core::mpc_exec` runs Algorithm 2):
//! what is *distributed* is the state ownership, the scheduling, and the
//! communication accounting — and the headline contract is that for any
//! update sequence and any shard count the maintained allocation is
//! **identical** to the serial [`ServeLoop`]'s.

use sparse_alloc_graph::{Assignment, Bipartite, LeftId, RightId};
use sparse_alloc_mpc::ledger::RoundRecord;
use sparse_alloc_mpc::primitives::{aggregate_by_key, broadcast_value, sort_by_key};
use sparse_alloc_mpc::{Cluster, Ledger, MpcConfig, MpcError, ShardMap, Words};
use sparse_alloc_obs::{Counter, Dist, Phase, Registry, Span, Tracer};

use crate::batch::{schedule, BatchSchedule, FOOTPRINT_CAP};
use crate::serve::{DynamicConfig, EpochReport, ServeLoop, ServeStats, WaveUpdateResult};
use crate::update::Update;

/// Slack factor of the per-machine space budget: a machine may hold
/// this many times its fair share of the state (hash imbalance, message
/// staging). See [`ShardedServeLoop::space_budget`].
const SPACE_SLACK: usize = 8;

/// Configuration of a [`ShardedServeLoop`]. The space slack (8×) and
/// the footprint cap ([`FOOTPRINT_CAP`]) are constants.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Number of machines the state is sharded across.
    pub shards: usize,
    /// The serial engine's configuration.
    pub dynamic: DynamicConfig,
}

impl ShardedConfig {
    /// The standard configuration: [`DynamicConfig::for_eps`] sharded
    /// `shards` ways, with the eager walk budget lowered to 1
    /// (footprint radius 1). Tight footprints are what give batches wide
    /// conflict-free waves on degree-heavy instances; the price is that
    /// re-routing moves from the eager per-update repairs into the epoch
    /// sweep. Serial-vs-sharded comparisons must build the serial engine
    /// from this `dynamic` config: the equivalence contract is
    /// per-config, and the eager budget changes which walks are flipped
    /// when.
    pub fn for_eps(eps: f64, shards: usize) -> Self {
        let mut dynamic = DynamicConfig::for_eps(eps);
        dynamic.eager_walk_budget = 1;
        ShardedConfig { shards, dynamic }
    }
}

/// Lifetime counters of a [`ShardedServeLoop`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardedStats {
    /// Update batches applied.
    pub batches: usize,
    /// Repair waves executed across all batches.
    pub waves: usize,
    /// Updates routed to their owning shards.
    pub routed_updates: usize,
    /// Words of cross-shard walk handoff traffic.
    pub handoff_words: u64,
    /// Matching migrations committed by certificate sweeps.
    pub migrations: usize,
    /// Updates escalated to global conflicts by the footprint cap.
    pub escalations: usize,
    /// Widest wave scheduled so far (updates repairing in parallel).
    pub widest_wave: usize,
    /// Updates placed above wave 0 — serialized behind a conflicting
    /// ball (or a global). Every update lands on its conflict floor, so
    /// this counter shows how much of the batch conflicts at all.
    pub delayed: usize,
}

/// What one [`ShardedServeLoop::apply_batch`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Updates in the batch.
    pub updates: usize,
    /// Parallel repair waves the batch was scheduled into.
    pub waves: usize,
    /// Updates serialized behind a conflicting ball.
    pub delayed: usize,
    /// Cross-shard walk handoff words this batch.
    pub handoff_words: u64,
    /// Updates escalated to global conflicts this batch.
    pub escalations: usize,
    /// Widest wave of this batch.
    pub widest_wave: usize,
}

/// What one [`ShardedServeLoop::end_epoch`] did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardedEpochReport {
    /// The serial engine's epoch report (sweep, repair, rebuild).
    pub serial: EpochReport,
    /// Matching migrations committed across shards.
    pub migrations: usize,
    /// Largest per-machine resident state after the epoch, in words.
    pub peak_shard_words: usize,
    /// The space budget the epoch was checked against.
    pub budget: usize,
}

/// One update batch after scheduling + routing but before any wave ran:
/// the state [`ShardedServeLoop::stage_batch`] hands whichever executor
/// drives the waves (the in-process one, or the networked engine, which
/// on a p2p mesh ships each wave to its owning shard workers).
#[derive(Debug)]
pub(crate) struct StagedBatch {
    /// The conflict-wave schedule.
    pub(crate) sched: BatchSchedule,
    /// The *delivered* update copies (the engine consumes these, not the
    /// caller's slice — a routing bug surfaces as divergence, not
    /// vanishes).
    pub(crate) routed: Vec<Option<Update>>,
    /// Batch ordinal, for trace spans.
    pub(crate) batch_no: u64,
    budget: usize,
    n_updates: usize,
    /// The batch's simulated-cost ledger (absorbed on finish).
    epoch: Ledger,
    /// Update indices sorted by wave.
    order: Vec<usize>,
    /// `order` ranges of the waves, in execution order.
    bounds: Vec<(usize, usize)>,
    handoff_total: u64,
}

impl StagedBatch {
    /// Number of waves.
    pub(crate) fn waves(&self) -> usize {
        self.bounds.len()
    }

    /// Batch-order update indices of wave `w`.
    pub(crate) fn wave_idxs(&self, w: usize) -> &[usize] {
        let (b, e) = self.bounds[w];
        &self.order[b..e]
    }
}

/// The sharded serving engine. See the [module docs](self).
#[derive(Debug)]
pub struct ShardedServeLoop {
    inner: ServeLoop,
    map: ShardMap,
    ledger: Ledger,
    stats: ShardedStats,
    /// Phase tracer: the sharded loop spans its MPC phases
    /// (schedule/route/wave/commit/census) on the same stream the serial
    /// engine spans its sweeps, each span carrying measured nanoseconds
    /// *and* the ledger's simulated words for the phase.
    tracer: Tracer,
}

impl ShardedServeLoop {
    /// Solve `base` with the static stack and start serving from that
    /// state, sharded `cfg.shards` ways. The initial resident state of
    /// each shard (its owned rights with their adjacency, and its lefts)
    /// is charged to the ledger and checked against the space budget.
    pub fn new(base: Bipartite, cfg: ShardedConfig) -> Result<Self, MpcError> {
        assert!(cfg.shards >= 1, "at least one shard");
        let inner = ServeLoop::new(base, cfg.dynamic);
        let map = ShardMap::new(cfg.shards);
        let mut this = ShardedServeLoop {
            inner,
            map,
            ledger: Ledger::default(),
            stats: ShardedStats::default(),
            tracer: Tracer::default(),
        };
        let words = this.shard_state_words();
        let budget = this.space_budget();
        let mut epoch = Ledger::default();
        epoch.observe_local(
            Phase::ShardState.label(),
            words.iter().copied().max().unwrap_or(0),
            words.iter().map(|&w| w as u64).sum(),
        );
        epoch.assert_space_within(budget)?;
        this.ledger.absorb(&epoch);
        Ok(this)
    }

    /// The per-machine space budget, in words — the simulated analogue of
    /// the paper's `n^δ` regime: with `N = Θ(W / S)` machines for state of
    /// `W` words, a machine's budget is `8 × ⌈W / N⌉` (floor 128 so
    /// degenerate instances keep headroom for control messages). It is
    /// recomputed from the *live* graph, so the budget tracks the instance
    /// the loop actually serves.
    pub fn space_budget(&self) -> usize {
        let dg = self.inner.graph();
        let total = 2 * dg.n_left() + 2 * dg.n_right() + dg.m();
        (SPACE_SLACK * total.div_ceil(self.map.shards())).max(128)
    }

    /// Rebuild a sharded loop around a restored serial engine with the
    /// recorded shard count and counters, optionally re-sharding onto
    /// `shards_override` machines (ownership is a pure function of the
    /// vertex id, so re-sharding is a re-keying, not a migration). The
    /// ledger's round history is not persisted: the restore starts a
    /// fresh accounting epoch with a [`Phase::Restore`] phase, like a
    /// real redeployment, while the serving counters carry over. The
    /// resident state is re-checked against the (possibly new)
    /// per-machine budget — a restore that would not fit the claimed
    /// space regime fails here instead of on the first epoch.
    pub(crate) fn from_parts(
        inner: ServeLoop,
        shards: usize,
        stats: ShardedStats,
        shards_override: Option<usize>,
    ) -> Result<Self, String> {
        let shards = shards_override.unwrap_or(shards);
        if shards == 0 {
            return Err("at least one shard".into());
        }
        let mut this = ShardedServeLoop {
            inner,
            map: ShardMap::new(shards),
            ledger: Ledger::default(),
            stats,
            tracer: Tracer::default(),
        };
        let words = this.shard_state_words();
        let budget = this.space_budget();
        let mut epoch = Ledger::default();
        epoch.observe_local(
            Phase::Restore.label(),
            words.iter().copied().max().unwrap_or(0),
            words.iter().map(|&w| w as u64).sum(),
        );
        epoch
            .assert_space_within(budget)
            .map_err(|e| format!("restored state leaves the space regime: {e}"))?;
        this.ledger.absorb(&epoch);
        Ok(this)
    }

    /// The vertex-ownership map the loop shards under.
    pub(crate) fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// Mutable accounting access for the networked engine
    /// ([`crate::net`]): its phases move *measured* bytes over a real
    /// transport, and recording them here keeps wire traffic and the
    /// simulator's word accounting on one ledger.
    pub(crate) fn ledger_mut(&mut self) -> &mut Ledger {
        &mut self.ledger
    }

    /// Record a checkpoint as a ledger phase: each machine stages its
    /// manifest and serialized slice locally (round-free — the bytes
    /// leave through the host, not the cluster).
    pub(crate) fn note_checkpoint(&mut self) {
        let words = self.shard_state_words();
        self.ledger.observe_local(
            Phase::Checkpoint.label(),
            words.iter().copied().max().unwrap_or(0),
            words.iter().map(|&w| w as u64).sum(),
        );
    }

    /// Resident state per shard, in words: each right vertex pays its
    /// capacity, level, and adjacency; each left vertex its id and mate.
    pub(crate) fn shard_state_words(&self) -> Vec<usize> {
        let dg = self.inner.graph();
        let mut w = vec![0usize; self.map.shards()];
        for v in 0..dg.n_right() as u32 {
            w[self.map.owner_of_right(v)] += 2 + dg.right_degree(v);
        }
        for u in 0..dg.n_left() as u32 {
            w[self.map.owner_of_left(u)] += 2;
        }
        w
    }

    /// Route `items` to `dest` through strict cluster exchanges, chunked
    /// so no machine sends or receives more than `budget / 2` words in one
    /// round (the streaming ingestion pattern: a batch bigger than the
    /// space budget takes proportionally more rounds, it does not violate
    /// the regime). A *single message* wider than the budget — e.g. an
    /// arrival whose neighbor list alone outgrows a machine — cannot be
    /// split and fails with [`MpcError::SpaceExceeded`]: such an instance
    /// genuinely leaves the space regime (the paper's remedy is the
    /// vertex-split reduction, `graph::reduction`), and this simulator
    /// surfaces regime violations instead of hiding them. The per-chunk
    /// ledgers accumulate into `epoch`; the delivered items are returned
    /// so callers consume what the cluster actually shipped.
    fn route_chunked<T, F>(
        &self,
        epoch: &mut Ledger,
        label: &'static str,
        items: Vec<T>,
        dest: F,
        budget: usize,
    ) -> Result<Vec<T>, MpcError>
    where
        T: Words + Send + Sync,
        F: Fn(&T) -> usize + Sync,
    {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let p = self.map.shards();
        let cap = (budget / 2).max(1);
        let mut chunks: Vec<Vec<T>> = Vec::new();
        let mut chunk: Vec<T> = Vec::new();
        let mut vol = vec![0usize; p];
        for item in items {
            let d = dest(&item);
            let w = item.words().max(1);
            if !chunk.is_empty() && vol[d] + w > cap {
                chunks.push(std::mem::take(&mut chunk));
                vol.iter_mut().for_each(|v| *v = 0);
            }
            vol[d] += w;
            chunk.push(item);
        }
        chunks.push(chunk);
        let mut delivered = Vec::new();
        for chunk in chunks {
            let cluster = Cluster::from_items(MpcConfig::strict(p, budget), chunk)?;
            let cluster = cluster.exchange_by(label, |t| dest(t))?;
            let (items, ledger) = cluster.into_items();
            delivered.extend(items);
            epoch.absorb(&ledger);
        }
        Ok(delivered)
    }

    /// Schedule + route one epoch's update batch without running any
    /// wave: everything the coordinator does before repairs execute,
    /// shared by the in-process wave executor ([`Self::apply_batch`]) and
    /// the networked engine (which drives [`Self::finish_wave`] /
    /// [`Self::finish_batch`] itself).
    /// Returns `None` for an empty batch.
    pub(crate) fn stage_batch(
        &mut self,
        updates: &[Update],
    ) -> Result<Option<StagedBatch>, MpcError> {
        if updates.is_empty() {
            return Ok(None);
        }
        self.stats.batches += 1;
        let batch_no = self.stats.batches as u64;
        let budget = self.space_budget();
        let phase = Phase::BatchSchedule;
        let mut sp = self.tracer.span(phase, batch_no);
        let sched: BatchSchedule = schedule(
            self.inner.graph(),
            updates,
            self.inner.config(),
            &self.map,
            FOOTPRINT_CAP,
        )?;
        let mut epoch = Ledger::default();

        // The footprints are per-machine staged scheduling state: account
        // them (and check them against the budget) like any other
        // resident phase data.
        let mut staged = vec![0usize; self.map.shards()];
        for plan in &sched.plans {
            staged[plan.owner] += plan.footprint_len as usize;
        }
        let staged_total: u64 = staged.iter().map(|&w| w as u64).sum();
        epoch.observe_local(
            phase.label(),
            staged.iter().copied().max().unwrap_or(0),
            staged_total,
        );
        sp.set_words(staged_total);
        {
            let obs = self.inner.obs_mut();
            sp.close(obs);
            obs.observe(Dist::BatchSize, updates.len() as u64);
            for plan in &sched.plans {
                obs.observe(Dist::BallSize, plan.footprint_len as u64);
                obs.observe(Dist::FootprintRadius, plan.depth as u64);
            }
        }

        // Phase 1 — route the batch to the owning shards. The engine
        // consumes the *delivered* copies, not the caller's slice: a
        // routing bug would surface as divergence from serial, not vanish.
        let phase = Phase::RouteUpdates;
        let mut sp = self.tracer.span(phase, batch_no);
        let msgs: Vec<(u32, u32, Update)> = updates
            .iter()
            .zip(&sched.plans)
            .enumerate()
            .map(|(i, (up, plan))| (plan.owner as u32, i as u32, up.clone()))
            .collect();
        let delivered =
            self.route_chunked(&mut epoch, phase.label(), msgs, |t| t.0 as usize, budget)?;
        let mut routed: Vec<Option<Update>> = vec![None; updates.len()];
        for (_, i, up) in delivered {
            routed[i as usize] = Some(up);
        }
        self.stats.routed_updates += updates.len();
        sp.set_words(epoch.words_labeled(phase.label()));
        let obs = self.inner.obs_mut();
        sp.close(obs);
        obs.inc(Counter::RoutedUpdates, updates.len() as u64);

        // Wave order: update indices grouped by wave, waves ascending.
        let mut order: Vec<usize> = (0..updates.len()).collect();
        order.sort_by_key(|&i| sched.plans[i].wave);
        let mut bounds: Vec<(usize, usize)> = Vec::with_capacity(sched.waves);
        let mut at = 0usize;
        while at < order.len() {
            let wave = sched.plans[order[at]].wave;
            let begin = at;
            while at < order.len() && sched.plans[order[at]].wave == wave {
                at += 1;
            }
            bounds.push((begin, at));
        }
        Ok(Some(StagedBatch {
            sched,
            routed,
            batch_no,
            budget,
            n_updates: updates.len(),
            epoch,
            order,
            bounds,
            handoff_total: 0,
        }))
    }

    /// Absorb one executed wave into the staged batch's accounting: the
    /// simulated `repair_wave` round carrying the wave's cross-shard
    /// repair traffic (rights touched outside the owning shard), the wave
    /// counters, and the width observation. Both executors call this
    /// after running wave `wave`, so the simulated cost model cannot drift
    /// between them. `span` is the wave's open [`Phase::RepairWave`]
    /// span; it closes here carrying the moved words.
    pub(crate) fn finish_wave(
        &mut self,
        staged: &mut StagedBatch,
        wave: usize,
        results: &[WaveUpdateResult],
        mut span: Span,
    ) {
        let p = self.map.shards();
        let mut sent = vec![0u64; p];
        let mut recv = vec![0u64; p];
        let idxs = staged.wave_idxs(wave);
        let width = idxs.len() as u64;
        for (&i, result) in idxs.iter().zip(results) {
            let plan = &staged.sched.plans[i];
            debug_assert_eq!(
                result.arrived, plan.arrive_id,
                "scheduler and engine agree on arrival ids"
            );
            for &r in &result.touched {
                let o = self.map.owner_of_right(r);
                if o != plan.owner {
                    sent[plan.owner] += 1;
                    recv[o] += 1;
                }
            }
        }
        let words = recv.iter().sum();
        staged.epoch.record(RoundRecord {
            words_moved: words,
            max_sent: sent.iter().copied().max().unwrap_or(0) as usize,
            max_received: recv.iter().copied().max().unwrap_or(0) as usize,
            max_storage: 0,
            total_storage: 0,
            label: Phase::RepairWave.label(),
        });
        staged.handoff_total += words;
        self.stats.waves += 1;
        span.set_words(words);
        let obs = self.inner.obs_mut();
        span.close(obs);
        obs.observe(Dist::WaveWidth, width);
    }

    /// Close out a staged batch after every wave ran: fold the schedule
    /// stats, assert the space budget, absorb the epoch ledger.
    pub(crate) fn finish_batch(&mut self, staged: StagedBatch) -> Result<BatchReport, MpcError> {
        self.stats.handoff_words += staged.handoff_total;
        self.stats.escalations += staged.sched.escalations;
        self.stats.delayed += staged.sched.delayed;
        let obs = self.inner.obs_mut();
        obs.inc(Counter::HandoffWords, staged.handoff_total);
        obs.inc(Counter::Escalations, staged.sched.escalations as u64);
        let widest = staged.sched.widths.iter().copied().max().unwrap_or(0);
        self.stats.widest_wave = self.stats.widest_wave.max(widest);

        staged.epoch.assert_space_within(staged.budget)?;
        self.ledger.absorb(&staged.epoch);
        Ok(BatchReport {
            updates: staged.n_updates,
            waves: staged.sched.waves,
            delayed: staged.sched.delayed,
            handoff_words: staged.handoff_total,
            escalations: staged.sched.escalations,
            widest_wave: widest,
        })
    }

    /// Apply one epoch's update batch: schedule conflict-free waves,
    /// route every update to the shard owning its ball, and repair wave
    /// by wave through [`ServeLoop`]'s wave executor. Disjoint balls
    /// commute, so the engine state equals serial application of the
    /// batch in arrival order.
    pub fn apply_batch(&mut self, updates: &[Update]) -> Result<BatchReport, MpcError> {
        let Some(mut staged) = self.stage_batch(updates)? else {
            return Ok(BatchReport::default());
        };

        for w in 0..staged.waves() {
            let spw = self.tracer.span(Phase::RepairWave, staged.batch_no);
            let idxs = staged.wave_idxs(w);
            let wave_updates: Vec<&Update> = idxs
                .iter()
                .map(|&i| {
                    staged.routed[i]
                        .as_ref()
                        .expect("every update was delivered")
                })
                .collect();
            // The wave may run arrivals out of batch order (a commuting
            // later arrival can share an earlier wave): hand the engine
            // the ids staging precomputed so each arrival lands in its
            // serial slot.
            let arrive_ids: Vec<Option<u32>> = idxs
                .iter()
                .map(|&i| staged.sched.plans[i].arrive_id)
                .collect();
            let results = self.inner.apply_wave(&wave_updates, &arrive_ids);
            self.finish_wave(&mut staged, w, &results, spw);
        }
        self.finish_batch(staged)
    }

    /// Close the epoch as a ledger-accounted MPC phase: sort the free-left
    /// census (the global sweep order), run the certificate sweep, commit
    /// the resulting matching migrations to the shards owning the
    /// receiving rights, aggregate the state census, and broadcast the
    /// epoch summary. Fails with [`MpcError::SpaceExceeded`] if any phase
    /// (or the resident state) leaves the space budget.
    pub fn end_epoch(&mut self) -> Result<ShardedEpochReport, MpcError> {
        let budget = self.space_budget();
        let p = self.map.shards();
        let mut epoch = Ledger::default();

        // Sweep order: distributed sample sort of the free-left census.
        let frees: Vec<u32> = (0..self.inner.graph().n_left() as u32)
            .filter(|&u| self.inner.query(u).is_none())
            .collect();
        let cluster = Cluster::from_items(MpcConfig::strict(p, budget), frees)?;
        let cluster = sort_by_key(cluster, |&u| u)?;
        let (_, sort_ledger) = cluster.into_items();
        epoch.absorb(&sort_ledger);

        let before = self.inner.matching().mate_slice().to_vec();
        let serial = self.inner.end_epoch();

        // Commit phase: every changed pair migrates to the shard owning
        // its new right (unmatches go home to the old right's owner).
        let mut migrations: Vec<(u32, u32, u32)> = Vec::new();
        for (u, &now) in self.inner.matching().mate_slice().iter().enumerate() {
            let was = before.get(u).copied().flatten();
            if was != now {
                migrations.push((
                    u as u32,
                    was.unwrap_or(u32::MAX),
                    now.map_or(u32::MAX, |v| v),
                ));
            }
        }
        let n_migrations = migrations.len();
        self.stats.migrations += n_migrations;
        let epoch_no = self.inner.stats().epochs as u64;
        // The serial core spanned its own sweep, level repair and
        // compaction; this span times the distributed commit of the
        // migrations they produced.
        let phase = Phase::MigrationCommit;
        let mut sp = self.tracer.span(phase, epoch_no);
        let map = self.map;
        let committed = self.route_chunked(
            &mut epoch,
            phase.label(),
            migrations,
            move |&(_, from, to)| {
                if to != u32::MAX {
                    map.owner_of_right(to)
                } else {
                    map.owner_of_right(from)
                }
            },
            budget,
        )?;
        debug_assert_eq!(committed.len(), n_migrations);
        sp.set_words(epoch.words_labeled(phase.label()));
        sp.close(self.inner.obs_mut());

        // State census (aggregate) + epoch summary (broadcast).
        let phase = Phase::ShardState;
        let mut spc = self.tracer.span(phase, epoch_no);
        let words = self.shard_state_words();
        let census: Vec<Vec<(u32, u64)>> = words.iter().map(|&w| vec![(0u32, w as u64)]).collect();
        let cluster = Cluster::from_partitioned(MpcConfig::strict(p, budget), census)?;
        let mut cluster = aggregate_by_key(cluster, |a, b| a + b)?;
        let summary = (serial.match_size as u64, serial.sweep_augmentations as u64);
        let copies = broadcast_value(&mut cluster, &summary)?;
        debug_assert_eq!(copies.len(), p);
        let (_, census_ledger) = cluster.into_items();
        epoch.absorb(&census_ledger);

        // Space accounting: resident per-shard state must fit the budget.
        let peak = words.iter().copied().max().unwrap_or(0);
        let resident: u64 = words.iter().map(|&w| w as u64).sum();
        epoch.observe_local(phase.label(), peak, resident);
        spc.set_words(resident);
        spc.close(self.inner.obs_mut());
        epoch.assert_space_within(budget)?;
        self.ledger.absorb(&epoch);

        Ok(ShardedEpochReport {
            serial,
            migrations: n_migrations,
            peak_shard_words: peak,
            budget,
        })
    }

    /// The current match of left vertex `u`. `O(1)`.
    #[inline]
    pub fn query(&self, u: LeftId) -> Option<RightId> {
        self.inner.query(u)
    }

    /// Current matching cardinality. `O(1)`.
    #[inline]
    pub fn match_size(&self) -> usize {
        self.inner.match_size()
    }

    /// The maintained integral allocation.
    pub fn assignment(&self) -> Assignment {
        self.inner.assignment()
    }

    /// Materialize the live graph as a frozen snapshot.
    pub fn snapshot(&self) -> Bipartite {
        self.inner.snapshot()
    }

    /// The underlying serial engine (state queries, configuration).
    pub fn serial(&self) -> &ServeLoop {
        &self.inner
    }

    /// Mutable access to the serial engine — the networked executor
    /// drives the wave primitives (`wave_structural`, outcome absorption,
    /// row replay) on it directly.
    pub(crate) fn serial_mut(&mut self) -> &mut ServeLoop {
        &mut self.inner
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.map.shards()
    }

    /// The accumulated round/word/space accounting across all epochs.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Sharding counters.
    pub fn stats(&self) -> &ShardedStats {
        &self.stats
    }

    /// The hot-path metrics registry — one per engine stack, owned by the
    /// serial core so eager repairs and sharded phases share counters.
    pub fn obs(&self) -> &Registry {
        self.inner.obs()
    }

    /// Mutable access to the metrics registry (see [`Self::obs`]).
    pub fn obs_mut(&mut self) -> &mut Registry {
        self.inner.obs_mut()
    }

    /// Install a phase tracer on the whole stack: the sharded loop and
    /// the serial core span onto the same (shared) sink.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// The stack's phase tracer (clones share one sink).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The serial engine's lifetime counters.
    pub fn serve_stats(&self) -> &ServeStats {
        self.inner.stats()
    }

    /// Full consistency check (tests / debugging).
    pub fn validate(&self) -> Result<(), String> {
        self.inner.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{churn_stream, ChurnMix};
    use sparse_alloc_graph::generators::union_of_spanning_trees;
    use sparse_alloc_graph::BipartiteBuilder;

    fn drive(shards: usize, seed: u64) -> (ShardedServeLoop, ServeLoop) {
        let g = union_of_spanning_trees(60, 45, 2, 2, seed).graph;
        let updates = churn_stream(&g, 120, &ChurnMix::default(), seed);
        let cfg = ShardedConfig::for_eps(0.25, shards);
        let dynamic = cfg.dynamic.clone();
        let mut sharded = ShardedServeLoop::new(g.clone(), cfg).unwrap();
        let mut serial = ServeLoop::new(g, dynamic);
        for chunk in updates.chunks(30) {
            sharded.apply_batch(chunk).unwrap();
            sharded.end_epoch().unwrap();
            for up in chunk {
                serial.apply(up);
            }
            serial.end_epoch();
        }
        (sharded, serial)
    }

    #[test]
    fn sharded_state_equals_serial_state() {
        for shards in [1usize, 3, 5] {
            let (sharded, serial) = drive(shards, 7 + shards as u64);
            sharded.validate().unwrap();
            assert_eq!(
                sharded.assignment().mate,
                serial.assignment().mate,
                "{shards} shards diverged from serial"
            );
            assert_eq!(sharded.match_size(), serial.match_size());
        }
    }

    #[test]
    fn escalated_wide_balls_equal_serial_state() {
        // Left 0 sees more rights than the footprint cap, so a capacity
        // change at one of them grows a ball past the cap and escalates
        // to a global conflict; the waves around it must still land on
        // the serial state.
        let n_right = 3 * FOOTPRINT_CAP as u32;
        let mut b = BipartiteBuilder::new(2000, n_right as usize);
        for v in 0..FOOTPRINT_CAP as u32 + 100 {
            b.add_edge(0, v);
        }
        for u in 1..2000u32 {
            for j in 0..3 {
                b.add_edge(u, (u * 7919 + j * 104_729) % n_right);
            }
        }
        let g = b.build_with_uniform_capacity(1).unwrap();
        let mut updates = churn_stream(&g, 80, &ChurnMix::default(), 31);
        updates.insert(0, Update::SetCapacity { v: 17, cap: 3 });
        let cfg = ShardedConfig::for_eps(0.25, 3);
        let mut serial = ServeLoop::new(g.clone(), cfg.dynamic.clone());
        let mut sharded = ShardedServeLoop::new(g, cfg).unwrap();
        let mut escalations = 0;
        for chunk in updates.chunks(27) {
            escalations += sharded.apply_batch(chunk).unwrap().escalations;
            sharded.end_epoch().unwrap();
            for up in chunk {
                serial.apply(up);
            }
            serial.end_epoch();
        }
        assert!(escalations > 0, "the wide ball escalated");
        sharded.validate().unwrap();
        assert_eq!(sharded.assignment().mate, serial.assignment().mate);
        assert_eq!(sharded.serial().levels(), serial.levels());
    }

    #[test]
    fn epochs_record_ledger_phases() {
        let (sharded, _) = drive(4, 11);
        let l = sharded.ledger();
        assert!(
            l.rounds_labeled(Phase::RouteUpdates.label()) >= 1,
            "routing rounds"
        );
        assert!(
            l.rounds_labeled(Phase::RepairWave.label()) >= 1,
            "wave rounds"
        );
        assert!(l.local_steps_labeled(Phase::ShardState.label()) >= 1);
        assert!(l.rounds > 0);
        let s = sharded.stats();
        assert!(s.batches >= 1 && s.routed_updates > 0);
        assert!(s.waves >= s.batches, "≥ one wave per batch");
    }

    #[test]
    fn serving_fills_the_metrics_registry() {
        let (sharded, _) = drive(3, 19);
        let obs = sharded.obs();
        assert!(obs.counter(Counter::RoutedUpdates) > 0, "routed counter");
        assert!(obs.counter(Counter::WalkExpansions) > 0, "walk expansions");
        assert!(obs.dist(Dist::BatchSize).count() > 0, "batch sizes");
        assert!(obs.dist(Dist::WaveWidth).count() > 0, "wave widths");
        assert!(obs.dist(Dist::BallSize).count() > 0, "ball sizes");
        for p in [
            Phase::BatchSchedule,
            Phase::RouteUpdates,
            Phase::RepairWave,
            Phase::CertSweep,
            Phase::LevelRepair,
            Phase::LevelGather,
            Phase::MigrationCommit,
            Phase::ShardState,
        ] {
            assert!(obs.phase(p).count() > 0, "phase {} timed", p.label());
        }
    }

    #[test]
    fn disabled_registry_stays_empty_while_serving() {
        let g = union_of_spanning_trees(30, 20, 2, 2, 5).graph;
        let updates = churn_stream(&g, 40, &ChurnMix::default(), 5);
        let mut s = ShardedServeLoop::new(g, ShardedConfig::for_eps(0.25, 2)).unwrap();
        *s.obs_mut() = Registry::disabled();
        for chunk in updates.chunks(20) {
            s.apply_batch(chunk).unwrap();
            s.end_epoch().unwrap();
        }
        let obs = s.obs();
        for c in Counter::ALL {
            assert_eq!(obs.counter(c), 0, "counter {} stayed zero", c.name());
        }
        for p in Phase::ALL {
            assert!(obs.phase(p).is_empty(), "phase {} stayed empty", p.label());
        }
    }

    #[test]
    fn resident_state_fits_the_budget() {
        let (sharded, _) = drive(6, 13);
        let words = sharded.shard_state_words();
        let budget = sharded.space_budget();
        assert!(budget >= 128);
        assert!(*words.iter().max().unwrap() <= budget);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let g = union_of_spanning_trees(30, 20, 2, 2, 3).graph;
        let mut s = ShardedServeLoop::new(g, ShardedConfig::for_eps(0.25, 3)).unwrap();
        let r = s.apply_batch(&[]).unwrap();
        assert_eq!(r, BatchReport::default());
        let before = s.ledger().rounds;
        let e = s.end_epoch().unwrap();
        assert_eq!(e.serial.sweep_expansions, 0, "no-op epoch stays free");
        assert_eq!(e.migrations, 0);
        assert!(s.ledger().rounds >= before, "census phases still run");
    }

    #[test]
    fn single_shard_has_no_handoff_traffic() {
        let (sharded, _) = drive(1, 17);
        assert_eq!(sharded.stats().handoff_words, 0);
        assert_eq!(
            sharded.ledger().words_total,
            sharded
                .ledger()
                .history
                .iter()
                .map(|r| r.words_moved)
                .sum::<u64>()
        );
        // Every routed word stays on machine 0 — zero words moved in
        // repair waves.
        for rec in &sharded.ledger().history {
            if rec.label == Phase::RepairWave.label() {
                assert_eq!(rec.words_moved, 0);
            }
        }
    }
}
