//! Conflict batching: schedule an epoch's updates into parallel waves.
//!
//! Two updates can repair in parallel only if their influence regions are
//! disjoint. An update's region is over-approximated by a *footprint*:
//! the right-vertex ball of radius [`DynamicConfig::eager_radius`] around
//! its seed rights, computed on the batch's **union graph** `G⁺` (the
//! live graph plus every edge any update in the batch inserts). Using
//! `G⁺` is what makes the footprint sound under reordering — an insert
//! elsewhere in the batch can only *shorten* distances, and `G⁺` already
//! contains every such shortcut, so reachability during any interleaving
//! is a subset of reachability in `G⁺` (deletions only shrink it
//! further). An eager bounded search from an update site reads and writes
//! matching state only within the eager radius of its seeds, hence two
//! updates with disjoint footprints commute: any order of application
//! yields the same engine state.
//!
//! `G⁺` itself is an [`InsertOverlay`] — a thin view staging the batch's
//! arrivals and inserts over the live [`DeltaGraph`] — so scheduling a
//! batch costs `O(n)` index arrays plus the footprint work, not an
//! `O(n + m)` graph clone. Footprints grow through the serving core's
//! one right-ball routine (`repair::grow_ball`), whose membership is an
//! epoch-stamped set ([`StampSet`](crate::stamp::StampSet)): no hashing
//! on the per-edge path, `O(1)` clear between updates. Footprints
//! themselves live in one flat arena on the returned [`BatchSchedule`]
//! (see [`BatchSchedule::footprint`]), not in a `Vec` per plan —
//! scheduling a batch performs `O(1)` heap allocations, independent of
//! the batch size.
//!
//! # Wave assignment: first-fit on the conflict floor
//!
//! Each update's *conflict floor* is one past the latest wave of any
//! earlier conflicting update (footprint overlap, shared arrival-id
//! resource, or a global below), and 0 when nothing earlier conflicts.
//! One forward pass places every update **at** its floor, reading it
//! from a per-right "last wave + 1" array over the footprint and a
//! per-arrival-id one over the resource. A global conflicts with every
//! other update, so it takes one past every earlier wave and lifts the
//! floor of everything after it.
//!
//! This is the longest-chain layering of the conflict partial order, so
//! the wave count equals the batch's conflict critical path — the minimum
//! any order-preserving schedule can reach, and the batch's simulated
//! MPC round count. Nothing downstream reads how wide a wave is, only
//! that it is conflict-free, so commuting updates are left to pile up on
//! the early waves rather than spread over later ones.
//!
//! Ordering rules beyond footprint overlap:
//!
//! * **Arrival ids are precomputed, not serialized.** Staging assigns
//!   every in-batch arrival the id the serial engine would (sequential,
//!   batch order), and the wave executor passes that id down to
//!   [`DeltaGraph::arrive_at`] — so footprint-disjoint arrivals share a
//!   wave, where the old scheduler gave every arrival a singleton wave.
//! * **The arrival id space is a per-id resource.** An `Arrive` touches
//!   its own id; any update referencing an in-batch id touches that id.
//!   Touches order in batch order through the per-id floor array, which
//!   keeps "arrive, then edit the arrival" sequences serial-equivalent
//!   even when their footprints miss each other (e.g. an arrival with no
//!   neighbors).
//! * **Forward references escalate to global.** An update referencing an
//!   id no earlier in-batch arrival allocates is a structural no-op in
//!   the serial order; running it in a singleton wave before any later
//!   arrival keeps it a no-op under reordering too (a later arrival's
//!   edge-free placeholder slots never become visible early).
//! * A footprint that hits the cap (the engines pass [`FOOTPRINT_CAP`])
//!   is treated as *global*: the update conflicts with everything
//!   before and after it.
//!
//! Any linearization that plays waves in order (and keeps batch order
//! inside a wave) is equivalent to the serial order — the property
//! `tests/properties.rs` checks exhaustively against the engine, and the
//! clone-based conflict-freedom oracle below checks structurally.
//!
//! # The two-tier footprint derivation
//!
//! A footprint is grown from two seed tiers, because the two kinds of
//! bounded search reach differently far (the hop arithmetic lives in
//! [`DynamicConfig::eager_radius`], radius `r = min(b, cap + 1)` for
//! eager budget `b`):
//!
//! * **Deep seeds** — the starting rights of backward reclaims and
//!   eviction cascades (departures, deletions' freed right, capacity
//!   moves). A reclaim expands rights up to `b − 1` hops out and touches
//!   their adjacent lefts, whose neighborhoods stay within `b` hops; an
//!   eviction victim is matched *at* a seed right, so its forward
//!   re-placement starts one hop out already. Both need the full radius
//!   `r`.
//! * **Shallow seeds** — the neighborhoods forward searches start from
//!   (arrivals, edge inserts, a deletion's re-placed left). The search's
//!   own left contributes its whole neighborhood as the seed set, so
//!   every cell it can read or write lies within `r − 1` hops of those
//!   seeds — one hop less.
//!
//! The tiers grow with independent membership but a shared arena, then
//! merge. The split is not cosmetic: under the sharded default (eager
//! budget 1) it keeps a pure placement's footprint down to its seed set
//! exactly, which is the difference between near-serialized batches and
//! the wide waves e19 measures on degree-heavy instances.
//!
//! # Example
//!
//! ```
//! use sparse_alloc_dynamic::batch::{schedule, FOOTPRINT_CAP};
//! use sparse_alloc_dynamic::{DynamicConfig, Update};
//! use sparse_alloc_graph::{BipartiteBuilder, DeltaGraph};
//! use sparse_alloc_mpc::ShardMap;
//!
//! // A long bipartite path u_i ~ {v_i, v_{i+1}}: updates at the two
//! // ends have disjoint balls, updates next to each other collide.
//! let mut b = BipartiteBuilder::new(40, 41);
//! for i in 0..40u32 {
//!     b.add_edge(i, i);
//!     b.add_edge(i, i + 1);
//! }
//! let dg = DeltaGraph::new(b.build_with_uniform_capacity(1).unwrap());
//!
//! let updates = vec![
//!     Update::SetCapacity { v: 0, cap: 2 },
//!     Update::SetCapacity { v: 40, cap: 2 },
//!     Update::SetCapacity { v: 1, cap: 3 }, // collides with the first
//! ];
//! let s = schedule(
//!     &dg,
//!     &updates,
//!     &DynamicConfig::for_eps(0.25),
//!     &ShardMap::new(2),
//!     FOOTPRINT_CAP,
//! )
//! .unwrap();
//! assert_eq!(s.waves, 2, "wave count = conflict chain length");
//! assert_eq!(s.plans[0].wave, 0);
//! assert_eq!(s.plans[2].wave, 1, "overlapping footprints serialize");
//! // The commuting update at v40 lands on its floor, wave 0.
//! assert_eq!(s.plans[1].wave, 0);
//! assert_eq!(s.widths, vec![2, 1]);
//! ```
//!
//! [`DynamicConfig::eager_radius`]: crate::serve::DynamicConfig::eager_radius

use sparse_alloc_graph::{DeltaGraph, InsertOverlay, RightId};
use sparse_alloc_mpc::{MpcError, ShardMap};

use crate::repair::{ball_of_capped_into, BallScratch};
use crate::serve::DynamicConfig;
use crate::update::Update;

/// The footprint-size cap every engine schedules with: larger balls are
/// escalated to global conflicts instead of being enumerated.
///
/// The cap trades scheduling cost against wave occupancy: a small cap
/// bounds the per-update footprint work under bulk churn but serializes
/// any update whose eager reach is genuinely wide (a global update gets a
/// wave of its own, and stalls the pipeline before and after it); a large
/// cap enumerates big balls — paying `O(cap)` per update — for the chance
/// that they are still disjoint. [`schedule`] takes the cap as an
/// argument so tests can sweep it; the engines always pass this one.
pub const FOOTPRINT_CAP: usize = 4096;

/// One update's placement in the epoch schedule.
///
/// The footprint itself lives in the owning [`BatchSchedule`]'s flat
/// arena; read it through [`BatchSchedule::footprint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdatePlan {
    /// Wave this update repairs in (0-based; waves run in order).
    pub wave: usize,
    /// Machine owning the update's ball (routing destination).
    pub owner: usize,
    /// Start of this plan's footprint in the schedule's arena.
    pub footprint_start: u32,
    /// Number of footprint rights (0 for pure no-ops, e.g. departing an
    /// isolated vertex). For a `global` plan the stored slice is the
    /// cap-truncated ball (diagnostics only — the truncated content
    /// depends on traversal order and plays no role in wave assignment).
    pub footprint_len: u32,
    /// Does this plan conflict with everything before and after it
    /// (footprint hit the cap, or a forward id reference)?
    pub global: bool,
    /// Left id this update's `Arrive` will allocate (`None` otherwise).
    pub arrive_id: Option<u32>,
    /// Right-to-right hops the footprint expansion actually used before
    /// the ball closed (`≤` the configured eager radius; a pure placement
    /// whose seeds already cover its reach reports 0). Diagnostics and
    /// metrics only — it plays no role in wave assignment.
    pub depth: usize,
}

/// The wave schedule of one update batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchSchedule {
    /// One plan per update, in batch order.
    pub plans: Vec<UpdatePlan>,
    /// Number of waves (`max wave + 1`; 0 for an empty batch).
    pub waves: usize,
    /// Updates with a nonzero conflict floor — i.e. updates some earlier
    /// conflicting update forced off wave 0. Every update lands on its
    /// floor, so these are exactly the plans with `wave > 0`.
    pub delayed: usize,
    /// Updates per wave (`widths.len() == waves`).
    pub widths: Vec<usize>,
    /// Updates escalated to global conflicts by the footprint cap.
    pub escalations: usize,
    /// Flat footprint arena; plans index into it by range.
    footprints: Vec<RightId>,
}

impl BatchSchedule {
    /// The footprint of plan `i` (deduplicated, unordered; empty for pure
    /// no-ops).
    pub fn footprint(&self, i: usize) -> &[RightId] {
        let p = &self.plans[i];
        let start = p.footprint_start as usize;
        &self.footprints[start..start + p.footprint_len as usize]
    }
}

/// Stage the batch's arrivals and inserts on the union-graph view,
/// recording the id each arrival will be assigned. Ids are sequential in
/// batch order — exactly the ids the serial engine would allocate — and
/// the wave executor replays them via [`DeltaGraph::arrive_at`], so
/// scheduling an arrival off its batch position cannot scramble the id
/// space.
fn stage_gplus<'a>(
    dg: &'a DeltaGraph,
    updates: &[Update],
) -> (InsertOverlay<'a>, Vec<Option<u32>>) {
    let mut gplus = dg.insert_overlay();
    let mut arrive_ids: Vec<Option<u32>> = Vec::with_capacity(updates.len());
    for up in updates {
        match up {
            Update::Arrive { neighbors } => arrive_ids.push(Some(gplus.arrive(neighbors))),
            Update::InsertEdge { u, v } => {
                if (*u as usize) < gplus.n_left() && (*v as usize) < gplus.n_right() {
                    gplus.insert(*u, *v);
                }
                arrive_ids.push(None);
            }
            _ => arrive_ids.push(None),
        }
    }
    (gplus, arrive_ids)
}

/// The two seed tiers of one update on the union graph, plus the left id
/// at or above the pre-batch id space the update references (`None` when
/// it only touches pre-existing lefts; every update references at most
/// one left).
///
/// *Deep* seeds are the starting rights of backward reclaims and
/// eviction cascades: their reach is the full eager radius `r`. *Shallow*
/// seeds are the neighborhoods forward searches start from: a search
/// rooted at the update's own left reads and writes one hop less, radius
/// `r − 1` (see [`DynamicConfig::eager_radius`] for the derivation). The
/// split is what keeps pure placements (arrivals, edge inserts) down to
/// their seed sets under the default eager budget — the difference
/// between near-serialized and wide waves on degree-heavy instances.
///
/// [`DynamicConfig::eager_radius`]: crate::serve::DynamicConfig::eager_radius
fn seeds_of(
    gplus: &InsertOverlay<'_>,
    up: &Update,
    base_n_left: u32,
    deep: &mut Vec<RightId>,
    shallow: &mut Vec<RightId>,
) -> Option<u32> {
    deep.clear();
    shallow.clear();
    let mut referenced = None;
    let mut note_left = |u: u32, into: &mut Vec<RightId>| {
        if u >= base_n_left {
            referenced = Some(u);
        }
        if (u as usize) < gplus.n_left() {
            gplus.for_each_left_neighbor(u, |v| into.push(v));
        }
    };
    match up {
        // Arrivals and edge inserts only run a forward search from their
        // left: shallow tier.
        Update::Arrive { neighbors } => shallow.extend_from_slice(neighbors),
        Update::InsertEdge { u, v } => {
            shallow.push(*v);
            note_left(*u, shallow);
        }
        // A departure reclaims into whichever right held the match — any
        // of the left's neighbors: deep tier.
        Update::Depart { u } => note_left(*u, deep),
        // A deletion re-places its left (forward, shallow) and reclaims
        // into the deleted edge's right (backward, deep).
        Update::DeleteEdge { u, v } => {
            deep.push(*v);
            note_left(*u, shallow);
        }
        // Capacity moves evict from / reclaim into `v`: deep tier.
        Update::SetCapacity { v, .. } => deep.push(*v),
    }
    let n_right = gplus.n_right();
    deep.retain(|&v| (v as usize) < n_right);
    shallow.retain(|&v| (v as usize) < n_right);
    referenced
}

/// Routing destination of one update (`index` is its batch position, for
/// diagnostics). An `Arrive` routes by the left id staging allocated for
/// it; a plan that reaches routing without one is malformed and surfaces
/// as [`MpcError::MissingArriveId`] — typed, like every other routing
/// path — instead of a panic.
pub fn owner_of(
    up: &Update,
    arrive_id: Option<u32>,
    map: &ShardMap,
    index: usize,
) -> Result<usize, MpcError> {
    match up {
        Update::Arrive { .. } => match arrive_id {
            Some(id) => Ok(map.owner_of_left(id)),
            None => Err(MpcError::MissingArriveId { index }),
        },
        Update::Depart { u } => Ok(map.owner_of_left(*u)),
        Update::InsertEdge { v, .. }
        | Update::DeleteEdge { v, .. }
        | Update::SetCapacity { v, .. } => Ok(map.owner_of_right(*v)),
    }
}

/// The footprint stage's output: every update's footprint, back to
/// back in one arena.
struct Footprints {
    arena: Vec<RightId>,
    /// Per-update footprint length (starts are prefix sums).
    lens: Vec<u32>,
    depths: Vec<usize>,
    capped: Vec<bool>,
    referenced: Vec<Option<u32>>,
}

/// Grow, sort, and dedup the footprints of `updates` on the union-graph
/// view.
fn grow_footprints(
    gplus: &InsertOverlay<'_>,
    updates: &[Update],
    base_n_left: u32,
    radius: usize,
    cap: usize,
) -> Footprints {
    let mut ball = BallScratch::default();
    let mut deep: Vec<RightId> = Vec::new();
    let mut shallow: Vec<RightId> = Vec::new();
    let mut out = Footprints {
        arena: Vec::new(),
        lens: Vec::with_capacity(updates.len()),
        depths: Vec::with_capacity(updates.len()),
        capped: Vec::with_capacity(updates.len()),
        referenced: Vec::with_capacity(updates.len()),
    };
    for up in updates {
        let referenced = seeds_of(gplus, up, base_n_left, &mut deep, &mut shallow);
        // The two tiers grow with independent membership (a shallow seed
        // inside the deep ball must still expand to its own radius), then
        // merge; truncation can therefore only make the union *larger*
        // than the cap, never hide a global escalation.
        let start = out.arena.len();
        let mut depth = ball_of_capped_into(gplus, &deep, radius, cap, &mut ball, &mut out.arena);
        if out.arena.len() - start < cap {
            if radius <= 1 {
                // The shallow tier's radius is 0: no expansion, the tier
                // is its seed set. Growing it inside the deep ball's
                // membership (no clear; an uncapped growth leaves exactly
                // its ball there) keeps the segment duplicate-free,
                // so the sort + dedup below is skipped entirely — the
                // scheduler's common case (the sharded default runs at
                // eager radius 1).
                for &v in shallow.iter() {
                    if ball.rights.insert(v as usize) {
                        out.arena.push(v);
                    }
                }
            } else {
                let shallow_depth = ball_of_capped_into(
                    gplus,
                    &shallow,
                    radius - 1,
                    cap,
                    &mut ball,
                    &mut out.arena,
                );
                depth = depth.max(shallow_depth);
            }
        }
        if radius > 1 {
            // Sort + dedup the arena segment in place: the tiers grew
            // with independent membership (a shallow seed inside the deep
            // ball must still expand to its own radius) and overlap.
            let fp = &mut out.arena[start..];
            fp.sort_unstable();
            let mut keep = 0usize;
            for j in 0..fp.len() {
                if j == 0 || fp[j] != fp[keep - 1] {
                    fp[keep] = fp[j];
                    keep += 1;
                }
            }
            out.arena.truncate(start + keep);
        }
        let len = out.arena.len() - start;
        out.lens.push(len as u32);
        out.depths.push(depth);
        out.capped.push(len >= cap);
        out.referenced.push(referenced);
    }
    out
}

/// Compute footprints on the union graph and place every update on its
/// conflict floor (first-fit waves, see the module docs).
///
/// `cfg` supplies the eager repair bounds (the footprint radius,
/// [`DynamicConfig::eager_radius`]); `footprint_cap` is the global
/// escalation threshold (see [`FOOTPRINT_CAP`]).
///
/// # Errors
///
/// [`MpcError::MissingArriveId`] if an `Arrive` reaches routing without
/// its staged id — impossible for plans built by this function (staging
/// allocates every id up front), kept typed for the routing contract.
///
/// [`DynamicConfig::eager_radius`]: crate::serve::DynamicConfig::eager_radius
pub fn schedule(
    dg: &DeltaGraph,
    updates: &[Update],
    cfg: &DynamicConfig,
    map: &ShardMap,
    footprint_cap: usize,
) -> Result<BatchSchedule, MpcError> {
    let base_n_left = dg.n_left() as u32;
    let (gplus, arrive_ids) = stage_gplus(dg, updates);
    let radius = cfg.eager_radius();
    let cap = footprint_cap.max(1);

    // Batch position of the arrival allocating each in-batch id (the
    // k-th arrival gets id `base_n_left + k`).
    let arrival_at: Vec<usize> = arrive_ids
        .iter()
        .enumerate()
        .filter_map(|(i, id)| id.map(|_| i))
        .collect();

    // Footprints are the scheduler's dominant cost (ball growth on the
    // overlay); the wave pass below only walks the precomputed arena.
    let Footprints {
        arena: footprints,
        lens,
        depths,
        capped,
        referenced: referenced_of,
    } = grow_footprints(&gplus, updates, base_n_left, radius, cap);

    // One past the latest wave that touched each right / arrival id: the
    // floor those touches impose on any later toucher.
    let mut right_floor: Vec<u32> = vec![0; gplus.n_right()];
    let mut id_floor: Vec<u32> = vec![0; arrival_at.len()];
    // One past the latest global's wave (a global conflicts with all).
    let mut floor = 0usize;
    let mut widths: Vec<usize> = Vec::new();
    let mut delayed = 0usize;
    let mut plans: Vec<UpdatePlan> = Vec::with_capacity(updates.len());
    let mut start = 0u32;
    for (i, up) in updates.iter().enumerate() {
        let len = lens[i];
        let fp = &footprints[start as usize..(start + len) as usize];
        let referenced = referenced_of[i];
        // A reference to an id no earlier in-batch arrival allocates is a
        // structural no-op serially; a singleton wave before every later
        // arrival keeps it one under reordering (see module docs).
        let forward_ref = referenced.is_some_and(|x| {
            let k = (x - base_n_left) as usize;
            arrival_at.get(k).is_none_or(|&at| at > i)
        });
        let global = capped[i] || forward_ref;
        let wave = if global {
            let w = widths.len();
            floor = w + 1;
            w
        } else {
            // The arrival-id resource this update allocates or references.
            let resource = match up {
                Update::Arrive { .. } => arrive_ids[i],
                _ => referenced,
            }
            .map(|x| (x - base_n_left) as usize);
            let mut lo = floor;
            for &r in fp {
                lo = lo.max(right_floor[r as usize] as usize);
            }
            if let Some(k) = resource {
                lo = lo.max(id_floor[k] as usize);
                id_floor[k] = lo as u32 + 1;
            }
            for &r in fp {
                right_floor[r as usize] = lo as u32 + 1;
            }
            lo
        };
        if wave == widths.len() {
            widths.push(0);
        }
        widths[wave] += 1;
        if wave > 0 {
            delayed += 1;
        }
        plans.push(UpdatePlan {
            wave,
            owner: owner_of(up, arrive_ids[i], map, i)?,
            footprint_start: start,
            footprint_len: len,
            global,
            arrive_id: arrive_ids[i],
            depth: depths[i],
        });
        start += len;
    }

    Ok(BatchSchedule {
        waves: widths.len(),
        delayed,
        widths,
        escalations: capped.iter().filter(|&&c| c).count(),
        plans,
        footprints,
    })
}

/// Clone-based conflict-freedom oracle: recompute every footprint on an
/// `O(n + m)` copy of `G⁺` (the independent path — dense graph clone,
/// [`crate::repair::ball_of_capped`] growth through an overlay with
/// nothing staged) and check the schedule's
/// structural soundness against it:
///
/// * bookkeeping: one plan per update, `widths` sums to the plan count,
///   `waves == widths.len()`, every plan's wave in range, arrive ids
///   sequential in batch order;
/// * footprints: non-global plans' arena slices equal the clone-derived
///   balls; global flags agree (cap escalation or forward reference);
/// * conflict-freedom: two plans may share a wave only if both are
///   non-global and their clone-derived footprints are disjoint;
/// * order: every conflicting pair (footprint overlap, shared arrival-id
///   resource, or either side global) keeps batch order across waves;
/// * exact floor: every plan's wave is `1 +` the latest wave of the
///   earlier plans it conflicts with (a global conflicts with all of
///   them), or 0 when none does — first-fit placement, pinned exactly.
#[cfg(test)]
pub(crate) fn check_schedule_sound(
    dg: &DeltaGraph,
    updates: &[Update],
    cfg: &DynamicConfig,
    footprint_cap: usize,
    sched: &BatchSchedule,
) {
    use crate::repair::ball_of_capped;

    let mut gplus = dg.clone();
    let base_n_left = dg.n_left() as u32;
    let mut arrive_ids: Vec<Option<u32>> = Vec::with_capacity(updates.len());
    for up in updates {
        match up {
            Update::Arrive { neighbors } => arrive_ids.push(Some(gplus.arrive(neighbors))),
            Update::InsertEdge { u, v } => {
                if (*u as usize) < gplus.n_left() && (*v as usize) < gplus.n_right() {
                    gplus.insert_edge(*u, *v);
                }
                arrive_ids.push(None);
            }
            _ => arrive_ids.push(None),
        }
    }
    let arrival_at: Vec<usize> = arrive_ids
        .iter()
        .enumerate()
        .filter_map(|(i, id)| id.map(|_| i))
        .collect();

    let radius = cfg.eager_radius();
    let cap = footprint_cap.max(1);
    let view = gplus.insert_overlay();
    let mut fps: Vec<Vec<RightId>> = Vec::with_capacity(updates.len());
    let mut globals: Vec<bool> = Vec::with_capacity(updates.len());
    let mut resources: Vec<Option<u32>> = Vec::with_capacity(updates.len());
    for (i, up) in updates.iter().enumerate() {
        let mut deep: Vec<RightId> = Vec::new();
        let mut shallow: Vec<RightId> = Vec::new();
        let mut referenced = None;
        let mut note_left = |u: u32, into: &mut Vec<RightId>| {
            if u >= base_n_left {
                referenced = Some(u);
            }
            if (u as usize) < gplus.n_left() {
                into.extend(gplus.left_neighbors_iter(u));
            }
        };
        match up {
            Update::Arrive { neighbors } => shallow.extend_from_slice(neighbors),
            Update::InsertEdge { u, v } => {
                shallow.push(*v);
                note_left(*u, &mut shallow);
            }
            Update::Depart { u } => note_left(*u, &mut deep),
            Update::DeleteEdge { u, v } => {
                deep.push(*v);
                note_left(*u, &mut shallow);
            }
            Update::SetCapacity { v, .. } => deep.push(*v),
        }
        deep.retain(|&v| (v as usize) < gplus.n_right());
        shallow.retain(|&v| (v as usize) < gplus.n_right());
        let mut footprint = ball_of_capped(&view, &deep, radius, cap);
        if footprint.len() < cap {
            footprint.extend(ball_of_capped(
                &view,
                &shallow,
                radius.saturating_sub(1),
                cap,
            ));
            footprint.sort_unstable();
            footprint.dedup();
        }
        let capped = footprint.len() >= cap;
        let forward_ref = referenced.is_some_and(|x| {
            let k = (x - base_n_left) as usize;
            arrival_at.get(k).is_none_or(|&at| at > i)
        });
        globals.push(capped || forward_ref);
        resources.push(match up {
            Update::Arrive { .. } => arrive_ids[i],
            _ => referenced,
        });
        fps.push(footprint);
    }

    // Bookkeeping.
    assert_eq!(sched.plans.len(), updates.len(), "one plan per update");
    assert_eq!(
        sched.widths.iter().sum::<usize>(),
        sched.plans.len(),
        "widths sum to the plan count"
    );
    assert_eq!(sched.waves, sched.widths.len());
    let mut widths = vec![0usize; sched.waves];
    for (i, p) in sched.plans.iter().enumerate() {
        assert!(p.wave < sched.waves, "plan {i}: wave out of range");
        widths[p.wave] += 1;
        assert_eq!(p.arrive_id, arrive_ids[i], "plan {i}: arrive id");
        assert_eq!(p.global, globals[i], "plan {i}: global flag");
        if !p.global {
            let mut got = sched.footprint(i).to_vec();
            got.sort_unstable();
            assert_eq!(
                got, fps[i],
                "plan {i}: footprint differs from the clone-derived ball"
            );
        }
    }
    assert_eq!(widths, sched.widths, "recounted widths");

    // Conflict-freedom, batch order and the exact conflict floor.
    for j in 0..sched.plans.len() {
        let wj = sched.plans[j].wave;
        let mut floor = 0usize;
        for i in 0..j {
            let wi = sched.plans[i].wave;
            let overlap = fps[i].iter().any(|r| fps[j].binary_search(r).is_ok());
            let shared_resource = resources[i].is_some() && resources[i] == resources[j];
            let conflict = globals[i] || globals[j] || overlap || shared_resource;
            if conflict {
                assert!(
                    wi < wj,
                    "conflicting updates {i} (wave {wi}) and {j} (wave {wj}) \
                     left batch order"
                );
                floor = floor.max(wi + 1);
            }
        }
        assert_eq!(wj, floor, "plan {j}: wave is not its conflict floor");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_alloc_graph::BipartiteBuilder;

    /// A config whose eager searches run at the full walk budget `k`
    /// (footprint radius `k + 1`, like the pre-eager-radius scheduler).
    fn cfg_k(k: usize) -> DynamicConfig {
        let mut c = DynamicConfig::for_eps(0.25);
        c.walk_budget = k;
        c.eager_walk_budget = k;
        c.eager_search_cap = usize::MAX;
        c
    }

    fn path_graph(n: usize) -> DeltaGraph {
        // u_i ~ {v_i, v_{i+1}}: a long bipartite path, so distant updates
        // have disjoint balls.
        let mut b = BipartiteBuilder::new(n, n + 1);
        for i in 0..n as u32 {
            b.add_edge(i, i);
            b.add_edge(i, i + 1);
        }
        DeltaGraph::new(b.build_with_uniform_capacity(1).unwrap())
    }

    #[test]
    fn distant_updates_share_a_wave() {
        let dg = path_graph(40);
        let map = ShardMap::new(4);
        let updates = vec![
            Update::SetCapacity { v: 0, cap: 2 },
            Update::SetCapacity { v: 40, cap: 2 },
        ];
        let s = schedule(&dg, &updates, &cfg_k(2), &map, FOOTPRINT_CAP).unwrap();
        assert_eq!(s.waves, 1, "disjoint balls repair in parallel");
        assert_eq!(s.delayed, 0);
        assert_eq!(s.widths, vec![2]);
        assert_eq!(s.escalations, 0);
        assert!(s.footprint(0).iter().all(|r| !s.footprint(1).contains(r)));
        check_schedule_sound(&dg, &updates, &cfg_k(2), FOOTPRINT_CAP, &s);
    }

    #[test]
    fn overlapping_balls_serialize_in_order() {
        let dg = path_graph(40);
        let map = ShardMap::new(4);
        let updates = vec![
            Update::SetCapacity { v: 10, cap: 2 },
            Update::SetCapacity { v: 11, cap: 3 },
            Update::SetCapacity { v: 12, cap: 1 },
        ];
        let s = schedule(&dg, &updates, &cfg_k(2), &map, FOOTPRINT_CAP).unwrap();
        assert_eq!(s.plans[0].wave, 0);
        assert_eq!(s.plans[1].wave, 1);
        assert_eq!(s.plans[2].wave, 2);
        assert_eq!(s.waves, 3);
        assert_eq!(s.delayed, 2);
        assert_eq!(s.widths, vec![1, 1, 1]);
        check_schedule_sound(&dg, &updates, &cfg_k(2), FOOTPRINT_CAP, &s);
    }

    #[test]
    fn disjoint_arrivals_share_a_wave() {
        // The old scheduler serialized every arrival behind every other
        // ("the id allocator is a shared resource"); staged ids plus
        // `arrive_at` retire that, so only *conflicting* arrivals chain.
        let dg = path_graph(40);
        let map = ShardMap::new(2);
        let updates = vec![
            Update::Arrive { neighbors: vec![0] },
            Update::Arrive {
                neighbors: vec![30],
            },
        ];
        let s = schedule(&dg, &updates, &cfg_k(2), &map, FOOTPRINT_CAP).unwrap();
        assert_eq!(s.plans[0].wave, 0);
        assert_eq!(s.plans[1].wave, 0, "commuting arrivals share a wave");
        assert_eq!(s.plans[0].arrive_id, Some(40));
        assert_eq!(s.plans[1].arrive_id, Some(41));
        check_schedule_sound(&dg, &updates, &cfg_k(2), FOOTPRINT_CAP, &s);
    }

    #[test]
    fn conflicting_arrivals_keep_batch_order() {
        let dg = path_graph(40);
        let map = ShardMap::new(2);
        let updates = vec![
            Update::Arrive { neighbors: vec![5] },
            Update::Arrive { neighbors: vec![5] },
        ];
        let s = schedule(&dg, &updates, &cfg_k(2), &map, FOOTPRINT_CAP).unwrap();
        assert!(
            s.plans[1].wave > s.plans[0].wave,
            "shared right v5 serializes the pair in batch order"
        );
        assert_eq!(s.plans[0].arrive_id, Some(40));
        assert_eq!(s.plans[1].arrive_id, Some(41));
        check_schedule_sound(&dg, &updates, &cfg_k(2), FOOTPRINT_CAP, &s);
    }

    #[test]
    fn updates_referencing_an_arrival_follow_it() {
        let dg = path_graph(10);
        let map = ShardMap::new(2);
        let updates = vec![
            Update::Arrive { neighbors: vec![9] },
            // References the id the arrive will allocate (10), whose ball
            // is far from v9 — ordering must still hold.
            Update::InsertEdge { u: 10, v: 0 },
        ];
        let s = schedule(&dg, &updates, &cfg_k(1), &map, FOOTPRINT_CAP).unwrap();
        assert!(s.plans[1].wave > s.plans[0].wave);
        check_schedule_sound(&dg, &updates, &cfg_k(1), FOOTPRINT_CAP, &s);
    }

    #[test]
    fn forward_references_escalate_to_global() {
        // The insert references id 10 *before* the arrival that allocates
        // it: serially a structural no-op. A singleton wave ahead of the
        // arrival keeps it one under reordering (no placeholder slot can
        // exist yet when it runs).
        let dg = path_graph(10);
        let map = ShardMap::new(2);
        let updates = vec![
            Update::InsertEdge { u: 10, v: 0 },
            Update::Arrive { neighbors: vec![9] },
        ];
        let s = schedule(&dg, &updates, &cfg_k(1), &map, FOOTPRINT_CAP).unwrap();
        assert!(s.plans[0].global, "forward reference is global");
        assert_eq!(s.escalations, 0, "not a cap escalation");
        assert!(s.plans[1].wave > s.plans[0].wave);
        check_schedule_sound(&dg, &updates, &cfg_k(1), FOOTPRINT_CAP, &s);
    }

    #[test]
    fn commuting_updates_land_on_their_floor() {
        // A 3-deep conflict chain at v10..=v12 plus three pairwise-distant
        // singles: every single lands on its floor, wave 0, beside the
        // chain's head.
        let dg = path_graph(60);
        let map = ShardMap::new(2);
        let updates = vec![
            Update::SetCapacity { v: 10, cap: 2 },
            Update::SetCapacity { v: 11, cap: 3 },
            Update::SetCapacity { v: 12, cap: 1 },
            Update::SetCapacity { v: 30, cap: 2 },
            Update::SetCapacity { v: 40, cap: 2 },
            Update::SetCapacity { v: 50, cap: 2 },
        ];
        let s = schedule(&dg, &updates, &cfg_k(2), &map, FOOTPRINT_CAP).unwrap();
        assert_eq!(s.waves, 3, "waves equal the conflict chain length");
        assert_eq!(s.widths, vec![4, 1, 1], "commuting updates share wave 0");
        assert!(s.plans[3..].iter().all(|p| p.wave == 0));
        assert_eq!(s.delayed, 2);
        check_schedule_sound(&dg, &updates, &cfg_k(2), FOOTPRINT_CAP, &s);
    }

    #[test]
    fn footprints_use_the_union_graph() {
        // The batch inserts a shortcut (u5, v20); the *earlier* capacity
        // update at v19 must see the enlarged ball of v5's region through
        // the shortcut — i.e. footprints come from G⁺, not the live graph.
        let dg = path_graph(40);
        let map = ShardMap::new(2);
        let updates = vec![
            Update::InsertEdge { u: 5, v: 20 },
            Update::SetCapacity { v: 20, cap: 3 },
        ];
        let s = schedule(&dg, &updates, &cfg_k(1), &map, FOOTPRINT_CAP).unwrap();
        assert!(
            s.footprint(0).contains(&20),
            "insert's footprint spans the shortcut"
        );
        assert!(s.plans[1].wave > s.plans[0].wave, "shared v20 serializes");
        check_schedule_sound(&dg, &updates, &cfg_k(1), FOOTPRINT_CAP, &s);
    }

    #[test]
    fn footprint_depth_counts_the_hops_used() {
        let dg = path_graph(40);
        let map = ShardMap::new(2);
        let updates = vec![
            Update::SetCapacity { v: 20, cap: 2 },
            Update::Arrive { neighbors: vec![5] },
        ];
        let s = schedule(&dg, &updates, &cfg_k(2), &map, FOOTPRINT_CAP).unwrap();
        assert_eq!(s.plans[0].depth, 2, "deep seeds expand the full radius");
        assert_eq!(s.plans[1].depth, 1, "shallow seeds expand one hop less");
        for p in &s.plans {
            assert!(p.depth <= cfg_k(2).eager_radius());
        }
    }

    #[test]
    fn empty_batch_schedules_nothing() {
        let dg = path_graph(4);
        let s = schedule(&dg, &[], &cfg_k(2), &ShardMap::new(2), FOOTPRINT_CAP).unwrap();
        assert_eq!(s.waves, 0);
        assert!(s.plans.is_empty());
        assert!(s.widths.is_empty());
    }

    #[test]
    fn tiny_footprint_cap_escalates_to_global_and_serializes() {
        let dg = path_graph(40);
        let map = ShardMap::new(2);
        let updates = vec![
            Update::SetCapacity { v: 0, cap: 2 },
            Update::SetCapacity { v: 40, cap: 2 },
            Update::SetCapacity { v: 20, cap: 2 },
        ];
        // Radius-3 balls on the path have ~7 rights; cap 3 truncates.
        let s = schedule(&dg, &updates, &cfg_k(2), &map, 3).unwrap();
        assert_eq!(s.escalations, 3, "all balls hit the cap");
        assert!(s.plans.iter().all(|p| p.global));
        assert!(
            s.plans.iter().all(|p| p.footprint_len == 3),
            "a capped footprint stops exactly at the cap"
        );
        assert_eq!(s.waves, 3, "global updates get singleton waves");
        assert_eq!(s.widths, vec![1, 1, 1]);
        check_schedule_sound(&dg, &updates, &cfg_k(2), 3, &s);
        // The same batch under the default cap shares one wave.
        let s = schedule(&dg, &updates, &cfg_k(2), &map, FOOTPRINT_CAP).unwrap();
        assert_eq!(s.escalations, 0);
        assert_eq!(s.waves, 1);
    }

    #[test]
    fn eager_radius_shrinks_footprints() {
        let dg = path_graph(40);
        let map = ShardMap::new(2);
        let updates = vec![
            Update::SetCapacity { v: 10, cap: 2 },
            Update::SetCapacity { v: 15, cap: 2 },
        ];
        // Full radius (k = 4 ⇒ 5 hops): the two balls overlap.
        let wide = schedule(&dg, &updates, &cfg_k(4), &map, FOOTPRINT_CAP).unwrap();
        assert_eq!(wide.waves, 2, "radius-5 balls at distance 5 collide");
        // Eager budget 1 (radius 2): they are disjoint and share a wave.
        let mut cfg = cfg_k(4);
        cfg.eager_walk_budget = 1;
        assert_eq!(cfg.eager_radius(), 1);
        let tight = schedule(&dg, &updates, &cfg, &map, FOOTPRINT_CAP).unwrap();
        assert_eq!(tight.waves, 1, "eager-radius footprints are disjoint");
    }

    #[test]
    fn missing_arrive_id_surfaces_as_a_typed_error() {
        // The routing path for a malformed plan (an `Arrive` without its
        // staged id) must surface MpcError::MissingArriveId, not panic —
        // the regression the old `.expect("arrive id")` hid.
        let map = ShardMap::new(2);
        let up = Update::Arrive { neighbors: vec![3] };
        let err = owner_of(&up, None, &map, 7).unwrap_err();
        assert_eq!(err, MpcError::MissingArriveId { index: 7 });
        assert!(err.to_string().contains("update 7"), "{err}");
        // The well-formed path still routes by the staged id.
        assert_eq!(
            owner_of(&up, Some(4), &map, 0).unwrap(),
            map.owner_of_left(4)
        );
    }
}

#[cfg(test)]
mod oracle_proptests {
    use super::*;
    use proptest::prelude::*;
    use sparse_alloc_graph::BipartiteBuilder;

    /// A small live graph with an exercised overlay: base CSR plus
    /// pre-batch churn (arrivals, departures, edge edits, capacity moves).
    fn live_graph() -> impl Strategy<Value = DeltaGraph> {
        (2usize..14, 2usize..11).prop_flat_map(|(nl, nr)| {
            let edges = proptest::collection::vec((0..nl as u32, 0..nr as u32), 0..50);
            let pre = proptest::collection::vec((0u8..5, 0u32..1000, 0u32..1000, 1u64..=3), 0..16);
            (Just(nl), Just(nr), edges, pre).prop_map(|(nl, nr, edges, pre)| {
                let mut b = BipartiteBuilder::new(nl, nr);
                b.extend_edges(edges);
                let mut dg = DeltaGraph::new(b.build(vec![1; nr]).expect("in-range instance"));
                for (kind, a, bb, cap) in pre {
                    let nl = dg.n_left() as u32;
                    let nr = dg.n_right() as u32;
                    match kind {
                        0 => {
                            dg.arrive(&[a % nr, bb % nr]);
                        }
                        1 => {
                            dg.depart(a % nl);
                        }
                        2 => {
                            dg.insert_edge(a % nl, bb % nr);
                        }
                        3 => {
                            dg.delete_edge(a % nl, bb % nr);
                        }
                        _ => dg.set_capacity(a % nr, cap),
                    }
                }
                dg
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every schedule the first-fit scheduler emits passes the
        /// clone-based conflict-freedom oracle — footprints match the
        /// independent `O(n + m)` computation, same-wave plans never
        /// share a right, every conflicting pair (overlap, shared
        /// arrival id, or a global) keeps batch order, and every plan
        /// sits exactly on its conflict floor — for every update
        /// stream, shard count in {1, 2, 4, 7}, eager budget, and
        /// footprint cap (including caps small enough to truncate).
        #[test]
        fn scheduler_passes_the_conflict_freedom_oracle(
            dg in live_graph(),
            ops in proptest::collection::vec((0u8..5, 0u32..1_000_000, 0u32..1_000_000, 1u64..=3), 0..22),
            eager in 1usize..4,
            cap_small in 2usize..7,
        ) {
            let mut nl = dg.n_left() as u32;
            let nr = dg.n_right() as u32;
            let mut updates: Vec<Update> = Vec::with_capacity(ops.len());
            for &(kind, a, b, cap) in &ops {
                updates.push(match kind {
                    0 => { nl += 1; Update::Arrive { neighbors: vec![a % nr, b % nr] } }
                    1 => Update::Depart { u: a % nl },
                    2 => Update::InsertEdge { u: a % nl, v: b % nr },
                    3 => Update::DeleteEdge { u: a % nl, v: b % nr },
                    _ => Update::SetCapacity { v: a % nr, cap },
                });
            }
            let mut cfg = DynamicConfig::for_eps(0.25);
            cfg.eager_walk_budget = eager;
            for &shards in &[1usize, 2, 4, 7] {
                let map = ShardMap::new(shards);
                for &cap in &[cap_small, FOOTPRINT_CAP] {
                    let got = schedule(&dg, &updates, &cfg, &map, cap).unwrap();
                    check_schedule_sound(&dg, &updates, &cfg, cap, &got);
                    for (i, (up, plan)) in updates.iter().zip(&got.plans).enumerate() {
                        prop_assert_eq!(
                            plan.owner,
                            owner_of(up, plan.arrive_id, &map, i).unwrap(),
                            "owner of update {} ({} shards)", i, shards
                        );
                    }
                }
            }
        }
    }
}
