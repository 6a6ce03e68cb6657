//! Local repair of the proportional dynamics' β-levels.
//!
//! An epoch's updates perturb the proportional dynamics at the rights
//! they touched. Instead of re-running Algorithm 1 globally, the repair
//! engine re-runs the per-vertex level step (`core::levels::update_level`
//! driven by `core::aggregates::left_aggregate_of` / `alloc_share`) on
//! those rights only — the serve loop hands over the epoch's dirty
//! rights, sorted and deduplicated — holding every other level frozen.
//! The frozen levels still feed the aggregates of the set's adjacent
//! lefts, so each round is exact on the set; what the repair leaves out
//! is the change's influence on the rights around it.
//!
//! Repairs are approximate by design. The serve loop checks what that
//! costs at every overlay fold: it re-solves the levels from scratch when
//! their fractional weight has fallen below `(1 − ε/2)·|M|`.
//!
//! A repair ([`repair_levels`]) runs in two halves. The gather lists the
//! set's left frontier and copies the live rows of both into flat arenas,
//! once. The rounds then simulate the dynamics over plain slices,
//! touching the [`DeltaGraph`] only for capacities.

use std::ops::ControlFlow;

use sparse_alloc_core::aggregates::{alloc_share, left_aggregate_of, LeftAggregate};
use sparse_alloc_core::levels::{update_level, PowTable};
use sparse_alloc_graph::{DeltaGraph, InsertOverlay, LeftId, RightId};

use crate::stamp::StampSet;

/// Reusable scratch of [`grow_ball`] — stamped membership plus the BFS
/// frontier vectors (the scheduler grows one footprint per update of a
/// batch; stamped clears keep that `O(ball)` instead of `O(n)` per call,
/// and the frontier reuse keeps it allocation-free). Grows on demand
/// with the graph.
#[derive(Debug, Clone, Default)]
pub(crate) struct BallScratch {
    /// The last growth's ball membership.
    pub(crate) rights: StampSet,
    lefts: StampSet,
    frontier: Vec<RightId>,
    next: Vec<RightId>,
}

/// Persistent scratch of [`repair_levels`], holding the gathered ball
/// between its two halves, the gather and the rounds:
///
/// - the stamped frontier marks, the left frontier in discovery order,
///   each left's slot in it, and one aggregate per slot;
/// - two CSR arenas: the ball rights' live rows as frontier slots, and
///   the frontier lefts' live rows as right ids, both in the
///   [`DeltaGraph`]'s adjacency order;
/// - the per-ball-right allocations and the power table of the last ε.
///
/// Every vector keeps its capacity, so a repair allocates nothing once
/// the scratch has grown to the largest ball seen. `slot_of` grows with
/// `n_left` and is never cleared: it is read only for lefts the current
/// gather stamped. Ephemeral — no snapshot carries it.
#[derive(Debug, Default)]
pub struct LevelScratch {
    seen: StampSet,
    frontier: Vec<LeftId>,
    slot_of: Vec<u32>,
    right_offsets: Vec<usize>,
    right_rows: Vec<u32>,
    left_offsets: Vec<usize>,
    left_rows: Vec<RightId>,
    aggs: Vec<LeftAggregate>,
    alloc: Vec<f64>,
    pows: Option<PowTable>,
}

/// Configuration of one local repair.
#[derive(Debug, Clone, Copy)]
pub struct LevelRepairConfig {
    /// The `(1+ε)` step parameter (must match the levels' provenance).
    pub eps: f64,
    /// Synchronous proportional rounds to run on the ball.
    pub rounds: usize,
}

/// The adjacency a right-ball growth reads: visitor scans of both sides
/// and the vertex counts. The batch's union-graph view
/// ([`InsertOverlay`]) implements it for the conflict scheduler's
/// footprints, the live [`DeltaGraph`] for the tests' reference balls.
pub(crate) trait BallGraph {
    fn n_left(&self) -> usize;
    fn n_right(&self) -> usize;
    fn for_each_left_neighbor(&self, u: LeftId, f: impl FnMut(RightId));
    fn for_each_right_neighbor(&self, v: RightId, f: impl FnMut(LeftId));
}

/// Forward [`BallGraph`] to the inherent methods of the same names.
macro_rules! ball_graph {
    ($($t:ty),*) => {$(
        impl BallGraph for $t {
            fn n_left(&self) -> usize {
                <$t>::n_left(self)
            }
            fn n_right(&self) -> usize {
                <$t>::n_right(self)
            }
            fn for_each_left_neighbor(&self, u: LeftId, f: impl FnMut(RightId)) {
                <$t>::for_each_left_neighbor(self, u, f)
            }
            fn for_each_right_neighbor(&self, v: RightId, f: impl FnMut(LeftId)) {
                <$t>::for_each_right_neighbor(self, v, f)
            }
        }
    )*};
}
ball_graph!(DeltaGraph, InsertOverlay<'_>);

/// The one right-ball growth: the schedule footprints are this loop,
/// through [`ball_of_capped_into`].
///
/// Visits the in-range `seeds` as hop 0, then grows hop by hop up to
/// `radius` right-to-right hops (right → left → right = 1): frontier
/// order, each frontier right's unseen lefts, each such left's row.
/// Every right reached for the first time goes to `reach` with its hop,
/// in that order; a `Break` ends the growth, and `reach` sees no further
/// right. The visitors cannot break out of a row, so the rights reached
/// through one frontier right's lefts are handed over once its scan is
/// done, which also keeps the per-edge closures small enough to inline.
/// Membership is stamped in `scratch`, left there for the caller to
/// read; after a `Break` it may hold rights that were reached but never
/// handed over. Each left's row is scanned at most once across the
/// growth — its rights all join the first time — so a growth that
/// touches the whole graph costs `O(n + m)`, not `O(m · deg)`. The
/// stamped clears and the frontier reuse keep repeated growths hash-
/// and allocation-free.
fn grow_ball<G: BallGraph + ?Sized>(
    g: &G,
    seeds: impl IntoIterator<Item = RightId>,
    radius: usize,
    scratch: &mut BallScratch,
    mut reach: impl FnMut(RightId, usize) -> ControlFlow<()>,
) {
    scratch.rights.grow(g.n_right());
    scratch.lefts.grow(g.n_left());
    scratch.rights.clear();
    scratch.lefts.clear();
    let BallScratch {
        rights: in_ball,
        lefts: seen_left,
        frontier,
        next,
    } = scratch;
    frontier.clear();
    for v in seeds {
        if (v as usize) < g.n_right() && in_ball.insert(v as usize) {
            if reach(v, 0).is_break() {
                return;
            }
            frontier.push(v);
        }
    }
    for hop in 1..=radius {
        next.clear();
        for &v in frontier.iter() {
            let reached = next.len();
            g.for_each_right_neighbor(v, |u| {
                if seen_left.insert(u as usize) {
                    g.for_each_left_neighbor(u, |w| {
                        if in_ball.insert(w as usize) {
                            next.push(w);
                        }
                    });
                }
            });
            for &w in &next[reached..] {
                if reach(w, hop).is_break() {
                    return;
                }
            }
        }
        if next.is_empty() {
            break;
        }
        std::mem::swap(frontier, next);
    }
}

/// Append to `out` the right ball around `seeds`, in BFS order, grown
/// until the radius is exhausted or the appended segment holds `cap`
/// rights (seeds are always included, even past the cap; a binding cap
/// keeps exactly the first `cap` rights). Returns the last hop that
/// grew the ball. The scheduler appends footprint segments to its arena;
/// it is the only caller outside the tests.
pub(crate) fn ball_of_capped_into<G: BallGraph + ?Sized>(
    g: &G,
    seeds: &[RightId],
    radius: usize,
    cap: usize,
    scratch: &mut BallScratch,
    out: &mut Vec<RightId>,
) -> usize {
    let start = out.len();
    let mut depth = 0;
    grow_ball(g, seeds.iter().copied(), radius, scratch, |w, hop| {
        // Seeds always join; past them, stop as the segment fills.
        let full = |len: usize| hop > 0 && len - start >= cap;
        if full(out.len()) {
            return ControlFlow::Break(());
        }
        out.push(w);
        depth = hop;
        if full(out.len()) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    depth
}

/// Re-run the proportional level dynamics on the rights of `ball`,
/// mutating `levels` in place; every other level is read but never
/// written. `scratch` carries nothing between calls that changes the
/// result. The serve loop calls the two halves, the gather and the
/// rounds, itself, to time the gather as its own phase.
///
/// # Panics
/// Panics if `ball` is not strictly ascending, if one of its rights is
/// out of range, or if `levels.len() != dg.n_right()`.
pub fn repair_levels(
    dg: &DeltaGraph,
    levels: &mut [i64],
    ball: &[RightId],
    cfg: &LevelRepairConfig,
    scratch: &mut LevelScratch,
) {
    scratch.gather(dg, ball, cfg);
    scratch.run_rounds(dg, levels, ball, cfg)
}

impl LevelScratch {
    /// Gather `ball`: the left frontier (every left adjacent to the
    /// ball) and the live rows of the ball's rights and of the frontier's
    /// lefts, copied into the arenas. The frontier pass walks every ball
    /// right's row anyway, so it hands out the frontier slots and writes
    /// the right arena in the same sweep. Skips the frontier when the
    /// ball is empty or no round will run.
    pub(crate) fn gather(&mut self, dg: &DeltaGraph, ball: &[RightId], cfg: &LevelRepairConfig) {
        assert!(
            ball.windows(2).all(|w| w[0] < w[1]),
            "the repair ball must be strictly ascending"
        );
        let LevelScratch {
            seen,
            frontier,
            slot_of,
            right_offsets,
            right_rows,
            left_offsets,
            left_rows,
            ..
        } = self;
        frontier.clear();
        right_offsets.clear();
        right_rows.clear();
        left_offsets.clear();
        left_rows.clear();
        if ball.is_empty() || cfg.rounds == 0 {
            return;
        }
        seen.grow(dg.n_left());
        seen.clear();
        if slot_of.len() < dg.n_left() {
            slot_of.resize(dg.n_left(), 0);
        }
        right_offsets.push(0);
        for &v in ball.iter() {
            dg.for_each_right_neighbor(v, |u| {
                if seen.insert(u as usize) {
                    slot_of[u as usize] = frontier.len() as u32;
                    frontier.push(u);
                }
                right_rows.push(slot_of[u as usize]);
            });
            right_offsets.push(right_rows.len());
        }
        left_offsets.push(0);
        for &u in frontier.iter() {
            dg.for_each_left_neighbor(u, |v| left_rows.push(v));
            left_offsets.push(left_rows.len());
        }
    }

    /// Run `cfg.rounds` synchronous rounds of the proportional dynamics
    /// over the ball the last [`gather`](LevelScratch::gather) collected,
    /// writing the ball's levels. That gather must have run on the same
    /// `dg`, unchanged since, with the same `ball` and `cfg`: the arenas
    /// are read as they are. Each round recomputes the
    /// frontier's aggregates (their exterior neighbours' levels are
    /// frozen but still read, so the computation is exact), then the
    /// ball's allocations, then moves every ball level at once — the
    /// same per-vertex steps, in the same edge order, as Algorithm 1.
    ///
    /// # Panics
    /// Panics if `levels.len() != dg.n_right()`.
    pub(crate) fn run_rounds(
        &mut self,
        dg: &DeltaGraph,
        levels: &mut [i64],
        ball: &[RightId],
        cfg: &LevelRepairConfig,
    ) {
        assert_eq!(levels.len(), dg.n_right(), "levels indexed by right vertex");
        let LevelScratch {
            right_offsets,
            right_rows,
            left_offsets,
            left_rows,
            aggs,
            alloc,
            pows,
            ..
        } = self;
        if ball.is_empty() || cfg.rounds == 0 {
            return;
        }
        if pows.as_ref().is_some_and(|p| p.eps() != cfg.eps) {
            *pows = None;
        }
        let pows = &*pows.get_or_insert_with(|| PowTable::new(cfg.eps));
        aggs.clear();
        aggs.resize(left_offsets.len() - 1, LeftAggregate::EMPTY);
        alloc.clear();
        alloc.resize(ball.len(), 0.0);

        for _ in 0..cfg.rounds {
            for (agg, row) in aggs.iter_mut().zip(left_offsets.windows(2)) {
                let row = &left_rows[row[0]..row[1]];
                *agg = left_aggregate_of(row.iter().copied(), levels, pows);
            }
            for ((a, &v), row) in alloc
                .iter_mut()
                .zip(ball.iter())
                .zip(right_offsets.windows(2))
            {
                let lv = levels[v as usize];
                *a = right_rows[row[0]..row[1]]
                    .iter()
                    .map(|&s| alloc_share(lv, &aggs[s as usize], pows))
                    .sum();
            }
            // Synchronous update, exactly like a round of Algorithm 1.
            for (&a, &v) in alloc.iter().zip(ball.iter()) {
                levels[v as usize] += update_level(a, dg.capacity(v), cfg.eps, 1.0, 1.0);
            }
        }
    }
}

/// [`ball_of_capped_into`] into a fresh, sorted vector.
#[cfg(test)]
pub(crate) fn ball_of_capped<G: BallGraph + ?Sized>(
    g: &G,
    seeds: &[RightId],
    radius: usize,
    cap: usize,
) -> Vec<RightId> {
    let mut ball = Vec::with_capacity(seeds.len());
    ball_of_capped_into(
        g,
        seeds,
        radius,
        cap,
        &mut BallScratch::default(),
        &mut ball,
    );
    ball.sort_unstable();
    ball
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_alloc_core::algo1::allocs_for_levels;
    use sparse_alloc_graph::generators::union_of_spanning_trees;
    use sparse_alloc_graph::BipartiteBuilder;

    fn repair(dg: &DeltaGraph, levels: &mut [i64], ball: &[RightId], cfg: &LevelRepairConfig) {
        repair_levels(dg, levels, ball, cfg, &mut LevelScratch::default())
    }

    #[test]
    fn ball_growth_by_radius() {
        // Path: u0 – v0, u1 – v0, u1 – v1, u2 – v1, u2 – v2.
        let mut b = BipartiteBuilder::new(3, 3);
        for (u, v) in [(0u32, 0u32), (1, 0), (1, 1), (2, 1), (2, 2)] {
            b.add_edge(u, v);
        }
        let dg = DeltaGraph::new(b.build_with_uniform_capacity(1).unwrap());
        assert_eq!(ball_of_capped(&dg, &[0], 0, usize::MAX), vec![0]);
        assert_eq!(ball_of_capped(&dg, &[0], 1, usize::MAX), vec![0, 1]);
        assert_eq!(ball_of_capped(&dg, &[0], 2, usize::MAX), vec![0, 1, 2]);
        assert_eq!(ball_of_capped(&dg, &[0], 9, usize::MAX), vec![0, 1, 2]);
    }

    #[test]
    fn a_binding_cap_keeps_the_first_rights_in_bfs_order() {
        // u0 ~ {v0}, u1 ~ {v0, v6}; the batch gives u0 five more rights,
        // so u0's row alone carries the ball from v0 past a cap of 3.
        let mut b = BipartiteBuilder::new(2, 7);
        for (u, v) in [(0u32, 0u32), (1, 0), (1, 6)] {
            b.add_edge(u, v);
        }
        let dg = DeltaGraph::new(b.build_with_uniform_capacity(1).unwrap());
        let mut live = dg.clone();
        let mut gplus = dg.insert_overlay();
        for v in 1..=5 {
            assert!(live.insert_edge(0, v));
            assert!(gplus.insert(0, v));
        }
        // BFS order: the seed v0, then u0's row v1, v2, … before u1's v6.
        assert_eq!(ball_of_capped(&live, &[0], 1, 3), [0, 1, 2]);
        assert_eq!(ball_of_capped(&gplus, &[0], 1, 3), [0, 1, 2]);
        assert_eq!(
            ball_of_capped(&gplus, &[0], 1, usize::MAX),
            [0, 1, 2, 3, 4, 5, 6]
        );
        // Seeds join even past the cap; nothing else does.
        assert_eq!(ball_of_capped(&live, &[6, 0, 5], 1, 2), [0, 5, 6]);
        assert_eq!(ball_of_capped(&gplus, &[6, 0, 5], 1, 2), [0, 5, 6]);
    }

    #[test]
    fn full_radius_repair_equals_global_rounds() {
        // With the ball holding every right, `rounds` repair rounds from
        // the zero levels must reproduce the global algorithm.
        let g = union_of_spanning_trees(40, 30, 2, 2, 5).graph;
        let eps = 0.2;
        let rounds = 6;
        let res = sparse_alloc_core::algo1::run(
            &g,
            &sparse_alloc_core::algo1::ProportionalConfig {
                eps,
                schedule: sparse_alloc_core::params::Schedule::Fixed(rounds),
                track_history: false,
            },
        );
        let dg = DeltaGraph::new(g.clone());
        let mut levels = vec![0i64; g.n_right()];
        let ball: Vec<u32> = (0..g.n_right() as u32).collect();
        repair(&dg, &mut levels, &ball, &LevelRepairConfig { eps, rounds });
        assert_eq!(levels, res.levels);
    }

    #[test]
    fn repair_touches_only_the_ball() {
        let g = union_of_spanning_trees(60, 50, 2, 2, 9).graph;
        let eps = 0.2;
        let dg = DeltaGraph::new(g.clone());
        let mut levels: Vec<i64> = (0..g.n_right()).map(|v| (v % 5) as i64 - 2).collect();
        let before = levels.clone();
        // The radius-1 ball around right 3: rights that share a left,
        // so the repaired levels read each other's moves.
        let ball = ball_of_capped(&dg, &[3], 1, usize::MAX);
        assert!(ball.len() > 2);
        let cfg = LevelRepairConfig { eps, rounds: 3 };
        repair(&dg, &mut levels, &ball, &cfg);
        for v in 0..g.n_right() {
            if !ball.contains(&(v as u32)) {
                assert_eq!(levels[v], before[v], "exterior level {v} moved");
            }
        }
        // Levels moved by at most `rounds` inside the ball, and some moved.
        for &v in &ball {
            assert!((levels[v as usize] - before[v as usize]).unsigned_abs() <= 3);
        }
        assert!(ball
            .iter()
            .any(|&v| levels[v as usize] != before[v as usize]));
    }

    #[test]
    fn repair_restores_lemma7_band_after_capacity_change() {
        // Converge globally, then halve one capacity and repair locally:
        // the repaired vertex must fall back into the Lemma-7 band
        // `alloc ∈ [C/(1+3ε), C(1+3ε)]` or be pinned to a moving level.
        let g = union_of_spanning_trees(80, 60, 2, 4, 3).graph;
        let eps = 0.25;
        let res = sparse_alloc_core::algo1::run(
            &g,
            &sparse_alloc_core::algo1::ProportionalConfig {
                eps,
                schedule: sparse_alloc_core::params::Schedule::KnownLambda(2),
                track_history: false,
            },
        );
        let mut dg = DeltaGraph::new(g.clone());
        let mut levels = res.levels.clone();
        let v = 7u32;
        dg.set_capacity(v, 1);
        let snapshot = dg.compact();
        let drifted = allocs_for_levels(&snapshot, &levels, eps);
        // The capacity cut makes v over-allocated relative to its new C.
        assert!(drifted[v as usize] > 1.0 * (1.0 + eps));
        repair(
            &DeltaGraph::new(snapshot.clone()),
            &mut levels,
            &[v],
            &LevelRepairConfig { eps, rounds: 12 },
        );
        let after = allocs_for_levels(&snapshot, &levels, eps);
        assert!(
            after[v as usize] < drifted[v as usize],
            "repair must bleed off the over-allocation: {} → {}",
            drifted[v as usize],
            after[v as usize]
        );
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn a_ball_out_of_order_is_refused() {
        let g = union_of_spanning_trees(20, 15, 2, 2, 1).graph;
        let dg = DeltaGraph::new(g);
        let mut levels = vec![0i64; dg.n_right()];
        let cfg = LevelRepairConfig {
            eps: 0.2,
            rounds: 2,
        };
        repair(&dg, &mut levels, &[4, 2], &cfg);
    }

    #[test]
    fn reused_scratch_equals_fresh_scratch() {
        // One scratch across repairs on a graph that grows between calls:
        // stale aggregates from an earlier, larger frontier and the
        // on-demand growth past the scratch's old size must not leak
        // into the levels.
        let g = union_of_spanning_trees(60, 50, 2, 2, 11).graph;
        let n_right = g.n_right() as u32;
        let mut dg = DeltaGraph::new(g);
        let mut levels: Vec<i64> = (0..dg.n_right()).map(|v| (v % 7) as i64 - 3).collect();
        let mut scratch = LevelScratch::default();
        let mut shrank = 0;
        let mut last = 0;
        for step in 0..12u32 {
            if step > 0 {
                for a in 0..step % 3 + 1 {
                    dg.arrive(&[(step * 7 + a) % n_right, (step * 13 + 5 * a + 1) % n_right]);
                }
            }
            // Balls of 1 to 30 rights: the radius-`r` balls around a few
            // seeds, so consecutive calls gather larger and smaller sets.
            let seeds: Vec<RightId> = (0..step % 4 + 1)
                .map(|j| (step * 11 + j * 17) % n_right)
                .collect();
            let ball = ball_of_capped(&dg, &seeds, step as usize % 3, 30);
            let cfg = LevelRepairConfig {
                eps: 0.2,
                rounds: 2 + step as usize % 4,
            };
            let mut fresh = levels.clone();
            repair(&dg, &mut fresh, &ball, &cfg);
            repair_levels(&dg, &mut levels, &ball, &cfg, &mut scratch);
            assert_eq!(levels, fresh, "step {step}: levels");
            shrank += (ball.len() < last) as usize;
            last = ball.len();
        }
        assert!(shrank > 0, "no call gathered a smaller ball than the last");
        assert!(dg.n_left() > 60, "the graph grew");
    }
}
