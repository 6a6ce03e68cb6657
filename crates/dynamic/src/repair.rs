//! Local repair of the proportional dynamics' β-levels.
//!
//! A single update perturbs the proportional dynamics only inside an
//! `O(τ)`-hop ball around the update site (the paper's level sets move by
//! one per round, so influence propagates one hop per round). Instead of
//! re-running Algorithm 1 globally, the repair engine re-runs the
//! per-vertex level step (`core::levels::update_level` driven by
//! `core::aggregates::left_aggregate_of` / `alloc_share`) on the dirty
//! ball only, holding all exterior levels frozen — the exterior is
//! *exactly* consistent because its aggregates read the live interior
//! levels on the next repair.
//!
//! Repairs are approximate by design: the ball radius truncates influence
//! that has geometrically decayed. The [`crate::scheduler::DriftTracker`]
//! accounts for the truncation and triggers a full
//! rebuild once the accumulated churn exceeds the `O(ε)` budget.

use std::collections::HashSet;

use sparse_alloc_core::aggregates::{alloc_share, left_aggregate_of, LeftAggregate};
use sparse_alloc_core::levels::{update_level, PowTable};
use sparse_alloc_core::termination;
use sparse_alloc_graph::{DeltaGraph, LeftId, RightId};

use crate::stamp::StampSet;

/// Reusable scratch for repeated ball growths — stamped membership plus
/// the BFS frontier vectors (the certificate sweep grows a ball per
/// augmenting flip; stamped clears keep that `O(ball)` instead of `O(n)`
/// per call, and the frontier reuse keeps it allocation-free).
#[derive(Debug, Clone, Default)]
pub struct BallScratch {
    rights: StampSet,
    lefts: StampSet,
    frontier: Vec<RightId>,
    next: Vec<RightId>,
}

impl BallScratch {
    /// Scratch sized for `dg` (grows on demand if the graph grows).
    pub fn for_graph(dg: &DeltaGraph) -> Self {
        BallScratch {
            rights: StampSet::new(dg.n_right()),
            lefts: StampSet::new(dg.n_left()),
            frontier: Vec::new(),
            next: Vec::new(),
        }
    }
}

/// Configuration of one local repair.
#[derive(Debug, Clone, Copy)]
pub struct LevelRepairConfig {
    /// The `(1+ε)` step parameter (must match the levels' provenance).
    pub eps: f64,
    /// Ball radius in right-to-right hops (right → left → right = 1).
    pub radius: usize,
    /// Synchronous proportional rounds to run on the ball.
    pub rounds: usize,
    /// Stop growing the ball once it holds this many right vertices
    /// (seeds are always included). Bounds repair work under bulk churn;
    /// the truncation is what the drift budget accounts for.
    pub max_ball: usize,
}

/// What one local repair touched.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LevelRepairReport {
    /// Right vertices in the repaired ball.
    pub ball_rights: usize,
    /// The repaired ball itself (sorted). Callers that maintain derived
    /// state — e.g. the serve loop's memoized fractional allocation —
    /// invalidate exactly this set.
    pub ball: Vec<RightId>,
    /// Left vertices adjacent to the ball (their aggregates were read).
    pub frontier_lefts: usize,
    /// Rounds executed.
    pub rounds_run: usize,
    /// Did the §4 predicate hold on the ball after the last round?
    /// (Evaluated with ball-local level sets; `None` if no round ran.)
    pub ball_terminated: Option<bool>,
}

/// The right-vertex ball of the given radius around `seeds`, sorted.
/// Equivalent to [`ball_of_capped`] with no size cap.
pub fn ball_of(dg: &DeltaGraph, seeds: &[RightId], radius: usize) -> Vec<RightId> {
    ball_of_capped(dg, seeds, radius, usize::MAX)
}

/// The right-vertex ball around `seeds`, expanded hop by hop until the
/// radius is exhausted or the ball holds `max_ball` vertices (seeds are
/// always included). Sorted.
///
/// Stamped membership — the serve loop calls this on every epoch, so the
/// hot path must not hash, and repeated calls (one per sweep flip) must
/// not re-zero dense arrays: pass a [`BallScratch`] to
/// [`ball_of_capped_with`] to amortize. Each left vertex's adjacency is
/// scanned at most once across the whole growth (its rights' membership
/// never changes once seen), so a growth that touches the whole graph
/// costs `O(n + m)` instead of `O(m · deg)`.
pub fn ball_of_capped(
    dg: &DeltaGraph,
    seeds: &[RightId],
    radius: usize,
    max_ball: usize,
) -> Vec<RightId> {
    ball_of_capped_with(dg, seeds, radius, max_ball, &mut BallScratch::for_graph(dg))
}

/// [`ball_of_capped`] with caller-owned membership scratch (`O(1)` clear
/// between calls).
pub fn ball_of_capped_with(
    dg: &DeltaGraph,
    seeds: &[RightId],
    radius: usize,
    max_ball: usize,
    scratch: &mut BallScratch,
) -> Vec<RightId> {
    let mut ball: Vec<RightId> = Vec::with_capacity(seeds.len());
    ball_of_capped_into(dg, seeds, radius, max_ball, scratch, &mut ball);
    ball
}

/// [`ball_of_capped`] writing into a caller-owned output vector (cleared
/// on entry) — with the scratch's frontier reuse this makes repeated
/// growths fully allocation-free, which is what keeps the per-epoch
/// certificate sweep off the allocator.
pub fn ball_of_capped_into(
    dg: &DeltaGraph,
    seeds: &[RightId],
    radius: usize,
    max_ball: usize,
    scratch: &mut BallScratch,
    out: &mut Vec<RightId>,
) {
    out.clear();
    scratch.rights.grow(dg.n_right());
    scratch.lefts.grow(dg.n_left());
    scratch.rights.clear();
    scratch.lefts.clear();
    let BallScratch {
        rights: in_ball,
        lefts: seen_left,
        frontier,
        next,
    } = scratch;
    frontier.clear();
    for &v in seeds {
        if (v as usize) < dg.n_right() && in_ball.insert(v as usize) {
            out.push(v);
            frontier.push(v);
        }
    }
    'grow: for _ in 0..radius {
        if out.len() >= max_ball {
            break;
        }
        next.clear();
        for &v in frontier.iter() {
            for u in dg.right_neighbors_iter(v) {
                if !seen_left.insert(u as usize) {
                    continue;
                }
                for w in dg.left_neighbors_iter(u) {
                    if in_ball.insert(w as usize) {
                        out.push(w);
                        next.push(w);
                        if out.len() >= max_ball {
                            break 'grow;
                        }
                    }
                }
            }
        }
        if next.is_empty() {
            break;
        }
        std::mem::swap(frontier, next);
    }
    out.sort_unstable();
}

/// Does the radius-`radius` right ball around `N(u)` hold a member of
/// `targets`? The same BFS as [`ball_of_capped_into`] seeded with `u`'s
/// neighbourhood (uncapped), stopped at the first target it reaches.
/// Every right the probe adds to its ball costs one unit of `budget`;
/// `None` means the budget ran out before the probe could decide.
pub(crate) fn probe_reaches(
    dg: &DeltaGraph,
    u: LeftId,
    radius: usize,
    targets: &StampSet,
    scratch: &mut BallScratch,
    budget: &mut usize,
) -> Option<bool> {
    scratch.rights.grow(dg.n_right());
    scratch.lefts.grow(dg.n_left());
    scratch.rights.clear();
    scratch.lefts.clear();
    let BallScratch {
        rights: in_ball,
        lefts: seen_left,
        frontier,
        next,
    } = scratch;
    frontier.clear();
    seen_left.insert(u as usize);
    for w in dg.left_neighbors_iter(u) {
        if in_ball.insert(w as usize) {
            *budget = budget.checked_sub(1)?;
            if targets.contains(w as usize) {
                return Some(true);
            }
            frontier.push(w);
        }
    }
    for _ in 0..radius {
        next.clear();
        for &v in frontier.iter() {
            for x in dg.right_neighbors_iter(v) {
                if !seen_left.insert(x as usize) {
                    continue;
                }
                for w in dg.left_neighbors_iter(x) {
                    if in_ball.insert(w as usize) {
                        *budget = budget.checked_sub(1)?;
                        if targets.contains(w as usize) {
                            return Some(true);
                        }
                        next.push(w);
                    }
                }
            }
        }
        if next.is_empty() {
            break;
        }
        std::mem::swap(frontier, next);
    }
    Some(false)
}

/// Re-run the proportional level dynamics on the ball around `seeds`,
/// mutating `levels` in place. Exterior levels are read but never written.
///
/// # Panics
/// Panics if `levels.len() != dg.n_right()`.
pub fn repair_levels(
    dg: &DeltaGraph,
    levels: &mut [i64],
    seeds: &[RightId],
    cfg: &LevelRepairConfig,
) -> LevelRepairReport {
    assert_eq!(levels.len(), dg.n_right(), "levels indexed by right vertex");
    let ball = ball_of_capped(dg, seeds, cfg.radius, cfg.max_ball);
    if ball.is_empty() || cfg.rounds == 0 {
        return LevelRepairReport {
            ball_rights: ball.len(),
            ball,
            ..Default::default()
        };
    }
    let pows = PowTable::new(cfg.eps);

    // Left frontier: every left vertex adjacent to the ball. Their
    // aggregates are recomputed each round (their other neighbors'
    // levels are frozen but still read — the computation is exact).
    // Dense (vertex-indexed) scratch: only frontier entries are written
    // and only frontier entries are read.
    let frontier: Vec<u32> = {
        let mut seen = vec![false; dg.n_left()];
        let mut f = Vec::new();
        for &v in &ball {
            for u in dg.right_neighbors_iter(v) {
                if !std::mem::replace(&mut seen[u as usize], true) {
                    f.push(u);
                }
            }
        }
        f.sort_unstable();
        f
    };

    let mut aggs: Vec<LeftAggregate> = vec![LeftAggregate::EMPTY; dg.n_left()];
    let mut alloc: Vec<f64> = vec![0.0; ball.len()];
    let mut base_level = vec![0i64; ball.len()];
    let mut ball_terminated = None;

    for round in 1..=cfg.rounds {
        for &u in &frontier {
            aggs[u as usize] = left_aggregate_of(dg.left_neighbors_iter(u), levels, &pows);
        }
        for (i, &v) in ball.iter().enumerate() {
            alloc[i] = dg
                .right_neighbors_iter(v)
                .map(|u| alloc_share(levels[v as usize], &aggs[u as usize], &pows))
                .sum();
            if round == 1 {
                base_level[i] = levels[v as usize];
            }
        }
        // Synchronous update, exactly like a round of Algorithm 1.
        for (i, &v) in ball.iter().enumerate() {
            levels[v as usize] += update_level(alloc[i], dg.capacity(v), cfg.eps, 1.0, 1.0);
        }
        if round == cfg.rounds {
            // Ball-local §4 predicate: level sets relative to the repair's
            // starting levels, neighborhoods restricted to the ball.
            let r = round as i64;
            let mut top_neighborhood = HashSet::new();
            let mut bottom = 0usize;
            let mut mass_off_bottom = 0.0;
            for (i, &v) in ball.iter().enumerate() {
                let moved = levels[v as usize] - base_level[i];
                if moved == r {
                    for u in dg.right_neighbors_iter(v) {
                        top_neighborhood.insert(u);
                    }
                }
                if moved == -r {
                    bottom += 1;
                } else {
                    mass_off_bottom += alloc[i];
                }
            }
            let (c1, c2) = termination::condition_holds(
                top_neighborhood.len(),
                bottom,
                mass_off_bottom,
                cfg.eps,
            );
            ball_terminated = Some(c1 || c2);
        }
    }

    LevelRepairReport {
        ball_rights: ball.len(),
        ball,
        frontier_lefts: frontier.len(),
        rounds_run: cfg.rounds,
        ball_terminated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_alloc_core::algo1::allocs_for_levels;
    use sparse_alloc_graph::generators::union_of_spanning_trees;
    use sparse_alloc_graph::BipartiteBuilder;

    #[test]
    fn ball_growth_by_radius() {
        // Path: u0 – v0, u1 – v0, u1 – v1, u2 – v1, u2 – v2.
        let mut b = BipartiteBuilder::new(3, 3);
        for (u, v) in [(0u32, 0u32), (1, 0), (1, 1), (2, 1), (2, 2)] {
            b.add_edge(u, v);
        }
        let dg = DeltaGraph::new(b.build_with_uniform_capacity(1).unwrap());
        assert_eq!(ball_of(&dg, &[0], 0), vec![0]);
        assert_eq!(ball_of(&dg, &[0], 1), vec![0, 1]);
        assert_eq!(ball_of(&dg, &[0], 2), vec![0, 1, 2]);
        assert_eq!(ball_of(&dg, &[0], 9), vec![0, 1, 2]);
    }

    #[test]
    fn full_radius_repair_equals_global_rounds() {
        // With the ball covering the whole graph, `rounds` repair rounds
        // from the zero levels must reproduce the global algorithm.
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
        let seeds: Vec<u32> = (0..g.n_right() as u32).collect();
        let rep = repair_levels(
            &dg,
            &mut levels,
            &seeds,
            &LevelRepairConfig {
                eps,
                radius: 0,
                rounds,
                max_ball: usize::MAX,
            },
        );
        assert_eq!(rep.ball_rights, g.n_right());
        assert_eq!(levels, res.levels);
        assert!(rep.ball_terminated.is_some());
    }

    #[test]
    fn repair_touches_only_the_ball() {
        let g = union_of_spanning_trees(60, 50, 2, 2, 9).graph;
        let eps = 0.2;
        let dg = DeltaGraph::new(g.clone());
        let mut levels: Vec<i64> = (0..g.n_right()).map(|v| (v % 5) as i64 - 2).collect();
        let before = levels.clone();
        let seeds = [3u32];
        let cfg = LevelRepairConfig {
            eps,
            radius: 1,
            rounds: 3,
            max_ball: usize::MAX,
        };
        let ball = ball_of(&dg, &seeds, cfg.radius);
        repair_levels(&dg, &mut levels, &seeds, &cfg);
        for v in 0..g.n_right() {
            if !ball.contains(&(v as u32)) {
                assert_eq!(levels[v], before[v], "exterior level {v} moved");
            }
        }
        // Levels moved by at most `rounds` inside the ball.
        for &v in &ball {
            assert!((levels[v as usize] - before[v as usize]).unsigned_abs() <= 3);
        }
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
        repair_levels(
            &DeltaGraph::new(snapshot.clone()),
            &mut levels,
            &[v],
            &LevelRepairConfig {
                eps,
                radius: 2,
                rounds: 12,
                max_ball: usize::MAX,
            },
        );
        let after = allocs_for_levels(&snapshot, &levels, eps);
        assert!(
            after[v as usize] < drifted[v as usize],
            "repair must bleed off the over-allocation: {} → {}",
            drifted[v as usize],
            after[v as usize]
        );
    }
}
