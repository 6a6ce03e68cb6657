//! The λ-oblivious termination condition (paper, end of §4).
//!
//! After `r` rounds, with level sets taken at the *end* of the round and
//! allocation masses from the round's computation, at least one of the
//! following holds once `r ≥ log_{1+ε}(4λ/ε) + 1` — and if either holds the
//! current output is a `(2+10ε)`-approximation:
//!
//! 1. `|N(L_top)| ≤ |L_bot|` — the top level set has few neighbors, or
//! 2. `Σ_{v ∉ L_bot} alloc_v ≥ (1 − ε/2)·|N(L_top)|` — almost all of
//!    `N(L_top)`'s mass is allocated to vertices with bounded
//!    over-allocation.
//!
//! Testing the condition is a global aggregation: `O(m)` work here, `O(1)`
//! rounds in MPC (the MPC executor charges it to its ledger). The paper
//! notes it is *not* known how to check it in `O(1)` LOCAL rounds — which
//! is why the LOCAL algorithm needs the λ-based schedule while MPC can go
//! λ-oblivious.

use sparse_alloc_graph::Bipartite;

use crate::levels::extreme_level_sets;

/// Outcome of a termination test.
#[derive(Debug, Clone, PartialEq)]
pub struct TerminationCheck {
    /// Did either condition hold?
    pub terminated: bool,
    /// Condition 1: `|N(L_top)| ≤ |L_bot|`.
    pub cond_few_neighbors: bool,
    /// Condition 2: `Σ_{v ∉ L_bot} alloc_v ≥ (1−ε/2)|N(L_top)|`.
    pub cond_mass_allocated: bool,
    /// `|L_top|` (vertices that rose every round).
    pub top_size: usize,
    /// `|L_bot|` (vertices that fell every round).
    pub bottom_size: usize,
    /// `|N(L_top)|`.
    pub top_neighborhood: usize,
    /// `Σ_{v ∉ L_bot} alloc_v`.
    pub mass_off_bottom: f64,
}

/// The bare §4 predicate over pre-aggregated quantities: returns
/// `(cond_few_neighbors, cond_mass_allocated)`. [`check`] aggregates them
/// over the whole graph.
#[inline]
fn condition_holds(
    top_neighborhood: usize,
    bottom_size: usize,
    mass_off_bottom: f64,
    eps: f64,
) -> (bool, bool) {
    let cond_few_neighbors = top_neighborhood <= bottom_size;
    let cond_mass_allocated = mass_off_bottom >= (1.0 - eps / 2.0) * top_neighborhood as f64;
    (cond_few_neighbors, cond_mass_allocated)
}

/// Evaluate the §4 termination condition after `rounds` rounds.
///
/// `levels` are the end-of-round levels; `alloc` the allocation masses
/// computed in that round.
pub fn check(
    g: &Bipartite,
    levels: &[i64],
    alloc: &[f64],
    rounds: usize,
    eps: f64,
) -> TerminationCheck {
    let sets = extreme_level_sets(levels, rounds);

    // |N(L_top)| by marking left neighbors.
    let mut seen = vec![false; g.n_left()];
    let mut top_neighborhood = 0usize;
    for &v in &sets.top {
        for &u in g.right_neighbors(v) {
            if !seen[u as usize] {
                seen[u as usize] = true;
                top_neighborhood += 1;
            }
        }
    }

    let mut in_bottom = vec![false; g.n_right()];
    for &v in &sets.bottom {
        in_bottom[v as usize] = true;
    }
    let mass_off_bottom: f64 = alloc
        .iter()
        .enumerate()
        .filter(|(v, _)| !in_bottom[*v])
        .map(|(_, &a)| a)
        .sum();

    let (cond_few_neighbors, cond_mass_allocated) =
        condition_holds(top_neighborhood, sets.bottom.len(), mass_off_bottom, eps);

    TerminationCheck {
        terminated: cond_few_neighbors || cond_mass_allocated,
        cond_few_neighbors,
        cond_mass_allocated,
        top_size: sets.top.len(),
        bottom_size: sets.bottom.len(),
        top_neighborhood,
        mass_off_bottom,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_alloc_graph::BipartiteBuilder;

    fn toy() -> Bipartite {
        let mut b = BipartiteBuilder::new(3, 3);
        for (u, v) in [(0u32, 0u32), (1, 0), (1, 1), (2, 2)] {
            b.add_edge(u, v);
        }
        b.build_with_uniform_capacity(1).unwrap()
    }

    #[test]
    fn empty_top_set_terminates() {
        let g = toy();
        // After 5 rounds, no vertex is at level ±5 ⇒ N(L_top) = 0 ≤ |L_bot|.
        let levels = vec![0i64, 2, -3];
        let t = check(&g, &levels, &[0.5, 0.5, 0.5], 5, 0.1);
        assert!(t.terminated);
        assert!(t.cond_few_neighbors);
        assert_eq!(t.top_neighborhood, 0);
    }

    #[test]
    fn condition_one_counts_distinct_neighbors() {
        let g = toy();
        // rounds = 1: top = {v0, v1} (level 1), bottom = {v2} (level −1).
        // N(top) = {u0, u1} (u1 shared) ⇒ 2 > 1 = |bottom| ⇒ cond1 false.
        let levels = vec![1i64, 1, -1];
        let t = check(&g, &levels, &[0.0, 0.0, 0.0], 1, 0.1);
        assert!(!t.cond_few_neighbors);
        assert_eq!(t.top_neighborhood, 2);
        assert_eq!(t.bottom_size, 1);
        // alloc all zero ⇒ cond2 false too.
        assert!(!t.terminated);
    }

    #[test]
    fn condition_two_mass_threshold() {
        let g = toy();
        let levels = vec![1i64, 1, -1];
        // mass off bottom = alloc(v0) + alloc(v1); N(top) = 2.
        // Threshold: (1 − 0.05)·2 = 1.9.
        let t = check(&g, &levels, &[1.0, 0.95, 10.0], 1, 0.1);
        assert!(t.cond_mass_allocated, "1.95 ≥ 1.9");
        assert!(t.terminated);
        let t = check(&g, &levels, &[1.0, 0.85, 10.0], 1, 0.1);
        assert!(!t.cond_mass_allocated, "1.85 < 1.9");
    }

    #[test]
    fn predicate_hook_matches_check() {
        let g = toy();
        let levels = vec![1i64, 1, -1];
        let alloc = [1.0, 0.95, 10.0];
        let t = check(&g, &levels, &alloc, 1, 0.1);
        let (c1, c2) = condition_holds(t.top_neighborhood, t.bottom_size, t.mass_off_bottom, 0.1);
        assert_eq!(c1, t.cond_few_neighbors);
        assert_eq!(c2, t.cond_mass_allocated);
        // The empty ball terminates trivially (0 ≤ 0, 0 ≥ 0).
        assert_eq!(condition_holds(0, 0, 0.0, 0.1), (true, true));
    }

    #[test]
    fn bottom_mass_excluded() {
        let g = toy();
        let levels = vec![1i64, 1, -1];
        // v2 is in the bottom: its huge alloc must not count.
        let t = check(&g, &levels, &[0.0, 0.0, 100.0], 1, 0.1);
        assert!((t.mass_off_bottom - 0.0).abs() < 1e-12);
        assert!(!t.terminated);
    }
}
