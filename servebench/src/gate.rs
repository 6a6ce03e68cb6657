//! The correctness gate. It runs outside every timed region.

use sparse_alloc_flow::opt::opt_value;
use sparse_alloc_graph::{Assignment, Bipartite};

/// Check a served allocation against the live instance `g`: it must be
/// feasible (every match is an edge, no right over capacity) and hold the
/// walk certificate's bound `|M| ≥ k/(k+1)·OPT`, with OPT from the exact
/// flow oracle. Returns `|M| / OPT`.
pub fn check_allocation(g: &Bipartite, a: &Assignment, walk_budget: usize) -> Result<f64, String> {
    a.validate(g)?;
    let opt = opt_value(g);
    let size = a.size() as u64;
    let k = walk_budget as u64;
    // |M|·(k+1) ≥ k·OPT, in integers.
    if size * (k + 1) < k * opt {
        return Err(format!(
            "|M| = {size} is below k/(k+1)·OPT = {k}/{}·{opt}",
            k + 1
        ));
    }
    Ok(if opt == 0 {
        1.0
    } else {
        size as f64 / opt as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_alloc_dynamic::{DynamicConfig, ServeLoop};
    use sparse_alloc_graph::generators::union_of_spanning_trees;

    fn served() -> (Bipartite, Assignment, usize) {
        let g = union_of_spanning_trees(300, 200, 3, 1, 5).graph;
        let serve = ServeLoop::new(g.clone(), DynamicConfig::for_eps(0.25));
        (g, serve.assignment(), serve.config().walk_budget)
    }

    #[test]
    fn accepts_the_served_allocation() {
        let (g, a, k) = served();
        let ratio = check_allocation(&g, &a, k).expect("served allocation passes");
        assert!((0.8..=1.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn rejects_a_match_on_a_non_edge() {
        let (g, mut a, k) = served();
        let u = (0..g.n_left())
            .find(|&u| g.left_degree(u as u32) < g.n_right())
            .expect("some left misses a right");
        let non_neighbor = (0..g.n_right() as u32)
            .find(|v| !g.left_neighbors(u as u32).contains(v))
            .expect("a right outside the neighborhood");
        a.mate[u] = Some(non_neighbor);
        assert!(check_allocation(&g, &a, k).is_err());
    }

    #[test]
    fn rejects_an_overloaded_right() {
        let (g, mut a, k) = served();
        // Point every left at its first neighbor: some right takes more
        // lefts than its capacity of 1.
        for u in 0..g.n_left() {
            a.mate[u] = g.left_neighbors(u as u32).first().copied();
        }
        assert!(check_allocation(&g, &a, k).is_err());
    }

    #[test]
    fn rejects_an_allocation_below_the_certificate_bound() {
        let (g, mut a, k) = served();
        let drop = a.size() / 4;
        for m in a.mate.iter_mut().filter(|m| m.is_some()).take(drop) {
            *m = None;
        }
        let err = check_allocation(&g, &a, k).expect_err("a quarter of the matches is missing");
        assert!(err.contains("below"), "{err}");
    }
}
