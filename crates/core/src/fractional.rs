//! Fractional allocations: the output object of Algorithms 1/2/3.
//!
//! Lines 5–6 of Algorithm 1 turn the raw proportional fractions `x` into a
//! feasible fractional allocation `x'` by scaling each over-allocated right
//! vertex back to its capacity: `x'_{u,v} = min(1, C_v/alloc_v) · x_{u,v}`.
//! The objective is `MatchWeight = Σ_v min(C_v, alloc_v)`.
//!
//! Two routes lead there. [`finalize`] takes aggregates the solvers have
//! already computed and scales through the right CSR.
//! [`finalize_from_levels`] starts from levels alone and reads only left
//! rows ([`LeftRows`]): one sweep writes each edge's share and adds it
//! into its right's mass, a second scales. Edge ids follow left-row order
//! and the right CSR lists each right's edges in edge-id order, so both
//! routes add each right's terms in the same order and agree bit for bit.
//! The serving engine reads its live graph this way, with no snapshot.

use sparse_alloc_graph::{Bipartite, LeftRows};

use crate::aggregates::{alloc_share, edge_fractions, left_aggregate_of, LeftAggregate};
use crate::levels::PowTable;

/// A feasible fractional allocation with its per-edge values.
#[derive(Debug, Clone, PartialEq)]
pub struct FractionalAllocation {
    /// Per-edge values `x'_{u,v} ∈ [0, 1]`, indexed by edge id.
    pub x: Vec<f64>,
    /// The objective `Σ_e x'_e` (equals `Σ_v min(C_v, alloc_v)` up to
    /// floating error when produced by the solvers).
    pub weight: f64,
}

impl FractionalAllocation {
    /// Validate feasibility within tolerance `tol`:
    /// every `x ∈ [0, 1+tol]`, left sums ≤ `1+tol`, right sums ≤
    /// `C_v(1+tol)`.
    pub fn validate(&self, g: &Bipartite, tol: f64) -> Result<(), String> {
        if self.x.len() != g.m() {
            return Err(format!(
                "x has {} entries for {} edges",
                self.x.len(),
                g.m()
            ));
        }
        if let Some((e, &xe)) = self
            .x
            .iter()
            .enumerate()
            .find(|(_, &xe)| !(0.0..=1.0 + tol).contains(&xe) || !xe.is_finite())
        {
            return Err(format!("x[{e}] = {xe} out of [0, 1]"));
        }
        for u in 0..g.n_left() as u32 {
            let s: f64 = g.left_edge_range(u).map(|e| self.x[e]).sum();
            if s > 1.0 + tol {
                return Err(format!("left {u} total {s} exceeds 1"));
            }
        }
        for v in 0..g.n_right() as u32 {
            let s: f64 = g
                .right_edge_ids(v)
                .iter()
                .map(|&e| self.x[e as usize])
                .sum();
            let c = g.capacity(v) as f64;
            if s > c * (1.0 + tol) + tol {
                return Err(format!("right {v} total {s} exceeds capacity {c}"));
            }
        }
        let total: f64 = self.x.iter().sum();
        if (total - self.weight).abs() > tol * total.max(1.0) {
            return Err(format!("declared weight {} but Σx = {total}", self.weight));
        }
        Ok(())
    }
}

/// Apply lines 5–6 of Algorithm 1: from final levels, produce the feasible
/// fractional allocation and its weight.
///
/// `alloc` must be the exact allocation masses for `levels` (one extra
/// aggregation pass, which is how the MPC version finishes too — an `O(1)`
/// round exact aggregation).
pub fn finalize(
    g: &Bipartite,
    levels: &[i64],
    lefts: &[LeftAggregate],
    alloc: &[f64],
    pows: &PowTable,
) -> FractionalAllocation {
    let mut x = edge_fractions(g, levels, lefts, pows);
    // Scale each over-allocated right vertex down to capacity.
    for v in 0..g.n_right() as u32 {
        let a = alloc[v as usize];
        let c = g.capacity(v) as f64;
        if a > c {
            let scale = c / a;
            for &e in g.right_edge_ids(v) {
                x[e as usize] *= scale;
            }
        }
    }
    let weight: f64 = alloc
        .iter()
        .zip(g.capacities())
        .map(|(&a, &c)| a.min(c as f64))
        .sum();
    FractionalAllocation { x, weight }
}

/// Compute the full output for a level vector in one call: exact left
/// aggregates, alloc and the finalized allocation, bit-identical to
/// [`left_aggregates`](crate::aggregates::left_aggregates) →
/// [`right_allocs`](crate::aggregates::right_allocs) → [`finalize`] on
/// the same rows. `O(n + m)` over the left rows; no right index is read
/// or built.
pub fn finalize_from_levels(g: &impl LeftRows, levels: &[i64], eps: f64) -> FractionalAllocation {
    let pows = PowTable::new(eps);
    let mut x = Vec::with_capacity(g.m());
    let mut rights = Vec::with_capacity(g.m());
    // `-0.0` is the neutral element of `f64`'s `Sum`, so an isolated right
    // carries the mass (sign bit included) the right-CSR sum gives it.
    let mut alloc = vec![-0.0f64; g.n_right()];
    g.for_each_left_row(|row| {
        let agg = left_aggregate_of(row.iter().copied(), levels, &pows);
        for &v in row {
            let share = alloc_share(levels[v as usize], &agg, &pows);
            x.push(share);
            alloc[v as usize] += share;
        }
        rights.extend_from_slice(row);
    });
    let caps = g.capacities();
    let weight: f64 = alloc.iter().zip(caps).map(|(&a, &c)| a.min(c as f64)).sum();
    // Each right's scale-down to capacity, `c / a` when over-allocated and
    // 1 (an exact no-op) otherwise.
    let mut scale = alloc;
    for (a, &c) in scale.iter_mut().zip(caps) {
        let c = c as f64;
        *a = if *a > c { c / *a } else { 1.0 };
    }
    for (xe, &v) in x.iter_mut().zip(&rights) {
        *xe *= scale[v as usize];
    }
    FractionalAllocation { x, weight }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;
    use sparse_alloc_graph::generators::{random_bipartite, star};
    use sparse_alloc_graph::BipartiteBuilder;

    #[test]
    fn uniform_star_scales_to_capacity() {
        // Star: 6 leaves, capacity 2. All levels equal ⇒ every leaf sends 1
        // to the center (deg 1 each): alloc = 6 > C = 2 ⇒ scale 1/3.
        let g = star(6, 2).graph;
        let fa = finalize_from_levels(&g, &[0], 0.5);
        fa.validate(&g, 1e-9).unwrap();
        assert!((fa.weight - 2.0).abs() < 1e-9);
        assert!(fa.x.iter().all(|&x| (x - 1.0 / 3.0).abs() < 1e-9));
    }

    #[test]
    fn under_allocated_untouched() {
        // Two leaves, capacity 5: alloc = 2 < 5, no scaling.
        let g = star(2, 5).graph;
        let fa = finalize_from_levels(&g, &[0], 0.5);
        fa.validate(&g, 1e-9).unwrap();
        assert!((fa.weight - 2.0).abs() < 1e-9);
        assert!(fa.x.iter().all(|&x| (x - 1.0).abs() < 1e-9));
    }

    #[test]
    fn validate_catches_violations() {
        let mut b = BipartiteBuilder::new(2, 1);
        b.add_edge(0, 0);
        b.add_edge(1, 0);
        let g = b.build_with_uniform_capacity(1).unwrap();
        // Right vertex total = 1.6 > C = 1.
        let bad = FractionalAllocation {
            x: vec![0.8, 0.8],
            weight: 1.6,
        };
        assert!(bad.validate(&g, 1e-9).is_err());
        // Left vertex total > 1.
        let mut b = BipartiteBuilder::new(1, 2);
        b.add_edge(0, 0);
        b.add_edge(0, 1);
        let g = b.build_with_uniform_capacity(5).unwrap();
        let bad = FractionalAllocation {
            x: vec![0.7, 0.7],
            weight: 1.4,
        };
        assert!(bad.validate(&g, 1e-9).is_err());
        // Wrong declared weight.
        let bad = FractionalAllocation {
            x: vec![0.3, 0.3],
            weight: 2.0,
        };
        assert!(bad.validate(&g, 1e-9).is_err());
        // NaN.
        let bad = FractionalAllocation {
            x: vec![f64::NAN, 0.0],
            weight: 0.0,
        };
        assert!(bad.validate(&g, 1e-9).is_err());
    }

    #[test]
    fn arbitrary_levels_always_feasible() {
        let g = random_bipartite(40, 30, 200, 3, 9).graph;
        for (seed, eps) in [(1u64, 0.1f64), (2, 0.5), (3, 1.0)] {
            let levels: Vec<i64> = (0..30)
                .map(|v| ((v as u64 * seed * 2654435761) % 13) as i64 - 6)
                .collect();
            let fa = finalize_from_levels(&g, &levels, eps);
            fa.validate(&g, 1e-9)
                .unwrap_or_else(|e| panic!("seed {seed} eps {eps}: {e}"));
        }
    }

    #[test]
    fn weight_equals_sum_of_x() {
        let g = random_bipartite(25, 20, 100, 2, 4).graph;
        let fa = finalize_from_levels(&g, &[0; 20], 0.25);
        let total: f64 = fa.x.iter().sum();
        assert!((total - fa.weight).abs() < 1e-9);
    }

    /// The right-CSR route: `left_aggregates` → `right_allocs` →
    /// `finalize`, which the row scatter must match bit for bit.
    fn through_the_right_csr(g: &Bipartite, levels: &[i64], eps: f64) -> FractionalAllocation {
        use crate::aggregates::{left_aggregates, right_allocs};
        let pows = PowTable::new(eps);
        let lefts = left_aggregates(g, levels, &pows);
        let alloc = right_allocs(g, levels, &lefts, &pows);
        finalize(g, levels, &lefts, &alloc, &pows)
    }

    fn assert_bit_equal(got: &FractionalAllocation, want: &FractionalAllocation) {
        let bits = |fa: &FractionalAllocation| fa.x.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "x differs from the right-CSR route");
        assert_eq!(
            got.weight.to_bits(),
            want.weight.to_bits(),
            "weight {} vs {}",
            got.weight,
            want.weight
        );
    }

    #[test]
    fn row_scatter_matches_the_right_csr_route_on_edge_cases() {
        // Four leaves on a unit right (over-allocated), one isolated left
        // and one isolated right, at skewed levels.
        let mut b = BipartiteBuilder::new(6, 3);
        for (u, v) in [(0u32, 0u32), (1, 0), (2, 0), (3, 0), (3, 1), (4, 1)] {
            b.add_edge(u, v);
        }
        let g = b.build(vec![1, 2, 1]).unwrap();
        let levels = [2, -1, 0];
        let want = through_the_right_csr(&g, &levels, 0.5);
        assert!(
            want.x.iter().any(|&x| x < 1.0 / 3.0),
            "the unit right is scaled"
        );
        assert_bit_equal(&finalize_from_levels(&g, &levels, 0.5), &want);
        // No edge at all: every mass is the empty sum, and so is the
        // weight, sign bit included.
        let g = BipartiteBuilder::new(2, 2).build(vec![1, 3]).unwrap();
        let want = through_the_right_csr(&g, &[0, 0], 0.25);
        assert!(want.weight.is_sign_negative());
        assert_bit_equal(&finalize_from_levels(&g, &[0, 0], 0.25), &want);
    }

    /// A small graph whose last left and last right have no edge, with
    /// capacities 1–3 (capacity 0 is refused by the builder) so rights
    /// over-allocate, levels spread wide enough that some shares
    /// underflow, and one of four `ε`.
    fn instance() -> impl Strategy<Value = (Bipartite, Vec<i64>, f64)> {
        (0usize..10, 0usize..8).prop_flat_map(|(nl, nr)| {
            let edges = collection::vec((0..nl.max(1) as u32, 0..nr.max(1) as u32), 0..40);
            let caps = collection::vec(1u64..=3, nr + 1);
            let levels = collection::vec((0u8..6, -8i64..8), nr + 1);
            (Just(nl), Just(nr), edges, caps, levels, 0usize..4).prop_map(
                |(nl, nr, edges, caps, levels, e)| {
                    let mut b = BipartiteBuilder::new(nl + 1, nr + 1);
                    b.extend_edges(
                        edges
                            .into_iter()
                            .filter(|&(u, v)| (u as usize) < nl && (v as usize) < nr),
                    );
                    let levels = levels
                        .into_iter()
                        .map(|(wide, l)| if wide == 0 { l * 100_000 } else { l })
                        .collect();
                    (b.build(caps).unwrap(), levels, [0.1, 0.25, 0.5, 1.0][e])
                },
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn row_scatter_equals_the_right_csr_route((g, levels, eps) in instance()) {
            let got = finalize_from_levels(&g, &levels, eps);
            prop_assert_eq!(got.x.len(), g.m());
            assert_bit_equal(&got, &through_the_right_csr(&g, &levels, eps));
        }
    }
}
