//! The immutable bipartite graph representation.
//!
//! [`Bipartite`] stores the graph twice in CSR (compressed sparse row) form —
//! once from the `L` side and once from the `R` side — so that both
//! aggregation directions of the proportional-allocation algorithm
//! (`u ∈ L` reads `β_v` of all neighbors; `v ∈ R` reads `β_u` of all
//! neighbors) are contiguous scans.

use serde::{Deserialize, Serialize};

/// Index of a vertex on the left (`L`) side; `u ∈ 0..n_left()`.
pub type LeftId = u32;
/// Index of a vertex on the right (`R`) side; `v ∈ 0..n_right()`.
pub type RightId = u32;
/// Dense edge identifier: the position of the edge in the left-side CSR.
pub type EdgeId = u32;

/// Which bipartition side a vertex belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Side {
    /// The side with implicit capacity 1 (clients / impressions / jobs).
    Left,
    /// The side with explicit capacities `C_v ≥ 1` (servers / advertisers).
    Right,
}

/// An immutable bipartite graph `G = (L ∪ R, E)` with capacities on `R`.
///
/// Construction goes through [`crate::BipartiteBuilder`] (or a generator in
/// [`crate::generators`]); the resulting structure is append-only frozen and
/// cheap to share across threads.
///
/// # Edge identifiers
///
/// Edge `e = (u, v)` has id equal to its slot in the left CSR, i.e. edges of
/// `u` occupy ids `left_offsets[u] .. left_offsets[u+1]`. The right CSR
/// stores, per slot, both the left endpoint and the edge id so that per-edge
/// arrays written while scanning from the left can be read while scanning
/// from the right.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Bipartite {
    pub(crate) left_offsets: Vec<usize>,
    pub(crate) left_adj: Vec<RightId>,
    pub(crate) right_offsets: Vec<usize>,
    pub(crate) right_adj: Vec<LeftId>,
    pub(crate) right_edge_ids: Vec<EdgeId>,
    pub(crate) capacities: Vec<u64>,
}

impl Bipartite {
    /// Freeze a left CSR into a [`Bipartite`], deriving the right CSR by
    /// counting sort in edge-id order. `O(n + m)`.
    ///
    /// The one right-CSR implementation of the crate: the builder and the
    /// overlay compactions all end here. Callers guarantee in-range ids,
    /// nonzero capacities (`capacities.len()` is `n_right`) and rows that
    /// are sorted and duplicate-free — the invariants every reader of a
    /// frozen graph relies on (`has_edge` binary-searches base rows).
    pub(crate) fn from_left_csr(
        left_offsets: Vec<usize>,
        left_adj: Vec<RightId>,
        capacities: Vec<u64>,
    ) -> Bipartite {
        debug_assert!(left_offsets
            .windows(2)
            .all(|w| left_adj[w[0]..w[1]].windows(2).all(|p| p[0] < p[1])));
        let n_right = capacities.len();
        let m = left_adj.len();
        let mut right_offsets = vec![0usize; n_right + 1];
        for &v in &left_adj {
            right_offsets[v as usize + 1] += 1;
        }
        for i in 0..n_right {
            right_offsets[i + 1] += right_offsets[i];
        }
        let mut cursor = right_offsets.clone();
        let mut right_adj = vec![0 as LeftId; m];
        let mut right_edge_ids = vec![0 as EdgeId; m];
        for (u, row) in left_offsets.windows(2).enumerate() {
            for (e, &v) in (row[0]..row[1]).zip(&left_adj[row[0]..row[1]]) {
                let v = v as usize;
                let slot = cursor[v];
                right_adj[slot] = u as LeftId;
                right_edge_ids[slot] = e as EdgeId;
                cursor[v] += 1;
            }
        }
        Bipartite {
            left_offsets,
            left_adj,
            right_offsets,
            right_adj,
            right_edge_ids,
            capacities,
        }
    }

    /// Number of vertices on the left side.
    #[inline]
    pub fn n_left(&self) -> usize {
        self.left_offsets.len() - 1
    }

    /// Number of vertices on the right side.
    #[inline]
    pub fn n_right(&self) -> usize {
        self.right_offsets.len() - 1
    }

    /// Total number of vertices `n = |L| + |R|`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n_left() + self.n_right()
    }

    /// Number of edges `m = |E|`.
    #[inline]
    pub fn m(&self) -> usize {
        self.left_adj.len()
    }

    /// Capacity `C_v` of right vertex `v`.
    #[inline]
    pub fn capacity(&self, v: RightId) -> u64 {
        self.capacities[v as usize]
    }

    /// The full capacity vector, indexed by right vertex.
    #[inline]
    pub fn capacities(&self) -> &[u64] {
        &self.capacities
    }

    /// Total capacity `Σ_v C_v`.
    pub fn total_capacity(&self) -> u64 {
        self.capacities.iter().sum()
    }

    /// Neighbors (in `R`) of left vertex `u`, as a contiguous slice.
    #[inline]
    pub fn left_neighbors(&self, u: LeftId) -> &[RightId] {
        &self.left_adj[self.left_offsets[u as usize]..self.left_offsets[u as usize + 1]]
    }

    /// Neighbors (in `L`) of right vertex `v`, as a contiguous slice.
    #[inline]
    pub fn right_neighbors(&self, v: RightId) -> &[LeftId] {
        &self.right_adj[self.right_offsets[v as usize]..self.right_offsets[v as usize + 1]]
    }

    /// Edge ids of the edges incident to left vertex `u`
    /// (`left_edge_range(u).zip(left_neighbors(u))` enumerates `(e, v)`).
    #[inline]
    pub fn left_edge_range(&self, u: LeftId) -> std::ops::Range<usize> {
        self.left_offsets[u as usize]..self.left_offsets[u as usize + 1]
    }

    /// Edge ids of edges incident to right vertex `v`, parallel to
    /// [`Self::right_neighbors`].
    #[inline]
    pub fn right_edge_ids(&self, v: RightId) -> &[EdgeId] {
        &self.right_edge_ids[self.right_offsets[v as usize]..self.right_offsets[v as usize + 1]]
    }

    /// Slot range of right vertex `v` in the right CSR
    /// (`right_slot_range(v).zip(right_neighbors(v))` enumerates slots).
    #[inline]
    pub fn right_slot_range(&self, v: RightId) -> std::ops::Range<usize> {
        self.right_offsets[v as usize]..self.right_offsets[v as usize + 1]
    }

    /// For each edge id, the slot it occupies in the right CSR — the inverse
    /// permutation of [`Self::right_edge_ids`] over all vertices.
    pub fn right_slot_of_edge(&self) -> Vec<u32> {
        let mut out = vec![0u32; self.m()];
        for (slot, &e) in self.right_edge_ids.iter().enumerate() {
            out[e as usize] = slot as u32;
        }
        out
    }

    /// Degree of left vertex `u`.
    #[inline]
    pub fn left_degree(&self, u: LeftId) -> usize {
        self.left_offsets[u as usize + 1] - self.left_offsets[u as usize]
    }

    /// Degree of right vertex `v`.
    #[inline]
    pub fn right_degree(&self, v: RightId) -> usize {
        self.right_offsets[v as usize + 1] - self.right_offsets[v as usize]
    }

    /// Maximum degree over all vertices of both sides.
    pub fn max_degree(&self) -> usize {
        let l = (0..self.n_left() as u32)
            .map(|u| self.left_degree(u))
            .max()
            .unwrap_or(0);
        let r = (0..self.n_right() as u32)
            .map(|v| self.right_degree(v))
            .max()
            .unwrap_or(0);
        l.max(r)
    }

    /// Average degree `2m / n` (0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            2.0 * self.m() as f64 / self.n() as f64
        }
    }

    /// Iterate over all edges as `(edge_id, u, v)` triples in edge-id order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, LeftId, RightId)> + '_ {
        (0..self.n_left() as u32).flat_map(move |u| {
            self.left_edge_range(u)
                .zip(self.left_neighbors(u))
                .map(move |(e, &v)| (e as EdgeId, u, v))
        })
    }

    /// The left endpoint of every edge, indexed by edge id.
    ///
    /// Materializes a `Vec` of length `m`; useful when an algorithm needs
    /// random access from edge id to endpoints.
    pub fn edge_left_endpoints(&self) -> Vec<LeftId> {
        let mut out = vec![0; self.m()];
        for u in 0..self.n_left() as u32 {
            for e in self.left_edge_range(u) {
                out[e] = u;
            }
        }
        out
    }

    /// The right endpoint of every edge, indexed by edge id (a clone of the
    /// left CSR adjacency array).
    pub fn edge_right_endpoints(&self) -> &[RightId] {
        &self.left_adj
    }

    /// Replace the capacity vector, returning a new graph that shares the
    /// topology.
    ///
    /// # Panics
    /// Panics if `caps.len() != n_right()` or any capacity is zero.
    pub fn with_capacities(&self, caps: Vec<u64>) -> Bipartite {
        assert_eq!(caps.len(), self.n_right(), "capacity vector length");
        assert!(caps.iter().all(|&c| c >= 1), "capacities must be ≥ 1");
        Bipartite {
            capacities: caps,
            ..self.clone()
        }
    }

    /// Exhaustive internal-consistency check, used by tests and debug builds.
    ///
    /// Verifies monotone offsets, in-range adjacency, the left↔right edge-id
    /// correspondence, and capacity positivity. Cost `O(n + m)`.
    pub fn validate(&self) -> Result<(), String> {
        let (nl, nr, m) = (self.n_left(), self.n_right(), self.m());
        if *self.left_offsets.first().unwrap() != 0 || *self.left_offsets.last().unwrap() != m {
            return Err("left offsets must span [0, m]".into());
        }
        if *self.right_offsets.first().unwrap() != 0 || *self.right_offsets.last().unwrap() != m {
            return Err("right offsets must span [0, m]".into());
        }
        if self.left_offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("left offsets not monotone".into());
        }
        if self.right_offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("right offsets not monotone".into());
        }
        if self.left_adj.iter().any(|&v| (v as usize) >= nr) {
            return Err("left adjacency out of range".into());
        }
        if self.right_adj.iter().any(|&u| (u as usize) >= nl) {
            return Err("right adjacency out of range".into());
        }
        if self.right_adj.len() != m || self.right_edge_ids.len() != m {
            return Err("right CSR arrays must have length m".into());
        }
        if self.capacities.len() != nr {
            return Err("capacity vector must have length n_right".into());
        }
        if self.capacities.contains(&0) {
            return Err("capacities must be ≥ 1".into());
        }
        // Cross-check: following the right CSR edge id must land on an edge
        // (u, v) whose left-CSR slot stores v.
        let lefts = self.edge_left_endpoints();
        for v in 0..nr as u32 {
            for (&u, &e) in self.right_neighbors(v).iter().zip(self.right_edge_ids(v)) {
                if lefts[e as usize] != u {
                    return Err(format!(
                        "edge {e} left endpoint mismatch at right vertex {v}"
                    ));
                }
                if self.left_adj[e as usize] != v {
                    return Err(format!(
                        "edge {e} right endpoint mismatch at right vertex {v}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// A graph read row by row from the left: what an aggregation that walks
/// the left CSR once needs, without the right index. [`Bipartite`] hands
/// over its rows; [`crate::DeltaGraph`] visits its live rows exactly as
/// [`crate::DeltaGraph::compact`] would lay them out, so per-edge output
/// written in visit order is indexed by the compacted snapshot's edge ids.
pub trait LeftRows {
    /// Number of right vertices.
    fn n_right(&self) -> usize;
    /// Number of edges: the total length of the visited rows.
    fn m(&self) -> usize;
    /// Capacity of every right vertex, indexed by right id.
    fn capacities(&self) -> &[u64];
    /// Visit the row of every left vertex in id order, sorted and
    /// duplicate-free. Edge ids follow visit order.
    fn for_each_left_row(&self, f: impl FnMut(&[RightId]));
}

impl LeftRows for Bipartite {
    fn n_right(&self) -> usize {
        Bipartite::n_right(self)
    }

    fn m(&self) -> usize {
        Bipartite::m(self)
    }

    fn capacities(&self) -> &[u64] {
        &self.capacities
    }

    fn for_each_left_row(&self, mut f: impl FnMut(&[RightId])) {
        for row in self.left_offsets.windows(2) {
            f(&self.left_adj[row[0]..row[1]]);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::BipartiteBuilder;

    #[test]
    fn small_graph_accessors() {
        // L = {0,1,2}, R = {0,1}; edges: (0,0) (0,1) (1,0) (2,1)
        let mut b = BipartiteBuilder::new(3, 2);
        b.add_edge(0, 0);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(2, 1);
        let g = b.build_with_uniform_capacity(2).unwrap();
        assert_eq!(g.n_left(), 3);
        assert_eq!(g.n_right(), 2);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 4);
        assert_eq!(g.left_neighbors(0), &[0, 1]);
        assert_eq!(g.left_neighbors(1), &[0]);
        assert_eq!(g.left_neighbors(2), &[1]);
        assert_eq!(g.right_neighbors(0), &[0, 1]);
        assert_eq!(g.right_neighbors(1), &[0, 2]);
        assert_eq!(g.left_degree(0), 2);
        assert_eq!(g.right_degree(1), 2);
        assert_eq!(g.capacity(0), 2);
        assert_eq!(g.total_capacity(), 4);
        assert_eq!(g.max_degree(), 2);
        g.validate().unwrap();
    }

    #[test]
    fn edge_id_cross_reference() {
        let mut b = BipartiteBuilder::new(4, 3);
        for (u, v) in [(0u32, 0u32), (1, 0), (1, 2), (2, 1), (3, 1), (3, 2)] {
            b.add_edge(u, v);
        }
        let g = b.build_with_uniform_capacity(1).unwrap();
        let lefts = g.edge_left_endpoints();
        let rights = g.edge_right_endpoints();
        for v in 0..g.n_right() as u32 {
            for (&u, &e) in g.right_neighbors(v).iter().zip(g.right_edge_ids(v)) {
                assert_eq!(lefts[e as usize], u);
                assert_eq!(rights[e as usize], v);
            }
        }
        // Every edge id appears exactly once in the right CSR.
        let mut seen = vec![false; g.m()];
        for v in 0..g.n_right() as u32 {
            for &e in g.right_edge_ids(v) {
                assert!(!seen[e as usize]);
                seen[e as usize] = true;
            }
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn edges_iterator_matches_csr() {
        let mut b = BipartiteBuilder::new(3, 3);
        for (u, v) in [(0u32, 1u32), (1, 0), (2, 2), (0, 2)] {
            b.add_edge(u, v);
        }
        let g = b.build_with_uniform_capacity(1).unwrap();
        let collected: Vec<_> = g.edges().collect();
        assert_eq!(collected.len(), g.m());
        for (e, u, v) in collected {
            assert!(g.left_neighbors(u).contains(&v));
            assert_eq!(g.edge_right_endpoints()[e as usize], v);
        }
    }

    #[test]
    fn with_capacities_replaces() {
        let mut b = BipartiteBuilder::new(2, 2);
        b.add_edge(0, 0);
        b.add_edge(1, 1);
        let g = b.build_with_uniform_capacity(1).unwrap();
        let g2 = g.with_capacities(vec![5, 7]);
        assert_eq!(g2.capacity(0), 5);
        assert_eq!(g2.capacity(1), 7);
        assert_eq!(g2.m(), g.m());
    }

    #[test]
    #[should_panic(expected = "capacities must be ≥ 1")]
    fn zero_capacity_rejected() {
        let mut b = BipartiteBuilder::new(1, 1);
        b.add_edge(0, 0);
        let g = b.build_with_uniform_capacity(1).unwrap();
        let _ = g.with_capacities(vec![0]);
    }

    #[test]
    fn empty_graph() {
        let b = BipartiteBuilder::new(0, 0);
        let g = b.build_with_uniform_capacity(1).unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.average_degree(), 0.0);
        g.validate().unwrap();
    }

    #[test]
    fn isolated_vertices() {
        let mut b = BipartiteBuilder::new(5, 4);
        b.add_edge(2, 3);
        let g = b.build_with_uniform_capacity(1).unwrap();
        assert_eq!(g.left_degree(0), 0);
        assert_eq!(g.left_degree(2), 1);
        assert_eq!(g.right_degree(0), 0);
        assert_eq!(g.right_degree(3), 1);
        g.validate().unwrap();
    }
}
